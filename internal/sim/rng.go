package sim

// RNG is a small, fast, deterministic random number generator
// (xorshift64star). The simulator cannot use math/rand's global state:
// experiment runs must be reproducible bit-for-bit given a seed, independent
// of anything else executing in the process.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped so the state
// never sticks at zero).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). n must be positive.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of the first n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Split derives an independent generator; useful for giving each component
// its own stream while keeping global determinism.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}

// State returns the generator's position in its stream. Together with
// SetState it is the RNG's serialization boundary: a restored generator
// continues the exact sequence the snapshotted one would have produced.
func (r *RNG) State() uint64 { return r.state }

// SetState repositions the generator. A zero state is remapped like a zero
// seed so the stream can never stick at zero.
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	r.state = s
}
