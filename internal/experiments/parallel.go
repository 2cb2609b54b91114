package experiments

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"ndpbridge/internal/config"
)

// The experiment layer fans independent simulations across a worker pool.
// Every core.System owns a private sim.Engine and split RNG, so (app,
// design, config) runs are share-nothing; the only coordination is the
// index-addressed result slice, which keeps rendered tables byte-identical
// to a sequential run regardless of completion order.

// jobs is the worker-pool width. Zero means runtime.GOMAXPROCS(0).
var jobs atomic.Int64

// SetJobs sets the number of simulations run concurrently. n <= 0 restores
// the default (one worker per available CPU); n == 1 is fully sequential.
func SetJobs(n int) {
	if n < 0 {
		n = 0
	}
	jobs.Store(int64(n))
}

// Jobs returns the effective worker-pool width.
func Jobs() int {
	if n := int(jobs.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ErrCanceled is returned by the pool once Cancel has been observed. Callers
// (ndpbench) match it to distinguish an interrupt from a worker failure.
var ErrCanceled = errors.New("experiments: canceled")

// canceled is the package-wide cancellation latch, set from a signal handler
// goroutine and polled by the dispatch loop and by in-flight engines.
var canceled atomic.Bool

// Cancel stops the pool: no further simulations are dispatched, and every
// in-flight engine halts at its next progress checkpoint. Safe to call from
// any goroutine (e.g. a Ctrl-C handler); idempotent.
func Cancel() { canceled.Store(true) }

// Canceled reports whether Cancel has been called.
func Canceled() bool { return canceled.Load() }

// parMap runs fn for every index in [0, n) on a pool of Jobs() workers and
// returns the results in index order. On error it returns the error with
// the lowest index (deterministic first-error semantics, matching what a
// sequential loop would report) and cancels the dispatch of any work not
// yet started; in-flight simulations run to completion.
func parMap[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers := Jobs()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if canceled.Load() {
				return nil, ErrCanceled
			}
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next     atomic.Int64       // next index to dispatch
		firstErr atomic.Int64       // lowest index that failed, or n
		errs     = make([]error, n) // error per index (only failures set)
		wg       sync.WaitGroup
	)
	firstErr.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || int64(i) > firstErr.Load() || canceled.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					// Lower the first-error watermark to i.
					for {
						cur := firstErr.Load()
						if int64(i) >= cur || firstErr.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if canceled.Load() {
		// A cancellation masks the (nondeterministic) errors of engines it
		// halted mid-run; report the interrupt itself.
		return nil, ErrCanceled
	}
	if i := firstErr.Load(); i < int64(n) {
		return nil, errs[i]
	}
	return out, nil
}

// ParMap runs fn for every index in [0, n) on the experiment worker pool
// (width Jobs()) and returns the results in index order, with deterministic
// first-error semantics and cancellation via Cancel. It is the parallelism
// primitive shared with other campaign drivers (the chaos engine): results
// are index-addressed, so output built by folding them in order is
// byte-identical at any pool width.
func ParMap[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return parMap(n, fn)
}

// parByApp runs fn once per app on the worker pool and returns a name-keyed
// map of the results. The map is assembled after the barrier on one
// goroutine, so reads never race.
func parByApp[T any](apps []string, fn func(app string) (T, error)) (map[string]T, error) {
	rs, err := parMap(len(apps), func(i int) (T, error) { return fn(apps[i]) })
	if err != nil {
		return nil, err
	}
	m := make(map[string]T, len(apps))
	for i, a := range apps {
		m[a] = rs[i]
	}
	return m, nil
}

// baseMakespans runs design O unmodified once per app — the normalization
// denominator shared by the Fig. 16 sweeps and the transport study.
func baseMakespans(sc Scale, apps []string) (map[string]uint64, error) {
	return parByApp(apps, func(a string) (uint64, error) {
		r, err := runDesign(sc, a, config.DesignO, nil)
		if err != nil {
			return 0, err
		}
		return r.Makespan, nil
	})
}
