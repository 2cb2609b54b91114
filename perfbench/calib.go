package main

import "time"

// The shared VMs this benchmark was tuned on change speed by a quarter or
// more within minutes, and one ten-second run cannot average that away. So
// the timed run measures the machine's speed beside the simulator: before
// every cell it times a kernel the benchmark owns, a dependent multiply
// chain that no change to the simulator can touch. Host times are then
// scaled by (calibReference / median sample)^2. The square is measured: over
// fig10-medium passes on that VM, pass time moved with the kernel's time to
// the power 2.2 (correlation 0.96) through a change of machine speed; see
// README.md. A change to the simulator moves the scaled times exactly as
// much as the raw ones.
const (
	calibSteps = 4_000_000

	// calibReference is about the sample time on the VM the bounds were set
	// on, so scaled times read as seconds on that machine.
	calibReference = 10 * time.Millisecond
)

var calibSink uint64

// calibSample runs the kernel once and returns its duration.
func calibSample() time.Duration {
	t0 := time.Now()
	x := calibSink | 1
	for i := 0; i < calibSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	calibSink = x
	return time.Since(t0)
}

// calibScale is the factor that takes host times measured beside samples
// to the reference machine.
func calibScale(samples []float64) float64 {
	r := calibReference.Seconds() / median(samples)
	return r * r
}
