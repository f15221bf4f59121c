package main

import "time"

// The host's speed drifts: on a virtual machine that shares its cores and
// caches with other tenants, identical sessions run up to 2.9 times slower
// for minutes at a time. To report timings that a code change moves and
// the neighbours do not, the harness runs a fixed calibration kernel
// between sessions and scales every host time by refKernelTime / the
// kernel's time at that moment: a timing metric reads as the seconds the
// work would take on the reference host. The kernel belongs to the
// benchmark, not to the simulator, so no change to gmp alters its cost.

// refKernelTime is calibrationKernel's median time on the reference host
// (see README.md, Baseline).
const refKernelTime = 36 * time.Millisecond

// kernelRuns is the number of kernel runs in one calibration point; the
// point is their median. The self-test lowers it.
var kernelRuns = 3

var kernelSink int64

// calibrationKernel keeps a binary min-heap of 32768 pseudo-random keys,
// pushing 600000 keys and popping the minimum once the heap is full: the
// compare-and-swap sift that dominates the simulator's event kernel, with
// no allocation, so the garbage collector's state does not affect it.
func calibrationKernel() {
	const size = 1 << 15
	h := make([]int64, 0, size+1)
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 600000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h = append(h, int64(x>>1))
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		if len(h) <= size {
			continue
		}
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for j := 0; ; {
			c := 2*j + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1] < h[c] {
				c++
			}
			if h[j] <= h[c] {
				break
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
	}
	kernelSink += h[0]
}

// calibrate returns the median time of kernelRuns kernel runs.
func calibrate() time.Duration {
	var xs []float64
	for i := 0; i < kernelRuns; i++ {
		start := time.Now()
		calibrationKernel()
		xs = append(xs, time.Since(start).Seconds())
	}
	return time.Duration(median(xs) * 1e9)
}

// hostSpeed is refKernelTime / the mean of two calibration points: above 1
// when the host runs faster than the reference host.
func hostSpeed(a, b time.Duration) float64 {
	return refKernelTime.Seconds() / ((a + b).Seconds() / 2)
}
