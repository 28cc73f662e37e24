package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least q of the samples at or below it. xs is
// not modified. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the 0-based nearest-rank index of the q-quantile of n
// sorted samples.
func rankIndex(n int, q float64) int {
	// The epsilon keeps q·n that lands a rounding error above a whole
	// number (0.99·1000) on that number.
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQ is the highest percentile, capped at p99, that leaves at least
// ten samples beyond it among n; below 11 samples no percentile does and
// the tail is the maximum (q = 1).
func tailQ(n int) float64 {
	if n < 11 {
		return 1
	}
	q := float64(n-10) / float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return q
}

// tail returns the tailQ-quantile of xs and the q it used.
func tail(xs []float64) (float64, float64) {
	q := tailQ(len(xs))
	return quantile(xs, q), q
}

// ratio returns num/den, or 0 when den is 0 (a rate over no attempts).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// nonNeg clamps a derived residual at zero: an inner measurement that
// exceeds its outer one leaves no time to attribute.
func nonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// durs converts durations to float64 values in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// medianSetup runs build n times on the calling goroutine, locked to its
// OS thread, and returns the median of their thread CPU times in seconds:
// a run's setup_s. A construction that starts goroutines is charged only
// for the work it does itself.
func medianSetup(n int, build func(i int) error) (float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		c0 := threadCPU()
		if err := build(i); err != nil {
			return 0, err
		}
		times = append(times, (threadCPU() - c0).Seconds())
	}
	return median(times), nil
}

// cpuTime is the process's user+system CPU time so far. It excludes time
// the hypervisor stole from the VM, which wall-clock time includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling OS thread's CPU time; callers lock their
// goroutine to the thread around the interval they measure.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, _ = syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for this clock
	return time.Duration(ts.Nano())
}
