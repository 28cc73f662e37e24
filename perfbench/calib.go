package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// On a shared VM the same deterministic work takes a varying amount of
// CPU time: other tenants contend for the host's cores and caches, so the
// vCPU retires fewer instructions per second. One warm re-solve of the
// paper-scale SAM model (209 pivots every time) took 117–306 ms of
// thread CPU within a single run, and over five or six runs of a
// workload the spread (IQR/median) of plain CPU time reached 0.30 for a
// control cycle, 0.14 for the cold solve, 0.13 for the median re-solve,
// 0.17 for a successor step and 0.05 for the in-process quote. No
// statistic over the program's own times removes that: the slowdown
// lasts seconds to minutes.
//
// So every gated time is measured against a yardstick. While the
// program runs on a thread pinned to one CPU, a sampler thread pinned to
// the same CPU wakes every calibPeriod, reads the program thread's CPU
// clock and times one pass of a fixed benchmark-owned kernel: a sparse
// matrix-vector product and a sort, within a core's private cache. The
// program's CPU time is then scaled by calibRefMs / (pass time), each
// pass standing for the program's work since the previous one, i.e.
// reported as if every pass had taken calibRefMs. In the same runs the
// calibrated spreads were 0.08, 0.04, 0.05, 0.05 and 0.02 (each
// re-solve is its own region). A kernel gathering over 32 MiB in the
// shared last-level cache tracked the solver as well but not the quote
// (0.05). The scaling changes no program input and cannot hide a change
// in the program: a program that does twice the work takes twice as many
// yardstick passes' worth of time.

const (
	// calibPeriod is how often the sampler times one yardstick pass.
	calibPeriod = 40 * time.Millisecond
	// calibRefMs is the yardstick pass time every calibrated figure is
	// scaled to: a round figure near a pass's CPU time on the 2-vCPU
	// Intel Xeon VM the benchmark was written on (1.7–2.0 ms there). It
	// only sets the unit.
	calibRefMs = 2.0
	// calibMinPasses is the fewest passes a calibrated region is scaled
	// by; a region too short to collect them runs the rest afterwards.
	calibMinPasses = 5
)

// yardstick is the calibration kernel: a sparse matrix in compressed
// rows and keys to sort, small enough for a core's private cache. Every
// pass reads the same vector: a product fed back into its input would
// shrink towards subnormal numbers, on which the CPU is many times
// slower.
type yardstick struct {
	rowPtr, col  []int32
	val          []float64
	x, y         []float64
	keys, sorted []float64
	// sink keeps the compiler from dropping the passes.
	sink float64
}

var (
	ysOnce sync.Once
	ys     *yardstick
)

// theYardstick builds the kernel once per process, from a fixed seed:
// it is the unit of measure, not an input, so --seed does not change it.
func theYardstick() *yardstick {
	ysOnce.Do(func() {
		const n, perRow, nKeys = 16000, 8, 10000
		r := rand.New(rand.NewSource(9))
		y := &yardstick{
			rowPtr: make([]int32, n+1), col: make([]int32, n*perRow), val: make([]float64, n*perRow),
			x: make([]float64, n), y: make([]float64, n),
			keys: make([]float64, nKeys), sorted: make([]float64, nKeys),
		}
		for i := 0; i < n; i++ {
			y.rowPtr[i+1] = int32((i + 1) * perRow)
			for p := i * perRow; p < (i+1)*perRow; p++ {
				y.col[p] = int32(r.Intn(n))
				y.val[p] = r.Float64()
			}
			y.x[i] = r.Float64()
		}
		for i := range y.keys {
			y.keys[i] = r.Float64()
		}
		ys = y
	})
	return ys
}

// pass runs one yardstick pass.
func (y *yardstick) pass() {
	for i := 0; i+1 < len(y.rowPtr); i++ {
		a := 0.0
		for p := y.rowPtr[i]; p < y.rowPtr[i+1]; p++ {
			a += y.val[p] * y.x[y.col[p]]
		}
		y.y[i] = a
	}
	copy(y.sorted, y.keys)
	sort.Float64s(y.sorted)
	y.sink += y.sorted[len(y.sorted)/2] + y.y[0]
}

// calibration is what the sampler measured during one region.
type calibration struct {
	passes []float64     // CPU time of each yardstick pass, ms
	cpu    time.Duration // the sampler thread's whole CPU time
	// work[i] is the CPU time the region's thread spent since the
	// previous pass (or the region's start) when pass i began; the last
	// entry past the passes is the time after the last one. Passes run
	// after the region to reach calibMinPasses have no work.
	work []time.Duration
}

// scale is the factor that turns CPU time measured during the region
// into calibrated time: calibRefMs over the pass time, each pass standing
// for the work done just before it, so a slowdown in part of a long
// region scales that part. A region with no work between passes takes
// the plain mean.
func (c calibration) scale() float64 {
	var w, wk float64
	for i, d := range c.work {
		p := c.passes[min(i, len(c.passes)-1)]
		w += d.Seconds()
		wk += d.Seconds() / p
	}
	if w == 0 {
		return ratio(calibRefMs, sum(c.passes)/float64(len(c.passes)))
	}
	return calibRefMs * wk / w
}

// calibrated runs f on the calling goroutine, locked to its OS thread and
// pinned to one CPU, while a sampler thread pinned to the same CPU times
// a yardstick pass every calibPeriod and reads how much CPU time f's
// thread used in between. The sampler preempts f for each pass, so CPU
// time f's own thread measures excludes the passes; a caller measuring
// process CPU subtracts calibration.cpu. Pinning is best effort: where
// the kernel refuses it, both threads float and the scale tracks the
// host less closely.
func calibrated(f func()) calibration {
	y := theYardstick()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	prev, pinned := pinToOneCPU()
	if pinned {
		defer setAffinity(prev)
	}
	clock := threadCPUClock(syscall.Gettid())
	stop := make(chan struct{})
	done := make(chan calibration)
	start := threadCPU()
	go func() {
		// Locked and never unlocked: the pinned thread ends with the
		// goroutine instead of returning to the runtime's pool.
		runtime.LockOSThread()
		if pinned {
			_, _ = pinToOneCPU() // the same CPU: the lowest in the mask the caller now has
		}
		var c calibration
		c0, last := threadCPU(), start
		tick := time.NewTicker(calibPeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				c.cpu = threadCPU() - c0
				done <- c
				return
			case <-tick.C:
			}
			now := readClock(clock)
			c.work = append(c.work, now-last)
			last = now
			p0 := threadCPU()
			y.pass()
			c.passes = append(c.passes, float64(threadCPU()-p0)/1e6)
		}
	}()
	f()
	end := threadCPU()
	close(stop)
	c := <-done
	last := start
	for _, d := range c.work {
		last += d
	}
	c.work = append(c.work, end-last)
	for len(c.passes) < calibMinPasses {
		p0 := threadCPU()
		y.pass()
		c.passes = append(c.passes, float64(threadCPU()-p0)/1e6)
	}
	return c
}

// threadCPUClock is the clock id of thread tid's CPU-time clock, as
// Linux encodes it (CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED on ^tid).
func threadCPUClock(tid int) int32 { return int32(^tid)<<3 | 6 }

func readClock(clock int32) time.Duration {
	var ts syscall.Timespec
	_, _, _ = syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0) // a live thread's clock cannot fail
	return time.Duration(ts.Nano())
}

// calibratedSetup is medianSetup in a calibrated region: a run's
// setup_s, in calibrated seconds.
func calibratedSetup(n int, build func(i int) error) (float64, error) {
	var setup float64
	var err error
	c := calibrated(func() { setup, err = medianSetup(n, build) })
	return setup * c.scale(), err
}

// cpuMask is a scheduler affinity mask.
type cpuMask [16]uint64

// pinToOneCPU restricts the calling thread to the lowest CPU it may run
// on and returns the mask it had. It reports false when the kernel
// refuses either call.
func pinToOneCPU() (cpuMask, bool) {
	m, ok := affinity()
	if !ok {
		return m, false
	}
	for i, w := range m {
		if w != 0 {
			var one cpuMask
			one[i] = w & -w
			return m, setAffinity(one)
		}
	}
	return m, false
}

// affinity returns the calling thread's affinity mask.
func affinity() (cpuMask, bool) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m, e == 0
}

func setAffinity(m cpuMask) bool {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return e == 0
}
