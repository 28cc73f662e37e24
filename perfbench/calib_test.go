package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func TestCalibrationScale(t *testing.T) {
	c := calibration{passes: []float64{1, 3}}
	if got, want := c.scale(), calibRefMs/2; got != want {
		t.Errorf("scale of passes 1 and 3 ms = %v, want %v", got, want)
	}
	// A host half as fast doubles every pass and halves the scale, so
	// the same work's calibrated time stays put.
	slow := calibration{passes: []float64{2, 6}}
	if got, want := 100*slow.scale(), 50*c.scale(); got != want {
		t.Errorf("200 ms at half speed calibrates to %v, want %v as at full speed", got, want)
	}
}

func TestCalibrationScaleWeightsWork(t *testing.T) {
	// 3 s of work before a 1-ms pass, 1 s before a 4-ms one, none after:
	// three quarters of the work ran at the fast speed.
	c := calibration{passes: []float64{1, 4}, work: []time.Duration{3 * time.Second, time.Second, 0}}
	if got, want := c.scale(), calibRefMs*(3.0/1+1.0/4)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("scale = %v, want %v", got, want)
	}
}

func TestCalibratedRegion(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before, ok := affinity()
	if !ok {
		t.Skip("the kernel refuses CPU affinity calls here")
	}

	ran := false
	var used time.Duration
	c := calibrated(func() {
		ran = true
		c0 := threadCPU()
		for threadCPU()-c0 < 5*calibPeriod {
		}
		used = threadCPU() - c0
	})
	if !ran {
		t.Fatal("calibrated did not run its function")
	}
	if len(c.passes) < calibMinPasses {
		t.Errorf("%d passes, want at least %d", len(c.passes), calibMinPasses)
	}
	for _, p := range c.passes {
		if p <= 0 {
			t.Errorf("pass time %v ms, want > 0", p)
		}
	}
	// The sampler reads this thread's CPU clock: the work it saw is the
	// busy loop, give or take the region's own bookkeeping.
	var work time.Duration
	for _, d := range c.work {
		work += d
	}
	if work < used || work > used+20*time.Millisecond {
		t.Errorf("work between passes %v, want the region's %v", work, used)
	}
	if c.scale() <= 0 {
		t.Errorf("scale %v, want > 0", c.scale())
	}
	// calibrated locks the thread again and restores its mask before
	// unlocking; this goroutine is still on the same thread.
	if after, _ := affinity(); after != before {
		t.Errorf("affinity after the region %v, want it restored to %v", after, before)
	}
}
