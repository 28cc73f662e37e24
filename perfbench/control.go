package main

import (
	"fmt"
	"runtime"
	"time"

	"pretium/internal/core"
	"pretium/internal/obs"
	"pretium/internal/sim"
)

// minCycles is the fewest control cycles a run measures, whatever
// --seconds says, so every median has at least three samples.
const minCycles = 3

// cycleOut is what one Controller.Run produced and cost.
type cycleOut struct {
	wall    time.Duration
	cpu     time.Duration // calibrated process CPU time of Run (calib.go)
	timings core.Timings
	rec     *obs.Recorder // nil for untraced cycles
	gcPause uint64
	gcNum   uint32
	// admitted and degraded are the cycle's admitted requests and
	// degraded SAM steps.
	admitted, degraded int
}

func runControlCycle(cfg runCfg) (*report, error) {
	rep := newReport()
	s := controlSetup(controlSeed)
	base := s.PretiumConfig()

	// setup_s: the program's constructor, built setupRepeats times; every
	// cycle below builds its own controller too, since Run consumes it.
	setup, err := calibratedSetup(setupRepeats, func(int) error {
		_, err := core.New(s.Net, s.Requests, base)
		return err
	})
	if err != nil {
		return nil, err
	}

	var plain, traced []cycleOut
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < minCycles || time.Now().Before(deadline); i++ {
		c := base
		// A traced run alternates untraced and traced cycles, so the two
		// medians give the tracing overhead.
		var rec *obs.Recorder
		if cfg.trace && i%2 == 1 {
			rec = obs.NewRecorder(nil)
			c.Obs = rec
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		ctl, err := core.New(s.Net, s.Requests, c)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		var out *sim.Outcome
		var c0, c1 time.Duration
		var t2 time.Time
		cal := calibrated(func() {
			c0 = cpuTime()
			out, err = ctl.Run()
			t2, c1 = time.Now(), cpuTime()
		})
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		cfg.tr.add("core.New", 0, int64(i), t0, t1)
		cfg.tr.add("core.Controller.Run", 0, int64(i), t1, t2)

		co := cycleOut{wall: t2.Sub(t1), cpu: time.Duration(float64(c1-c0-cal.cpu) * cal.scale()), timings: ctl.Timings, rec: rec,
			gcPause: ms1.PauseTotalNs - ms0.PauseTotalNs, gcNum: ms1.NumGC - ms0.NumGC,
			degraded: degradedSAMSteps(ctl.Health)}
		for _, a := range ctl.Admitted {
			if a {
				co.admitted++
			}
		}
		ev, err := sim.Evaluate(s.Net, s.Requests, out, s.Cost)
		if err != nil {
			return nil, err
		}
		rep.check(checkControl(controlSeed, controlRef{Welfare: ev.Welfare, Profit: ev.Profit, Admitted: co.admitted}))
		if i == 0 {
			rep.note("welfare", ev.Welfare, "currency")
			rep.note("profit", ev.Profit, "currency")
			rep.note("admitted", float64(co.admitted), "count")
		}
		rep.attempted += base.Horizon
		rep.failed += co.degraded
		if rec != nil {
			traced = append(traced, co)
		} else {
			plain = append(plain, co)
		}
	}

	rep.e2e["setup_s"] = setup
	var walls, cpus, perReq, perStep, ra, sam []float64
	for _, co := range plain {
		walls = append(walls, co.wall.Seconds())
		cpus = append(cpus, co.cpu.Seconds())
		perReq = append(perReq, float64(co.cpu)/1e6/float64(len(s.Requests)))
		perStep = append(perStep, float64(co.cpu)/1e6/float64(base.Horizon))
		ra = append(ra, durs(co.timings.RA, time.Millisecond)...)
		sam = append(sam, durs(co.timings.SAM, time.Millisecond)...)
	}
	// The gated figures are the cycle's calibrated CPU time, per request,
	// per step and as a rate. The controller's own per-arrival and per-step Timings
	// are wall time; on a shared 2-vCPU Xeon VM steal moved their medians
	// by up to 20% and cycle_s by up to 35% between runs. They are
	// printed, and reported per layer.
	cycle, cycleCPU := median(walls), median(cpus)
	rep.e2e["fast_p50_ms"], rep.e2e["fast_tail_ms"] = median(perReq), quantile(perReq, 1)
	rep.e2e["slow_p50_ms"], rep.e2e["slow_tail_ms"] = median(perStep), quantile(perStep, 1)
	rep.e2e["rate_per_s"] = float64(len(s.Requests)) / cycleCPU
	raT, raQ := tail(ra)
	samT, samQ := tail(sam)
	rep.note("setup_s", rep.e2e["setup_s"], "s")
	rep.note("cycle_s", cycle, "s")
	rep.note("cycle_cal_cpu_s", cycleCPU, "s")
	rep.note("requests", float64(len(s.Requests)), "count")
	rep.note("ra_p50_ms", median(ra), "ms")
	rep.note(tailName("ra", raQ, len(ra), "ms"), raT, "ms")
	rep.note("sam_step_p50_ms", median(sam), "ms")
	rep.note(tailName("sam_step", samQ, len(sam), "ms"), samT, "ms")
	rep.note("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "frac")

	if cfg.trace {
		controlLayers(rep, plain, traced, len(s.Requests))
	}
	return rep, nil
}

// tailName labels a tail percentile with the percentile it is and the
// sample count it came from.
func tailName(prefix string, q float64, n int, unit string) string {
	return fmt.Sprintf("%s_p%.4g_%s(n=%d)", prefix, q*100, unit, n)
}

// degradedSAMSteps counts the steps at which SAM settled below a clean
// warm solve.
func degradedSAMSteps(h *core.Health) int {
	steps := map[int]bool{}
	for _, e := range h.EventsAt(core.ModuleSAM) {
		steps[e.Step] = true
	}
	return len(steps)
}

// controlLayers fills the per-layer metrics from the traced cycles: the
// module timings the controller exports and the sam.lp.* / pc.lp.*
// counters it publishes to its recorder.
func controlLayers(rep *report, plain, traced []cycleOut, nReq int) {
	L := rep.layer
	n := float64(len(traced))
	var wall, raMs, samMs, pcMs, gcPause, gcNum float64
	var samSteps, pcWins []float64
	for _, co := range traced {
		wall += co.wall.Seconds() * 1e3 / n
		raMs += sum(durs(co.timings.RA, time.Millisecond)) / n
		samMs += sum(durs(co.timings.SAM, time.Millisecond)) / n
		pcMs += sum(durs(co.timings.PC, time.Millisecond)) / n
		samSteps = append(samSteps, durs(co.timings.SAM, time.Millisecond)...)
		pcWins = append(pcWins, durs(co.timings.PC, time.Millisecond)...)
		gcPause += float64(co.gcPause) / 1e6 / n
		gcNum += float64(co.gcNum) / n
	}
	rest := nonNeg(wall - raMs - samMs - pcMs)
	L["core.ra_ms"], L["core.sam_ms"], L["core.pc_ms"], L["core.rest_ms"] = raMs, samMs, pcMs, rest
	L["core.sam_step_p50_ms"], L["core.pc_window_p50_ms"] = median(samSteps), median(pcWins)
	L["runtime.gc_pause_ms"], L["runtime.gc_cycles"] = gcPause, gcNum
	L["coverage_frac"] = ratio(raMs+samMs+pcMs+rest, wall)
	L["derived_frac"] = ratio(rest, wall)
	var pw, tw []float64
	for _, co := range plain {
		pw = append(pw, co.wall.Seconds())
	}
	for _, co := range traced {
		tw = append(tw, co.wall.Seconds())
	}
	L["trace_overhead_frac"] = ratio(median(tw), median(pw)) - 1

	m := traced[len(traced)-1].rec.Metrics()
	for _, mod := range []struct{ prefix, key string }{{"sam.lp", "sam"}, {"pc.lp", "pc"}} {
		c := func(name string) float64 { return float64(m.Counter(mod.prefix + "." + name).Value()) }
		p := "lp." + mod.key + "."
		L[p+"iterations"] = c("iterations")
		L[p+"refactorizations"] = c("refactorizations")
		L[p+"warm_start_frac"] = ratio(c("warm_starts"), c("solves"))
		phases := 0.0
		for _, ph := range []string{"ftran", "btran", "pricing", "refactor"} {
			v := c(ph+"_ns") / 1e6
			L[p+ph+"_ms"] = v
			phases += v
		}
		// The last traced cycle's module time against its own counters.
		last := traced[len(traced)-1].timings
		mt := sum(durs(last.SAM, time.Millisecond))
		if mod.key == "pc" {
			mt = sum(durs(last.PC, time.Millisecond))
		}
		L[p+"unaccounted_ms"] = nonNeg(mt - phases)
	}
	var admitted, degraded float64
	for _, co := range traced {
		admitted += float64(co.admitted) / n
		degraded += float64(co.degraded) / n
	}
	L["core.ra_admit_frac"] = ratio(admitted, float64(nReq))
	L["core.sam_degraded"] = degraded
}
