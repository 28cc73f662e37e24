package main

import (
	"fmt"
	"runtime"
	"time"

	"pretium/internal/lp"
	"pretium/internal/sched"
)

const (
	// samResolves is how many warm re-solves of the unchanged τ=0 model a
	// run makes, each from the cold solve's basis.
	samResolves = 40
	// samSteps is the successor-step chain length: τ=1, τ=2.
	samSteps = 2
	// samBuilds is how many times a run builds the model; setup_s is the
	// median.
	samBuilds = 7
)

// samSolve is one timed Built.Solve. It keeps the solver's counters and
// basis but not the schedule, so the benchmark's own memory does not grow
// with the number of solves it makes.
type samSolve struct {
	status     lp.Status
	objective  float64
	iterations int
	refactors  int
	timings    lp.PhaseTimings
	basis      *lp.Basis
	wall       time.Duration
	cpu        time.Duration // process CPU time
	threadCPU  time.Duration // CPU time of the calling thread
	allocs     uint64
	warm       int // solves that used the warm basis (traced solves only)
}

// solveTimed runs one solve. A traced solve also counts its allocations
// and warm starts and records a span.
func solveTimed(b *sched.Built, opts lp.Options, tr *tracer, traced bool, name string, req int64) (samSolve, error) {
	var st lp.SolveStats
	var m0, m1 runtime.MemStats
	if traced {
		opts.Stats = &st
		runtime.ReadMemStats(&m0)
	}
	t0, c0, h0 := time.Now(), cpuTime(), threadCPU()
	res, err := b.Solve(opts)
	h1, c1, t1 := threadCPU(), cpuTime(), time.Now()
	if err != nil {
		return samSolve{}, fmt.Errorf("%s: %w", name, err)
	}
	s := samSolve{
		status: res.Status, objective: res.Objective,
		iterations: res.Iterations, refactors: res.Refactors,
		timings: res.Timings, basis: res.Basis,
		wall: t1.Sub(t0), cpu: c1 - c0, threadCPU: h1 - h0,
	}
	if traced {
		runtime.ReadMemStats(&m1)
		s.allocs = m1.Mallocs - m0.Mallocs
		s.warm = st.WarmStarts
		tr.add(name, 0, req, t0, t1)
	}
	return s, nil
}

func runSAMPaper(cfg runCfg) (*report, error) {
	rep := newReport()
	opts := lp.Options{Presolve: true}

	var builds []float64
	var ins *sched.Instance
	var b *sched.Built
	setup, err := calibratedSetup(samBuilds, func(i int) error {
		ins = samInstance(samSeed)
		t1 := time.Now()
		var err error
		if b, err = ins.Build(); err != nil {
			return fmt.Errorf("sched.Instance.Build: %w", err)
		}
		t2 := time.Now()
		cfg.tr.add("sched.Instance.Build", 0, int64(i), t1, t2)
		builds = append(builds, float64(t2.Sub(t1))/1e6)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	chainStart := time.Now()
	failed := func(s samSolve) {
		rep.attempted++
		if s.status != lp.Optimal {
			rep.failed++
		}
	}

	// Every gated figure is calibrated CPU time (see calib.go): the
	// process's CPU time less the sampler's, or for the re-solves the
	// solving thread's own.
	var cold samSolve
	coldCal := calibrated(func() {
		cold, err = solveTimed(b, opts, cfg.tr, cfg.trace, "sched.Built.Solve(cold)", 0)
	})
	if err != nil {
		return nil, err
	}
	coldCPU := float64(cold.cpu-coldCal.cpu) / 1e6 * coldCal.scale()
	failed(cold)
	rep.check(checkSAMCold(samSeed, cold.status, cold.objective))

	// Re-solves of the unchanged model from the cold basis. A traced run
	// traces every other one, so the two medians give the overhead.
	var resolves, resolvesPlain, resolvesTraced []samSolve
	var resolveMs, resolveScales []float64
	for i := 0; i < samResolves; i++ {
		o := opts
		o.WarmBasis = cold.basis
		traced := cfg.trace && i%2 == 1
		var s samSolve
		cal := calibrated(func() {
			s, err = solveTimed(b, o, cfg.tr, traced, "sched.Built.Solve(resolve)", int64(i))
		})
		if err != nil {
			return nil, err
		}
		failed(s)
		rep.check(checkSAMResolve(s.status, s.objective, cold.objective))
		// Every re-solve starts from the cold basis. With each re-solve's
		// basis kept, going from 20 to 40 re-solves took the median peak
		// RSS from 127 to 173 MB and its spread from 0.066 to 0.106.
		s.basis = nil
		resolves = append(resolves, s)
		resolveMs = append(resolveMs, float64(s.threadCPU)/1e6*cal.scale())
		resolveScales = append(resolveScales, cal.scale())
		if traced {
			resolvesTraced = append(resolvesTraced, s)
		} else {
			resolvesPlain = append(resolvesPlain, s)
		}
	}

	// The successor chain: StartStep advanced by one per step, each model
	// patched in place and warm-started from the last basis the chain
	// produced.
	basis := cold.basis
	var steps []samSolve
	var stepWalls, stepCPU, rebinds, stepScales []float64
	var stepNotes []string
	for tau := 1; tau <= samSteps; tau++ {
		next := *ins
		next.StartStep = tau
		var s samSolve
		var t0, t1 time.Time
		var c0, c1 time.Duration
		cal := calibrated(func() {
			t0, c0 = time.Now(), cpuTime()
			if err = b.Rebind(&next); err != nil {
				err = fmt.Errorf("sched.Built.Rebind(τ=%d): %w", tau, err)
				return
			}
			c1, t1 = cpuTime(), time.Now()
			cfg.tr.add("sched.Built.Rebind", 0, int64(tau), t0, t1)
			o := opts
			o.WarmBasis = basis
			s, err = solveTimed(b, o, cfg.tr, cfg.trace, "sched.Built.Solve(step)", int64(tau))
		})
		if err != nil {
			return nil, err
		}
		failed(s)
		rep.check(checkSAMStep(s.status, s.objective, cold.objective))
		if s.basis != nil {
			basis = s.basis
		}
		steps = append(steps, s)
		rebinds = append(rebinds, float64(t1.Sub(t0))/1e6)
		stepWalls = append(stepWalls, (t1.Sub(t0) + s.wall).Seconds())
		stepCPU = append(stepCPU, float64(c1-c0+s.cpu-cal.cpu)/1e6*cal.scale())
		stepScales = append(stepScales, cal.scale())
		stepNotes = append(stepNotes, fmt.Sprintf("τ=%d:%v/%d pivots", tau, s.status, s.iterations))
	}
	chain := time.Since(chainStart)
	runtime.ReadMemStats(&ms1)

	// Wall times are printed, not gated: on a shared 2-vCPU Xeon VM steal
	// moved the wall time of the same work by up to 35% between runs.
	var resolveWall []float64
	for _, s := range resolves {
		resolveWall = append(resolveWall, float64(s.wall)/1e6)
	}
	rt, rq := tail(resolveMs)
	st, sq := tail(stepCPU)
	rep.e2e["fast_p50_ms"], rep.e2e["fast_tail_ms"] = median(resolveMs), rt
	rep.e2e["slow_p50_ms"], rep.e2e["slow_tail_ms"] = median(stepCPU), st
	rep.e2e["rate_per_s"] = float64(cold.iterations) / (coldCPU / 1e3)
	rep.note("sam_cold_cal_cpu_s", coldCPU/1e3, "s")
	rep.note("sam_resolve_cal_cpu_ms", median(resolveMs), "ms")
	rep.note(tailName("sam_resolve_cal_cpu", rq, len(resolveMs), "ms"), rt, "ms")
	rep.note(tailName("sam_step_cal_cpu", sq, len(stepCPU), "ms"), st, "ms")
	rep.note("setup_s", rep.e2e["setup_s"], "s")
	rep.note("sam_cold_s", cold.wall.Seconds(), "s")
	rep.note("cold_pivots", float64(cold.iterations), "count")
	rep.note("cold_refactors", float64(cold.refactors), "count")
	rep.note("cold_objective", cold.objective, "welfare")
	rep.note("sam_resolve_ms", median(resolveWall), "ms")
	rep.note("sam_step_s", median(stepWalls), "s")
	rep.note("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "frac")
	rep.note("calib_scale_cold", coldCal.scale(), "ratio")
	rep.note("calib_scale_resolve_p50", median(resolveScales), "ratio")
	rep.note("calib_scale_step_p50", median(stepScales), "ratio")
	fmt.Printf("sam-paper steps %v\n", stepNotes)

	if cfg.trace {
		L := rep.layer
		L["sched.build_ms"], L["sched.rebind_ms"] = median(builds), median(rebinds)
		solveLayers(L, "cold", []samSolve{cold})
		solveLayers(L, "resolve", resolvesTraced)
		solveLayers(L, "step", steps)
		warm := 0
		for _, s := range steps {
			warm += s.warm
		}
		L["lp.step.warm_start_frac"] = ratio(float64(warm), float64(len(steps)))
		measured := sum(rebinds) / 1e3
		for _, s := range append(append([]samSolve{cold}, resolves...), steps...) {
			measured += s.wall.Seconds()
		}
		rest := nonNeg(chain.Seconds() - measured)
		L["coverage_frac"] = ratio(measured+rest, chain.Seconds())
		L["derived_frac"] = ratio(rest, chain.Seconds())
		var pw, tw []float64
		for _, s := range resolvesPlain {
			pw = append(pw, s.wall.Seconds())
		}
		for _, s := range resolvesTraced {
			tw = append(tw, s.wall.Seconds())
		}
		L["trace_overhead_frac"] = ratio(median(tw), median(pw)) - 1
		L["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		L["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	}
	return rep, nil
}

// solveLayers sets lp.<kind>.* to the per-solve means over ss: pivots,
// refactorizations, allocations, the solver's own phase timings, and the
// derived remainder of the solve's wall time that no phase accounts for.
func solveLayers(L map[string]float64, kind string, ss []samSolve) {
	if len(ss) == 0 {
		return
	}
	n := float64(len(ss))
	p := "lp." + kind + "."
	for _, s := range ss {
		ph := s.timings
		ftran, btran := float64(ph.FtranNs)/1e6, float64(ph.BtranNs)/1e6
		pricing, refactor := float64(ph.PricingNs)/1e6, float64(ph.RefactorNs)/1e6
		L[p+"iterations"] += float64(s.iterations) / n
		L[p+"refactorizations"] += float64(s.refactors) / n
		L[p+"allocs"] += float64(s.allocs) / n
		L[p+"ftran_ms"] += ftran / n
		L[p+"btran_ms"] += btran / n
		L[p+"pricing_ms"] += pricing / n
		L[p+"refactor_ms"] += refactor / n
		L[p+"unaccounted_ms"] += nonNeg(float64(s.wall)/1e6-ftran-btran-pricing-refactor) / n
	}
}
