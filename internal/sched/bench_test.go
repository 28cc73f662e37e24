package sched

import (
	"math"
	"math/rand"
	"testing"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/lp"
)

// benchScale sizes a synthetic SAM instance. The three scales roughly track
// the experiment harness's Small/Default(Medium)/Paper setups: a small WAN
// with a short horizon, a mid WAN with a day-at-coarse-resolution horizon,
// and a larger WAN with a longer horizon.
type benchScale struct {
	name     string
	regions  int
	perReg   int
	horizon  int
	nDemands int
	// paper selects the fixed 106-node / 226-edge graph.PaperWAN topology
	// with the paper's T=288 (5-minute steps over a day) instead of the
	// parameterized generator. Paper-scale instances are solved only via
	// the implicit-bounds + presolve path; the explicit-row model (~65k
	// capacity rows) is far outside the per-step SAM budget.
	paper bool
}

var benchScales = []benchScale{
	{name: "Small", regions: 2, perReg: 3, horizon: 12, nDemands: 12},
	{name: "Medium", regions: 3, perReg: 4, horizon: 36, nDemands: 28},
	{name: "Large", regions: 4, perReg: 4, horizon: 48, nDemands: 36},
	{name: "Paper", horizon: 288, nDemands: 400, paper: true},
}

// benchInstance builds a deterministic SAM-shaped scheduling instance:
// randomized inter-region demands with k-shortest-path route sets over a
// generated WAN, plus percentile cost-proxy rows — the LP shape the SAM
// re-solves every timestep.
func benchInstance(sc benchScale, seed int64) *Instance {
	var net *graph.Network
	if sc.paper {
		net = graph.PaperWAN(seed)
	} else {
		cfg := graph.DefaultWANConfig()
		cfg.Regions = sc.regions
		cfg.NodesPerRegion = sc.perReg
		cfg.Seed = seed
		net = graph.GenerateWAN(cfg)
	}

	r := rand.New(rand.NewSource(seed + 1))
	nn := net.NumNodes()
	demands := make([]Demand, 0, sc.nDemands)
	for len(demands) < sc.nDemands {
		src := graph.NodeID(r.Intn(nn))
		dst := graph.NodeID(r.Intn(nn))
		if src == dst {
			continue
		}
		routes := net.KShortestPaths(src, dst, 2)
		if len(routes) == 0 {
			continue
		}
		start := r.Intn(sc.horizon / 2)
		end := start + 2 + r.Intn(sc.horizon-start-2)
		if sc.paper {
			// Deadline-driven windows: transfers must land within 30min–3h
			// of submission (the paper's SLO-class deadlines), not "any time
			// today". Tight windows are also what keeps the LP's
			// alternate-optimum plateau small enough to traverse.
			start = r.Intn(sc.horizon - 8)
			end = start + 6 + r.Intn(30)
			if end > sc.horizon {
				end = sc.horizon
			}
		}
		d := Demand{
			ID:           len(demands),
			Routes:       routes,
			Start:        start,
			End:          end,
			MaxBytes:     (20 + r.Float64()*120) * float64(sc.horizon) / 12,
			ValuePerByte: 0.5 + r.Float64()*2.5,
		}
		if sc.paper {
			// Production-shaped sizes: most transfers are small next to
			// link capacity (their capacity rows presolve away), with a
			// tail of deadline-constrained elephants that keep a congested
			// core binding.
			if r.Float64() < 0.02 {
				d.MaxBytes = 50 + r.Float64()*100
				if e := start + 12 + r.Intn(24); e < end {
					d.End = e
				}
			} else {
				d.MaxBytes = 1 + r.Float64()*4
			}
			if r.Float64() < 0.1 {
				d.MinBytes = d.MaxBytes * 0.2
			}
		} else if r.Float64() < 0.3 {
			d.MinBytes = d.MaxBytes * 0.2
		}
		demands = append(demands, d)
	}

	capm := make([][]float64, net.NumEdges())
	for _, e := range net.Edges() {
		capm[e.ID] = make([]float64, sc.horizon)
		for t := range capm[e.ID] {
			capm[e.ID][t] = e.Capacity * 0.8
		}
	}
	ccfg := cost.DefaultConfig(sc.horizon)
	if sc.paper {
		// Hourly charging windows at 5-minute resolution: k = 1 per
		// window, so the percentile proxy uses the cheap max-form rows
		// instead of a sorting network per window.
		ccfg.WindowLen = 12
	}
	return &Instance{
		Net:            net,
		Horizon:        sc.horizon,
		Capacity:       capm,
		Demands:        demands,
		Cost:           ccfg,
		UseCostProxy:   true,
		ImplicitBounds: sc.paper,
	}
}

// reportPhases publishes the last solve's per-phase wall-clock breakdown as
// bench metrics, so BENCH_solver.json localizes a ns/op regression to the
// solver phase that moved (pricing scan, FTRAN, BTRAN, or refactorization).
func reportPhases(b *testing.B, p lp.PhaseTimings) {
	b.ReportMetric(float64(p.PricingNs), "pricing_ns")
	b.ReportMetric(float64(p.FtranNs), "ftran_ns")
	b.ReportMetric(float64(p.BtranNs), "btran_ns")
	b.ReportMetric(float64(p.RefactorNs), "refactor_ns")
}

// BenchmarkSAMSolve measures Instance.Solve (model build + LP solve, the
// per-timestep SAM cost) across scales on the sparse LU kernel.
func BenchmarkSAMSolve(b *testing.B) {
	for _, sc := range benchScales {
		ins := benchInstance(sc, 42)
		b.Run(sc.name+"/sparse", func(b *testing.B) {
			iters, refactors := 0, 0
			var phase lp.PhaseTimings
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ins.Solve(lp.Options{Presolve: sc.paper})
				if err != nil {
					b.Fatalf("Solve: %v", err)
				}
				if res.Status != lp.Optimal {
					b.Fatalf("status %v", res.Status)
				}
				iters = res.Iterations
				refactors = res.Refactors
				phase = res.Timings
			}
			b.ReportMetric(float64(iters), "pivots")
			b.ReportMetric(float64(refactors), "refactors")
			reportPhases(b, phase)
		})
		if sc.paper {
			// The telemetry-overhead sub-bench exists to bound the
			// Stats hook's cost, which the smaller scales already measure;
			// repeating a ~20s Paper cold solve for it buys nothing.
			continue
		}
		b.Run(sc.name+"/sparse-obs", func(b *testing.B) {
			// Solver telemetry enabled (lp.Options.Stats): the
			// acceptance bar is <5% over the plain sparse solve.
			var stats lp.SolveStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ins.Solve(lp.Options{Stats: &stats})
				if err != nil {
					b.Fatalf("Solve: %v", err)
				}
				if res.Status != lp.Optimal {
					b.Fatalf("status %v", res.Status)
				}
			}
			if stats.Solves != b.N {
				b.Fatalf("stats recorded %d solves, want %d", stats.Solves, b.N)
			}
		})
	}
}

// BenchmarkSAMResolveWarm measures the warm-started re-solve path: the
// steady-state SAM loop cost, where each timestep's LP starts from the
// previous optimal basis. Each scale's model is built and cold-solved once,
// on the first round; later b.N rounds reuse it rather than repeating the
// (at Paper scale ~25 s) cold solve.
func BenchmarkSAMResolveWarm(b *testing.B) {
	for _, sc := range benchScales {
		if sc.name == "Large" {
			continue // the cold benches cover it; warm adds nothing new there
		}
		opts := lp.Options{Presolve: sc.paper}
		var built *Built
		var coldBasis *lp.Basis
		b.Run(sc.name+"/sparse", func(b *testing.B) {
			if built == nil {
				var err error
				if built, err = benchInstance(sc, 42).Build(); err != nil {
					b.Fatalf("Build: %v", err)
				}
				cold, err := built.Solve(opts)
				if err != nil || cold.Status != lp.Optimal {
					b.Fatalf("cold solve: %v %v", err, cold.Status)
				}
				coldBasis = cold.Basis
			}
			basis := coldBasis
			iters, refactors := 0, 0
			var phase lp.PhaseTimings
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := opts
				o.WarmBasis = basis
				res, err := built.Solve(o)
				if err != nil {
					b.Fatalf("warm solve: %v", err)
				}
				if res.Status != lp.Optimal {
					b.Fatalf("warm status %v", res.Status)
				}
				basis = res.Basis
				iters = res.Iterations
				refactors = res.Refactors
				phase = res.Timings
			}
			b.ReportMetric(float64(iters), "pivots")
			b.ReportMetric(float64(refactors), "refactors")
			reportPhases(b, phase)
		})
	}
}

// realize is the instance the SAM loop hands the retained model after
// executing step tau of plan: the bytes plan scheduled at tau are
// delivered — taken off each demand's MaxBytes and MinBytes and charged to
// FixedUsage — and StartStep moves past tau.
func realize(ins *Instance, plan *Result, tau int) *Instance {
	next := *ins
	next.StartStep = tau + 1
	next.Demands = append([]Demand(nil), ins.Demands...)
	for _, a := range plan.Allocs {
		if a.Time != tau {
			continue
		}
		d := &next.Demands[a.DemandIdx]
		d.MaxBytes = math.Max(0, d.MaxBytes-a.Bytes)
		if d.MinBytes -= a.Bytes; d.MinBytes < 1e-9 {
			d.MinBytes = 0
		}
	}
	next.FixedUsage = make([][]float64, len(plan.EdgeUsage))
	for e, u := range plan.EdgeUsage {
		next.FixedUsage[e] = make([]float64, ins.Horizon)
		if ins.FixedUsage != nil {
			copy(next.FixedUsage[e], ins.FixedUsage[e])
		}
		next.FixedUsage[e][tau] += u[tau]
	}
	return &next
}

// BenchmarkSAMStepWarm measures one SAM successor step on the retained
// model — the per-timestep cost of the paper-scale SAM loop: the previous
// plan's step τ is executed (realize), Built.Rebind re-targets the model
// at StartStep τ+1, and the presolved solve warm-starts from the previous
// step's basis. The τ=0 cold solve runs once, outside the timer. A chain
// restarts from a fresh build, warm-started from that cold basis, when it
// reaches half the horizon or a step fails; failed steps count in the
// timing and in failed_steps.
//
// Per-step means: pivots and refactors (over the optimal steps),
// warm_starts (1 = every step started warm) and failed_steps (steps that
// did not end optimal).
func BenchmarkSAMStepWarm(b *testing.B) {
	for _, sc := range benchScales {
		if sc.name != "Medium" && !sc.paper {
			continue
		}
		var coldBasis *lp.Basis
		b.Run(sc.name, func(b *testing.B) {
			base := benchInstance(sc, 42)
			base.ImplicitBounds = true
			opts := lp.Options{Presolve: true}
			var built *Built
			var ins *Instance
			var plan *Result
			seed := func() {
				var err error
				if built, err = base.Build(); err != nil {
					b.Fatalf("Build: %v", err)
				}
				o := opts
				o.WarmBasis = coldBasis
				if plan, err = built.Solve(o); err != nil || plan.Status != lp.Optimal {
					b.Fatalf("τ=0 solve: %v %v", err, plan.Status)
				}
				coldBasis, ins = plan.Basis, base
			}
			seed()
			var stats lp.SolveStats
			optimal, pivots, refactors := 0, 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ins.StartStep == sc.horizon/2 || plan.Status != lp.Optimal {
					b.StopTimer()
					seed()
					b.StartTimer()
				}
				ins = realize(ins, plan, ins.StartStep)
				if err := built.Rebind(ins); err != nil {
					b.Fatalf("Rebind(τ=%d): %v", ins.StartStep, err)
				}
				o := opts
				o.WarmBasis, o.Stats = plan.Basis, &stats
				var err error
				if plan, err = built.Solve(o); err != nil {
					b.Fatalf("τ=%d step solve: %v", ins.StartStep, err)
				}
				if plan.Status == lp.Optimal {
					optimal++
					pivots += plan.Iterations
					refactors += plan.Refactors
				}
			}
			n := float64(b.N)
			b.ReportMetric(float64(pivots)/math.Max(1, float64(optimal)), "pivots")
			b.ReportMetric(float64(refactors)/math.Max(1, float64(optimal)), "refactors")
			b.ReportMetric(float64(stats.WarmStarts)/n, "warm_starts")
			b.ReportMetric(float64(b.N-optimal)/n, "failed_steps")
		})
	}
}
