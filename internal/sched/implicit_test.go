package sched

import (
	"math"
	"testing"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/lp"
)

// cloneInstance deep-copies the instance data that solving or rebinding may
// read, so tests can perturb successors without aliasing the original.
func cloneInstance(ins *Instance) *Instance {
	cp := *ins
	cp.Capacity = make([][]float64, len(ins.Capacity))
	for e := range ins.Capacity {
		cp.Capacity[e] = append([]float64(nil), ins.Capacity[e]...)
	}
	if ins.FixedUsage != nil {
		cp.FixedUsage = make([][]float64, len(ins.FixedUsage))
		for e := range ins.FixedUsage {
			cp.FixedUsage[e] = append([]float64(nil), ins.FixedUsage[e]...)
		}
	}
	cp.Demands = append([]Demand(nil), ins.Demands...)
	return &cp
}

// checkFeasible verifies a result against the instance's hard constraints:
// capacity, demand caps, and (unless relaxed) guarantees.
func checkFeasible(t *testing.T, ins *Instance, res *Result, guarantees bool) {
	t.Helper()
	const tol = 1e-6
	for e := range res.EdgeUsage {
		for tt, u := range res.EdgeUsage[e] {
			if u > ins.Capacity[e][tt]+tol {
				t.Errorf("edge %d t=%d usage %v exceeds capacity %v", e, tt, u, ins.Capacity[e][tt])
			}
		}
	}
	for di, d := range ins.Demands {
		if res.Delivered[di] > d.MaxBytes+tol {
			t.Errorf("demand %d delivered %v exceeds cap %v", di, res.Delivered[di], d.MaxBytes)
		}
		if guarantees && res.Delivered[di] < d.MinBytes-tol {
			t.Errorf("demand %d delivered %v below guarantee %v", di, res.Delivered[di], d.MinBytes)
		}
	}
}

// TestImplicitBoundsDifferential solves the bench instances four ways —
// explicit rows vs implicit bounds, each with and without lp presolve — and
// demands identical status and objective plus a feasible allocation from
// every path. The implicit build is a different (smaller) formulation of
// the same polytope, so vertices may differ under degeneracy; the optimum
// value may not.
func TestImplicitBoundsDifferential(t *testing.T) {
	for _, sc := range benchScales[:2] { // Small, Medium
		for _, wantPrices := range []bool{false, true} {
			base := benchInstance(sc, 7)
			base.WantPrices = wantPrices
			ref, err := base.Solve(lp.Options{})
			if err != nil {
				t.Fatalf("%s ref solve: %v", sc.name, err)
			}
			for _, mode := range []struct {
				name     string
				implicit bool
				presolve bool
			}{
				{"explicit+presolve", false, true},
				{"implicit", true, false},
				{"implicit+presolve", true, true},
			} {
				ins := cloneInstance(base)
				ins.ImplicitBounds = mode.implicit
				res, err := ins.Solve(lp.Options{Presolve: mode.presolve})
				if err != nil {
					t.Fatalf("%s/%s prices=%v: %v", sc.name, mode.name, wantPrices, err)
				}
				if res.Status != ref.Status {
					t.Fatalf("%s/%s status %v, ref %v", sc.name, mode.name, res.Status, ref.Status)
				}
				if relDiff(res.Objective, ref.Objective) > 1e-6 {
					t.Errorf("%s/%s prices=%v objective %v, ref %v",
						sc.name, mode.name, wantPrices, res.Objective, ref.Objective)
				}
				checkFeasible(t, ins, res, true)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestImplicitPricesMatch pins the dual-derived prices across build modes
// on a congested instance whose duals are unique: one saturated link priced
// by two competing demands. Presolve drops the slack capacity rows but must
// still report the binding one's shadow price.
func TestImplicitPricesMatch(t *testing.T) {
	n, _, _ := lineNet(10)
	path := n.ShortestPath(0, 2)
	base := &Instance{
		Net: n, Horizon: 2, Capacity: capMatrix(n, 2),
		Demands: []Demand{
			{ID: 0, Routes: []graph.Path{path}, Start: 0, End: 1, MaxBytes: 30, ValuePerByte: 5},
			{ID: 1, Routes: []graph.Path{path}, Start: 0, End: 1, MaxBytes: 30, ValuePerByte: 1},
		},
		Cost:       cost.DefaultConfig(2),
		WantPrices: true,
	}
	ref := solveOK(t, base)
	for _, mode := range []struct {
		name     string
		implicit bool
		presolve bool
	}{{"implicit", true, false}, {"implicit+presolve", true, true}} {
		ins := cloneInstance(base)
		ins.ImplicitBounds = true
		res, err := ins.Solve(lp.Options{Presolve: mode.presolve})
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if res.Status != lp.Optimal {
			t.Fatalf("%s status %v", mode.name, res.Status)
		}
		for e := range ref.Price {
			for tt := range ref.Price[e] {
				if math.Abs(res.Price[e][tt]-ref.Price[e][tt]) > 1e-6 {
					t.Errorf("%s price[%d][%d] = %v, ref %v",
						mode.name, e, tt, res.Price[e][tt], ref.Price[e][tt])
				}
			}
		}
	}
}

// advance derives the step-τ successor of a bench instance the way the SAM
// loop does: the start step moves forward, remaining demand shrinks, values
// drift, and capacity wobbles. FixedUsage stays zero so a window with no
// remaining flexibility charges nothing under both build paths (see the
// Rebind doc for the divergence nonzero sunk usage would introduce there).
func advance(base *Instance, step int) *Instance {
	ins := cloneInstance(base)
	ins.StartStep = step
	for di := range ins.Demands {
		d := &ins.Demands[di]
		d.MaxBytes *= 0.9
		d.MinBytes *= 0.8
		d.ValuePerByte *= 1.03
	}
	for e := range ins.Capacity {
		for tt := range ins.Capacity[e] {
			ins.Capacity[e][tt] *= 0.97
		}
	}
	return ins
}

// TestRebindMatchesFreshBuild walks a bench instance through successive
// SAM-style steps, patching one retained model with Rebind while building a
// fresh model for the same successor, and requires both to agree on status
// and objective. Every rebound solve must start from the previous step's
// basis: advancing StartStep pins the past step's flows to zero, and the
// presolve must keep its cached reduction instead of shifting it under the
// basis.
func TestRebindMatchesFreshBuild(t *testing.T) {
	base := benchInstance(benchScales[1], 11) // Medium
	base.ImplicitBounds = true
	built, err := base.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var stats lp.SolveStats
	res, err := built.Solve(lp.Options{Presolve: true, Stats: &stats})
	if err != nil || res.Status != lp.Optimal {
		t.Fatalf("initial solve: %v %v", err, res)
	}
	basis := res.Basis
	for step := 1; step <= 4; step++ {
		ins := advance(base, step)
		if err := built.Rebind(ins); err != nil {
			t.Fatalf("step %d Rebind: %v", step, err)
		}
		warmStarts := stats.WarmStarts
		warm, err := built.Solve(lp.Options{Presolve: true, WarmBasis: basis, Stats: &stats})
		if err != nil {
			t.Fatalf("step %d rebind solve: %v", step, err)
		}
		if stats.WarmStarts != warmStarts+1 {
			t.Errorf("step %d: the rebound solve did not warm-start (%d pivots)", step, warm.Iterations)
		}
		basis = warm.Basis

		fresh, err := ins.Solve(lp.Options{})
		if err != nil {
			t.Fatalf("step %d fresh solve: %v", step, err)
		}
		if warm.Status != fresh.Status {
			t.Fatalf("step %d status rebind=%v fresh=%v", step, warm.Status, fresh.Status)
		}
		if relDiff(warm.Objective, fresh.Objective) > 1e-7 {
			t.Errorf("step %d objective rebind=%v fresh=%v", step, warm.Objective, fresh.Objective)
		}
		checkFeasible(t, ins, warm, true)
	}
}

// TestRebindRelaxGuarantees drives a rebound model into infeasibility (a
// capacity collapse the guarantees no longer fit under), relaxes in place,
// and checks the relaxed re-solve matches a fresh build relaxed the same
// way — covering both row-form and bound-form guarantees.
func TestRebindRelaxGuarantees(t *testing.T) {
	n, _, _ := lineNet(10)
	path := n.ShortestPath(0, 2)
	base := &Instance{
		Net: n, Horizon: 4, Capacity: capMatrix(n, 4),
		Demands: []Demand{
			// Single-variable demand: guarantee folds into a lower bound.
			{ID: 0, Routes: []graph.Path{path}, Start: 1, End: 1, MaxBytes: 8, MinBytes: 4, ValuePerByte: 1},
			// Multi-step demand: guarantee stays a GE row.
			{ID: 1, Routes: []graph.Path{path}, Start: 1, End: 3, MaxBytes: 30, MinBytes: 12, ValuePerByte: 3},
		},
		Cost:           cost.DefaultConfig(4),
		ImplicitBounds: true,
	}
	built, err := base.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if res, err := built.Solve(lp.Options{Presolve: true}); err != nil || res.Status != lp.Optimal {
		t.Fatalf("initial solve: %v %v", err, res)
	}

	// Capacity collapses to 3 per step from step 1 on: demand 0's bound-form
	// guarantee of 4 no longer fits its variable's upper bound, so Rebind
	// must hand the instance back for a rebuild rather than silently pin an
	// empty box.
	shocked := cloneInstance(base)
	shocked.StartStep = 1
	for e := range shocked.Capacity {
		for tt := 1; tt < 4; tt++ {
			shocked.Capacity[e][tt] = 3
		}
	}
	if err := built.Rebind(shocked); err == nil {
		t.Fatal("Rebind accepted a guarantee that exceeds its implicit bound")
	}

	// The rebuilt model reports infeasibility; relaxing in place must agree
	// with a fresh build relaxed the same way.
	built2, err := shocked.Build()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	res, err := built2.Solve(lp.Options{Presolve: true})
	if err != nil {
		t.Fatalf("shocked solve: %v", err)
	}
	if res.Status != lp.Infeasible {
		t.Fatalf("shocked status %v, want infeasible", res.Status)
	}
	built2.RelaxGuarantees()
	relaxed, err := built2.Solve(lp.Options{Presolve: true, WarmBasis: res.Basis})
	if err != nil || relaxed.Status != lp.Optimal {
		t.Fatalf("relaxed solve: %v %v", err, relaxed)
	}

	ref := cloneInstance(shocked)
	ref.ImplicitBounds = false
	refBuilt, err := ref.Build()
	if err != nil {
		t.Fatalf("ref build: %v", err)
	}
	refRes, err := refBuilt.Solve(lp.Options{})
	if err != nil || refRes.Status != lp.Infeasible {
		t.Fatalf("ref shocked solve: %v %v", err, refRes)
	}
	refBuilt.RelaxGuarantees()
	refRelaxed, err := refBuilt.Solve(lp.Options{})
	if err != nil || refRelaxed.Status != lp.Optimal {
		t.Fatalf("ref relaxed solve: %v %v", err, refRelaxed)
	}
	if relDiff(relaxed.Objective, refRelaxed.Objective) > 1e-6 {
		t.Errorf("relaxed objective %v, ref %v", relaxed.Objective, refRelaxed.Objective)
	}
	checkFeasible(t, shocked, relaxed, false)
}

// TestRebindFixedUsage verifies FixedUsage re-pinning: realized traffic
// moved into FixedUsage after a step advance must count toward the window
// percentile exactly as a fresh build counts it.
func TestRebindFixedUsage(t *testing.T) {
	n, e1, _ := lineNet(10)
	path := n.ShortestPath(0, 2)
	mk := func() *Instance {
		return &Instance{
			Net: n, Horizon: 4, Capacity: capMatrix(n, 4),
			FixedUsage: make2d(n.NumEdges(), 4),
			Demands: []Demand{
				{ID: 0, Routes: []graph.Path{path}, Start: 0, End: 3, MaxBytes: 25, ValuePerByte: 2},
			},
			Cost:           cost.Config{WindowLen: 4, Percentile: 0.75},
			UseCostProxy:   true,
			ImplicitBounds: true,
		}
	}
	base := mk()
	built, err := base.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if res, err := built.Solve(lp.Options{Presolve: true}); err != nil || res.Status != lp.Optimal {
		t.Fatalf("initial solve: %v %v", err, res)
	}

	next := mk()
	next.StartStep = 1
	next.Demands[0].MaxBytes = 17 // 8 realized at t=0
	next.FixedUsage[e1][0] = 8
	if err := built.Rebind(next); err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	got, err := built.Solve(lp.Options{Presolve: true})
	if err != nil || got.Status != lp.Optimal {
		t.Fatalf("rebind solve: %v %v", err, got)
	}
	want, err := next.Solve(lp.Options{})
	if err != nil || want.Status != lp.Optimal {
		t.Fatalf("fresh solve: %v %v", err, want)
	}
	if relDiff(got.Objective, want.Objective) > 1e-6 {
		t.Errorf("objective rebind=%v fresh=%v", got.Objective, want.Objective)
	}
}

func make2d(n, m int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, m)
	}
	return out
}

// TestRebindRejectsStructuralChange enumerates the structural drifts Rebind
// must refuse: they would silently desynchronize the model from the
// instance if patched as data.
func TestRebindRejectsStructuralChange(t *testing.T) {
	base := benchInstance(benchScales[0], 3) // Small
	base.ImplicitBounds = true
	fresh := func() *Built {
		b, err := base.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return b
	}
	cases := []struct {
		name string
		mut  func(*Instance)
	}{
		{"horizon", func(ins *Instance) { ins.Horizon++ }},
		{"start-regresses", func(ins *Instance) { ins.StartStep = -1 }},
		{"demand-count", func(ins *Instance) { ins.Demands = ins.Demands[:len(ins.Demands)-1] }},
		{"interval", func(ins *Instance) { ins.Demands[0].End++ }},
		{"explicit-mode", func(ins *Instance) { ins.ImplicitBounds = false }},
		{"cost-config", func(ins *Instance) { ins.Cost.WindowLen++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ins := cloneInstance(base)
			tc.mut(ins)
			if err := fresh().Rebind(ins); err == nil {
				t.Fatalf("Rebind accepted %s change", tc.name)
			}
		})
	}
	// A pure data change is accepted.
	ins := cloneInstance(base)
	ins.Demands[0].MaxBytes *= 0.5
	if err := fresh().Rebind(ins); err != nil {
		t.Fatalf("Rebind rejected a data-only change: %v", err)
	}
}
