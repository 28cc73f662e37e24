package lp

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// randomDenseModel builds a feasible random LP big enough that a
// nanosecond wall-clock budget cannot finish it.
func randomDenseModel(n, m int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	md := NewModel()
	md.SetMaximize(true)
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = md.AddVar(0, Inf, rng.Float64(), "")
	}
	for j := 0; j < m; j++ {
		terms := make([]Term, n)
		for i, v := range vars {
			terms[i] = Term{v, 0.1 + rng.Float64()}
		}
		md.AddConstraint(LE, 5+10*rng.Float64(), terms...)
	}
	return md
}

func TestTimeBudgetReturnsTimeLimit(t *testing.T) {
	m := randomDenseModel(60, 60, 7)
	sol, err := m.Solve(Options{TimeBudget: time.Nanosecond})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != TimeLimit {
		t.Fatalf("status = %v, want TimeLimit", sol.Status)
	}
	if !errors.Is(sol.Err(), ErrTimeBudget) {
		t.Errorf("Err() = %v, want ErrTimeBudget", sol.Err())
	}
	// No terminal basis should be captured from an aborted solve: warm
	// starting the next solve from it would be starting from garbage.
	if sol.Basis() != nil {
		t.Error("aborted solve captured a basis")
	}
	// A generous budget solves the same model to optimality.
	sol, err = m.Solve(Options{TimeBudget: time.Minute})
	if err != nil {
		t.Fatalf("Solve with budget: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want Optimal under a generous budget", sol.Status)
	}
}

func TestStatusErrTaxonomy(t *testing.T) {
	cases := []struct {
		status Status
		want   error
	}{
		{Optimal, nil},
		{IterLimit, ErrIterLimit},
		{TimeLimit, ErrTimeBudget},
		{Infeasible, ErrInfeasible},
		{Unbounded, ErrUnbounded},
	}
	for _, c := range cases {
		if got := c.status.Err(); !errors.Is(got, c.want) {
			t.Errorf("%v.Err() = %v, want %v", c.status, got, c.want)
		}
	}
	// Suspect overrides an Optimal status at the Solution level.
	s := &Solution{Status: Optimal, Suspect: true}
	if !errors.Is(s.Err(), ErrSuspect) {
		t.Errorf("suspect solution Err() = %v, want ErrSuspect", s.Err())
	}
}

func TestResidualHealthyOnCleanSolve(t *testing.T) {
	m := randomDenseModel(20, 15, 11)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Suspect {
		t.Errorf("clean solve flagged suspect (residual %g)", sol.Residual)
	}
	if sol.Residual > 1e-6 {
		t.Errorf("residual %g, want <= 1e-6", sol.Residual)
	}
	// A paranoid tolerance flags the same solution as suspect — the
	// health check is wired through, not vacuously true.
	sol, err = m.Solve(Options{ResidualTol: 1e-300})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Residual > 0 && !sol.Suspect {
		t.Error("nonzero residual not flagged under a zero tolerance")
	}
}

// singularKernel wraps a basis kernel whose every refactorization reports
// a numerically singular basis.
type singularKernel struct{ factor }

func (singularKernel) refactorize(*standard, []int, time.Time) refactorOutcome {
	return refactorSingular
}

// TestStagedStartSingularIsNotTimeLimit: a singular refactorization in the
// middle of the staged cold start gives up with IterLimit, like one in the
// classic loop. With no TimeBudget set it must never surface as TimeLimit
// or count as a time-budget hit.
func TestStagedStartSingularIsNotTimeLimit(t *testing.T) {
	m := bigArtificialLP()
	std, err := m.standardized()
	if err != nil {
		t.Fatal(err)
	}
	if std.m < stagedStartMinRows {
		t.Fatalf("m = %d is below the staged-start gate %d", std.m, stagedStartMinRows)
	}
	opts := Options{RefactorEvery: 16}.withDefaults(std.n, std.m)
	res := std.solve(opts, singularKernel{kernelFor(false)})
	var stats SolveStats
	stats.record(res)
	if res.iters < 16 {
		t.Fatalf("gave up after %d pivots, before the first refactorization", res.iters)
	}
	if res.status != IterLimit {
		t.Errorf("status %v, want %v", res.status, IterLimit)
	}
	if stats.TimeBudgetHits != 0 {
		t.Errorf("TimeBudgetHits = %d with no TimeBudget set", stats.TimeBudgetHits)
	}
}
