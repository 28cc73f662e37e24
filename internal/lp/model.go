// Package lp implements the linear-programming substrate Pretium depends
// on. The paper builds every module as a linear program and solves it with
// Gurobi [1]; this package provides the equivalent capability from scratch:
// a model builder plus a two-phase revised primal simplex that reports both
// the primal solution and the dual values of every constraint. The duals
// matter as much as the primal here — the Price Computer (§4.3 of the
// paper) literally *is* "solve the offline welfare LP and read the duals of
// the capacity constraints as link prices".
package lp

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Sense is the relational sense of a constraint row.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // a·x ≤ b
	GE              // a·x ≥ b
	EQ              // a·x = b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Inf is positive infinity, used for unbounded variable bounds.
var Inf = math.Inf(1)

// Var identifies a decision variable within a Model.
type Var int

// Row identifies a constraint within a Model.
type Row int

// Term is one coefficient of a constraint: Coef * value(Var).
type Term struct {
	Var  Var
	Coef float64
}

// Model is a linear program under construction. The zero value is not
// usable; create models with NewModel. Models are not safe for concurrent
// mutation.
type Model struct {
	maximize bool

	// Per-variable data, indexed by Var.
	obj    []float64
	lo, up []float64
	names  []string

	// Per-row data, indexed by Row.
	rows   [][]Term
	senses []Sense
	rhs    []float64

	// std caches the standardized form across Solve calls. Structural
	// edits (AddVar, AddConstraint) clear it; data edits (SetObj, SetRHS,
	// SetBounds) keep it and Solve re-derives the data-dependent parts in
	// place — see refreshStandard. The cache is what makes the retained-
	// model resolve path allocation-free on the standardization side.
	std *standard

	// pre caches the presolve recipe and reduced model across Solve calls
	// with Options.Presolve set (see presolve.go).
	pre *presolveState
}

// NewModel returns an empty minimization model. Call SetMaximize to flip
// the objective direction.
func NewModel() *Model { return &Model{} }

// SetMaximize selects maximization (true) or minimization (false).
func (m *Model) SetMaximize(max bool) { m.maximize = max }

// AddVar adds a decision variable with bounds [lo, up] and objective
// coefficient obj. Use -Inf/Inf for unbounded sides. The name is only for
// diagnostics. It panics if lo > up, since that is always a programming
// error in the caller.
func (m *Model) AddVar(lo, up, obj float64, name string) Var {
	if lo > up {
		panic(fmt.Sprintf("lp: variable %q has lo %v > up %v", name, lo, up))
	}
	m.obj = append(m.obj, obj)
	m.lo = append(m.lo, lo)
	m.up = append(m.up, up)
	m.names = append(m.names, name)
	m.structureChanged()
	return Var(len(m.obj) - 1)
}

// structureChanged drops every cache that depends on the model's rows or
// variable count: the standardization (whose matrix and signature follow
// the rows) and presolve's rows-per-variable index. Data edits (SetObj,
// SetRHS, SetBounds) keep both.
func (m *Model) structureChanged() {
	m.std = nil
	if m.pre != nil {
		m.pre.varRowsOK = false
	}
}

// NumVars reports the number of variables added so far.
func (m *Model) NumVars() int { return len(m.obj) }

// NumRows reports the number of constraints added so far.
func (m *Model) NumRows() int { return len(m.rows) }

// SetObj overwrites the objective coefficient of v. This lets callers
// reuse one model skeleton across price updates.
func (m *Model) SetObj(v Var, obj float64) { m.obj[v] = obj }

// SetRHS overwrites the right-hand side of row r. Together with SetObj it
// lets callers perturb and re-solve one model skeleton — e.g. relaxing
// guarantee rows in place instead of rebuilding the whole LP — which is
// exactly the case warm starts (Options.WarmBasis) accelerate.
func (m *Model) SetRHS(r Row, rhs float64) { m.rhs[r] = rhs }

// SetBounds overwrites the bounds of v. Like SetRHS/SetObj it is a data
// edit: the cached standardization is patched, not rebuilt, as long as the
// bound pattern keeps the variable in the same standardization branch (a
// finite lower bound staying finite, etc.). It panics if lo > up, matching
// AddVar.
func (m *Model) SetBounds(v Var, lo, up float64) {
	if lo > up {
		panic(fmt.Sprintf("lp: variable %q has lo %v > up %v", m.names[v], lo, up))
	}
	m.lo[v] = lo
	m.up[v] = up
}

// VarName returns the diagnostic name of v.
func (m *Model) VarName(v Var) string { return m.names[v] }

// Bounds returns the bounds of v.
func (m *Model) Bounds(v Var) (lo, up float64) { return m.lo[v], m.up[v] }

// AddConstraint adds the row terms (sense) rhs and returns its Row id.
// Duplicate variables within terms are summed. Zero-coefficient terms are
// dropped.
func (m *Model) AddConstraint(sense Sense, rhs float64, terms ...Term) Row {
	merged := mergeTerms(terms)
	m.rows = append(m.rows, merged)
	m.senses = append(m.senses, sense)
	m.rhs = append(m.rhs, rhs)
	m.structureChanged()
	return Row(len(m.rows) - 1)
}

// mergeTerms sums duplicate variables and drops zeros.
func mergeTerms(terms []Term) []Term {
	if len(terms) <= 1 {
		out := make([]Term, 0, len(terms))
		for _, t := range terms {
			if t.Coef != 0 {
				out = append(out, t)
			}
		}
		return out
	}
	sum := make(map[Var]float64, len(terms))
	order := make([]Var, 0, len(terms))
	for _, t := range terms {
		if _, seen := sum[t.Var]; !seen {
			order = append(order, t.Var)
		}
		sum[t.Var] += t.Coef
	}
	out := make([]Term, 0, len(order))
	for _, v := range order {
		if c := sum[v]; c != 0 {
			out = append(out, Term{Var: v, Coef: c})
		}
	}
	return out
}

// Status is the outcome of a Solve call.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	// TimeLimit means Options.TimeBudget expired before optimality was
	// proven. Like IterLimit it carries no usable solution or basis.
	TimeLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case TimeLimit:
		return "time-budget"
	}
	return "unknown"
}

// Error taxonomy: one sentinel per way a solve can fail to produce a
// trustworthy optimum, so control loops can pattern-match outcomes with
// errors.Is and pick the right degradation rung (retry cold, relax,
// fall back to an LP-free schedule, ...).
var (
	// ErrIterLimit: the pivot budget ran out before optimality.
	ErrIterLimit = errors.New("lp: iteration limit reached")
	// ErrTimeBudget: the wall-clock budget ran out before optimality.
	ErrTimeBudget = errors.New("lp: time budget exhausted")
	// ErrInfeasible: phase 1 proved no feasible point exists.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded: the objective is unbounded over the feasible region.
	ErrUnbounded = errors.New("lp: unbounded")
	// ErrSuspect: the solver claims optimality but the solution fails the
	// residual health check — floating-point drift has produced a vertex
	// that violates the model's own constraints beyond tolerance.
	ErrSuspect = errors.New("lp: solution numerically suspect")
)

// Err maps a status to its sentinel error (nil for Optimal). Combined
// with Solution.Err it gives callers a uniform errors.Is-able taxonomy.
func (s Status) Err() error {
	switch s {
	case Optimal:
		return nil
	case Infeasible:
		return ErrInfeasible
	case Unbounded:
		return ErrUnbounded
	case IterLimit:
		return ErrIterLimit
	case TimeLimit:
		return ErrTimeBudget
	}
	return errors.New("lp: unknown status")
}

// Solution is the result of solving a Model.
type Solution struct {
	Status    Status
	Objective float64
	// X holds the optimal value of each variable, indexed by Var.
	X []float64
	// Dual holds the dual value (shadow price) of each constraint,
	// indexed by Row, in the *model's* orientation: for a maximization
	// model with a ≤ capacity row, Dual is the nonnegative marginal
	// objective gain per unit of extra capacity — exactly the link price
	// the Price Computer wants.
	Dual []float64
	// ReducedCost holds each variable's reduced cost in the model's
	// orientation: the marginal objective change per unit increase of
	// the variable from its current value. At an optimum of a
	// maximization model, a variable resting at its lower bound has
	// ReducedCost <= 0, one at its upper bound has >= 0, and a basic
	// (strictly interior) variable has 0 — complementary slackness.
	ReducedCost []float64
	// Iterations counts simplex pivots (both phases).
	Iterations int
	// Refactors counts basis refactorizations performed by the solve.
	Refactors int
	// Timings is the per-phase wall-clock breakdown of the solve.
	Timings PhaseTimings
	// PricingUsed is the entering-variable rule the solve's final phase
	// ran with (PricingDantzig or PricingDevex; see PricingRule).
	PricingUsed PricingRule
	// Residual is the solution health check: the worst relative violation
	// of any constraint row or variable bound by the reported X, computed
	// in model space after an Optimal solve (0 otherwise). A correct
	// simplex vertex satisfies its basis equations to roundoff; a residual
	// far above tolerance means accumulated floating-point drift (e.g. a
	// near-singular basis survived refactorization) and the "optimum"
	// should not be trusted.
	Residual float64
	// Suspect flags an Optimal solution whose Residual exceeds
	// Options.ResidualTol. The primal values and duals are still returned
	// (they may be approximately right), but control loops should treat
	// the solve as failed and retry cold or degrade.
	Suspect bool

	basis *Basis
}

// Err reports the solve outcome as a sentinel error: nil for a healthy
// optimum, ErrSuspect for an Optimal-but-unhealthy one, and the status
// sentinel (ErrInfeasible, ErrIterLimit, ...) otherwise.
func (s *Solution) Err() error {
	if s.Status == Optimal && s.Suspect {
		return ErrSuspect
	}
	return s.Status.Err()
}

// Basis returns the terminal simplex basis of the solve, for warm-starting
// a later solve of a structurally identical model via Options.WarmBasis.
// It is non-nil after Optimal solves and after Infeasible ones (where it
// captures the phase-1 terminal basis — useful when the caller relaxes
// constraints and retries). It is nil after Unbounded or IterLimit.
func (s *Solution) Basis() *Basis { return s.basis }

// Value evaluates a linear expression under the solution.
func (s *Solution) Value(terms ...Term) float64 {
	v := 0.0
	for _, t := range terms {
		v += t.Coef * s.X[t.Var]
	}
	return v
}

// PhaseTimings is the per-phase wall-clock breakdown of solver time, in
// nanoseconds: pricing (entering-column scans and maintained-reduced-cost
// refreshes), FTRAN (tableau-column solves), BTRAN (dual and row-of-inverse
// solves), and refactorization (basis rebuilds, including the xB
// recomputation they force). The four phases do not sum to the solve's wall
// clock — ratio tests, pivot application, and bookkeeping are uncounted —
// but a wall-clock regression localizes to whichever counter moved.
type PhaseTimings struct {
	PricingNs  int64
	FtranNs    int64
	BtranNs    int64
	RefactorNs int64
}

// add accumulates o into p.
func (p *PhaseTimings) add(o PhaseTimings) {
	p.PricingNs += o.PricingNs
	p.FtranNs += o.FtranNs
	p.BtranNs += o.BtranNs
	p.RefactorNs += o.RefactorNs
}

// SolveStats accumulates solver telemetry across Solve calls when hung on
// Options.Stats. It is deliberately plain counters, not a metrics handle:
// the lp package stays zero-dependency, and callers (core publishes SAM
// and PC stats separately) decide where the numbers go. Not safe for
// concurrent use — give each concurrently running controller its own.
type SolveStats struct {
	// Solves counts Solve calls that reached the simplex (standardization
	// errors are not counted; they never reach a pivot).
	Solves int
	// Iterations is the total pivot count across both phases and the
	// dual-simplex warm-start cleanup.
	Iterations int
	// Refactorizations counts basis refactorizations (periodic cadence,
	// kernel growth/drift triggers, and warm-basis installs alike).
	Refactorizations int
	// TimeBudgetHits counts solves that ended with Status TimeLimit.
	TimeBudgetHits int
	// IterLimitHits counts solves that ended with Status IterLimit.
	IterLimitHits int
	// WarmStarts counts solves where a supplied WarmBasis was actually
	// used (installed primal feasible, or repaired by dual cleanup) —
	// attempts that fell back cold are not counted.
	WarmStarts int
	// DevexSolves counts solves whose final phase priced with devex.
	DevexSolves int
	// Timings accumulates the per-phase wall-clock breakdown across the
	// recorded solves.
	Timings PhaseTimings
}

// Merge adds other's counts into s.
func (s *SolveStats) Merge(other SolveStats) {
	s.Solves += other.Solves
	s.Iterations += other.Iterations
	s.Refactorizations += other.Refactorizations
	s.TimeBudgetHits += other.TimeBudgetHits
	s.IterLimitHits += other.IterLimitHits
	s.WarmStarts += other.WarmStarts
	s.DevexSolves += other.DevexSolves
	s.Timings.add(other.Timings)
}

// record folds one raw simplex outcome into the totals.
func (s *SolveStats) record(res result) {
	s.Solves++
	s.Iterations += res.iters
	s.Refactorizations += res.refactors
	switch res.status {
	case TimeLimit:
		s.TimeBudgetHits++
	case IterLimit:
		s.IterLimitHits++
	}
	if res.warm {
		s.WarmStarts++
	}
	if res.pricing == PricingDevex {
		s.DevexSolves++
	}
	s.Timings.add(res.phase)
}

// PricingRule names the entering-variable rule of the primal simplex. The
// solver picks it per solve: devex for cold solves at hyper-sparse scale
// (m >= stagedStartMinRows rows, where the Dantzig/partial rule pays ~10^5
// pivots on the degenerate staircase plateau), the classic Dantzig/partial
// hybrid everywhere else. Warm-started solves keep the classic rule, so
// their pivot streams — pinned by the golden-trace suite and the warm-
// resolve benchmarks — stay byte-identical. Solution.PricingUsed reports
// the choice.
type PricingRule string

// Pricing rules.
const (
	// PricingDantzig is the classic rule: a full Dantzig scan on narrow
	// LPs, candidate-list partial pricing on wide ones.
	PricingDantzig PricingRule = "dantzig"
	// PricingDevex is devex pricing (Forrest–Goldfarb reference weights)
	// in both simplex phases.
	PricingDevex PricingRule = "devex"
)

// Options tunes the solver.
type Options struct {
	// MaxIters bounds total pivots; 0 means a generous default derived
	// from problem size.
	MaxIters int
	// Tol is the feasibility/optimality tolerance; 0 means 1e-9.
	Tol float64
	// RefactorEvery rebuilds the basis inverse from scratch after this
	// many pivots (fights floating-point drift); 0 means 512.
	RefactorEvery int
	// TimeBudget bounds the wall-clock time of the solve; when it expires
	// the solve returns Status TimeLimit (checked between pivots, so the
	// overrun is at most one pivot). 0 means unlimited. This is the
	// guardrail that keeps a control loop's step time bounded even when an
	// LP degenerates: the caller gets a clean TimeLimit instead of a
	// stalled controller.
	TimeBudget time.Duration
	// ResidualTol is the relative constraint-violation threshold above
	// which an Optimal solution is flagged Suspect; 0 means 1e-6.
	ResidualTol float64
	// WarmBasis, when non-nil, starts the solve from this previously
	// captured basis (see Solution.Basis) instead of running phase 1 from
	// scratch. A basis that does not structurally match the model, is
	// singular at refactorization, or is primal infeasible for the current
	// data is ignored and the solve falls back to a cold start.
	WarmBasis *Basis
	// Stats, when non-nil, accumulates solver telemetry (pivots,
	// refactorizations, budget hits, warm-start uses) across Solve calls.
	// The pointer is read once per solve; it adds no per-pivot cost.
	Stats *SolveStats
	// Presolve runs a model-reduction pass before the simplex (drop empty
	// and redundant rows, fix equal-bound and dominated variables, turn
	// singleton rows into bounds) and maps the reduced solution back to the
	// full model — primal, duals, and reduced costs included, so PC prices
	// survive the reduction. Warm bases captured under Presolve refer to
	// the reduced model. A re-solve after data edits first tries to keep
	// the cached reduction — tightening edits (a bound pinned to [0,0], a
	// smaller rhs on a kept row) always can — so those bases keep working;
	// only an edit that breaks a cached reduction (say, a dropped redundant
	// row that can bind again) rebuilds the reduced model and falls back
	// to a cold start. Off by default: the unreduced path stays
	// byte-identical.
	Presolve bool

	// Test seams, set only by this package's tests: pricing forces an
	// entering rule (the devex-vs-Dantzig differentials), and kernel
	// substitutes the basis kernel (the dense reference oracle). The zero
	// values select the size/warm policy and the sparse LU kernel.
	pricing PricingRule
	kernel  func() factor
}

// withDefaults normalizes the options against a standardized problem of n
// columns and m rows: non-positive tolerances, iteration budgets, and
// refactorization cadences are replaced with the documented defaults, so
// call sites passing lp.Options{} (or accidentally negative values) get
// well-defined behavior.
func (o Options) withDefaults(n, m int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 2000 + 40*(n+m)
	}
	if o.RefactorEvery <= 0 {
		o.RefactorEvery = defaultRefactorEvery
	}
	if o.ResidualTol <= 0 {
		o.ResidualTol = 1e-6
	}
	return o
}

// Solve optimizes the model and returns the solution. The model's LP data
// is not modified (Solve only refreshes internal caches), so it can be
// re-solved after edits.
func (m *Model) Solve(opts Options) (*Solution, error) {
	if opts.Presolve {
		return m.solvePresolved(opts)
	}
	std, err := m.standardized()
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(std.n, std.m)
	res := std.solve(opts, opts.newFactor())
	if opts.Stats != nil {
		opts.Stats.record(res)
	}
	sol := &Solution{
		Status:      res.status,
		Iterations:  res.iters,
		Refactors:   res.refactors,
		Timings:     res.phase,
		PricingUsed: res.pricing,
		X:           make([]float64, m.NumVars()),
		Dual:        make([]float64, m.NumRows()),
		ReducedCost: make([]float64, m.NumVars()),
		basis:       res.basis,
	}
	if res.status != Optimal {
		return sol, nil
	}
	// Map the standardized solution back to model variables.
	orient := 1.0
	if m.maximize {
		orient = -1
	}
	for j := 0; j < m.NumVars(); j++ {
		v := std.shift[j] + std.sign[j]*res.x[std.colOf[j]]
		if std.negCol[j] >= 0 {
			v -= res.x[std.negCol[j]]
		}
		sol.X[j] = v
		// ∂obj_model/∂x_j: the standardized column moves by sign per
		// unit of x_j, and the model objective is orient times the
		// minimized one.
		sol.ReducedCost[j] = orient * std.sign[j] * res.d[std.colOf[j]]
	}
	obj := 0.0
	for j, c := range m.obj {
		obj += c * sol.X[j]
	}
	sol.Objective = obj
	for i := 0; i < m.NumRows(); i++ {
		d := res.y[i] * std.rowSign[i]
		if m.maximize {
			d = -d
		}
		sol.Dual[i] = d
	}
	sol.Residual = m.residual(sol.X)
	sol.Suspect = sol.Residual > opts.ResidualTol
	return sol, nil
}

// residual computes the worst relative violation of any constraint row or
// variable bound by x — the solution health check behind Solution.Suspect.
// Each row violation is scaled by 1 + |rhs| + max|term| so that large,
// well-scaled models are not flagged for proportionate roundoff.
func (m *Model) residual(x []float64) float64 {
	worst := 0.0
	note := func(viol, scale float64) {
		if r := viol / scale; r > worst {
			worst = r
		}
	}
	for j := range x {
		scale := 1 + math.Abs(x[j])
		if lo := m.lo[j]; !math.IsInf(lo, -1) && x[j] < lo {
			note(lo-x[j], scale)
		}
		if up := m.up[j]; !math.IsInf(up, 1) && x[j] > up {
			note(x[j]-up, scale)
		}
	}
	for i, terms := range m.rows {
		lhs, mag := 0.0, 0.0
		for _, t := range terms {
			v := t.Coef * x[t.Var]
			lhs += v
			if a := math.Abs(v); a > mag {
				mag = a
			}
		}
		scale := 1 + math.Abs(m.rhs[i]) + mag
		switch m.senses[i] {
		case LE:
			note(lhs-m.rhs[i], scale)
		case GE:
			note(m.rhs[i]-lhs, scale)
		case EQ:
			note(math.Abs(lhs-m.rhs[i]), scale)
		}
	}
	return worst
}
