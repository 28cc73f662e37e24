package core

import (
	"pretium/internal/lp"
	"pretium/internal/obs"
)

// Histogram edges for controller metrics — fixed at registration so
// snapshots are structurally deterministic (see package obs).
var (
	bytesEdges = []float64{1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e9}
	priceEdges = []float64{0.1, 0.25, 0.5, 1, 2, 5, 10, 50}
)

// coreObs holds the controller's pre-resolved metric handles so the
// per-step paths never touch the registry lock. A nil *coreObs (the
// default when Config.Obs is unset) makes every method a no-op; trace
// events go through Config.Obs.Emit directly, which is itself nil-safe.
type coreObs struct {
	raRequests   *obs.Counter
	raAdmitted   *obs.Counter
	raDeclined   *obs.Counter
	raPriceBumps *obs.Counter

	raStranded    *obs.Counter
	raRefunds     *obs.Counter
	raRefundTotal *obs.Gauge

	samSolves       *obs.Counter
	samDegraded     *obs.Counter
	samScheduled    *obs.Histogram
	samRepairSolves *obs.Counter

	pcSolves   *obs.Counter
	pcRetained *obs.Counter
	pcPriceMax *obs.Gauge
	pcPrice    *obs.Histogram
}

func newCoreObs(rec *obs.Recorder) *coreObs {
	m := rec.Metrics()
	if m == nil {
		return nil
	}
	return &coreObs{
		raRequests:    m.Counter("ra.requests"),
		raAdmitted:    m.Counter("ra.admitted"),
		raDeclined:    m.Counter("ra.declined"),
		raPriceBumps:  m.Counter("ra.price_bumps"),
		raStranded:    m.Counter("ra.stranded"),
		raRefunds:     m.Counter("ra.refunds"),
		raRefundTotal: m.Gauge("ra.refund_total"),

		samSolves:       m.Counter("sam.solves"),
		samDegraded:     m.Counter("sam.degraded"),
		samScheduled:    m.Histogram("sam.scheduled_bytes", bytesEdges),
		samRepairSolves: m.Counter("sam.repair_solves"),
		pcSolves:        m.Counter("pc.solves"),
		pcRetained:      m.Counter("pc.retained_prices"),
		pcPriceMax:      m.Gauge("pc.price.max"),
		pcPrice:         m.Histogram("pc.price", priceEdges),
	}
}

// admission records one RA decision (admitted=false means the customer
// declined or the commit did not hold).
func (o *coreObs) admission(admitted bool, bumps int) {
	if o == nil {
		return
	}
	o.raRequests.Inc()
	if admitted {
		o.raAdmitted.Inc()
	} else {
		o.raDeclined.Inc()
	}
	o.raPriceBumps.Add(int64(bumps))
}

// samSolve records one SAM ladder outcome and the bytes it scheduled.
func (o *coreObs) samSolve(lvl Level, scheduled float64) {
	if o == nil {
		return
	}
	o.samSolves.Inc()
	if lvl > LevelOK {
		o.samDegraded.Inc()
	}
	o.samScheduled.Observe(scheduled)
}

// repairDetected records guarantees found stranded by topology churn.
func (o *coreObs) repairDetected(n int) {
	if o == nil {
		return
	}
	o.raStranded.Add(int64(n))
}

// repairSolve records one repair-ladder LP solve.
func (o *coreObs) repairSolve() {
	if o == nil {
		return
	}
	o.samRepairSolves.Inc()
}

// refund records one guarantee buy-back.
func (o *coreObs) refund() {
	if o == nil {
		return
	}
	o.raRefunds.Inc()
}

// refundTotal publishes the run's total refunded currency.
func (o *coreObs) refundTotal(total float64) {
	if o == nil {
		return
	}
	o.raRefundTotal.Set(total)
}

// pcUpdate records one accepted price window: every recomputed price
// lands in the dual-magnitude histogram (the PC's prices *are* scaled
// capacity duals of the offline welfare LP), and the max is kept as a
// gauge for quick "are duals exploding" checks.
func (o *coreObs) pcUpdate(window [][]float64) float64 {
	max := 0.0
	for _, row := range window {
		for _, p := range row {
			if p > max {
				max = p
			}
		}
	}
	if o == nil {
		return max
	}
	o.pcSolves.Inc()
	for _, row := range window {
		for _, p := range row {
			o.pcPrice.Observe(p)
		}
	}
	o.pcPriceMax.Set(max)
	return max
}

// pcRetain records a retained-prices degradation of the PC.
func (o *coreObs) pcRetain() {
	if o == nil {
		return
	}
	o.pcRetained.Inc()
}

// publishLP copies accumulated solver telemetry into prefixed counters
// (called once at finalize; the per-solve hot path only touches the
// plain SolveStats ints).
func (o *coreObs) publishLP(m *obs.Metrics, prefix string, s lp.SolveStats) {
	if o == nil || m == nil {
		return
	}
	m.Counter(prefix + ".solves").Add(int64(s.Solves))
	m.Counter(prefix + ".iterations").Add(int64(s.Iterations))
	m.Counter(prefix + ".refactorizations").Add(int64(s.Refactorizations))
	m.Counter(prefix + ".time_budget_hits").Add(int64(s.TimeBudgetHits))
	m.Counter(prefix + ".iter_limit_hits").Add(int64(s.IterLimitHits))
	m.Counter(prefix + ".warm_starts").Add(int64(s.WarmStarts))
	m.Counter(prefix + ".devex_solves").Add(int64(s.DevexSolves))
	// Per-phase wall-clock breakdown (see lp.PhaseTimings): localizes a
	// solver wall-clock regression to pricing, FTRAN, BTRAN, or
	// refactorization without a profiler attached.
	m.Counter(prefix + ".pricing_ns").Add(s.Timings.PricingNs)
	m.Counter(prefix + ".ftran_ns").Add(s.Timings.FtranNs)
	m.Counter(prefix + ".btran_ns").Add(s.Timings.BtranNs)
	m.Counter(prefix + ".refactor_ns").Add(s.Timings.RefactorNs)
}
