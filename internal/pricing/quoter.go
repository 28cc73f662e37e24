package pricing

import (
	"math"
	"sync"

	"pretium/internal/obs"
	"pretium/internal/traffic"
)

// Quoter is the incremental quote engine behind QuoteMenu: an indexed
// min-heap over the request's (route, timestep) candidates, keyed by
// (current menu price, candidate index), with lazy re-pricing. Where the
// reference scan re-prices every candidate per emitted segment, the heap
// re-keys only candidates that share a touched (edge, time) with the
// segment just filled — found through a per-edge route index — so
// assembling a menu costs O(init + segments · pathLen · log(R·W))
// instead of O(segments · R · W · pathLen).
//
// All scratch lives in the Quoter and is reused across quotes: the
// steady state allocates only the returned Menu and its segments. A
// Quoter is not safe for concurrent use; shard one per goroutine (or go
// through the pooled QuoteMenu free function).
//
// Determinism: candidate prices and rooms are recomputed with exactly
// the reference scan's float operations in the same order, and the heap
// order (price, then candidate index) equals the scan's exact
// first-minimum rule, so menus are byte-identical to the reference scan
// the differential tests keep as the executable spec.
type Quoter struct {
	// Per-quote geometry: W window steps starting at start, R routes.
	start, window int

	// Per-candidate state, indexed routeIdx*window + (t - start).
	price []float64 // current menu price (sum of edge marginals)
	pos   []int32   // heap position, -1 once removed

	heap []int32 // candidate indices ordered by (price, index)

	// extra[(edge)*window + (t-start)] is the usage overlay quoted so
	// far — the dense replacement for the reference's map scratch. Only
	// touched entries are nonzero; extraTouched lists them for O(touched)
	// reset.
	extra        []float64
	extraTouched []int32

	// edgeRoutes[e] lists the request's route indices that traverse edge
	// e; edgeTouched lists the edges with nonempty lists for reset.
	edgeRoutes  [][]int32
	edgeTouched []int32

	// rekey collects candidates whose price changed after a take;
	// rekeyMark dedupes.
	rekey     []int32
	rekeyMark []bool

	// Metric handles, pre-resolved by SetObs so the hot path never
	// touches a registry lock. mQuotes doubles as the "observability on"
	// flag: all counts accumulate in locals during a quote and publish
	// behind this single nil check.
	mQuotes   *obs.Counter
	mRekeys   *obs.Counter
	mHeapSize *obs.Histogram
	mSegments *obs.Histogram
}

// Quoter metric histogram edges — fixed at registration so snapshots are
// structurally deterministic (see package obs).
var (
	heapSizeEdges = []float64{8, 32, 128, 512, 2048, 8192}
	segmentsEdges = []float64{1, 2, 4, 8, 16, 32, 64}
)

// SetObs points the quoter's telemetry at m (nil disables it again).
// Metrics: quoter.quotes / quoter.rekeys counters, quoter.heap_size /
// quoter.menu_segments histograms.
func (q *Quoter) SetObs(m *obs.Metrics) {
	if m == nil {
		q.mQuotes, q.mRekeys, q.mHeapSize, q.mSegments = nil, nil, nil, nil
		return
	}
	q.mQuotes = m.Counter("quoter.quotes")
	q.mRekeys = m.Counter("quoter.rekeys")
	q.mHeapSize = m.Histogram("quoter.heap_size", heapSizeEdges)
	q.mSegments = m.Histogram("quoter.menu_segments", segmentsEdges)
}

// quoterPool backs the QuoteMenu free function so ad hoc callers get
// scratch reuse without holding a Quoter themselves.
var quoterPool = sync.Pool{New: func() any { return new(Quoter) }}

// Quote assembles the price menu for req against st — the same contract
// as QuoteMenu, with scratch reused across calls. st is not modified.
func (q *Quoter) Quote(st *State, req *traffic.Request, maxBytes float64) *Menu {
	if maxBytes <= 0 {
		maxBytes = req.Demand
	}
	start := req.Start
	end := req.End
	if end > st.Horizon-1 {
		end = st.Horizon - 1
	}
	W := end - start + 1
	R := len(req.Routes)
	if W <= 0 || R == 0 {
		return &Menu{}
	}
	q.start, q.window = start, W
	H := st.Horizon
	q.ensureSize(R*W, st.Net.NumEdges()*W, st.Net.NumEdges())

	// Index the request's routes by edge so a filled segment can find
	// exactly the candidates sharing a touched (edge, time).
	for ri, route := range req.Routes {
		for _, e := range route {
			if len(q.edgeRoutes[e]) == 0 {
				q.edgeTouched = append(q.edgeTouched, int32(e))
			}
			q.edgeRoutes[e] = append(q.edgeRoutes[e], int32(ri))
		}
	}

	// Initial keys: one fresh pass over the candidates (the cost of a
	// single reference-scan iteration), reading the state's cached
	// segment arrays since the overlay is all-zero.
	nc := R * W
	q.heap = q.heap[:0]
	for ri, route := range req.Routes {
		base := ri * W
		for wt := 0; wt < W; wt++ {
			t := start + wt
			p := 0.0
			for _, e := range route {
				p += st.segPrice[int(e)*H+t]
			}
			ci := base + wt
			q.price[ci] = p
			q.pos[ci] = int32(ci)
			q.heap = append(q.heap, int32(ci))
		}
	}
	for i := nc/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}

	menu := &Menu{}
	quoted := 0.0
	rekeys := 0 // published to obs after the loop, one nil check total
	for quoted < maxBytes-1e-12 && len(q.heap) > 0 {
		top := int(q.heap[0])
		ri := top / W
		wt := top % W
		t := start + wt
		route := req.Routes[ri]

		// Room is evaluated lazily, only for the current minimum. It
		// only shrinks as the overlay grows, so a dead candidate stays
		// dead and can be removed for good.
		room := math.Inf(1)
		for _, e := range route {
			ex := q.extra[int(e)*W+wt]
			var r float64
			if ex == 0 {
				r = st.segRoom[int(e)*H+t]
			} else {
				r = st.roomAt(e, t, ex)
			}
			if r < room {
				room = r
			}
		}
		if room <= 1e-12 {
			q.removeTop()
			continue
		}

		bestPrice := q.price[top]
		take := math.Min(room, maxBytes-quoted)
		if k := len(menu.Segments) - 1; k >= 0 &&
			menu.Segments[k].Price == bestPrice &&
			menu.Segments[k].RouteIdx == ri &&
			menu.Segments[k].Time == t {
			menu.Segments[k].Bytes += take
		} else {
			menu.Segments = append(menu.Segments, Segment{
				Bytes: take, Price: bestPrice, RouteIdx: ri, Time: t,
			})
		}
		quoted += take

		// Grow the overlay along the filled segment's edges. A
		// candidate's key can only change when one of its edges crosses
		// the premium threshold, so collect exactly those candidates —
		// same time, shared edge — and re-price them with a fresh sum.
		q.rekey = q.rekey[:0]
		for _, e := range route {
			xi := int(e)*W + wt
			old := q.extra[xi]
			if old == 0 {
				q.extraTouched = append(q.extraTouched, int32(xi))
			}
			pOld := st.MarginalPrice(e, t, old)
			q.extra[xi] = old + take
			if st.marginalAt(e, t, old+take) == pOld {
				continue
			}
			for _, rj := range q.edgeRoutes[e] {
				cj := int(rj)*W + wt
				if q.pos[cj] >= 0 && !q.rekeyMark[cj] {
					q.rekeyMark[cj] = true
					q.rekey = append(q.rekey, int32(cj))
				}
			}
		}
		rekeys += len(q.rekey)
		for _, cj := range q.rekey {
			q.rekeyMark[cj] = false
			rj := int(cj) / W
			p := 0.0
			for _, e := range req.Routes[rj] {
				ex := q.extra[int(e)*W+wt]
				if ex == 0 {
					p += st.segPrice[int(e)*H+t]
				} else {
					p += st.marginalAt(e, t, ex)
				}
			}
			q.price[cj] = p
			// With Factor >= 1 the key only rises (away from the root),
			// but a sub-unit premium factor lowers it, so repair both
			// directions.
			q.fix(int(q.pos[cj]))
		}
	}
	menu.capBytes = quoted
	if q.mQuotes != nil {
		q.mQuotes.Inc()
		q.mRekeys.Add(int64(rekeys))
		q.mHeapSize.Observe(float64(nc))
		q.mSegments.Observe(float64(len(menu.Segments)))
	}
	q.reset()
	return menu
}

// ensureSize (re)sizes the per-candidate and per-(edge,window) scratch.
// Slices only grow; steady state re-slices existing capacity.
func (q *Quoter) ensureSize(nc, newExtra, ne int) {
	if cap(q.price) < nc {
		q.price = make([]float64, nc)
		q.pos = make([]int32, nc)
		q.rekeyMark = make([]bool, nc)
	}
	q.price = q.price[:nc]
	q.pos = q.pos[:nc]
	q.rekeyMark = q.rekeyMark[:nc]
	if cap(q.extra) < newExtra {
		q.extra = make([]float64, newExtra)
	}
	q.extra = q.extra[:newExtra]
	if cap(q.edgeRoutes) < ne {
		q.edgeRoutes = make([][]int32, ne)
	}
	q.edgeRoutes = q.edgeRoutes[:ne]
}

// reset clears only the entries touched by the last quote.
func (q *Quoter) reset() {
	for _, xi := range q.extraTouched {
		q.extra[xi] = 0
	}
	q.extraTouched = q.extraTouched[:0]
	for _, e := range q.edgeTouched {
		q.edgeRoutes[e] = q.edgeRoutes[e][:0]
	}
	q.edgeTouched = q.edgeTouched[:0]
	q.heap = q.heap[:0]
	q.rekey = q.rekey[:0]
}

// less orders candidates by (price, index): the exact first-minimum rule
// of the reference scan.
func (q *Quoter) less(a, b int32) bool {
	pa, pb := q.price[a], q.price[b]
	return pa < pb || (pa == pb && a < b)
}

// removeTop deletes the heap minimum (a candidate with no room left).
func (q *Quoter) removeTop() {
	top := q.heap[0]
	q.pos[top] = -1
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.pos[q.heap[0]] = 0
		q.siftDown(0)
	}
}

// fix restores the heap invariant at position i after a key change.
func (q *Quoter) fix(i int) {
	q.siftUp(i)
	q.siftDown(i)
}

func (q *Quoter) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[p]) {
			return
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		q.pos[q.heap[i]] = int32(i)
		q.pos[q.heap[p]] = int32(p)
		i = p
	}
}

func (q *Quoter) siftDown(i int) {
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(q.heap[r], q.heap[l]) {
			m = r
		}
		if !q.less(q.heap[m], q.heap[i]) {
			return
		}
		q.heap[i], q.heap[m] = q.heap[m], q.heap[i]
		q.pos[q.heap[i]] = int32(i)
		q.pos[q.heap[m]] = int32(m)
		i = m
	}
}
