package main

import (
	"encoding/json"
	"math/rand"
	"time"

	"pretium/internal/cost"
	"pretium/internal/exp"
	"pretium/internal/graph"
	"pretium/internal/sched"
)

// The benchmark owns its inputs: every generator below takes its seed as
// an argument and never reads a scale or instance the program defines,
// so a later change to exp.Default/exp.Paper or to the sched benches
// cannot move what this benchmark measures.

// paperHorizon is the paper's T: a day of 5-minute steps.
const paperHorizon = 288

// opKind is the endpoint one generated HTTP operation calls.
type opKind uint8

const (
	opQuote opKind = iota
	opAdmit
	opPublish
)

func (k opKind) path() string {
	switch k {
	case opQuote:
		return "/v1/quote"
	case opAdmit:
		return "/v1/admit"
	}
	return "/v1/publish"
}

// wireReq mirrors the transfer request of the HTTP API.
type wireReq struct {
	ID     int     `json:"id"`
	Src    string  `json:"src"`
	Dst    string  `json:"dst"`
	Start  int     `json:"start"`
	End    int     `json:"end"`
	Demand float64 `json:"demand"`
	Value  float64 `json:"value"`
}

// httpOp is one request of the open-loop stream: when it is due (offset
// from the phase start), what it calls, and its encoded body.
type httpOp struct {
	kind opKind
	due  time.Duration
	body []byte
	req  wireReq // zero for publishes
}

// httpGen draws the serve-http request stream on one topology.
type httpGen struct {
	net    *graph.Network
	price0 float64
	hops   map[[2]graph.NodeID]int
}

func newHTTPGen(net *graph.Network, price0 float64) *httpGen {
	return &httpGen{net: net, price0: price0, hops: make(map[[2]graph.NodeID]int)}
}

func (g *httpGen) hopCount(src, dst graph.NodeID) int {
	k := [2]graph.NodeID{src, dst}
	h, ok := g.hops[k]
	if !ok {
		h = len(g.net.ShortestPath(src, dst))
		g.hops[k] = h
	}
	return h
}

// stream draws an open-loop segment: Poisson arrivals at rate per second
// over [from, from+dur) of the phase clock, 90% quotes and 10% admits,
// plus a price-only publish at every whole second of the phase clock.
// Due times are relative to from. Request IDs start at firstID.
//
// Windows span 30 min to 3 h (6–36 steps) and the value per byte is the
// uncongested route price (initial price × shortest-path hops) times
// U(0.75, 1.75), so admits both accept and decline.
func (g *httpGen) stream(seed int64, firstID int, from, dur time.Duration, rate float64) []httpOp {
	r := rand.New(rand.NewSource(seed))
	nn := g.net.NumNodes()
	var ops []httpOp
	at := time.Duration(0)
	id := firstID
	for {
		at += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			break
		}
		src := graph.NodeID(r.Intn(nn))
		dst := graph.NodeID(r.Intn(nn - 1))
		if dst >= src {
			dst++
		}
		start := r.Intn(paperHorizon - 36)
		w := wireReq{
			ID:     id,
			Src:    g.net.Node(src).Name,
			Dst:    g.net.Node(dst).Name,
			Start:  start,
			End:    start + 6 + r.Intn(31),
			Demand: 1 + 19*r.Float64(),
			Value:  g.price0 * float64(g.hopCount(src, dst)) * (0.75 + r.Float64()),
		}
		kind := opQuote
		if r.Float64() < 0.1 {
			kind = opAdmit
		}
		body, _ := json.Marshal(w) // plain struct of numbers and strings: cannot fail
		ops = append(ops, httpOp{kind: kind, due: at, body: body, req: w})
		id++
	}
	// Publishes land on the phase's whole seconds, merged in due order.
	for s := (from + time.Second - 1) / time.Second * time.Second; s < from+dur; s += time.Second {
		due := s - from
		op := httpOp{kind: opPublish, due: due, body: g.publishBody(r)}
		i := 0
		for i < len(ops) && ops[i].due < due {
			i++
		}
		ops = append(ops, httpOp{})
		copy(ops[i+1:], ops[i:])
		ops[i] = op
	}
	return ops
}

// publishBody is a price-only publish of publishWindow.
func (g *httpGen) publishBody(r *rand.Rand) []byte {
	body, _ := json.Marshal(map[string][][]float64{"base_price": g.publishWindow(r)}) // finite floats: cannot fail
	return body
}

// publishWindow is an hour-wide base-price window (tiled over the horizon
// by the service) at the initial prices ±10%.
func (g *httpGen) publishWindow(r *rand.Rand) [][]float64 {
	window := make([][]float64, g.net.NumEdges())
	for _, e := range g.net.Edges() {
		p := g.price0
		if e.UsagePriced {
			p += e.CostPerUnit
		}
		row := make([]float64, 12)
		for t := range row {
			row[t] = p * (0.9 + 0.2*r.Float64())
		}
		window[e.ID] = row
	}
	return window
}

// controlSeed pins the control-cycle instance. One Controller.Run costs
// 3.3–6.5 s across instance seeds 1–8 on one 2-vCPU Xeon VM (request count and
// SAM work change with the seed), far more than run-to-run noise, so
// every run replays this one instance.
const controlSeed = 1

// controlScale is the benchmark's own control-cycle size: 5 regions × 4
// nodes (90 edges), 48 steps with 12 steps per pricing and charging
// day, and request sizing that yields ~1.9k requests at load 2 and a
// ~4.5 s cycle. A control cycle at the paper's own scale runs for longer
// than 15 minutes, far too long to repeat per benchmark run.
func controlScale() exp.Scale {
	return exp.Scale{
		Name:             "perfbench-control",
		Regions:          5,
		NodesPerRegion:   4,
		Steps:            48,
		StepsPerDay:      12,
		MeanRequestSize:  60,
		AggregateSteps:   4,
		RoutesPerRequest: 2,
		BaseDemand:       6,
		GridLevels:       4,
		MeanUsageCost:    10,
	}
}

// controlLoad is the traffic-matrix load factor of the control cycle.
const controlLoad = 2

// controlSetup generates the control-cycle topology and request stream.
func controlSetup(seed int64) *exp.Setup {
	return exp.NewSetup(controlScale(), exp.WithLoad(controlLoad), exp.WithSeed(seed), exp.WithObs(nil))
}

// httpTopoSeed pins the serve-http topology, graph.PaperWAN(httpTopoSeed);
// --seed draws the request stream on it. A quote's cost is mostly Yen's
// k-shortest paths, which depends on the topology: across seven seeds
// the in-process quote's median CPU time spread 9% (IQR/median) with a
// topology per seed, against 1.3% over six runs of one topology.
const httpTopoSeed = 1

// samSeed pins the sam-paper instance: the paper-scale SAM instance the
// solver benches use, whose cold solve takes 31,084 pivots and 27
// refactorizations. An instance per seed would change the pivot path and
// so the work measured.
const samSeed = 42

// samInstance builds the paper-scale SAM instance: graph.PaperWAN, T=288,
// 400 deadline-windowed demands over 2-shortest-path route sets, hourly
// charging windows, implicit bounds. It draws the same random sequence as
// the Paper branch of the sched package's benchmark instance, so seed 42
// reproduces that instance.
func samInstance(seed int64) *sched.Instance {
	const nDemands = 400
	net := graph.PaperWAN(seed)
	r := rand.New(rand.NewSource(seed + 1))
	nn := net.NumNodes()
	demands := make([]sched.Demand, 0, nDemands)
	for len(demands) < nDemands {
		src := graph.NodeID(r.Intn(nn))
		dst := graph.NodeID(r.Intn(nn))
		if src == dst {
			continue
		}
		routes := net.KShortestPaths(src, dst, 2)
		if len(routes) == 0 {
			continue
		}
		// The generic window draw is discarded but still consumes the
		// random stream, keeping the instance identical to the sched one.
		start := r.Intn(paperHorizon / 2)
		_ = start + 2 + r.Intn(paperHorizon-start-2)
		start = r.Intn(paperHorizon - 8)
		end := start + 6 + r.Intn(30)
		if end > paperHorizon {
			end = paperHorizon
		}
		d := sched.Demand{
			ID:           len(demands),
			Routes:       routes,
			Start:        start,
			End:          end,
			MaxBytes:     (20 + r.Float64()*120) * float64(paperHorizon) / 12,
			ValuePerByte: 0.5 + r.Float64()*2.5,
		}
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
		demands = append(demands, d)
	}
	capm := make([][]float64, net.NumEdges())
	for _, e := range net.Edges() {
		capm[e.ID] = make([]float64, paperHorizon)
		for t := range capm[e.ID] {
			capm[e.ID][t] = e.Capacity * 0.8
		}
	}
	ccfg := cost.DefaultConfig(paperHorizon)
	ccfg.WindowLen = 12
	return &sched.Instance{
		Net:            net,
		Horizon:        paperHorizon,
		Capacity:       capm,
		Demands:        demands,
		Cost:           ccfg,
		UseCostProxy:   true,
		ImplicitBounds: true,
	}
}
