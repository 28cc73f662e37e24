package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

// benchServiceWorld builds a 4-region ring where each ordered region
// pair (i, i+1) owns a disjoint pair of 2-hop routes (src_i -> m ->
// src_{i+1}): requests on different pairs are edge-disjoint and land in
// different (src-region, dst-region) shard classes, so the cross-shard
// mix exercises the sequencer's parallel path while the per-shard mix
// hammers one quoter. Capacity is fat enough that a benchmark run never
// saturates a cell (no mid-run room resets needed — the state stays
// published the whole time, as in production).
func benchServiceWorld(b *testing.B, shards int) (*Service, [][]*traffic.Request) {
	b.Helper()
	const pairs, horizon = 4, 16
	net := graph.New()
	hubs := make([]graph.NodeID, pairs)
	for i := range hubs {
		hubs[i] = net.AddNode(fmt.Sprintf("hub%d", i), fmt.Sprintf("region%d", i))
	}
	routesByPair := make([][]graph.Path, pairs)
	for i := range hubs {
		j := (i + 1) % pairs
		m1 := net.AddNode(fmt.Sprintf("mid%da", i), fmt.Sprintf("region%d", i))
		m2 := net.AddNode(fmt.Sprintf("mid%db", i), fmt.Sprintf("region%d", i))
		routesByPair[i] = []graph.Path{
			{net.AddEdge(hubs[i], m1, 1e12), net.AddEdge(m1, hubs[j], 1e12)},
			{net.AddEdge(hubs[i], m2, 1e12), net.AddEdge(m2, hubs[j], 1e12)},
		}
	}
	st := pricing.NewState(net, horizon, 1.0)
	for e := 0; e < net.NumEdges(); e++ {
		for t := 0; t < horizon; t++ {
			st.SetBasePrice(graph.EdgeID(e), t, 1+0.001*float64(e*horizon+t))
		}
	}
	svc, err := New(st, Config{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([][]*traffic.Request, pairs)
	for i := range reqs {
		j := (i + 1) % pairs
		reqs[i] = make([]*traffic.Request, 64)
		for k := range reqs[i] {
			start := k % (horizon - 3)
			reqs[i][k] = &traffic.Request{
				ID: i*1000 + k, Src: hubs[i], Dst: hubs[j],
				Routes: routesByPair[i],
				Start:  start, End: start + 3,
				Demand: 30 + float64(k%5)*10, Value: 100,
				Kind: traffic.ByteRequest,
			}
		}
	}
	return svc, reqs
}

func reportOps(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

// BenchmarkServiceQuote is the lock-free read path: atomic epoch load
// plus a pooled quote against the sealed view.
func BenchmarkServiceQuote(b *testing.B) {
	svc, reqs := benchServiceWorld(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%4][i%64]
		if m := svc.Quote(r, r.Demand); len(m.Segments) == 0 {
			b.Fatal("empty menu")
		}
	}
	reportOps(b)
}

// BenchmarkServiceAdmit measures the full sequenced admission: ticket,
// authoritative quote, purchase, commit, settle. per_shard keeps every
// request in one (src-region, dst-region) class; cross_shard cycles
// over four edge-disjoint classes.
func BenchmarkServiceAdmit(b *testing.B) {
	b.Run("per_shard", func(b *testing.B) {
		svc, reqs := benchServiceWorld(b, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if svc.Admit(reqs[0][i%64]) == nil {
				b.Fatal("declined")
			}
		}
		reportOps(b)
	})
	b.Run("cross_shard", func(b *testing.B) {
		svc, reqs := benchServiceWorld(b, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if svc.Admit(reqs[i%4][i%64]) == nil {
				b.Fatal("declined")
			}
		}
		reportOps(b)
	})
}

// BenchmarkServiceMixed is the headline serving mix: 90% non-binding
// quotes, 10% admissions — the closed-loop workload the ops/sec target
// is stated against.
func BenchmarkServiceMixed(b *testing.B) {
	svc, reqs := benchServiceWorld(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%4][i%64]
		if i%10 == 0 {
			svc.Admit(r)
		} else {
			svc.Quote(r, r.Demand)
		}
	}
	reportOps(b)
}

// BenchmarkServicePublish is the epoch swap itself: drain barrier, two
// clones, cache rebuild. It runs once per timestep in production, so
// milliseconds are fine; the bench guards against accidental
// quadratic-in-state regressions.
func BenchmarkServicePublish(b *testing.B) {
	svc, _ := benchServiceWorld(b, 4)
	plan := pricing.NewState(svc.Net(), svc.Horizon(), 2.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Publish(plan, false); err != nil {
			b.Fatal(err)
		}
	}
}

// paperHTTPWorld is the serving setup on the paper topology: a
// constructor for a fresh handler over PaperWAN(1) with 288 five-minute
// steps, 8 shards and initial price 1, plus 256 encoded wire requests
// between random ordered node pairs with 30 min – 3 h windows and values
// around the uncongested route price.
func paperHTTPWorld(b *testing.B) (func() http.Handler, [][]byte) {
	b.Helper()
	const horizon = 288
	net := graph.PaperWAN(1)
	r := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 256)
	for i := range bodies {
		src := r.Intn(net.NumNodes())
		dst := r.Intn(net.NumNodes() - 1)
		if dst >= src {
			dst++
		}
		hops := len(net.ShortestPath(graph.NodeID(src), graph.NodeID(dst)))
		start := r.Intn(horizon - 36)
		body, err := json.Marshal(wireRequest{
			ID: i, Src: net.Node(graph.NodeID(src)).Name, Dst: net.Node(graph.NodeID(dst)).Name,
			Start: start, End: start + 6 + r.Intn(31),
			Demand: 1 + 19*r.Float64(), Value: float64(hops) * (0.75 + r.Float64()),
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	mk := func() http.Handler {
		svc, err := New(pricing.NewState(net, horizon, 1), Config{Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		return Handler(svc, nil)
	}
	return mk, bodies
}

// serveBench drives one POST per iteration through a handler from mk in
// process (no sockets): request decode, route resolution, the service
// call, and response encode. Every fresh iterations it swaps in a new
// handler, timer stopped, so admissions keep landing on a partly empty
// network instead of saturating it; fresh <= 0 keeps one handler.
func serveBench(b *testing.B, path string, fresh int) {
	mk, bodies := paperHTTPWorld(b)
	h := mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fresh > 0 && i > 0 && i%fresh == 0 {
			b.StopTimer()
			h = mk()
			b.StartTimer()
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	reportOps(b)
}

// BenchmarkHTTPQuote is one wire quote on the paper topology, the
// request path end to end minus the socket.
func BenchmarkHTTPQuote(b *testing.B) {
	b.Run("PaperWAN", func(b *testing.B) { serveBench(b, "/v1/quote", 0) })
}

// BenchmarkHTTPAdmit is one wire admission on the paper topology:
// quote, sequenced turn, purchase, and commit behind the codec.
func BenchmarkHTTPAdmit(b *testing.B) {
	b.Run("PaperWAN", func(b *testing.B) { serveBench(b, "/v1/admit", 4096) })
}
