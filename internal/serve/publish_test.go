package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

// twoStepPublish is the wire publish as it used to run: drain a copy of
// the live state, overlay the request on it, then hand it to Publish,
// which clones live again and copies the plan's pricing inputs across.
// It returns false when validation fails and nothing is published.
func twoStepPublish(t *testing.T, svc *Service, in wirePublishRequest) bool {
	t.Helper()
	var plan *pricing.State
	adopt := false
	if in.BasePrice != nil || in.Reserved != nil {
		plan = svc.DrainState()
		if in.BasePrice != nil {
			if err := plan.SetPricesWindow(0, in.BasePrice); err != nil {
				return false
			}
		}
		if in.Reserved != nil {
			if err := plan.SetReserved(in.Reserved); err != nil {
				return false
			}
			adopt = true
		}
	}
	if err := svc.Publish(plan, adopt); err != nil {
		t.Fatalf("two-step publish: %v", err)
	}
	return true
}

// sameBits reports a bit-for-bit float equality (so -0 ≠ 0 and NaN = NaN).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffEpochs fails unless both services hold byte-identical epochs:
// prices, room, set-asides, the outage overlay, the segment cache that
// quotes read, in both the live and the sealed copy, and the epoch number.
func diffEpochs(t *testing.T, step string, want, got *Service) {
	t.Helper()
	if want.Epoch() != got.Epoch() {
		t.Fatalf("%s: epoch %d, want %d", step, got.Epoch(), want.Epoch())
	}
	ws, gs := want.DrainState(), got.DrainState()
	wv, gv := want.View(), got.View()
	if ws.Adjust != gs.Adjust || ws.OutageVersion() != gs.OutageVersion() {
		t.Fatalf("%s: adjust/outage version %v/%d, want %v/%d", step, gs.Adjust, gs.OutageVersion(), ws.Adjust, ws.OutageVersion())
	}
	for e := 0; e < ws.Net.NumEdges(); e++ {
		eid := graph.EdgeID(e)
		for ts := 0; ts < ws.Horizon; ts++ {
			for _, c := range []struct {
				name      string
				want, got float64
			}{
				{"BasePrice", ws.BasePrice[e][ts], gs.BasePrice[e][ts]},
				{"Reserved", ws.Reserved[e][ts], gs.Reserved[e][ts]},
				{"HighPri", ws.HighPri[e][ts], gs.HighPri[e][ts]},
				{"OutageAt", ws.OutageAt(eid, ts), gs.OutageAt(eid, ts)},
				{"live MarginalPrice", ws.MarginalPrice(eid, ts, 0), gs.MarginalPrice(eid, ts, 0)},
				{"view MarginalPrice", wv.MarginalPrice(eid, ts, 0), gv.MarginalPrice(eid, ts, 0)},
				{"view Available", wv.Available(eid, ts), gv.Available(eid, ts)},
			} {
				if !sameBits(c.want, c.got) {
					t.Fatalf("%s: %s[%d][%d] = %v, want %v", step, c.name, e, ts, c.got, c.want)
				}
			}
		}
	}
}

// The wire publish builds the next epoch with one clone under one
// barrier. It must install exactly what the old drain-overlay-publish
// sequence installed, for every shape of publish body, and a rejected
// body must install nothing on either path.
func TestHTTPPublishMatchesTwoStep(t *testing.T) {
	const horizon = 24
	net := graph.PaperWAN(2)
	build := func() *Service {
		st := pricing.NewState(net, horizon, 1)
		st.SetHighPriFraction(0.1)
		st.SetOutage("cut", 3, 5, 40)
		st.SetOutage("drain", 3, 5, 15)
		st.SetOutage("drain", 17, 20, 1e9)
		svc, err := New(st, Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	old, cur := build(), build()
	h := Handler(cur, nil)

	r := rand.New(rand.NewSource(3))
	nextID := 0
	admitBoth := func(n int) {
		for i := 0; i < n; i++ {
			src := graph.NodeID(r.Intn(net.NumNodes()))
			dst := graph.NodeID((int(src) + 1 + r.Intn(net.NumNodes()-1)) % net.NumNodes())
			start := r.Intn(horizon - 4)
			req := &traffic.Request{
				ID: nextID, Src: src, Dst: dst, Routes: net.KShortestPaths(src, dst, 3),
				Arrival: start, Start: start, End: start + 3,
				Demand: 50 + 400*r.Float64(), Value: 6 * r.Float64(), Kind: traffic.ByteRequest,
			}
			nextID++
			old.Admit(req)
			cur.Admit(req)
		}
	}
	window := func(w int) [][]float64 {
		m := make([][]float64, net.NumEdges())
		for e := range m {
			m[e] = make([]float64, w)
			for ts := range m[e] {
				m[e][ts] = 0.5 + 2*r.Float64()
			}
		}
		return m
	}

	cases := []struct {
		name string
		in   wirePublishRequest
		ok   bool
	}{
		{"empty", wirePublishRequest{}, true},
		{"price window", wirePublishRequest{BasePrice: window(6)}, true},
		{"full prices", wirePublishRequest{BasePrice: window(horizon)}, true},
		{"reserved", wirePublishRequest{Reserved: window(horizon)}, true},
		{"prices and reserved", wirePublishRequest{BasePrice: window(5), Reserved: window(horizon)}, true},
		{"ragged prices", wirePublishRequest{BasePrice: [][]float64{{1}}}, false},
		{"short reserved", wirePublishRequest{BasePrice: window(6), Reserved: window(horizon - 1)}, false},
	}
	diffEpochs(t, "start", old, cur)
	for i, c := range cases {
		admitBoth(40)
		step := fmt.Sprintf("case %d (%s)", i, c.name)
		if ok := twoStepPublish(t, old, c.in); ok != c.ok {
			t.Fatalf("%s: two-step publish ok=%v, want %v", step, ok, c.ok)
		}
		body, err := json.Marshal(c.in)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := doJSON(t, h, "POST", "/v1/publish", json.RawMessage(body))
		if want := map[bool]int{true: http.StatusOK, false: http.StatusBadRequest}[c.ok]; w.Code != want {
			t.Fatalf("%s: status %d, want %d: %s", step, w.Code, want, w.Body)
		}
		diffEpochs(t, step, old, cur)
	}
}
