package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/obs"
	"pretium/internal/pricing"
)

// httpWorld: two regions, one fat path each way, horizon 6, price 1.
func httpWorld(t *testing.T) (*graph.Network, http.Handler, *Service, *obs.Metrics) {
	t.Helper()
	net := graph.New()
	a := net.AddNode("a", "east")
	b := net.AddNode("b", "east")
	c := net.AddNode("c", "west")
	net.AddEdge(a, b, 100)
	net.AddEdge(b, c, 100)
	net.AddEdge(a, c, 100)
	m := obs.NewMetrics()
	svc, err := New(pricing.NewState(net, 6, 1.0), Config{Shards: 2, Obs: m})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return net, Handler(svc, m), svc, m
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		bs, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(bs)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	out := map[string]json.RawMessage{}
	if w.Body.Len() > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad response JSON %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w, out
}

func TestHTTPQuoteAdmitFlow(t *testing.T) {
	_, h, svc, _ := httpWorld(t)

	wire := wireRequest{ID: 1, Src: "a", Dst: "c", Start: 0, End: 2, Demand: 10, Value: 5}
	w, _ := doJSON(t, h, "POST", "/v1/quote", wire)
	if w.Code != http.StatusOK {
		t.Fatalf("quote: status %d body %s", w.Code, w.Body)
	}
	var q wireQuoteResponse
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatalf("quote response: %v", err)
	}
	if q.Cap < 10 || len(q.Segments) == 0 {
		t.Fatalf("quote should offer full demand: %+v", q)
	}
	// The quote is non-binding: no room moved.
	if got := svc.DrainState().Reserved[2][0]; got != 0 {
		t.Fatalf("quote reserved room: %v", got)
	}

	w, _ = doJSON(t, h, "POST", "/v1/admit", wire)
	if w.Code != http.StatusOK {
		t.Fatalf("admit: status %d body %s", w.Code, w.Body)
	}
	var adm wireAdmitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &adm); err != nil {
		t.Fatalf("admit response: %v", err)
	}
	if !adm.Admitted || adm.Bought != 10 || len(adm.Allocs) == 0 {
		t.Fatalf("admit should buy the full demand at value 5 > price 1: %+v", adm)
	}
	// Binding: room moved by exactly the guaranteed bytes.
	total := 0.0
	st := svc.DrainState()
	for e := range st.Reserved {
		for _, v := range st.Reserved[e] {
			total += v
		}
	}
	if total != adm.Guaranteed {
		t.Fatalf("room moved by %v, admitted %v", total, adm.Guaranteed)
	}

	// A worthless request declines.
	wire.ID, wire.Value = 2, 0
	w, _ = doJSON(t, h, "POST", "/v1/admit", wire)
	if w.Code != http.StatusOK {
		t.Fatalf("decline admit: status %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &adm); err != nil {
		t.Fatalf("decline response: %v", err)
	}
	if adm.Admitted {
		t.Fatal("zero-value request must decline")
	}
}

func TestHTTPPublish(t *testing.T) {
	net, h, svc, _ := httpWorld(t)

	// Price-only publish: double everything.
	prices := make([][]float64, net.NumEdges())
	for e := range prices {
		prices[e] = []float64{2}
	}
	w, out := doJSON(t, h, "POST", "/v1/publish", wirePublishRequest{BasePrice: prices})
	if w.Code != http.StatusOK {
		t.Fatalf("publish: status %d body %s", w.Code, w.Body)
	}
	if string(out["epoch"]) != "1" {
		t.Fatalf("publish epoch: %s", out["epoch"])
	}
	wire := wireRequest{ID: 3, Src: "a", Dst: "c", Start: 0, End: 0, Demand: 1, Value: 5}
	w, _ = doJSON(t, h, "POST", "/v1/quote", wire)
	var q wireQuoteResponse
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatalf("quote response: %v", err)
	}
	if q.Epoch != 1 || len(q.Segments) == 0 || q.Segments[0].Price != 2 {
		t.Fatalf("quote after publish should price at 2 in epoch 1: %+v", q)
	}

	// Room-adopting publish clears reservations.
	doJSON(t, h, "POST", "/v1/admit", wireRequest{ID: 4, Src: "a", Dst: "c", Start: 0, End: 0, Demand: 5, Value: 9})
	zero := make([][]float64, net.NumEdges())
	for e := range zero {
		zero[e] = make([]float64, svc.Horizon())
	}
	w, _ = doJSON(t, h, "POST", "/v1/publish", wirePublishRequest{Reserved: zero})
	if w.Code != http.StatusOK {
		t.Fatalf("re-plan publish: status %d body %s", w.Code, w.Body)
	}
	st := svc.DrainState()
	for e := range st.Reserved {
		for ts, v := range st.Reserved[e] {
			if v != 0 {
				t.Fatalf("re-plan left room at edge %d step %d: %v", e, ts, v)
			}
		}
	}
}

func TestHTTPStateAndMetrics(t *testing.T) {
	_, h, _, _ := httpWorld(t)
	w, _ := doJSON(t, h, "POST", "/v1/admit", wireRequest{ID: 1, Src: "a", Dst: "c", Start: 0, End: 0, Demand: 1, Value: 5})
	if w.Code != http.StatusOK {
		t.Fatalf("admit: %d", w.Code)
	}

	w, _ = doJSON(t, h, "GET", "/v1/state", nil)
	var st wireStateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("state: %v", err)
	}
	if st.Shards != 2 || st.Horizon != 6 || st.Edges != 3 || st.Nodes != 3 {
		t.Fatalf("state response: %+v", st)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "serve.admits") {
		t.Fatalf("metrics: %d %s", rec.Code, rec.Body)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, h, svc, _ := httpWorld(t)
	cases := []struct {
		name string
		body any
	}{
		{"unknown src", wireRequest{Src: "nope", Dst: "c", Start: 0, End: 1, Demand: 1}},
		{"unknown dst", wireRequest{Src: "a", Dst: "nope", Start: 0, End: 1, Demand: 1}},
		{"same node", wireRequest{Src: "a", Dst: "a", Start: 0, End: 1, Demand: 1}},
		{"bad window", wireRequest{Src: "a", Dst: "c", Start: 4, End: 2, Demand: 1}},
		{"window past horizon", wireRequest{Src: "a", Dst: "c", Start: 99, End: 100, Demand: 1}},
		{"no demand", wireRequest{Src: "a", Dst: "c", Start: 0, End: 1, Demand: 0}},
		{"junk", map[string]any{"demand": "lots"}},
		{"end at horizon", wireRequest{Src: "a", Dst: "c", Start: 0, End: 6, Demand: 1}},
		{"end far past horizon", wireRequest{Src: "a", Dst: "c", Start: 0, End: 1_000_000, Demand: 1}},
		{"negative value", wireRequest{Src: "a", Dst: "c", Start: 0, End: 1, Demand: 1, Value: -5}},
		{"value overflows", json.RawMessage(`{"src":"a","dst":"c","start":0,"end":1,"demand":1,"value":1e999}`)},
		{"demand overflows", json.RawMessage(`{"src":"a","dst":"c","start":0,"end":1,"demand":1e999}`)},
		{"max_routes above limit", wireRequest{Src: "a", Dst: "c", Start: 0, End: 1, Demand: 1, MaxRoutes: MaxRoutesLimit + 1}},
		{"max_routes 2^20", wireRequest{Src: "a", Dst: "c", Start: 0, End: 1, Demand: 1, MaxRoutes: 1 << 20}},
	}
	for _, tc := range cases {
		for _, path := range []string{"/v1/quote", "/v1/admit"} {
			w, out := doJSON(t, h, "POST", path, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s on %s: status %d, want 400", tc.name, path, w.Code)
			}
			if _, ok := out["error"]; !ok {
				t.Fatalf("%s on %s: no error field in %s", tc.name, path, w.Body)
			}
		}
	}
	// Ragged publish matrix.
	w, _ := doJSON(t, h, "POST", "/v1/publish", wirePublishRequest{BasePrice: [][]float64{{1}}})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("ragged publish: status %d", w.Code)
	}
	if svc.Epoch() != 0 {
		t.Fatalf("rejected publish installed epoch %d", svc.Epoch())
	}
}

// The wire checks reject requests that are out of range, not ones at the
// edge of it.
func TestHTTPAcceptsBoundaryRequests(t *testing.T) {
	_, h, _, _ := httpWorld(t)
	cases := []struct {
		name string
		body wireRequest
	}{
		{"end on last step", wireRequest{Src: "a", Dst: "c", Start: 5, End: 5, Demand: 1, Value: 1}},
		{"zero value", wireRequest{Src: "a", Dst: "c", Start: 0, End: 1, Demand: 1}},
		{"max_routes at limit", wireRequest{Src: "a", Dst: "c", Start: 0, End: 1, Demand: 1, MaxRoutes: MaxRoutesLimit}},
		{"max_routes negative means default", wireRequest{Src: "a", Dst: "c", Start: 0, End: 1, Demand: 1, MaxRoutes: -1}},
	}
	for _, tc := range cases {
		for _, path := range []string{"/v1/quote", "/v1/admit"} {
			if w, _ := doJSON(t, h, "POST", path, tc.body); w.Code != http.StatusOK {
				t.Fatalf("%s on %s: status %d, want 200: %s", tc.name, path, w.Code, w.Body)
			}
		}
	}
}
