package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pretium/internal/graph"
	"pretium/internal/lp"
	"pretium/internal/serve"
)

// admitWorld admits a short generated stream in-process and returns the
// responses, the accumulated expected room, and the service.
func admitWorld(t *testing.T) (*httpChecker, *serve.Service, [][]byte) {
	t.Helper()
	net := graph.PaperWAN(5)
	svc, err := newService(net)
	if err != nil {
		t.Fatal(err)
	}
	h := serve.Handler(svc, nil)
	rep := newReport()
	hc := newHTTPChecker(net, rep)
	gen := newHTTPGen(net, httpPrice0)
	var ops []httpOp
	var samples []sample
	var admits [][]byte
	for _, op := range gen.stream(5, 0, 0, 2*time.Second, httpRate) {
		kind := op.kind
		if kind == opQuote {
			kind = opAdmit // admit everything: the test wants room to move
			op.kind = opAdmit
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, kind.path(), bytes.NewReader(op.body)))
		ops = append(ops, op)
		samples = append(samples, sample{status: rec.Code, body: rec.Body.Bytes()})
		if kind == opAdmit {
			admits = append(admits, rec.Body.Bytes())
		}
	}
	ps := hc.absorb(ops, samples)
	if len(rep.errs) > 0 {
		t.Fatalf("checks fail on genuine responses: %v", rep.errs)
	}
	if ps.accepted == 0 || ps.accepted == ps.admits {
		t.Fatalf("%d of %d admits accepted; the stream should both accept and decline", ps.accepted, ps.admits)
	}
	return hc, svc, admits
}

func TestHTTPChecksPassGenuineAndCatchPlanted(t *testing.T) {
	hc, svc, admits := admitWorld(t)
	hc.finish(svc)
	if len(hc.rep.errs) > 0 {
		t.Fatalf("room check fails on a genuine run: %v", hc.rep.errs)
	}

	// Planted: one admitted byte the service never reserved.
	st := svc.DrainState()
	capacity := func(e, t int) float64 { return st.Capacity(graph.EdgeID(e), t) }
	want := make([][]float64, len(hc.want))
	for e := range want {
		want[e] = append([]float64(nil), hc.want[e]...)
	}
	e, tt := firstNonZero(want)
	want[e][tt] += 1e-6 * want[e][tt]
	if err := checkReserved(st.Reserved, want, capacity); err == nil {
		t.Errorf("checkReserved missed a room mismatch")
	}
	// Planted: a cell over capacity (and so over what was admitted).
	over := make([][]float64, len(st.Reserved))
	for e := range over {
		over[e] = append([]float64(nil), st.Reserved[e]...)
	}
	over[e][tt] = capacity(e, tt) * 1.01
	if err := checkReserved(over, over, capacity); err == nil {
		t.Errorf("checkReserved missed a cell over capacity")
	}
	// Planted: negative room.
	over[e][tt] = -1
	if err := checkReserved(over, over, capacity); err == nil {
		t.Errorf("checkReserved missed negative room")
	}

	// Planted: an accepted admit whose allocations do not sum to bought.
	for _, body := range admits {
		var a map[string]any
		if err := json.Unmarshal(body, &a); err != nil {
			t.Fatal(err)
		}
		if a["admitted"] != true {
			continue
		}
		a["bought"] = a["bought"].(float64) * 1.001
		bad, _ := json.Marshal(a)
		if _, err := checkAdmit(bad); err == nil {
			t.Errorf("checkAdmit missed allocs that do not sum to bought")
		}
		if _, err := checkAdmit(body); err != nil {
			t.Errorf("checkAdmit rejects a genuine admit: %v", err)
		}
		break
	}
	if _, err := checkAdmit([]byte(`{"admitted":true,"bougth":1}`)); err == nil {
		t.Errorf("checkAdmit accepted an unparseable body")
	}
	if err := addAllocs(hc.want, nil, admitResp{Admitted: true, Allocs: []struct {
		Route int     `json:"route"`
		Time  int     `json:"time"`
		Bytes float64 `json:"bytes"`
	}{{Route: 0, Time: 1, Bytes: 1}}}); err == nil {
		t.Errorf("addAllocs accepted an alloc on a route the request does not have")
	}
}

func firstNonZero(m [][]float64) (int, int) {
	for e := range m {
		for t, v := range m[e] {
			if v > 0 {
				return e, t
			}
		}
	}
	return 0, 0
}

func TestCheckQuoteCatchesPlanted(t *testing.T) {
	good := `{"epoch":1,"cap":3,"segments":[{"bytes":1,"price":2,"route":0,"time":4},{"bytes":2,"price":3,"route":1,"time":4}]}`
	if err := checkQuote([]byte(good)); err != nil {
		t.Fatalf("genuine quote rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"cap mismatch":   strings.Replace(good, `"cap":3`, `"cap":4`, 1),
		"negative bytes": strings.Replace(good, `"bytes":1`, `"bytes":-1`, 1),
		"truncated":      good[:len(good)-3],
		"unknown field":  strings.Replace(good, `"epoch"`, `"epoc"`, 1),
	} {
		if err := checkQuote([]byte(bad)); err == nil {
			t.Errorf("checkQuote missed %s", name)
		}
	}
}

func TestControlAndSAMChecksCatchPlanted(t *testing.T) {
	ref := controlRefs[controlSeed]
	if err := checkControl(controlSeed, ref); err != nil {
		t.Fatalf("reference rejected: %v", err)
	}
	off := ref
	off.Admitted++
	if checkControl(controlSeed, off) == nil {
		t.Errorf("checkControl missed an admitted-count change")
	}
	off = ref
	off.Welfare *= 1 + 1e-8
	if checkControl(controlSeed, off) == nil {
		t.Errorf("checkControl missed a welfare change")
	}
	off = ref
	off.Profit *= 1 - 1e-8
	if checkControl(controlSeed, off) == nil {
		t.Errorf("checkControl missed a profit change")
	}
	if checkControl(controlSeed+1, ref) == nil {
		t.Errorf("checkControl passed a seed with no reference")
	}

	obj := samRefObjective[samSeed]
	if err := checkSAMCold(samSeed, lp.Optimal, obj); err != nil {
		t.Fatalf("reference rejected: %v", err)
	}
	if checkSAMCold(samSeed, lp.TimeLimit, obj) == nil {
		t.Errorf("checkSAMCold passed a non-optimal solve")
	}
	if checkSAMCold(samSeed, lp.Optimal, obj*(1+1e-8)) == nil {
		t.Errorf("checkSAMCold missed an objective change")
	}
	if err := checkSAMResolve(lp.Optimal, obj*(1-1e-8), obj); err != nil {
		t.Errorf("checkSAMResolve rejected an alternate optimum within tolerance: %v", err)
	}
	if checkSAMResolve(lp.Optimal, obj*(1-1e-5), obj) == nil {
		t.Errorf("checkSAMResolve missed a worse objective")
	}
	if checkSAMResolve(lp.Infeasible, obj, obj) == nil {
		t.Errorf("checkSAMResolve passed a non-optimal re-solve")
	}
	if checkSAMStep(lp.Optimal, obj*(1+1e-5), obj) == nil {
		t.Errorf("checkSAMStep missed a successor step beating the τ=0 optimum")
	}
	if err := checkSAMStep(lp.TimeLimit, 0, obj); err != nil {
		t.Errorf("checkSAMStep treats a failed step as wrong: %v", err)
	}
}

func TestStepPassesRejectsGrowingBacklog(t *testing.T) {
	mk := func(lat func(i int) time.Duration) ([]sample, []httpOp) {
		var ss []sample
		var ops []httpOp
		for i := 0; i < 400; i++ {
			due := time.Duration(i) * time.Millisecond
			ss = append(ss, sample{due: due, done: due + lat(i), status: http.StatusOK})
			ops = append(ops, httpOp{kind: opQuote, due: due})
		}
		return ss, ops
	}
	if ok, why := stepPasses(mk(func(int) time.Duration { return 500 * time.Microsecond })); !ok {
		t.Errorf("steady step failed: %s", why)
	}
	// Latency climbing 15 µs per request: 6 ms by the end, under the
	// limit, but the queue never drains.
	if ok, _ := stepPasses(mk(func(i int) time.Duration { return time.Duration(i) * 15 * time.Microsecond })); ok {
		t.Errorf("step with a growing backlog passed")
	}
	if ok, _ := stepPasses(mk(func(i int) time.Duration { return time.Duration(1+i%25/24*20) * time.Millisecond })); ok {
		t.Errorf("step with a tail over the limit passed")
	}
	ss, ops := mk(func(int) time.Duration { return time.Millisecond })
	ss[10].status = http.StatusBadRequest
	if ok, _ := stepPasses(ss, ops); ok {
		t.Errorf("step with a failed request passed")
	}
}
