package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"pretium/internal/graph"
	"pretium/internal/pricing"
	"pretium/internal/serve"
	"pretium/internal/traffic"
)

const (
	// httpRate is the offered rate of the latency phase, requests/s.
	httpRate = 1000.0
	// latencyLimit is the most a quote or admit may take, timed from when
	// it was due. The ramp fails a step whose tail exceeds it; in the
	// fixed-rate phases a slower request is counted and printed as
	// over_limit_frac, not as a failed operation: over loopback on a shared
	// VM how many requests miss it is set by host steal (the same code gave
	// 263 and 463 misses in two sets of ten runs, of ~52,000 loopback
	// requests each), and a failed operation must be one the program got
	// wrong. The paper's RA answers in
	// milliseconds.
	latencyLimit = 10 * time.Millisecond
	// httpShards is the admission shard count pretium-serve ships with.
	httpShards = 8
	// httpPrice0 is the initial uniform base price pretium-serve ships with.
	httpPrice0 = 1.0
	// httpConns is the client connection count: two, one per core.
	httpConns = 2
	// setupRepeats is how many times a run sets the program up; setup_s
	// is the median.
	setupRepeats = 11
	// rampStep is how long each ramp step offers its rate. Each step
	// carries exactly one publish, half-way through, so every step meets
	// the publish barrier once and steps compare like for like.
	rampStep = time.Second
	// rampStart is the ramp's first rate, above the latency phase's.
	rampStart = 1.5 * httpRate
	// rampGrowth is the coarse ramp's rate ratio between steps; three
	// bisections after the first failing step refine it to ~3%.
	rampGrowth  = 1.25
	rampBisects = 3
	// probeN is how many requests each in-process layer probe times.
	probeN = 2000
)

const (
	spanHeader = "X-Perfbench-Span"
	reqHeader  = "X-Perfbench-Req"
)

// httpWorld is one constructed service behind a loopback server.
type httpWorld struct {
	net *graph.Network
	svc *serve.Service
	srv *httptest.Server
}

// newHTTPWorld builds the program: topology, pricing state, service,
// handler and a loopback listener. wrap, when non-nil, wraps the handler.
func newHTTPWorld(seed int64, wrap func(http.Handler) http.Handler) (*httpWorld, error) {
	net := graph.PaperWAN(seed)
	svc, err := newService(net)
	if err != nil {
		return nil, err
	}
	h := serve.Handler(svc, nil)
	if wrap != nil {
		h = wrap(h)
	}
	return &httpWorld{net: net, svc: svc, srv: httptest.NewServer(h)}, nil
}

func newService(net *graph.Network) (*serve.Service, error) {
	svc, err := serve.New(pricing.NewState(net, paperHorizon, httpPrice0), serve.Config{Shards: httpShards})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	return svc, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     httpConns,
		MaxIdleConnsPerHost: httpConns,
		DisableCompression:  true,
	}}
}

// sample is one sent request. Offsets are from the phase start.
type sample struct {
	due, disp, done time.Duration
	status          int
	err             error
	body            []byte
}

func (s *sample) latency() time.Duration { return s.done - s.due }
func (s *sample) ok() bool               { return s.err == nil && s.status == http.StatusOK }

// openLoop sends ops on schedule over at most httpConns connections and
// returns one sample per op. The dispatcher never waits for a reply: a
// request that finds every connection busy queues, and the queueing
// counts in its latency because latency is timed from when it was due.
func openLoop(c *http.Client, base string, ops []httpOp, tr *tracer) []sample {
	samples := make([]sample, len(ops))
	disp := make([]time.Duration, len(ops))
	// Sized to the whole stream so the dispatcher never blocks on busy
	// connections: a queued request waits here.
	jobs := make(chan int, len(ops))
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < httpConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				samples[i] = send(c, base, &ops[i], start, tr)
			}
		}()
	}
	dispatch(ops, start, disp, jobs)
	close(jobs)
	wg.Wait()
	for i := range samples {
		samples[i].due = ops[i].due
		samples[i].disp = disp[i]
	}
	return samples
}

// dispatch releases each op into jobs at its due time. It runs on a
// locked OS thread with a 1 ns timer slack, sleeps in nanosleep until
// ~30 µs before each due time and spins the rest: Go's own timers round
// sub-millisecond sleeps up to ~1 ms on Linux, which would make the
// generator, not the server, set the latency.
func dispatch(ops []httpOp, start time.Time, disp []time.Duration, jobs chan<- int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: default slack only costs precision
	for i := range ops {
		due := start.Add(ops[i].due)
		for {
			d := time.Until(due)
			if d <= 0 {
				break
			}
			if d > 60*time.Microsecond {
				ts := syscall.NsecToTimespec(int64(d - 30*time.Microsecond))
				_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
			}
		}
		disp[i] = time.Since(start)
		jobs <- i
	}
}

func send(c *http.Client, base string, op *httpOp, start time.Time, tr *tracer) sample {
	req, err := http.NewRequest(http.MethodPost, base+op.kind.path(), bytes.NewReader(op.body))
	if err != nil {
		return sample{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	id := tr.reserve()
	if tr != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		req.Header.Set(reqHeader, strconv.Itoa(op.req.ID))
	}
	t0 := time.Now()
	var s sample
	resp, err := c.Do(req)
	if err == nil {
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	t1 := time.Now()
	s.err = err
	s.done = t1.Sub(start)
	tr.addID(id, "http.client"+op.kind.path(), 0, int64(op.req.ID), t0, t1)
	return s
}

// spanHandler records a server-side span around serve.Handler's
// ServeHTTP for every request carrying a span header.
type spanHandler struct {
	h  http.Handler
	tr *tracer
}

func (s spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	if err != nil {
		s.h.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64) // set with the span header
	t0 := time.Now()
	s.h.ServeHTTP(w, r)
	s.tr.add("serve.ServeHTTP"+r.URL.Path, parent, req, t0, time.Now())
}

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	quote, admit []float64 // latencies from due, µs
	late         []float64 // generator lateness, µs
	attempted    int
	failed       int // non-2xx responses and transport errors
	overLimit    int // quotes and admits slower than latencyLimit
	admits       int
	accepted     int
}

func (ps *phaseStats) merge(o phaseStats) {
	ps.quote = append(ps.quote, o.quote...)
	ps.admit = append(ps.admit, o.admit...)
	ps.late = append(ps.late, o.late...)
	ps.attempted += o.attempted
	ps.failed += o.failed
	ps.overLimit += o.overLimit
	ps.admits += o.admits
	ps.accepted += o.accepted
}

// httpChecker validates responses and accumulates the admitted
// allocations for the final room check.
type httpChecker struct {
	net  *graph.Network
	want [][]float64
	rep  *report
}

func newHTTPChecker(net *graph.Network, rep *report) *httpChecker {
	want := make([][]float64, net.NumEdges())
	for e := range want {
		want[e] = make([]float64, paperHorizon)
	}
	return &httpChecker{net: net, want: want, rep: rep}
}

// absorb checks every 200 response of a phase and summarises it.
func (hc *httpChecker) absorb(ops []httpOp, samples []sample) phaseStats {
	var ps phaseStats
	for i := range samples {
		s, op := &samples[i], &ops[i]
		ps.attempted++
		ps.late = append(ps.late, float64(s.disp-s.due)/1e3)
		if !s.ok() {
			ps.failed++
			continue
		}
		lat := float64(s.latency()) / 1e3
		switch op.kind {
		case opQuote:
			ps.quote = append(ps.quote, lat)
			hc.rep.check(checkQuote(s.body))
		case opAdmit:
			ps.admit = append(ps.admit, lat)
			ps.admits++
			a, err := checkAdmit(s.body)
			hc.rep.check(err)
			if err == nil && a.Admitted {
				ps.accepted++
				hc.rep.check(addAllocs(hc.want, hc.routes(op.req), a))
			}
		case opPublish:
			var out struct {
				Epoch uint64 `json:"epoch"`
			}
			hc.rep.check(decodeStrict(s.body, &out))
			continue // the operator's call: no customer latency limit
		}
		if s.latency() > latencyLimit {
			ps.overLimit++
		}
	}
	return ps
}

func (hc *httpChecker) routes(w wireReq) []graph.Path {
	src, _ := hc.net.NodeByName(w.Src)
	dst, _ := hc.net.NodeByName(w.Dst)
	return hc.net.KShortestPaths(src, dst, serve.DefaultMaxRoutes)
}

// finish drains the service and checks its room picture against every
// admitted allocation.
func (hc *httpChecker) finish(svc *serve.Service) {
	st := svc.DrainState()
	hc.rep.check(checkReserved(st.Reserved, hc.want, func(e, t int) float64 {
		return st.Capacity(graph.EdgeID(e), t)
	}))
}

// stepPasses judges one ramp step: no failed request, the tail latency
// within the limit, and no growing backlog — the last quarter's median
// latency within a quarter of the limit of the first quarter's, so a
// queue (or a stalled generator) that keeps growing fails the step.
func stepPasses(samples []sample, ops []httpOp) (bool, string) {
	var lat []float64
	for i := range samples {
		if ops[i].kind == opPublish {
			if !samples[i].ok() {
				return false, "publish failed"
			}
			continue
		}
		if !samples[i].ok() {
			return false, "request failed"
		}
		lat = append(lat, float64(samples[i].latency()))
	}
	if len(lat) < 8 {
		return false, "too few requests"
	}
	if t, _ := tail(lat); t > float64(latencyLimit) {
		return false, fmt.Sprintf("tail %.0f µs over the limit", t/1e3)
	}
	q := len(lat) / 4
	if median(lat[len(lat)-q:]) > median(lat[:q])+float64(latencyLimit)/4 {
		return false, "backlog grows"
	}
	return true, ""
}

// rampResult is the stepped ramp's outcome.
type rampResult struct {
	maxRate float64
	steps   []string
}

// runRamp offers rising rates until a step fails, then bisects between
// the last passing and the first failing rate. The ramp stops early when
// its time budget runs out.
func runRamp(c *http.Client, base string, gen *httpGen, hc *httpChecker, seed int64, budget time.Duration, firstID int) rampResult {
	var rr rampResult
	deadline := time.Now().Add(budget)
	step := 0
	try := func(rate float64) bool {
		ops := gen.stream(seed*1_000_003+int64(step), firstID, rampStep/2, rampStep, rate)
		firstID += len(ops)
		step++
		samples := openLoop(c, base, ops, nil)
		hc.absorb(ops, samples)
		pass, why := stepPasses(samples, ops)
		label := fmt.Sprintf("%.0f:ok", rate)
		if !pass {
			label = fmt.Sprintf("%.0f:fail(%s)", rate, why)
		}
		rr.steps = append(rr.steps, label)
		time.Sleep(50 * time.Millisecond) // let the step's stragglers and GC settle
		return pass
	}
	pass, fail := 0.0, 0.0
	for rate := rampStart; time.Now().Add(rampStep).Before(deadline); rate *= rampGrowth {
		if !try(rate) {
			fail = rate
			break
		}
		pass = rate
	}
	for k := 0; k < rampBisects && fail > 0 && pass > 0 && time.Now().Add(rampStep).Before(deadline); k++ {
		mid := math.Sqrt(pass * fail)
		if try(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	rr.maxRate = pass
	return rr
}

// setupWorlds builds the program setupRepeats times and keeps the last;
// it returns the median construction time in calibrated thread CPU
// seconds.
func setupWorlds(seed int64, wrap func(http.Handler) http.Handler) (*httpWorld, float64, error) {
	var w *httpWorld
	setup, err := calibratedSetup(setupRepeats, func(int) error {
		if w != nil {
			w.srv.Close()
		}
		var err error
		w, err = newHTTPWorld(seed, wrap)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return w, setup, nil
}

func runServeHTTP(cfg runCfg) (*report, error) {
	rep := newReport()
	var wrap func(http.Handler) http.Handler
	if cfg.trace {
		wrap = func(h http.Handler) http.Handler { return spanHandler{h: h, tr: cfg.tr} }
	}
	w, setup, err := setupWorlds(httpTopoSeed, wrap)
	if err != nil {
		return nil, err
	}
	defer w.srv.Close()
	rep.e2e["setup_s"] = setup
	rep.note("setup_s", setup, "s")
	c := newClient()
	defer c.CloseIdleConnections()
	base := w.srv.URL
	gen := newHTTPGen(w.net, httpPrice0)
	hc := newHTTPChecker(w.net, rep)

	// Warm-up: connections, pools and caches; checked, not counted.
	nextID := 0
	warm := gen.stream(cfg.seed*1_000_003-1, nextID, 0, 300*time.Millisecond, httpRate)
	nextID += len(warm)
	hc.absorb(warm, openLoop(c, base, warm, nil))

	if cfg.trace {
		err = traceServeHTTP(cfg, rep, w, c, gen, hc, nextID)
	} else {
		fixedServeHTTP(cfg, rep, w, c, gen, hc, nextID)
	}
	if err != nil {
		return nil, err
	}
	hc.finish(w.svc)
	return rep, nil
}

// fixedServeHTTP is the untraced run. Over loopback: the latency phase
// at httpRate, then the ramp. In process: the same mix through
// serve.Handler with no sockets, whose numbers are the run's end-to-end
// metrics (see inProcess).
func fixedServeHTTP(cfg runCfg, rep *report, w *httpWorld, c *http.Client, gen *httpGen, hc *httpChecker, nextID int) {
	// Half the run goes to the in-process phase, whose numbers are gated:
	// its admit tail is a p99 over ~10% of the requests.
	loopDur, rampDur := cfg.seconds*20/100, cfg.seconds*30/100
	ops := gen.stream(cfg.seed, nextID, 0, loopDur, httpRate)
	nextID += len(ops)
	ps := hc.absorb(ops, openLoop(c, w.srv.URL, ops, nil))
	rr := runRamp(c, w.srv.URL, gen, hc, cfg.seed, rampDur, nextID)
	ip, ipWall, busy := inProcess(serve.Handler(w.svc, nil), gen, hc, cfg.seed, 20_000_000, cfg.seconds-loopDur-rampDur, nil)
	rep.attempted = ps.attempted + ip.attempted
	rep.failed = ps.failed + ip.failed

	qt, qq := tail(ip.quote)
	at, aq := tail(ip.admit)
	rep.e2e["fast_p50_ms"], rep.e2e["fast_tail_ms"] = median(ip.quote)/1e3, qt/1e3
	rep.e2e["slow_p50_ms"], rep.e2e["slow_tail_ms"] = median(ip.admit)/1e3, at/1e3
	rep.e2e["rate_per_s"] = float64(ip.attempted) / busy.Seconds()
	rep.note("inproc_quote_cal_cpu_p50_us", median(ip.quote), "us")
	rep.note(tailName("inproc_quote_cal_cpu", qq, len(ip.quote), "us"), qt, "us")
	rep.note("inproc_admit_cal_cpu_p50_us", median(ip.admit), "us")
	rep.note(tailName("inproc_admit_cal_cpu", aq, len(ip.admit), "us"), at, "us")
	rep.note("inproc_rate_per_cal_cpu_s", rep.e2e["rate_per_s"], "1/s")
	wt, wq := tail(ipWall)
	rep.note("inproc_wall_p50_us", median(ipWall), "us")
	rep.note(tailName("inproc_wall", wq, len(ipWall), "us"), wt, "us")

	qt, qq = tail(ps.quote)
	at, aq = tail(ps.admit)
	lt, _ := tail(ps.late)
	rep.note("quote_p50_us", median(ps.quote), "us")
	rep.note(tailName("quote", qq, len(ps.quote), "us"), qt, "us")
	rep.note("admit_p50_us", median(ps.admit), "us")
	rep.note(tailName("admit", aq, len(ps.admit), "us"), at, "us")
	rep.note("max_rate_rps", rr.maxRate, "1/s")
	rep.note("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "frac")
	rep.note("over_limit_frac", ratio(float64(ps.overLimit), float64(ps.attempted)), "frac")
	rep.note("gen.late_p50_us", median(ps.late), "us")
	rep.note("gen.late_p99_us", lt, "us")
	rep.note("admit_accept_frac", ratio(float64(ps.accepted+ip.accepted), float64(ps.admits+ip.admits)), "frac")
	fmt.Printf("serve-http ramp %v\n", rr.steps)
}

// inProcess drives serve.Handler through httptest with no sockets: one
// caller, locked to its OS thread, issuing the request mix back to back
// (each 1,000 requests preceded by a publish) until the budget runs out.
// Each call is timed alone by the thread's CPU clock, in a calibrated
// region (calib.go): on a shared 2-vCPU Xeon VM, wall time also counts
// time the hypervisor gave to other tenants, which moved loopback medians
// by ±15% and tails and ramp rates by 2× between runs, and CPU time
// moves with the host's cache contention. The returned phase summary
// holds these calibrated CPU times; wall holds the same calls' wall
// times, and busy the calibrated CPU time of all calls.
func inProcess(h http.Handler, gen *httpGen, hc *httpChecker, seed int64, firstID int, budget time.Duration, tr *tracer) (ps phaseStats, wall []float64, busy time.Duration) {
	cal := calibrated(func() { ps, wall, busy = inProcessRaw(h, gen, hc, seed, firstID, budget, tr) })
	k := cal.scale()
	for _, xs := range [][]float64{ps.quote, ps.admit} {
		for i := range xs {
			xs[i] *= k
		}
	}
	return ps, wall, time.Duration(float64(busy) * k)
}

// inProcessRaw is inProcess without the calibration: thread CPU times.
func inProcessRaw(h http.Handler, gen *httpGen, hc *httpChecker, seed int64, firstID int, budget time.Duration, tr *tracer) (ps phaseStats, wall []float64, busy time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	deadline := start.Add(budget)
	for chunk := int64(0); time.Now().Before(deadline); chunk++ {
		ops := gen.stream(seed*7_000_003+chunk, firstID, 0, time.Second, httpRate)
		firstID += len(ops)
		samples := make([]sample, len(ops))
		for i := range ops {
			op := &ops[i]
			req := httptest.NewRequest(http.MethodPost, op.kind.path(), bytes.NewReader(op.body))
			rec := httptest.NewRecorder()
			t0, c0 := time.Now(), threadCPU()
			h.ServeHTTP(rec, req)
			c1, t1 := threadCPU(), time.Now()
			busy += c1 - c0
			samples[i] = sample{done: c1 - c0, status: rec.Code, body: rec.Body.Bytes()}
			if op.kind != opPublish {
				wall = append(wall, float64(t1.Sub(t0))/1e3)
			}
			tr.add("serve.ServeHTTP"+op.kind.path(), 0, int64(op.req.ID), t0, t1)
		}
		ps.merge(hc.absorb(ops, samples))
	}
	return ps, wall, busy
}

// traceServeHTTP is the traced run: the in-process phase untraced and
// then traced (its medians give the tracing overhead), the loopback
// latency phase traced (client and server spans), then in-process probes
// of each layer on fresh services built from the same topology.
func traceServeHTTP(cfg runCfg, rep *report, w *httpWorld, c *http.Client, gen *httpGen, hc *httpChecker, nextID int) error {
	h := serve.Handler(w.svc, nil)
	ipA, _, _ := inProcess(h, gen, hc, cfg.seed, 20_000_000, cfg.seconds/5, nil)
	ipB, _, _ := inProcess(h, gen, hc, cfg.seed+1, 30_000_000, cfg.seconds/5, cfg.tr)

	ops := gen.stream(cfg.seed, nextID, 0, cfg.seconds*3/10, httpRate)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ps := hc.absorb(ops, openLoop(c, w.srv.URL, ops, cfg.tr))
	runtime.ReadMemStats(&ms1)
	rep.attempted = ipA.attempted + ipB.attempted + ps.attempted
	rep.failed = ipA.failed + ipB.failed + ps.failed

	pr, err := probeLayers(cfg, w.net, gen)
	if err != nil {
		return err
	}
	e2e := median(ps.quote)
	codec := nonNeg(pr.handlerQuote - pr.ksp - pr.quote)
	loop := nonNeg(e2e - pr.handlerQuote)
	lt, _ := tail(ps.late)
	L := rep.layer
	L["graph.ksp_us"], L["graph.ksp_allocs"] = pr.ksp, pr.kspAllocs
	L["serve.quote_us"], L["serve.admit_us"] = pr.quote, pr.admit
	L["serve.admit_wait_us"] = nonNeg(pr.admit2 - pr.admit)
	L["serve.publish_us"] = pr.publish
	L["serve.handler_quote_us"], L["serve.handler_admit_us"] = pr.handlerQuote, pr.handlerAdmit
	L["serve.handler_allocs"] = pr.handlerAllocs
	L["serve.codec_us"], L["net.loopback_us"] = codec, loop
	L["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	L["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	L["serve.admit_accept_frac"] = ratio(float64(ps.accepted), float64(ps.admits))
	L["gen.late_p99_us"] = lt
	L["coverage_frac"] = ratio(pr.ksp+pr.quote+codec+loop, e2e)
	L["derived_frac"] = ratio(codec+loop, e2e)
	L["trace_overhead_frac"] = ratio(median(ipB.quote), median(ipA.quote)) - 1
	rep.note("quote_p50_us(loopback)", e2e, "us")
	rep.note("inproc_quote_p50_us(untraced)", median(ipA.quote), "us")
	rep.note("inproc_quote_p50_us(traced)", median(ipB.quote), "us")
	return nil
}

// probes holds the in-process layer medians, µs, and alloc counts.
type probes struct {
	ksp, kspAllocs                            float64
	quote, admit, admit2, publish             float64
	handlerQuote, handlerAdmit, handlerAllocs float64
}

// probeLayers times each layer's public call on its own: Yen's
// k-shortest paths, Service.Quote/Admit/Publish, and ServeHTTP through
// httptest with no network. Each probe that changes room gets a fresh
// service so probes do not see each other's admissions.
func probeLayers(cfg runCfg, net *graph.Network, gen *httpGen) (probes, error) {
	var pr probes
	tr := cfg.tr
	var ops []httpOp
	for _, op := range gen.stream(cfg.seed+2, 10_000_000, 0, probeN*time.Second*12/10/httpRate, httpRate) {
		if op.kind != opPublish {
			ops = append(ops, op)
		}
		if len(ops) == probeN {
			break
		}
	}
	reqs := make([]*traffic.Request, len(ops))
	times := make([]time.Duration, len(ops))
	starts := make([]time.Time, len(ops))
	record := func(name string) []float64 {
		for i := range ops {
			tr.add(name, 0, int64(ops[i].req.ID), starts[i], starts[i].Add(times[i]))
		}
		return durs(times, time.Microsecond)
	}
	var m0, m1 runtime.MemStats

	runtime.ReadMemStats(&m0)
	for i, op := range ops {
		src, _ := net.NodeByName(op.req.Src)
		dst, _ := net.NodeByName(op.req.Dst)
		starts[i] = time.Now()
		routes := net.KShortestPaths(src, dst, serve.DefaultMaxRoutes)
		times[i] = time.Since(starts[i])
		reqs[i] = &traffic.Request{
			ID: op.req.ID, Src: src, Dst: dst, Routes: routes,
			Arrival: op.req.Start, Start: op.req.Start, End: op.req.End,
			Demand: op.req.Demand, Value: op.req.Value, Kind: traffic.ByteRequest,
		}
	}
	runtime.ReadMemStats(&m1)
	pr.ksp = median(record("graph.KShortestPaths"))
	// The loop's own allocations are the Request structs: one per call.
	pr.kspAllocs = float64(m1.Mallocs-m0.Mallocs)/float64(len(ops)) - 1

	svc, err := newService(net)
	if err != nil {
		return pr, err
	}
	for i, r := range reqs {
		starts[i] = time.Now()
		svc.Quote(r, r.Demand)
		times[i] = time.Since(starts[i])
	}
	pr.quote = median(record("serve.Service.Quote"))

	svcA, err := newService(net)
	if err != nil {
		return pr, err
	}
	for i, r := range reqs {
		starts[i] = time.Now()
		svcA.Admit(r)
		times[i] = time.Since(starts[i])
	}
	pr.admit = median(record("serve.Service.Admit"))

	// Two callers admitting concurrently: the difference from the serial
	// median is time spent waiting on the sequencer (and on each other).
	svcB, err := newService(net)
	if err != nil {
		return pr, err
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reqs); i += 2 {
				starts[i] = time.Now()
				svcB.Admit(reqs[i])
				times[i] = time.Since(starts[i])
			}
		}(g)
	}
	wg.Wait()
	pr.admit2 = median(record("serve.Service.Admit(2 callers)"))

	r := rand.New(rand.NewSource(cfg.seed + 3))
	var pub []float64
	for i := 0; i < 20; i++ {
		plan := svcA.DrainState()
		if err := plan.SetPricesWindow(0, gen.publishWindow(r)); err != nil {
			return pr, fmt.Errorf("publish probe: %w", err)
		}
		t0 := time.Now()
		if err := svcA.Publish(plan, false); err != nil {
			return pr, fmt.Errorf("publish probe: %w", err)
		}
		t1 := time.Now()
		tr.add("serve.Service.Publish", 0, -1, t0, t1)
		pub = append(pub, float64(t1.Sub(t0))/1e3)
	}
	pr.publish = median(pub)

	handler := func(kind opKind) (float64, float64, error) {
		s, err := newService(net)
		if err != nil {
			return 0, 0, err
		}
		h := serve.Handler(s, nil)
		hreqs := make([]*http.Request, len(ops))
		recs := make([]*httptest.ResponseRecorder, len(ops))
		for i := range ops {
			hreqs[i] = httptest.NewRequest(http.MethodPost, kind.path(), bytes.NewReader(ops[i].body))
			recs[i] = httptest.NewRecorder()
		}
		runtime.ReadMemStats(&m0)
		for i := range ops {
			starts[i] = time.Now()
			h.ServeHTTP(recs[i], hreqs[i])
			times[i] = time.Since(starts[i])
		}
		runtime.ReadMemStats(&m1)
		for i := range recs {
			if recs[i].Code != http.StatusOK {
				return 0, 0, fmt.Errorf("in-process %s answered %d: %s", kind.path(), recs[i].Code, recs[i].Body.Bytes())
			}
		}
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(len(ops))
		return median(record("serve.ServeHTTP" + kind.path())), allocs, nil
	}
	if pr.handlerQuote, pr.handlerAllocs, err = handler(opQuote); err != nil {
		return pr, err
	}
	if pr.handlerAdmit, _, err = handler(opAdmit); err != nil {
		return pr, err
	}
	return pr, nil
}
