// Command perfbench is Pretium's end-to-end benchmark. It runs one
// workload per invocation, checks the program's outputs, and prints one
// JSON result as its last line of standard output:
//
//	bash perfbench/run.sh --workload serve-http --seed 1 --seconds 12 --trace 0
//
// Workloads:
//
//   - serve-http: open-loop HTTP/JSON traffic over loopback against
//     serve.Handler on graph.PaperWAN (T=288): 90% quotes, 10% admits, a
//     price-only publish about once a second. A fixed-rate phase at
//     1,000 requests/s measures latency; a stepped ramp finds the highest
//     rate that holds the latency limit without a growing backlog; then
//     the same mix runs in process through httptest, with no sockets.
//   - control-cycle: core.Controller.Run with the default Pretium
//     configuration over the benchmark's own 5×4-node, 48-step scale.
//   - sam-paper: the paper-scale SAM instance: a cold solve at τ=0,
//     warm re-solves of the unchanged model, and successor steps
//     (Built.Rebind to τ+1, warm-started from the previous basis).
//
// With --trace 0 the result carries the end-to-end metrics, every one
// measured with tracing off; with --trace 1 it carries the per-layer
// metrics and the run writes its spans under the -out directory.
//
// Every run reports every end-to-end metric, so each one has a meaning in
// each workload. The workload's own names (quote_p50_us, max_rate_rps,
// cycle_s, sam_cold_s, ...) are printed above the result line with their
// units, wall-clock included:
//
//	metric        serve-http              control-cycle            sam-paper
//	setup_s       PaperWAN, state,        core.New                 instance on PaperWAN
//	              service, handler,                                + Instance.Build
//	              loopback listener
//	fast_p50_ms   in-process quote        cycle CPU per request    warm re-solve
//	fast_tail_ms  in-process quote tail   slowest cycle's          warm re-solve tail
//	                                      CPU per request
//	slow_p50_ms   in-process admit        cycle CPU per step       successor step
//	slow_tail_ms  in-process admit tail   slowest cycle's          successor step tail
//	                                      CPU per step
//	rate_per_s    requests per CPU-s of   requests per CPU-s of    cold-solve pivots per
//	              the calling thread      Controller.Run           CPU-s
//
// Every gated time is calibrated CPU time (calib.go): CPU time measured
// while a sampler on the same CPU times a fixed yardstick kernel, scaled
// by the yardstick's reference pass time over its measured one, because
// the host's cache contention moved plain CPU time by up to 25% between
// runs. serve-http's is the calling thread's CPU time per ServeHTTP
// call, sam-paper's re-solves the solving thread's, the others the
// process's less the sampler's. On a shared 2-vCPU Xeon VM, wall time also counts
// time the hypervisor gives other tenants; between runs it moved
// loopback medians by ±15%, loopback tails and ramp rates by 2×, the
// controller's per-step Timings by up to 20% and a control cycle by up
// to 35%, which no bound can absorb. The wall-clock and loopback figures
// are printed beside them. setup_s is the median calibrated thread CPU
// time of several constructions in one run.
//
// Tails are the highest percentile, capped at p99, with at least ten
// samples beyond it, or the maximum below 11 samples; the printed name
// says which percentile and how many samples.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics, in BENCHMARK.json order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"}, {"peak_rss_mb", "MB"},
	{"fast_p50_ms", "ms"}, {"fast_tail_ms", "ms"},
	{"slow_p50_ms", "ms"}, {"slow_tail_ms", "ms"},
	{"rate_per_s", "1/s"},
}

func lpMetrics(kind string, warm bool, allocs bool) []metricDef {
	p := "lp." + kind + "."
	ms := []metricDef{
		{p + "iterations", "count"}, {p + "refactorizations", "count"},
		{p + "ftran_ms", "ms"}, {p + "btran_ms", "ms"}, {p + "pricing_ms", "ms"},
		{p + "refactor_ms", "ms"}, {p + "unaccounted_ms", "ms"},
	}
	if warm {
		ms = append(ms, metricDef{p + "warm_start_frac", "frac"})
	}
	if allocs {
		ms = append(ms, metricDef{p + "allocs", "count"})
	}
	return ms
}

// layerNames are the per-layer metrics, in BENCHMARK.json order. Every
// traced run reports all of them; a layer the workload never calls
// reads 0. The first five are reported by every workload; the rest are
// grouped by the workload that exercises them.
var layerNames = func() []metricDef {
	ms := []metricDef{
		{"coverage_frac", "frac"}, {"derived_frac", "frac"}, {"trace_overhead_frac", "frac"},
		{"runtime.gc_pause_ms", "ms"}, {"runtime.gc_cycles", "count"},
		// serve-http
		{"graph.ksp_us", "us"}, {"graph.ksp_allocs", "count"},
		{"serve.quote_us", "us"}, {"serve.admit_us", "us"}, {"serve.admit_wait_us", "us"},
		{"serve.publish_us", "us"}, {"serve.handler_quote_us", "us"}, {"serve.handler_admit_us", "us"},
		{"serve.handler_allocs", "count"}, {"serve.codec_us", "us"}, {"net.loopback_us", "us"},
		{"serve.admit_accept_frac", "frac"}, {"gen.late_p99_us", "us"},
		// control-cycle
		{"core.sam_ms", "ms"}, {"core.pc_ms", "ms"}, {"core.ra_ms", "ms"}, {"core.rest_ms", "ms"},
		{"core.sam_step_p50_ms", "ms"}, {"core.pc_window_p50_ms", "ms"},
		{"core.sam_degraded", "count"}, {"core.ra_admit_frac", "frac"},
	}
	ms = append(ms, lpMetrics("sam", true, false)...)
	ms = append(ms, lpMetrics("pc", true, false)...)
	// sam-paper
	ms = append(ms, metricDef{"sched.build_ms", "ms"}, metricDef{"sched.rebind_ms", "ms"})
	ms = append(ms, lpMetrics("cold", false, true)...)
	ms = append(ms, lpMetrics("step", true, true)...)
	ms = append(ms, lpMetrics("resolve", false, true)...)
	return ms
}()

// derivedLayers are residuals computed from other measurements, not
// measured directly; coverage_frac counts them and derived_frac says how
// much of the end-to-end time they make up.
var derivedLayers = map[string]bool{
	"serve.codec_us": true, "net.loopback_us": true, "serve.admit_wait_us": true,
	"core.rest_ms":          true,
	"lp.sam.unaccounted_ms": true, "lp.pc.unaccounted_ms": true,
	"lp.cold.unaccounted_ms": true, "lp.step.unaccounted_ms": true, "lp.resolve.unaccounted_ms": true,
}

// named is a workload's own headline number, printed by name and unit.
type named struct {
	name  string
	value float64
	unit  string
}

// report is what one workload run measured.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	named     []named
	attempted int
	failed    int
	errs      []error // failed correctness checks
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) note(name string, value float64, unit string) {
	r.named = append(r.named, named{name, value, unit})
}

// check records a failed correctness check.
func (r *report) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

// runCfg is one invocation's settings.
type runCfg struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string
	tr      *tracer
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(runCfg) (*report, error){
	"serve-http":    runServeHTTP,
	"control-cycle": runControlCycle,
	"sam-paper":     runSAMPaper,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "serve-http, control-cycle or sam-paper")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 12, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: per-layer metrics and spans; 0: end-to-end metrics")
		out      = flag.String("out", ".bench_build/perfbench", "directory for span files")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload serve-http|control-cycle|sam-paper, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := runCfg{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	if cfg.trace {
		cfg.tr = newTracer()
	}
	meta := runMeta(*workload, cfg)
	metaLine, _ := json.Marshal(meta) // strings and ints only: cannot fail
	fmt.Printf("meta %s\n", metaLine)

	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.e2e["peak_rss_mb"] = peakRSSMB()

	for _, n := range rep.named {
		fmt.Printf("%s %s %s %s\n", *workload, n.name, strconv.FormatFloat(n.value, 'g', -1, 64), n.unit)
	}
	for _, e := range rep.errs {
		fmt.Printf("%s CHECK FAILED: %v\n", *workload, e)
	}
	res := resultOut{
		Correct:   len(rep.errs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	if cfg.trace {
		for _, m := range layerNames {
			v, set := rep.layer[m.name]
			res.Metrics[m.name] = metricOut{v, m.unit}
			if !set {
				continue // a layer this workload does not call: reported as 0
			}
			label := ""
			if derivedLayers[m.name] {
				label = " (derived)"
			}
			fmt.Printf("%s layer %s %s %s%s\n", *workload, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit, label)
		}
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, cfg.seed))
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("%s spans %s\n", *workload, path)
	} else {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metricOut{rep.e2e[m.name], m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		// A NaN or Inf metric: a bug in the benchmark's arithmetic.
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// meta is the run's provenance, printed before the result.
type meta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func runMeta(workload string, cfg runCfg) meta {
	return meta{
		Workload:   workload,
		Seed:       cfg.seed,
		Seconds:    int(cfg.seconds / time.Second),
		Trace:      cfg.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commitID(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
