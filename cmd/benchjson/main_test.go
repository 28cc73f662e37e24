package main

import (
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	// A real -benchmem line with a custom ReportMetric unit mixed in.
	line := "BenchmarkSAMSolve/Paper/sparse-8     1   20975531190 ns/op   112403 pivots   52428800 B/op   123456 allocs/op"
	r, ok := parseBenchLine(line)
	if !ok {
		t.Fatalf("parseBenchLine rejected %q", line)
	}
	if r.Name != "BenchmarkSAMSolve/Paper/sparse" {
		t.Errorf("name = %q, want cpu-count suffix stripped", r.Name)
	}
	if r.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", r.Iterations)
	}
	if r.NsPerOp != 20975531190 {
		t.Errorf("ns_per_op = %v, want 20975531190", r.NsPerOp)
	}
	if r.BytesPerOp != 52428800 {
		t.Errorf("bytes_per_op = %v, want 52428800", r.BytesPerOp)
	}
	if r.AllocsPerOp != 123456 {
		t.Errorf("allocs_per_op = %v, want 123456", r.AllocsPerOp)
	}
	if r.Metrics["pivots"] != 112403 {
		t.Errorf("metrics[pivots] = %v, want 112403", r.Metrics["pivots"])
	}
	// The promoted units stay in the metrics map too (backwards compat).
	if r.Metrics["ns/op"] != r.NsPerOp {
		t.Errorf("metrics[ns/op] = %v, want %v", r.Metrics["ns/op"], r.NsPerOp)
	}
}

func TestParseBenchLineNoBenchmem(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkQuote-16   948   1264473 ns/op")
	if !ok {
		t.Fatal("parseBenchLine rejected a plain ns/op line")
	}
	if r.NsPerOp != 1264473 {
		t.Errorf("ns_per_op = %v, want 1264473", r.NsPerOp)
	}
	if r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
		t.Errorf("bytes/allocs = %v/%v, want 0/0 when -benchmem is off", r.BytesPerOp, r.AllocsPerOp)
	}
}

func TestParseBenchLineRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"pkg: pretium/internal/sched",
		"ok  \tpretium/internal/sched\t24.9s",
		"BenchmarkBroken-8 notanumber 5 ns/op",
		"",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine accepted %q", line)
		}
	}
}

func TestParseGate(t *testing.T) {
	g, err := parseGate("BenchmarkSAMSolve/Paper/sparse:allocs/op<=364000")
	if err != nil {
		t.Fatalf("parseGate: %v", err)
	}
	if g.bench != "BenchmarkSAMSolve/Paper/sparse" || g.unit != "allocs/op" || g.bound != 364000 || g.floor {
		t.Errorf("gate = %+v", g)
	}
	g, err = parseGate("BenchmarkServiceMixed:ops/sec>=1000000")
	if err != nil {
		t.Fatalf("parseGate floor: %v", err)
	}
	if g.bench != "BenchmarkServiceMixed" || g.unit != "ops/sec" || g.bound != 1000000 || !g.floor {
		t.Errorf("floor gate = %+v", g)
	}
	for _, bad := range []string{"", "nobench", "name:unit", "name<=5", ":unit<=5", "name:<=5", "name:unit<=x", "name:unit>=x", ":unit>=5"} {
		if _, err := parseGate(bad); err == nil {
			t.Errorf("parseGate accepted %q", bad)
		}
	}
}

func TestGateCheck(t *testing.T) {
	results := []result{{
		Name:    "BenchmarkSAMSolve/Paper/sparse",
		NsPerOp: 14.2e9,
		Metrics: map[string]float64{"pivots": 28854, "allocs/op": 330894, "ns/op": 14.2e9},
	}}
	cases := []struct {
		gate string
		ok   bool
	}{
		{"BenchmarkSAMSolve/Paper/sparse:pivots<=37000", true},
		{"BenchmarkSAMSolve/Paper/sparse:pivots<=28854", true}, // ceiling is inclusive
		{"BenchmarkSAMSolve/Paper/sparse:pivots<=28853", false},
		{"BenchmarkSAMSolve/Paper/sparse:refactors<=100", false}, // unit not reported
		{"BenchmarkGone:pivots<=1e9", false},                     // bench not present
		// Wall-clock ceilings via the promoted field name and the raw unit.
		{"BenchmarkSAMSolve/Paper/sparse:ns_per_op<=45000000000", true},
		{"BenchmarkSAMSolve/Paper/sparse:ns_per_op<=1000000000", false},
		{"BenchmarkSAMSolve/Paper/sparse:ns/op<=45000000000", true},
		// A promoted field the bench never reported (zero) stays a failure:
		// a disarmed wall-clock gate must be loud, not silently green.
		{"BenchmarkSAMSolve/Paper/sparse:bytes_per_op<=1", false},
		// Floors: a throughput-style metric must not fall below the bar.
		{"BenchmarkSAMSolve/Paper/sparse:pivots>=20000", true},
		{"BenchmarkSAMSolve/Paper/sparse:pivots>=28854", true}, // floor is inclusive
		{"BenchmarkSAMSolve/Paper/sparse:pivots>=28855", false},
		{"BenchmarkGone:pivots>=1", false},
		{"BenchmarkSAMSolve/Paper/sparse:refactors>=1", false},
	}
	for _, c := range cases {
		g, err := parseGate(c.gate)
		if err != nil {
			t.Fatalf("parseGate(%q): %v", c.gate, err)
		}
		if got := g.check(results) == nil; got != c.ok {
			t.Errorf("gate %q: pass = %v, want %v", c.gate, got, c.ok)
		}
	}
}

func TestReadReportMeta(t *testing.T) {
	nproc := strconv.Itoa(runtime.NumCPU())
	for _, tc := range []struct {
		name, in, gomaxprocs string
	}{
		{
			name: "suffix",
			in: "goos: linux\ncpu: Intel(R) Xeon(R)\n" +
				"BenchmarkQuoteMenu/wide-4   100   1264 ns/op\n" +
				"BenchmarkAdmit-2   100   720 ns/op\n",
			gomaxprocs: "4", // the first suffix wins
		},
		{
			// go test prints no suffix at GOMAXPROCS=1, and loadgen's
			// lines never carry one: fall back to this process's value.
			name:       "no-suffix",
			in:         "BenchmarkLoadgen/closed_loop   1   500 ns/op   2000000 ops/sec\n",
			gomaxprocs: strconv.Itoa(runtime.GOMAXPROCS(0)),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := readReport(strings.NewReader(tc.in), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Meta["gomaxprocs"]; got != tc.gomaxprocs {
				t.Errorf("gomaxprocs = %q, want %q", got, tc.gomaxprocs)
			}
			if got := rep.Meta["nproc"]; got != nproc {
				t.Errorf("nproc = %q, want %q", got, nproc)
			}
			if len(rep.Results) == 0 || strings.Contains(rep.Results[0].Name, "-") {
				t.Errorf("results %+v: want names with the -N suffix stripped", rep.Results)
			}
		})
	}
	rep, err := readReport(strings.NewReader("goos: linux\ncpu: Intel(R) Xeon(R)\n"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta["goos"] != "linux" || rep.Meta["cpu"] != "Intel(R) Xeon(R)" {
		t.Errorf("header meta = %v", rep.Meta)
	}
}
