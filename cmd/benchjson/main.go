// Benchjson converts `go test -bench` output read from stdin into a JSON
// report. Raw lines pass through to stdout unchanged, so it sits at the
// end of a pipe without hiding the human-readable results:
//
//	go test -run '^$' -bench Admit -benchmem ./internal/pricing | \
//	    go run ./cmd/benchjson -out BENCH_admission.json
//
// Every benchmark line becomes {name, iterations, ns_per_op, bytes_per_op,
// allocs_per_op, metrics}: the three standard units are promoted to
// explicit fields (0 when the bench did not report them) so downstream
// tooling never key-matches against "ns/op" strings, and metrics maps
// every reported unit (standard and custom ReportMetric ones) to its
// value, with the -cpucount suffix stripped from the name. Header lines
// (goos, goarch, pkg, cpu) are captured as metadata, alongside nproc (the
// machine's logical CPUs) and gomaxprocs (the first benchmark name's -N
// suffix, or this process's GOMAXPROCS when no name carries one — go test
// omits the suffix at GOMAXPROCS=1).
//
// Repeatable -gate flags turn the report into a regression guard:
//
//	go run ./cmd/benchjson -gate 'BenchmarkSAMSolve/Paper/sparse:allocs/op<=364000'
//
// Each gate names a benchmark, a metric unit, and a ceiling ("<=") or a
// floor (">=" — for rate metrics like a ReportMetric'd ops/sec, where
// regressions point down); a gate whose
// benchmark or unit is missing fails too, so a renamed bench cannot
// silently disarm its guard. Any violation exits 1 after the report is
// written. The unit may be a raw bench unit ("allocs/op", "pivots") or one
// of the promoted JSON field names ("ns_per_op", "bytes_per_op",
// "allocs_per_op") — the latter make wall-clock ceilings expressible
// without shell-quoting a slash:
//
//	go run ./cmd/benchjson -gate 'BenchmarkSAMSolve/Paper/sparse:ns_per_op<=45000000000'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type result struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// The three standard `go test -bench` units, promoted out of Metrics
	// so regression tooling reads stable JSON keys; zero when the bench
	// did not report the unit (e.g. -benchmem off).
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics"`

	procs int // the name's -N (GOMAXPROCS) suffix; 0 when absent
}

type report struct {
	Meta    map[string]string `json:"meta"`
	Results []result          `json:"results"`
}

// gate is one "bench:unit<=max" ceiling or "bench:unit>=min" floor from
// a -gate flag. Ceilings guard costs (ns/op, allocs); floors guard
// rates (a throughput bench's ops/sec must not regress below the bar).
type gate struct {
	bench string
	unit  string
	bound float64
	floor bool // ">=": bound is a minimum instead of a maximum
}

func parseGate(s string) (gate, error) {
	floor := false
	op := strings.Index(s, "<=")
	if op < 0 {
		op = strings.Index(s, ">=")
		floor = true
	}
	if op < 0 {
		return gate{}, fmt.Errorf("gate %q: want 'bench:unit<=max' or 'bench:unit>=min'", s)
	}
	colon := strings.LastIndex(s[:op], ":")
	if colon < 1 || colon+1 == op {
		return gate{}, fmt.Errorf("gate %q: want 'bench:unit<=max' or 'bench:unit>=min'", s)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s[op+2:]), 64)
	if err != nil {
		return gate{}, fmt.Errorf("gate %q: bad bound: %v", s, err)
	}
	return gate{bench: s[:colon], unit: s[colon+1 : op], bound: v, floor: floor}, nil
}

// check returns an error unless some result matches the gate's benchmark
// name and holds the metric at or under the ceiling (at or over the
// floor for ">=" gates). A missing benchmark
// or unit is a failure: a renamed bench must take its guard along. The
// promoted JSON field names (ns_per_op, bytes_per_op, allocs_per_op) work
// as units alongside the raw bench units, so wall-clock ceilings read the
// same key the report publishes.
func (g gate) check(results []result) error {
	for _, r := range results {
		if r.Name != g.bench {
			continue
		}
		v, ok := r.Metrics[g.unit]
		if !ok {
			switch g.unit {
			case "ns_per_op":
				v, ok = r.NsPerOp, r.NsPerOp != 0
			case "bytes_per_op":
				v, ok = r.BytesPerOp, r.BytesPerOp != 0
			case "allocs_per_op":
				v, ok = r.AllocsPerOp, r.AllocsPerOp != 0
			}
		}
		if !ok {
			return fmt.Errorf("gate %s: benchmark did not report %q", g.bench, g.unit)
		}
		if g.floor {
			if v < g.bound {
				return fmt.Errorf("gate %s: %s = %g below floor %g", g.bench, g.unit, v, g.bound)
			}
		} else if v > g.bound {
			return fmt.Errorf("gate %s: %s = %g exceeds ceiling %g", g.bench, g.unit, v, g.bound)
		}
		return nil
	}
	return fmt.Errorf("gate %s: benchmark not found in input", g.bench)
}

func main() {
	out := flag.String("out", "", "write the JSON report to this file (default: stdout after the raw lines)")
	var gates []gate
	flag.Func("gate", "fail (exit 1) unless 'bench:unit<=max' (or 'bench:unit>=min') holds; repeatable", func(s string) error {
		g, err := parseGate(s)
		if err != nil {
			return err
		}
		gates = append(gates, g)
		return nil
	})
	flag.Parse()

	rep, err := readReport(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	// Gates run after the report is written so a failing run still leaves
	// the numbers behind for the investigation.
	failed := false
	for _, g := range gates {
		if err := g.check(rep.Results); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// readReport parses `go test -bench` output from in, echoing every line to
// echo, into a report with its machine metadata filled in.
func readReport(in io.Reader, echo io.Writer) (report, error) {
	rep := report{Meta: map[string]string{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if r, ok := parseBenchLine(line); ok {
			rep.Results = append(rep.Results, r)
			if _, seen := rep.Meta["gomaxprocs"]; !seen && r.procs > 0 {
				rep.Meta["gomaxprocs"] = strconv.Itoa(r.procs)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			switch k := strings.TrimSuffix(fields[0], ":"); k {
			case "goos", "goarch", "pkg", "cpu":
				rep.Meta[k] = strings.Join(fields[1:], " ")
			}
		}
	}
	rep.Meta["nproc"] = strconv.Itoa(runtime.NumCPU())
	if _, seen := rep.Meta["gomaxprocs"]; !seen {
		rep.Meta["gomaxprocs"] = strconv.Itoa(runtime.GOMAXPROCS(0))
	}
	return rep, sc.Err()
}

// parseBenchLine parses one "BenchmarkName-8  N  v1 u1  v2 u2 ..." line.
func parseBenchLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	name, procs := fields[0], 0
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	r := result{Name: name, Iterations: iters, Metrics: map[string]float64{}, procs: procs}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, len(r.Metrics) > 0
}
