GO ?= go

.PHONY: build test check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the gate for every change: vet plus the full suite under the
# race detector (the experiment harness fans work out across goroutines,
# so -race is load-bearing, not optional).
check:
	$(GO) vet ./...
	$(GO) test -race ./...

# bench runs the root experiment benchmarks, then the admission-path
# micro-benchmarks with a machine-readable report in BENCH_admission.json
# (regression gate for the quote-engine fast path), then the SAM solver
# benchmarks (sparse LU vs dense reference kernel, cold, warm re-solve and
# Rebind successor step) into BENCH_solver.json (the perf trajectory of
# the simplex core across PRs, gated on the Paper warm pivot counts), then the
# route-resolution and admission-service micro-benchmarks (in process and
# through the HTTP handler on the paper topology) plus a closed-loop
# loadgen run into BENCH_service.json — gated at the dev-box acceptance
# floor of 1M quote-or-admit ops/sec and the measured alloc footprints
# (Yen's k-shortest paths at a fixed ceiling of 32, the HTTP quote and
# admit at their measured 42 and 43 plus 25%) — and finally
# a small instrumented run whose metrics snapshot (BENCH_metrics.json)
# tracks the control loop's operational counters across PRs.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .
	$(GO) test -run '^$$' -bench 'QuoteMenu|Admit' -benchmem ./internal/pricing | \
		$(GO) run ./cmd/benchjson -out BENCH_admission.json
	$(GO) test -run '^$$' -bench 'SAMSolve|SAMResolveWarm|SAMStepWarm' -benchmem ./internal/sched | \
		$(GO) run ./cmd/benchjson -out BENCH_solver.json \
			-gate 'BenchmarkSAMResolveWarm/Paper/sparse:pivots<=16' \
			-gate 'BenchmarkSAMStepWarm/Paper:pivots<=64'
	{ $(GO) test -run '^$$' -bench 'KShortestPaths' -benchmem ./internal/graph && \
	  $(GO) test -run '^$$' -bench 'Service|HTTP' -benchmem ./internal/serve && \
	  $(GO) run ./cmd/loadgen -duration 3s -workers 4 -shards 8 ; } | \
		$(GO) run ./cmd/benchjson -out BENCH_service.json \
			-gate 'BenchmarkLoadgen/closed_loop:ops/sec>=1000000' \
			-gate 'BenchmarkServiceQuote:allocs/op<=4' \
			-gate 'BenchmarkServiceAdmit/per_shard:allocs/op<=8' \
			-gate 'BenchmarkKShortestPaths/PaperWAN:allocs/op<=32' \
			-gate 'BenchmarkHTTPQuote/PaperWAN:allocs/op<=52' \
			-gate 'BenchmarkHTTPAdmit/PaperWAN:allocs/op<=53'
	$(GO) run ./cmd/experiments -exp table4 -scale small -metrics BENCH_metrics.json
