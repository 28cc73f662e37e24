// Command pretium-serve runs the concurrent admission service as a
// long-lived HTTP front-end: the RA module of the paper turned into a
// server (ROADMAP item 1). It builds a synthetic WAN at the chosen
// experiment scale, wraps it in the sharded internal/serve service, and
// exposes the thin JSON API:
//
//	POST /v1/quote   — price a transfer without admitting it
//	POST /v1/admit   — binding admission (menu, Theorem 5.2 purchase, commit)
//	POST /v1/publish — install the next pricing epoch (SAM/PC's job)
//	GET  /v1/state   — epoch and topology summary
//	GET  /metrics    — obs registry snapshot
//
// Usage:
//
//	pretium-serve -addr :8080 -scale small -shards 8
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"pretium/internal/exp"
	"pretium/internal/obs"
	"pretium/internal/pricing"
	"pretium/internal/serve"
)

func main() {
	var (
		addr   = flag.String("addr", ":8080", "listen address")
		scale  = flag.String("scale", "small", "experiment scale: small, default, medium, or paper")
		shards = flag.Int("shards", 8, "admission shards over (src-region, dst-region) classes")
		price  = flag.Float64("price", 1.0, "initial uniform base price")
		seed   = flag.Int64("seed", 1, "topology seed")
	)
	flag.Parse()

	sc, err := exp.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	setup := exp.NewSetup(sc, exp.WithSeed(*seed))
	m := obs.NewMetrics()
	svc, err := serve.New(pricing.NewState(setup.Net, sc.Steps, *price), serve.Config{Shards: *shards, Obs: m})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log.Printf("pretium-serve: %d nodes, %d edges, horizon %d, %d shards; listening on %s",
		setup.Net.NumNodes(), setup.Net.NumEdges(), sc.Steps, svc.NumShards(), *addr)
	if err := http.ListenAndServe(*addr, serve.Handler(svc, m)); err != nil {
		log.Fatal(err)
	}
}
