package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"pretium/internal/graph"
)

// streamBytes concatenates everything a stream sends, with its timing.
func streamBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	gen := newHTTPGen(graph.PaperWAN(seed), httpPrice0)
	var buf bytes.Buffer
	for _, op := range gen.stream(seed, 0, 0, 3*time.Second, httpRate) {
		buf.WriteString(op.kind.path())
		buf.WriteString(op.due.String())
		buf.Write(op.body)
	}
	return buf.Bytes()
}

func TestHTTPStreamDeterministic(t *testing.T) {
	a, b := streamBytes(t, 7), streamBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed gave different request streams")
	}
	if bytes.Equal(a, streamBytes(t, 8)) {
		t.Fatalf("different seeds gave the same request stream")
	}
}

func TestHTTPStreamShape(t *testing.T) {
	gen := newHTTPGen(graph.PaperWAN(3), httpPrice0)
	ops := gen.stream(3, 100, 0, 10*time.Second, httpRate)
	var quotes, admits, publishes int
	last := time.Duration(-1)
	for _, op := range ops {
		if op.due < last {
			t.Fatalf("ops out of due order: %v after %v", op.due, last)
		}
		last = op.due
		switch op.kind {
		case opQuote:
			quotes++
		case opAdmit:
			admits++
		case opPublish:
			publishes++
			continue
		}
		w := op.req
		if w.End-w.Start < 6 || w.End-w.Start > 36 || w.End >= paperHorizon || w.Src == w.Dst {
			t.Fatalf("request %+v outside the stream's shape", w)
		}
	}
	n := quotes + admits
	if n < 9000 || n > 11000 {
		t.Errorf("%d requests in 10 s at %v/s", n, httpRate)
	}
	if frac := float64(admits) / float64(n); frac < 0.08 || frac > 0.12 {
		t.Errorf("admit share %v, want ~0.1", frac)
	}
	if publishes != 10 {
		t.Errorf("%d publishes in 10 s, want one a second", publishes)
	}
	// A ramp step's single publish lands half-way through it.
	step := gen.stream(4, 0, rampStep/2, rampStep, 2000)
	var pubs []time.Duration
	for _, op := range step {
		if op.kind == opPublish {
			pubs = append(pubs, op.due)
		}
	}
	if len(pubs) != 1 || pubs[0] != rampStep/2 {
		t.Errorf("ramp step publishes at %v, want one at %v", pubs, rampStep/2)
	}
}

func TestControlSetupDeterministic(t *testing.T) {
	enc := func() []byte {
		s := controlSetup(controlSeed)
		b, err := json.Marshal(s.Requests)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := enc(), enc()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed gave different control-cycle requests")
	}
	s := controlSetup(controlSeed)
	if s.Net.NumEdges() != 90 || len(s.Requests) < 1500 || len(s.Requests) > 2500 {
		t.Errorf("control scale: %d edges, %d requests; want 90 edges, ~1.9k requests", s.Net.NumEdges(), len(s.Requests))
	}
}

func TestSAMInstanceDeterministic(t *testing.T) {
	enc := func(seed int64) []byte {
		ins := samInstance(seed)
		b, err := json.Marshal(struct {
			D any
			C any
		}{ins.Demands, ins.Capacity})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := enc(samSeed)
	if !bytes.Equal(a, enc(samSeed)) {
		t.Fatalf("same seed gave different SAM instances")
	}
	if bytes.Equal(a, enc(samSeed+1)) {
		t.Fatalf("different seeds gave the same SAM instance")
	}
	ins := samInstance(samSeed)
	if ins.Net.NumNodes() != 106 || ins.Net.NumEdges() != 226 || len(ins.Demands) != 400 || ins.Horizon != 288 {
		t.Errorf("SAM instance %d nodes, %d edges, %d demands, T=%d", ins.Net.NumNodes(), ins.Net.NumEdges(), len(ins.Demands), ins.Horizon)
	}
}
