package pricing

import (
	"math"
	"slices"
	"testing"

	"pretium/internal/graph"
)

func publishTestState(t *testing.T) *State {
	t.Helper()
	net := lineNetwork(t, 3)
	st := NewState(net, 4, 1.0)
	st.SetHighPriFraction(0.1)
	st.SetOutage("churn", 0, 1, 2.5)
	st.Reserve(graph.Path{0, 1}, 2, 3.0)
	return st
}

// lineNetwork builds an n-node chain a-b-c-… with same-region nodes.
func lineNetwork(t *testing.T, n int) *graph.Network {
	t.Helper()
	net := graph.New()
	names := []string{"a", "b", "c", "d", "e", "f"}
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = net.AddNode(names[i], "r")
	}
	for i := 0; i+1 < n; i++ {
		net.AddEdge(ids[i], ids[i+1], 100)
	}
	return net
}

func mustPanic(t *testing.T, op string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s on poisoned state did not panic", op)
		}
	}()
	f()
}

// Published states poison every planning mutator but still accept
// Reserve; sealed states poison Reserve too. This is the enforcement
// half of the Invalidate contract: once a state is shared, snapshot
// construction is the only mutation point.
func TestPublishPoisonsPlanningMutators(t *testing.T) {
	st := publishTestState(t)
	st.MarkPublished()
	if !st.Published() || st.Sealed() {
		t.Fatalf("stage after MarkPublished: published=%v sealed=%v", st.Published(), st.Sealed())
	}

	mustPanic(t, "Invalidate", func() { st.Invalidate() })
	mustPanic(t, "SetBasePrice", func() { st.SetBasePrice(0, 0, 2) })
	mustPanic(t, "SetHighPri", func() { st.SetHighPri(0, 0, 1) })
	mustPanic(t, "AddHighPri", func() { st.AddHighPri(0, 0, 1) })
	mustPanic(t, "SetHighPriFraction", func() { st.SetHighPriFraction(0.2) })
	mustPanic(t, "SetHighPriMatrix", func() { _ = st.SetHighPriMatrix(st.HighPri) })
	mustPanic(t, "SetOutage", func() { st.SetOutage("x", 0, 0, 1) })
	mustPanic(t, "SetReserved", func() { _ = st.SetReserved(st.Reserved) })
	mustPanic(t, "SetPricesWindow", func() { _ = st.SetPricesWindow(0, st.BasePrice) })
	mustPanic(t, "CopyPricingFrom", func() { _ = st.CopyPricingFrom(st, false) })

	// Room commits stay legal on a published state: the service
	// serializes them per edge.
	before := st.Reserved[0][1]
	st.Reserve(graph.Path{0}, 1, 1.5)
	if got := st.Reserved[0][1]; got != before+1.5 {
		t.Fatalf("Reserve on published state: got %v want %v", got, before+1.5)
	}
}

func TestSealPoisonsReserve(t *testing.T) {
	st := publishTestState(t)
	st.Seal()
	if !st.Published() || !st.Sealed() {
		t.Fatalf("stage after Seal: published=%v sealed=%v", st.Published(), st.Sealed())
	}
	mustPanic(t, "Reserve", func() { st.Reserve(graph.Path{0}, 0, 1) })
	mustPanic(t, "SetBasePrice", func() { st.SetBasePrice(0, 0, 2) })

	// Reads stay legal and coherent on a sealed state.
	if p := st.MarginalPrice(0, 0, 0); p <= 0 || math.IsNaN(p) {
		t.Fatalf("MarginalPrice on sealed state: %v", p)
	}
}

// Clone must be deep: mutating the clone leaves the original untouched
// (and vice versa), including the segment caches and outage overlay.
func TestCloneIndependence(t *testing.T) {
	st := publishTestState(t)
	st.MarkPublished()

	c := st.Clone()
	if c.Published() {
		t.Fatal("clone of a published state must start mutable")
	}
	if c.Net != st.Net {
		t.Fatal("clone must share the immutable network")
	}

	// Snapshot original views.
	origPrice := st.MarginalPrice(0, 0, 0)
	origRoom := st.segmentRoom(0, 1, 0)
	origOut := st.OutageAt(0, 1)
	origRes := st.Reserved[0][2]

	c.SetBasePrice(0, 0, 9.0)
	c.SetOutage("churn", 0, 1, 0) // restore the outage in the clone only
	c.Reserve(graph.Path{0}, 2, 7)

	if got := st.MarginalPrice(0, 0, 0); got != origPrice {
		t.Fatalf("original price moved after clone mutation: %v -> %v", origPrice, got)
	}
	if got := st.segmentRoom(0, 1, 0); got != origRoom {
		t.Fatalf("original room moved after clone mutation: %v -> %v", origRoom, got)
	}
	if got := st.OutageAt(0, 1); got != origOut {
		t.Fatalf("original outage moved after clone mutation: %v -> %v", origOut, got)
	}
	if got := st.Reserved[0][2]; got != origRes {
		t.Fatalf("original reservation moved after clone mutation: %v -> %v", origRes, got)
	}
	if got := c.OutageAt(0, 1); got != 0 {
		t.Fatalf("clone outage not restored: %v", got)
	}

	// And the clone's caches are coherent: compare against a fresh
	// Invalidate on a second clone.
	ref := c.Clone()
	ref.Invalidate()
	for e := 0; e < st.Net.NumEdges(); e++ {
		for ts := 0; ts < st.Horizon; ts++ {
			if a, b := c.MarginalPrice(graph.EdgeID(e), ts, 0), ref.MarginalPrice(graph.EdgeID(e), ts, 0); a != b {
				t.Fatalf("clone cache incoherent at (%d,%d): price %v vs %v", e, ts, a, b)
			}
			if a, b := c.segmentRoom(graph.EdgeID(e), ts, 0), ref.segmentRoom(graph.EdgeID(e), ts, 0); a != b {
				t.Fatalf("clone cache incoherent at (%d,%d): room %v vs %v", e, ts, a, b)
			}
		}
	}
}

// A sealed view reads exactly like its published state, keeps its own
// room picture while Reserve moves the state's, and shares the frozen
// planning inputs instead of copying them.
func TestSealedView(t *testing.T) {
	st := publishTestState(t)
	mustPanic(t, "SealedView of a mutable state", func() { st.SealedView() })
	st.MarkPublished()
	v := st.SealedView()
	if !v.Sealed() {
		t.Fatal("SealedView must return a sealed state")
	}
	mustPanic(t, "SealedView of a sealed state", func() { v.SealedView() })
	mustPanic(t, "Reserve on the view", func() { v.Reserve(graph.Path{0}, 0, 1) })
	if &v.BasePrice[0][0] != &st.BasePrice[0][0] || &v.HighPri[0][0] != &st.HighPri[0][0] {
		t.Fatal("view must share the frozen prices and set-asides")
	}

	type cell struct{ price, room, res, cap float64 }
	snap := func(s *State) []cell {
		var out []cell
		for e := 0; e < s.Net.NumEdges(); e++ {
			for ts := 0; ts < s.Horizon; ts++ {
				id := graph.EdgeID(e)
				out = append(out, cell{s.MarginalPrice(id, ts, 0), s.segmentRoom(id, ts, 0), s.Reserved[e][ts], s.Capacity(id, ts)})
			}
		}
		return out
	}
	before := snap(st)
	if got := snap(v); !slices.Equal(got, before) {
		t.Fatalf("view reads differently from its state:\n%v\n%v", got, before)
	}
	st.Reserve(graph.Path{0, 1}, 2, 70) // crosses the premium threshold
	if got := snap(v); !slices.Equal(got, before) {
		t.Fatal("view moved when the published state reserved room")
	}
	if slices.Equal(snap(st), before) {
		t.Fatal("Reserve on the published state changed nothing")
	}
}

// CopyPricingFrom with room=false adopts prices/set-asides/outages but
// keeps the destination's own reservation plan; with room=true it
// adopts everything. Either way the result matches a from-scratch
// Invalidate.
func TestCopyPricingFrom(t *testing.T) {
	src := publishTestState(t)
	src.SetBasePrice(1, 3, 4.25)
	src.MarkPublished()

	for _, room := range []bool{false, true} {
		dst := publishTestState(t)
		dst.Reserve(graph.Path{1}, 3, 11) // divergent room in dst
		dstRes := cloneMatrix(dst.Reserved)

		if err := dst.CopyPricingFrom(src, room); err != nil {
			t.Fatalf("CopyPricingFrom(room=%v): %v", room, err)
		}
		if got := dst.BasePrice[1][3]; got != 4.25 {
			t.Fatalf("room=%v: price not adopted: %v", room, got)
		}
		if got := dst.OutageAt(0, 1); got != src.OutageAt(0, 1) {
			t.Fatalf("room=%v: outage not adopted: %v vs %v", room, got, src.OutageAt(0, 1))
		}
		for e := range dst.Reserved {
			for ts := range dst.Reserved[e] {
				want := dstRes[e][ts]
				if room {
					want = src.Reserved[e][ts]
				}
				if got := dst.Reserved[e][ts]; got != want {
					t.Fatalf("room=%v: Reserved[%d][%d]=%v want %v", room, e, ts, got, want)
				}
			}
		}
		// Cache coherence: the copy must equal a rebuilt reference.
		ref := dst.Clone()
		ref.Invalidate()
		for e := 0; e < dst.Net.NumEdges(); e++ {
			for ts := 0; ts < dst.Horizon; ts++ {
				if a, b := dst.MarginalPrice(graph.EdgeID(e), ts, 0), ref.MarginalPrice(graph.EdgeID(e), ts, 0); a != b {
					t.Fatalf("room=%v: cache incoherent at (%d,%d): %v vs %v", room, e, ts, a, b)
				}
			}
		}
	}
}

func TestCopyPricingFromShapeMismatch(t *testing.T) {
	a := NewState(lineNetwork(t, 3), 4, 1)
	b := NewState(lineNetwork(t, 3), 5, 1)
	if err := a.CopyPricingFrom(b, true); err == nil {
		t.Fatal("horizon mismatch not rejected")
	}
	c := NewState(lineNetwork(t, 2), 4, 1)
	if err := a.CopyPricingFrom(c, true); err == nil {
		t.Fatal("edge-count mismatch not rejected")
	}
}
