package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// samePaths reports whether two route sets are equal edge for edge and in
// order, with nil and empty treated alike.
func samePaths(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalPaths(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sampled reports whether the differential sweeps run on a sample of
// their inputs instead of all of them.
func sampled() bool { return testing.Short() || raceEnabled }

// checkAgainstReference compares ShortestPath and KShortestPaths with the
// reference implementation on every stride-th ordered node pair of n; ks
// must be ascending.
func checkAgainstReference(t *testing.T, name string, n *Network, ks []int, stride int) {
	t.Helper()
	nn := n.NumNodes()
	for pair := 0; pair < nn*nn; pair += stride {
		src, dst := NodeID(pair/nn), NodeID(pair%nn)
		if got, want := n.ShortestPath(src, dst), n.refShortestPath(src, dst); !equalPaths(got, want) {
			t.Fatalf("%s: ShortestPath(%d,%d) = %v, reference %v", name, src, dst, got, want)
		}
		// Yen's loop only stops earlier for a smaller k, so the reference
		// route set for every k is a prefix of the one for the largest.
		ref := n.refKShortestPaths(src, dst, ks[len(ks)-1])
		for _, k := range ks {
			want := ref[:min(k, len(ref))]
			if got := n.KShortestPaths(src, dst, k); !samePaths(got, want) {
				t.Fatalf("%s: KShortestPaths(%d,%d,%d) = %v, reference %v", name, src, dst, k, got, want)
			}
		}
	}
}

// The BFS kernel must reproduce the Dijkstra reference's route sets
// exactly on the paper topology, so every route-dependent golden output
// stays byte-identical.
func TestKShortestPathsMatchReferencePaperWAN(t *testing.T) {
	seeds, stride := []int64{1, 2, 3}, 1
	if sampled() {
		seeds, stride = seeds[:1], 13
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkAgainstReference(t, fmt.Sprintf("PaperWAN(%d)", seed), PaperWAN(seed), []int{1, 2, 3, 8}, stride)
		})
	}
}

// randomMultigraph builds a small directed multigraph with parallel
// edges and, for some seeds, nodes that are unreachable or isolated.
func randomMultigraph(r *rand.Rand) *Network {
	n := New()
	nn := 2 + r.Intn(9)
	for i := 0; i < nn; i++ {
		n.AddNode(fmt.Sprintf("n%d", i), "r")
	}
	ne := r.Intn(4 * nn)
	for e := 0; e < ne; e++ {
		a, b := r.Intn(nn), r.Intn(nn)
		if a == b {
			continue
		}
		n.AddEdge(NodeID(a), NodeID(b), 1)
		if r.Intn(4) == 0 {
			n.AddEdge(NodeID(a), NodeID(b), 1) // parallel edge
		}
	}
	return n
}

// Random multigraphs cover what PaperWAN does not: parallel edges,
// unreachable pairs, and k far beyond the number of loopless paths.
func TestKShortestPathsMatchReferenceRandom(t *testing.T) {
	graphs := 300
	if sampled() {
		graphs = 30
	}
	r := rand.New(rand.NewSource(7))
	for g := 0; g < graphs; g++ {
		checkAgainstReference(t, fmt.Sprintf("multigraph %d", g), randomMultigraph(r), []int{1, 2, 3, 8, 1000}, 1)
	}
}

func TestShortestPathParallelEdgesTieBreak(t *testing.T) {
	n := New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	first := n.AddEdge(a, b, 1)
	second := n.AddEdge(a, b, 1)
	ps := n.KShortestPaths(a, b, 5)
	if len(ps) != 2 || ps[0][0] != first || ps[1][0] != second {
		t.Fatalf("parallel edges: got %v, want [[%d] [%d]]", ps, first, second)
	}
}

// The stamp counter must survive wrap-around: marks left by stamp 1,
// 2^32 searches ago, must not read as current once the counter wraps
// back to 1.
func TestPathScratchStampWrap(t *testing.T) {
	n, s, dst := diamond()
	sc := n.getScratch()
	sc.nodeBan[1] = 1 // node a
	sc.edgeBan[0] = 1 // s->a
	sc.seen[dst] = 1
	sc.stamp = ^uint32(0)
	sc.next()
	if sc.stamp != 1 {
		t.Fatalf("stamp after wrap = %d, want 1", sc.stamp)
	}
	if h := n.bfs(sc, s, dst); h != 2 {
		t.Fatalf("bfs after wrap: %d hops, want 2", h)
	}
	p := make(Path, 2)
	n.fill(sc, p, dst)
	if want := n.refShortestPath(s, dst); !equalPaths(p, want) {
		t.Fatalf("path after wrap = %v, want %v", p, want)
	}
}

// KShortestPaths is called concurrently from HTTP handlers on one shared
// Network; run under -race this proves no scratch is shared.
func TestKShortestPathsConcurrent(t *testing.T) {
	n := PaperWAN(1)
	nn := n.NumNodes()
	want := make([][]Path, nn)
	for a := 0; a < nn; a++ {
		want[a] = n.KShortestPaths(NodeID(a), NodeID((a+7)%nn), 3)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*nn; i++ {
				a := (i + w*13) % nn
				if got := n.KShortestPaths(NodeID(a), NodeID((a+7)%nn), 3); !samePaths(got, want[a]) {
					errs <- fmt.Sprintf("worker %d: pair %d diverged", w, a)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkKShortestPaths measures one k=3 route set — what the HTTP
// handler resolves per request — cycling over a fixed sample of ordered
// PaperWAN pairs.
func BenchmarkKShortestPaths(b *testing.B) {
	n := PaperWAN(1)
	r := rand.New(rand.NewSource(1))
	pairs := make([][2]NodeID, 256)
	for i := range pairs {
		src := r.Intn(n.NumNodes())
		dst := r.Intn(n.NumNodes() - 1)
		if dst >= src {
			dst++
		}
		pairs[i] = [2]NodeID{NodeID(src), NodeID(dst)}
	}
	b.Run("PaperWAN", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			n.KShortestPaths(p[0], p[1], 3)
		}
	})
}
