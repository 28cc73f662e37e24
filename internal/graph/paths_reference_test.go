package graph

// The Dijkstra-over-container/heap Yen implementation that paths.go
// replaced, kept verbatim (only renamed) as the differential oracle for
// the BFS kernel: paths_test.go asserts the two return the same route
// sets, edge for edge and in order.

import (
	"container/heap"
	"sort"
)

// refShortestPath returns a minimum-hop path from src to dst, or nil when dst
// is unreachable. Ties break deterministically by edge ID so route sets
// are reproducible across runs.
func (n *Network) refShortestPath(src, dst NodeID) Path {
	return n.refShortestPathFiltered(src, dst, nil, nil)
}

// refShortestPathFiltered is Dijkstra over unit edge weights with optional
// banned edges and banned nodes (used by Yen's algorithm). Ties break by
// lexicographically smallest edge sequence via the deterministic heap
// ordering.
func (n *Network) refShortestPathFiltered(src, dst NodeID, bannedEdges map[EdgeID]bool, bannedNodes map[NodeID]bool) Path {
	if src == dst {
		return nil
	}
	if bannedNodes[src] || bannedNodes[dst] {
		return nil
	}
	dist := make([]int, len(n.nodes))
	prev := make([]EdgeID, len(n.nodes))
	for i := range dist {
		dist[i] = -1
		prev[i] = -1
	}
	pq := &refPathHeap{}
	seq := 0
	heap.Push(pq, refPathHeapItem{node: src, dist: 0, seq: seq})
	dist[src] = 0
	for pq.Len() > 0 {
		it := heap.Pop(pq).(refPathHeapItem)
		if it.dist > dist[it.node] && dist[it.node] >= 0 {
			continue
		}
		if it.node == dst {
			break
		}
		for _, eid := range n.out[it.node] {
			if bannedEdges[eid] {
				continue
			}
			e := n.edges[eid]
			if bannedNodes[e.To] {
				continue
			}
			nd := it.dist + 1
			if dist[e.To] < 0 || nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = eid
				seq++
				heap.Push(pq, refPathHeapItem{node: e.To, dist: nd, seq: seq})
			}
		}
	}
	if dist[dst] < 0 {
		return nil
	}
	var rev Path
	for cur := dst; cur != src; {
		eid := prev[cur]
		rev = append(rev, eid)
		cur = n.edges[eid].From
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

type refPathHeapItem = struct {
	node NodeID
	dist int
	seq  int
}

type refPathHeap []refPathHeapItem

func (h refPathHeap) Len() int { return len(h) }
func (h refPathHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].seq < h[j].seq
}
func (h refPathHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refPathHeap) Push(x any)   { *h = append(*h, x.(refPathHeapItem)) }
func (h *refPathHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refKShortestPaths returns up to k loopless minimum-hop paths from src to
// dst using Yen's algorithm. The result is sorted by (length, discovery
// order) and is deterministic. These form a request's admissible route set
// R_i (§3.1).
func (n *Network) refKShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first := n.refShortestPath(src, dst)
	if first == nil {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		last := paths[len(paths)-1]
		// Spur from every prefix of the last accepted path.
		for i := 0; i < len(last); i++ {
			spurNode := src
			if i > 0 {
				spurNode = n.edges[last[i-1]].To
			}
			rootPath := last[:i]

			bannedEdges := make(map[EdgeID]bool)
			for _, p := range paths {
				if len(p) > i && equalPaths(p[:i], rootPath) {
					bannedEdges[p[i]] = true
				}
			}
			bannedNodes := make(map[NodeID]bool)
			cur := src
			for _, eid := range rootPath {
				bannedNodes[cur] = true
				cur = n.edges[eid].To
			}
			spur := n.refShortestPathFiltered(spurNode, dst, bannedEdges, bannedNodes)
			if spur == nil {
				continue
			}
			total := make(Path, 0, len(rootPath)+len(spur))
			total = append(total, rootPath...)
			total = append(total, spur...)
			dup := false
			for _, p := range append(paths, candidates...) {
				if equalPaths(p, total) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool {
			if len(candidates[a]) != len(candidates[b]) {
				return len(candidates[a]) < len(candidates[b])
			}
			// Deterministic tie-break by edge sequence.
			for x := range candidates[a] {
				if candidates[a][x] != candidates[b][x] {
					return candidates[a][x] < candidates[b][x]
				}
			}
			return false
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}
