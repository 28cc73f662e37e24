package graph

// Route resolution runs on every HTTP quote and admit, so it is built for
// the arrival path: every edge weighs one hop, which makes a FIFO
// breadth-first search the whole shortest-path kernel, and all of its
// working memory lives in one pooled scratch block per Network.
//
// Determinism: the BFS scans Out(u) in insertion order and fixes a node's
// predecessor edge when the node is first discovered, so ties break
// exactly as a (dist, discovery order) Dijkstra over the same adjacency
// would — the implementation this kernel replaced, which the package
// tests keep as a differential oracle.

// pathScratch is the working memory of one ShortestPath or KShortestPaths
// call. Each call takes its own from the Network's pool and returns it
// when done, so concurrent callers on one Network share none.
//
// Per-node and per-edge marks are stamps: a mark is set when its slot
// equals stamp, so starting the next search (and clearing the previous
// spur's bans) is one increment instead of a sweep. Stamps carry over
// between calls, which is what makes a pooled scratch free to reuse.
type pathScratch struct {
	seen    []uint32 // node discovered by the current search
	nodeBan []uint32 // node banned for the current search
	edgeBan []uint32 // edge banned for the current search
	prev    []uint32 // discovering edge per seen node
	queue   []uint32
	stamp   uint32
}

// getScratch takes a scratch sized for n from its pool, or allocates one
// when the pool is empty or holds one from before the last AddNode or
// AddEdge.
func (n *Network) getScratch() *pathScratch {
	nn, ne := len(n.nodes), len(n.edges)
	if v, ok := n.scratch.Get().(*pathScratch); ok && len(v.seen) == nn && len(v.edgeBan) == ne {
		return v
	}
	w := make([]uint32, 4*nn+ne)
	return &pathScratch{
		seen:    w[0:nn:nn],
		nodeBan: w[nn : 2*nn : 2*nn],
		prev:    w[2*nn : 3*nn : 3*nn],
		queue:   w[3*nn : 4*nn : 4*nn],
		edgeBan: w[4*nn:],
	}
}

// next starts a new search: every seen mark and ban of the previous one
// lapses. On counter wrap-around the stamp arrays are cleared so no stale
// slot can alias the new stamp.
func (s *pathScratch) next() {
	s.stamp++
	if s.stamp == 0 {
		clear(s.seen)
		clear(s.nodeBan)
		clear(s.edgeBan)
		s.stamp = 1
	}
}

// bfs searches for a minimum-hop src→dst path avoiding the current
// search's banned nodes and edges, and reports the hop count (-1 when dst
// is unreachable). The path itself is left in prev: walk it back from dst.
func (n *Network) bfs(s *pathScratch, src, dst NodeID) int {
	st := s.stamp
	s.seen[src] = st
	s.queue[0] = uint32(src)
	head, tail := 0, 1
	for head < tail {
		u := s.queue[head]
		head++
		for _, eid := range n.out[u] {
			if s.edgeBan[eid] == st {
				continue
			}
			v := n.edges[eid].To
			if s.seen[v] == st || s.nodeBan[v] == st {
				continue
			}
			s.seen[v] = st
			s.prev[v] = uint32(eid)
			if v == dst {
				return n.hops(s, src, dst)
			}
			s.queue[tail] = uint32(v)
			tail++
		}
	}
	return -1
}

// hops counts the edges of the path bfs left in prev.
func (n *Network) hops(s *pathScratch, src, dst NodeID) int {
	h := 0
	for v := dst; v != src; v = n.edges[s.prev[v]].From {
		h++
	}
	return h
}

// fill writes the path bfs left in prev into out, which must have
// exactly its hop count as length.
func (n *Network) fill(s *pathScratch, out Path, dst NodeID) {
	v := dst
	for j := len(out) - 1; j >= 0; j-- {
		eid := EdgeID(s.prev[v])
		out[j] = eid
		v = n.edges[eid].From
	}
}

// ShortestPath returns a minimum-hop path from src to dst, or nil when dst
// is unreachable. Ties break deterministically by adjacency order so route
// sets are reproducible across runs.
func (n *Network) ShortestPath(src, dst NodeID) Path {
	if src == dst {
		return nil
	}
	s := n.getScratch()
	defer n.scratch.Put(s)
	return n.shortestPath(s, src, dst)
}

func (n *Network) shortestPath(s *pathScratch, src, dst NodeID) Path {
	s.next()
	h := n.bfs(s, src, dst)
	if h < 0 {
		return nil
	}
	p := make(Path, h)
	n.fill(s, p, dst)
	return p
}

// KShortestPaths returns up to k loopless minimum-hop paths from src to
// dst using Yen's algorithm. The result is sorted by (length, discovery
// order) and is deterministic. These form a request's admissible route set
// R_i (§3.1).
func (n *Network) KShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	s := n.getScratch()
	defer n.scratch.Put(s)
	first := n.shortestPath(s, src, dst)
	if first == nil {
		return nil
	}
	paths := make([]Path, 1, min(k, 16)) // k may be far above the paths that exist
	paths[0] = first
	var cands []Path
	for len(paths) < k {
		last := paths[len(paths)-1]
		// Spur from every prefix of the last accepted path.
		for i := range last {
			spurNode := src
			if i > 0 {
				spurNode = n.edges[last[i-1]].To
			}
			root := last[:i]
			s.next()
			for _, p := range paths {
				if len(p) > i && equalPaths(p[:i], root) {
					s.edgeBan[p[i]] = s.stamp
				}
			}
			cur := src
			for _, eid := range root {
				s.nodeBan[cur] = s.stamp
				cur = n.edges[eid].To
			}
			h := n.bfs(s, spurNode, dst)
			if h < 0 {
				continue
			}
			if n.spurIn(s, paths, root, h, dst) || n.spurIn(s, cands, root, h, dst) {
				continue
			}
			total := make(Path, len(root)+h)
			copy(total, root)
			n.fill(s, total[len(root):], dst)
			cands = append(cands, total)
		}
		if len(cands) == 0 {
			break
		}
		// Candidates are distinct, so (length, edge sequence) is a total
		// order on them and the minimum is unique.
		best := 0
		for j := 1; j < len(cands); j++ {
			if pathLess(cands[j], cands[best]) {
				best = j
			}
		}
		paths = append(paths, cands[best])
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return paths
}

// spurIn reports whether set holds root followed by the h-hop spur path
// bfs left in prev, comparing in place instead of materializing it.
func (n *Network) spurIn(s *pathScratch, set []Path, root Path, h int, dst NodeID) bool {
	for _, p := range set {
		if len(p) != len(root)+h || !equalPaths(p[:len(root)], root) {
			continue
		}
		v, j := dst, len(p)-1
		for j >= len(root) && p[j] == EdgeID(s.prev[v]) {
			v = n.edges[p[j]].From
			j--
		}
		if j < len(root) {
			return true
		}
	}
	return false
}

// pathLess orders paths by hop count, then lexicographically by edge ID.
func pathLess(a, b Path) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for x := range a {
		if a[x] != b[x] {
			return a[x] < b[x]
		}
	}
	return false
}
