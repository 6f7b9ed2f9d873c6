package graph

import "sort"

// Ugraph is a simple undirected graph over nodes 0..N-1. It is used for the
// interaction graph of a transaction system (Theorem 4), whose simple cycles
// of length >= 3 drive the safe-and-deadlock-free test for many
// transactions.
type Ugraph struct {
	n   int
	adj [][]int
	has map[[2]int]bool
}

// NewUgraph returns an empty undirected graph on n nodes.
func NewUgraph(n int) *Ugraph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Ugraph{n: n, adj: make([][]int, n), has: make(map[[2]int]bool)}
}

// N returns the number of nodes.
func (g *Ugraph) N() int { return g.n }

// AddEdge inserts edge {u,v}; duplicates and self-loops are ignored.
func (g *Ugraph) AddEdge(u, v int) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	if g.has[[2]int{u, v}] {
		return
	}
	g.has[[2]int{u, v}] = true
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// HasEdge reports whether edge {u,v} is present.
func (g *Ugraph) HasEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	return g.has[[2]int{u, v}]
}

// Neighbors returns the neighbors of u (sorted).
func (g *Ugraph) Neighbors(u int) []int {
	out := append([]int(nil), g.adj[u]...)
	sort.Ints(out)
	return out
}

// NumEdges returns the number of distinct edges.
func (g *Ugraph) NumEdges() int { return len(g.has) }

// SimpleCycles enumerates every simple cycle of length >= 3, calling fn with
// the cycle's node sequence (starting at its minimum node, with the second
// node smaller than the last so each undirected cycle is reported exactly
// once, in one canonical direction). If fn returns false, enumeration stops
// early. The limit parameter bounds the number of cycles reported (<=0 means
// unlimited).
//
// The algorithm roots a DFS at each node s in increasing order, only
// visiting nodes > s, and closes cycles back to s. Cost is proportional to
// the number of simple paths explored, which is fine for the small, sparse
// interaction graphs of fixed-size transaction systems (Theorem 4's
// complexity is inherently proportional to the number of cycles).
func (g *Ugraph) SimpleCycles(limit int, fn func(cycle []int) bool) {
	emitted := 0
	inPath := make([]bool, g.n)
	var path []int

	var dfs func(s, u int) bool
	dfs = func(s, u int) bool {
		path = append(path, u)
		inPath[u] = true
		defer func() {
			path = path[:len(path)-1]
			inPath[u] = false
		}()
		for _, v := range g.adj[u] {
			if v == s && len(path) >= 3 {
				// Canonical direction: second node < last node.
				if path[1] < path[len(path)-1] {
					cycle := append([]int(nil), path...)
					emitted++
					if !fn(cycle) || (limit > 0 && emitted >= limit) {
						return false
					}
				}
				continue
			}
			if v <= s || inPath[v] {
				continue
			}
			if !dfs(s, v) {
				return false
			}
		}
		return true
	}

	for s := 0; s < g.n; s++ {
		if !dfs(s, s) {
			return
		}
	}
}

// CountSimpleCycles returns the number of simple cycles of length >= 3 (each
// undirected cycle counted once).
func (g *Ugraph) CountSimpleCycles() int {
	n := 0
	g.SimpleCycles(0, func([]int) bool { n++; return true })
	return n
}
