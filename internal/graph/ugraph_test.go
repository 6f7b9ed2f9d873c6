package graph

import "testing"

func TestUgraphBasics(t *testing.T) {
	g := NewUgraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate, other direction
	g.AddEdge(2, 2) // self-loop ignored
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self-loop stored")
	}
	nb := g.Neighbors(1)
	if len(nb) != 1 || nb[0] != 0 {
		t.Fatalf("Neighbors(1) = %v", nb)
	}
}

func TestTriangleHasOneCycle(t *testing.T) {
	g := NewUgraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	var cycles [][]int
	g.SimpleCycles(0, func(c []int) bool {
		cycles = append(cycles, append([]int(nil), c...))
		return true
	})
	if len(cycles) != 1 {
		t.Fatalf("triangle: got %d cycles %v, want 1", len(cycles), cycles)
	}
	c := cycles[0]
	if len(c) != 3 || c[0] != 0 {
		t.Fatalf("cycle = %v, want canonical start at 0", c)
	}
	if c[1] >= c[2] {
		t.Fatalf("cycle %v not in canonical direction", c)
	}
}

func TestK4CycleCount(t *testing.T) {
	// K4 has 4 triangles and 3 four-cycles = 7 simple cycles.
	g := NewUgraph(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v)
		}
	}
	if n := g.CountSimpleCycles(); n != 7 {
		t.Fatalf("K4 cycles = %d, want 7", n)
	}
}

func TestK5CycleCount(t *testing.T) {
	// K5: C(5,3)*1 + C(5,4)*3 + C(5,5)*12 = 10 + 15 + 24 = wrong; known value:
	// number of cycles in K5 = 37 (10 triangles, 15 four-cycles, 12 five-cycles).
	g := NewUgraph(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddEdge(u, v)
		}
	}
	if n := g.CountSimpleCycles(); n != 37 {
		t.Fatalf("K5 cycles = %d, want 37", n)
	}
}

func TestTreeHasNoCycles(t *testing.T) {
	g := NewUgraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(1, 4)
	g.AddEdge(2, 5)
	if n := g.CountSimpleCycles(); n != 0 {
		t.Fatalf("tree cycles = %d, want 0", n)
	}
}

func TestTwoDisjointTriangles(t *testing.T) {
	g := NewUgraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3)
	if n := g.CountSimpleCycles(); n != 2 {
		t.Fatalf("cycles = %d, want 2", n)
	}
}

func TestCyclesAreValid(t *testing.T) {
	// Square with one diagonal: cycles = two triangles + the square = 3.
	g := NewUgraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	g.AddEdge(0, 2)
	count := 0
	g.SimpleCycles(0, func(c []int) bool {
		count++
		if len(c) < 3 {
			t.Fatalf("cycle too short: %v", c)
		}
		seen := map[int]bool{}
		for i, u := range c {
			if seen[u] {
				t.Fatalf("repeated node in cycle %v", c)
			}
			seen[u] = true
			v := c[(i+1)%len(c)]
			if !g.HasEdge(u, v) {
				t.Fatalf("cycle %v uses missing edge %d-%d", c, u, v)
			}
		}
		return true
	})
	if count != 3 {
		t.Fatalf("cycles = %d, want 3", count)
	}
}

func TestSimpleCyclesLimit(t *testing.T) {
	g := NewUgraph(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddEdge(u, v)
		}
	}
	n := 0
	g.SimpleCycles(4, func([]int) bool { n++; return true })
	if n != 4 {
		t.Fatalf("limited enumeration reported %d cycles, want 4", n)
	}
}

func TestSimpleCyclesEarlyStop(t *testing.T) {
	g := NewUgraph(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddEdge(u, v)
		}
	}
	n := 0
	g.SimpleCycles(0, func([]int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop reported %d cycles, want 2", n)
	}
}
