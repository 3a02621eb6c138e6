package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestAddDeleteBasics(t *testing.T) {
	g := NewStreaming(4)
	if !g.AddEdge(Edge{0, 1, 2.5}) {
		t.Fatal("AddEdge returned false for new edge")
	}
	if g.AddEdge(Edge{0, 1, 9}) {
		t.Fatal("AddEdge inserted a duplicate")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 2.5 {
		t.Fatalf("HasEdge(0,1) = %v,%v", w, ok)
	}
	if _, ok := g.HasEdge(1, 0); ok {
		t.Fatal("HasEdge(1,0) should be false; edges are directed")
	}
	if w, ok := g.DeleteEdge(0, 1); !ok || w != 2.5 {
		t.Fatalf("DeleteEdge = %v,%v", w, ok)
	}
	if _, ok := g.DeleteEdge(0, 1); ok {
		t.Fatal("DeleteEdge of missing edge returned true")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d after delete", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDegrees(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1, 1}, {0, 2, 1}, {3, 2, 1}})
	if g.OutDegree(0) != 2 || g.InDegree(2) != 2 || g.OutDegree(4) != 0 {
		t.Fatalf("degree mismatch: out0=%d in2=%d out4=%d",
			g.OutDegree(0), g.InDegree(2), g.OutDegree(4))
	}
}

func TestApplyBatchIdempotence(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 1}})
	applied := g.ApplyBatch(Batch{
		{Edge: Edge{0, 1, 1}, Del: false}, // duplicate add: dropped
		{Edge: Edge{1, 2, 4}, Del: false},
		{Edge: Edge{2, 0, 1}, Del: true}, // missing delete: dropped
		{Edge: Edge{0, 1, 0}, Del: true}, // weight filled from graph
	})
	if len(applied) != 2 {
		t.Fatalf("applied = %d updates, want 2: %+v", len(applied), applied)
	}
	if applied[1].W != 1 {
		t.Fatalf("deletion did not capture original weight: %+v", applied[1])
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 1}, {1, 2, 2}})
	c := g.Clone()
	g.DeleteEdge(0, 1)
	if _, ok := c.HasEdge(0, 1); !ok {
		t.Fatal("clone shares storage with original")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// refEdges is the comparison-sort Edges the counting sort replaced: per
// source, insertion sort on short out-lists and sort.Slice past 32. It is
// the reference the equivalence tests hold Edges to.
func refEdges(g *Streaming) []Edge {
	es := make([]Edge, 0, g.m)
	for v := range g.out {
		start := len(es)
		for _, h := range g.out[v] {
			es = append(es, Edge{Src: VertexID(v), Dst: h.To, W: h.W})
		}
		span := es[start:]
		if len(span) > 32 {
			sort.Slice(span, func(i, j int) bool { return span[i].Dst < span[j].Dst })
			continue
		}
		for i := 1; i < len(span); i++ {
			for j := i; j > 0 && span[j].Dst < span[j-1].Dst; j-- {
				span[j], span[j-1] = span[j-1], span[j]
			}
		}
	}
	return es
}

// churnedGraph builds a seeded random graph whose adjacency lists are in
// the order real streams leave them: two hubs with out-lists far past 32
// (the old sort threshold) and a hub index, lists reordered by
// swap-deletes, and a quarter of the vertices left without edges.
func churnedGraph(seed uint64, n int) *Streaming {
	r := rng.New(seed)
	g := NewStreaming(n)
	live := n - n/4 // vertices [live, n) stay empty
	for i := 0; i < 12*n; i++ {
		src := VertexID(r.Intn(live))
		if r.Float64() < 0.3 {
			src = VertexID(r.Intn(2)) // hubs 0 and 1
		}
		g.AddEdge(Edge{Src: src, Dst: VertexID(r.Intn(live)), W: r.Weight(9)})
	}
	for _, e := range g.Edges() {
		if r.Float64() < 0.3 {
			g.DeleteEdge(e.Src, e.Dst)
		}
	}
	for i := 0; i < 2*n; i++ {
		g.AddEdge(Edge{Src: VertexID(r.Intn(2)), Dst: VertexID(r.Intn(live)), W: r.Weight(9)})
	}
	return g
}

func TestEdgesSorted(t *testing.T) {
	cases := []struct {
		name string
		g    *Streaming
		want []Edge // nil: refEdges(g)
		hub  bool   // vertex 0's out-list must pass the old sort threshold
	}{
		{"tiny", FromEdges(4, []Edge{{3, 0, 1}, {0, 2, 1}, {0, 1, 1}}), []Edge{{0, 1, 1}, {0, 2, 1}, {3, 0, 1}}, false},
		{"empty", NewStreaming(5), []Edge{}, false},
		{"churned-small", churnedGraph(1, 40), nil, false},
		{"churned-hubs", churnedGraph(2, 300), nil, true},
		{"churned-hubs-2", churnedGraph(3, 1000), nil, true},
	}
	for _, tc := range cases {
		want := tc.want
		if want == nil {
			want = refEdges(tc.g)
		}
		if tc.hub && tc.g.OutDegree(0) <= 32 {
			t.Fatalf("%s: hub out-degree %d never passed the old sort threshold", tc.name, tc.g.OutDegree(0))
		}
		es := tc.g.Edges()
		if len(es) != len(want) || len(es) != tc.g.NumEdges() {
			t.Fatalf("%s: Edges() has %d edges, want %d", tc.name, len(es), len(want))
		}
		for i := range want {
			if es[i] != want[i] {
				t.Fatalf("%s: Edges()[%d] = %v, want %v", tc.name, i, es[i], want[i])
			}
		}
	}
}

func TestCSRRoundTrip(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1, 1}, {0, 2, 3}, {2, 1, 7}, {4, 0, 2}})
	c := g.ToCSR()
	if c.N != 5 || c.M != 4 {
		t.Fatalf("CSR dims N=%d M=%d", c.N, c.M)
	}
	dst, w := c.OutEdges(0)
	if len(dst) != 2 || len(w) != 2 {
		t.Fatalf("OutEdges(0) = %v %v", dst, w)
	}
	src, wi := c.InEdges(1)
	if len(src) != 2 || len(wi) != 2 {
		t.Fatalf("InEdges(1) = %v %v", src, wi)
	}
	if c.OutDegree(0) != 2 || c.InDegree(1) != 2 || c.OutDegree(3) != 0 {
		t.Fatal("CSR degree mismatch")
	}
	// Total edges reachable via CSR equals M in both directions.
	total := 0
	for v := VertexID(0); int(v) < c.N; v++ {
		total += c.OutDegree(v)
	}
	if total != c.M {
		t.Fatalf("sum of out-degrees %d != M %d", total, c.M)
	}
}

func randomBatch(r *rng.Xoshiro256, n, size int) Batch {
	b := make(Batch, 0, size)
	for i := 0; i < size; i++ {
		src := VertexID(r.Intn(n))
		dst := VertexID(r.Intn(n))
		if src == dst {
			continue
		}
		b = append(b, Update{
			Edge: Edge{Src: src, Dst: dst, W: r.Weight(8)},
			Del:  r.Float64() < 0.3,
		})
	}
	return b
}

func TestParallelMatchesSequential(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 10; trial++ {
		base := NewStreaming(64)
		seed := randomBatch(r, 64, 400)
		// Deduplicate (src,dst) pairs within the batch so parallel and
		// sequential application are comparable (the generators never emit
		// duplicate pairs in one batch either).
		seen := map[[2]VertexID]bool{}
		dedup := seed[:0]
		for _, u := range seed {
			k := [2]VertexID{u.Src, u.Dst}
			if !seen[k] {
				seen[k] = true
				dedup = append(dedup, u)
			}
		}
		g1 := base.Clone()
		g2 := base.Clone()
		a1 := g1.ApplyBatch(dedup)
		a2 := g2.ApplyBatchParallel(dedup, 4)
		if len(a1) != len(a2) {
			t.Fatalf("trial %d: applied counts differ: %d vs %d", trial, len(a1), len(a2))
		}
		if err := g2.Validate(); err != nil {
			t.Fatalf("trial %d: parallel result invalid: %v", trial, err)
		}
		e1, e2 := g1.Edges(), g2.Edges()
		if len(e1) != len(e2) {
			t.Fatalf("trial %d: edge counts differ: %d vs %d", trial, len(e1), len(e2))
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("trial %d: edge %d differs: %v vs %v", trial, i, e1[i], e2[i])
			}
		}
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		covered := make([]int32, n)
		ParallelFor(n, 4, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}

// Property: applying a batch then deleting everything it added and re-adding
// everything it deleted restores the original edge set.
func TestBatchInverseProperty(t *testing.T) {
	r := rng.New(7)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		g := NewStreaming(32)
		// Seed graph.
		for i := 0; i < 100; i++ {
			s, d := VertexID(rr.Intn(32)), VertexID(rr.Intn(32))
			if s != d {
				g.AddEdge(Edge{s, d, rr.Weight(4)})
			}
		}
		before := g.Edges()
		applied := g.ApplyBatch(randomBatch(r, 32, 64))
		inverse := make(Batch, 0, len(applied))
		for i := len(applied) - 1; i >= 0; i-- {
			u := applied[i]
			u.Del = !u.Del
			inverse = append(inverse, u)
		}
		g.ApplyBatch(inverse)
		after := g.Edges()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 1}})
	// Corrupt: remove the in-edge behind the struct's back.
	g.in[1] = nil
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed a dangling out-edge")
	}
}

func BenchmarkApplyBatchParallel(b *testing.B) {
	r := rng.New(1)
	g := NewStreaming(1 << 14)
	for i := 0; i < 1<<16; i++ {
		s, d := VertexID(r.Intn(1<<14)), VertexID(r.Intn(1<<14))
		if s != d {
			g.AddEdge(Edge{s, d, 1})
		}
	}
	batch := randomBatch(r, 1<<14, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := g.Clone()
		b.StartTimer()
		c.ApplyBatchParallel(batch, 0)
	}
}

// BenchmarkApplyHubChurn times ApplyBatchParallel on churnedGraph's two
// indexed hubs: each iteration deletes 4k of their edges, then adds them
// back, so every iteration starts from the same edge set and nearly every
// list operation goes through a hub index.
func BenchmarkApplyHubChurn(b *testing.B) {
	g := churnedGraph(7, 50000)
	var del, add Batch
	for _, e := range g.Edges() {
		if e.Src <= 1 && len(del) < 4096 {
			del = append(del, Update{Edge: e, Del: true})
			add = append(add, Update{Edge: e})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.ApplyBatchParallel(del, 0)) != len(del) || len(g.ApplyBatchParallel(add, 0)) != len(add) {
			b.Fatal("hub churn did not apply in full")
		}
	}
}

// BenchmarkEdges compares the counting-sort Edges with the comparison-sort
// reference on a hub-skewed, churned graph (~600k edges).
func BenchmarkEdges(b *testing.B) {
	g := churnedGraph(7, 50000)
	b.Run("counting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Edges()
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refEdges(g)
		}
	})
}
