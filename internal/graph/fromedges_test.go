package graph

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/rng"
)

// refFromEdges is the AddEdge loop the linear FromEdgesOpts replaced. It is
// the reference the bulk build is held to, list for list.
func refFromEdges(n int, edges []Edge, o Options) *Streaming {
	g := NewStreamingOpts(n, o)
	for _, e := range edges {
		g.AddEdge(e)
	}
	return g
}

// rawEdges returns seeded edge lists of each generator family (n a power
// of two for RMAT) over the first three quarters of n vertices (the rest stay isolated), with
// duplicate pairs (differing weights, so "first wins" is visible) and
// self-loops left in.
func rawEdges(kind string, seed uint64, n, m int) []Edge {
	r := rng.New(seed)
	live := n - n/4
	es := make([]Edge, 0, m)
	add := func(s, d VertexID) {
		es = append(es, Edge{Src: s % VertexID(live), Dst: d % VertexID(live), W: r.Weight(9)})
	}
	for len(es) < m {
		switch kind {
		case "rmat":
			add(rmatEdge(r, bits.Len(uint(n))-1))
		case "ba": // preferential attachment: copy an endpoint of a past edge
			if len(es) < 8 {
				add(VertexID(r.Intn(live)), VertexID(r.Intn(live)))
				continue
			}
			add(VertexID(r.Intn(live)), es[r.Intn(len(es))].Dst)
		case "er":
			add(VertexID(r.Intn(live)), VertexID(r.Intn(live)))
		}
		if r.Float64() < 0.05 { // repeat a past pair
			e := es[r.Intn(len(es))]
			add(e.Src, e.Dst)
		}
		if r.Float64() < 0.01 {
			v := VertexID(r.Intn(live))
			add(v, v)
		}
	}
	return es
}

// sameGraph asserts got and want hold element-for-element identical
// out- and in-lists of equal capacity, the same edge count and the same
// hub indexes, and that got validates.
func sameGraph(t *testing.T, got, want *Streaming) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("got %d vertices/%d edges, want %d/%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := range want.out {
		for _, dir := range []struct {
			name     string
			got, ref []Half
			gi, ri   *hubIndex
		}{
			{"out", got.out[v], want.out[v], got.outIdx[v], want.outIdx[v]},
			{"in", got.in[v], want.in[v], got.inIdx[v], want.inIdx[v]},
		} {
			if len(dir.got) != len(dir.ref) {
				t.Fatalf("%s-list of %d has %d halves, want %d", dir.name, v, len(dir.got), len(dir.ref))
			}
			for i := range dir.ref {
				if dir.got[i] != dir.ref[i] {
					t.Fatalf("%s-list of %d [%d] = %v, want %v", dir.name, v, i, dir.got[i], dir.ref[i])
				}
			}
			if (dir.gi == nil) != (dir.ri == nil) {
				t.Fatalf("%s-list of %d (%d halves): indexed %v, want %v",
					dir.name, v, len(dir.ref), dir.gi != nil, dir.ri != nil)
			}
			// Equal capacity: streamed additions reallocate exactly when
			// they would on a one-by-one build.
			if cap(dir.got) != cap(dir.ref) {
				t.Fatalf("%s-list of %d (%d halves): capacity %d, appending gives %d",
					dir.name, v, len(dir.ref), cap(dir.got), cap(dir.ref))
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFromEdgesMatchesAddEdgeLoop holds the bulk build to the AddEdge loop
// on seeded RMAT, BA and ER edge lists with duplicates, self-loops and
// isolated vertices, an empty list, and a low hub threshold.
func TestFromEdgesMatchesAddEdgeLoop(t *testing.T) {
	type tc struct {
		name  string
		n     int
		edges []Edge
		o     Options
		hubs  bool // the case must index some list
	}
	cases := []tc{
		{"empty", 5, nil, Options{}, false},
		{"no-vertices", 0, nil, Options{}, false},
		{"tiny", 4, []Edge{{3, 0, 1}, {0, 2, 1}, {0, 2, 5}, {1, 1, 2}, {0, 1, 1}}, Options{}, false},
	}
	for _, kind := range []string{"rmat", "ba", "er"} {
		for seed := uint64(1); seed <= 3; seed++ {
			cases = append(cases,
				tc{fmt.Sprintf("%s/%d", kind, seed), 1 << 12, rawEdges(kind, seed, 1<<12, 40000), Options{}, kind != "er"},
				tc{fmt.Sprintf("%s/%d/hub8", kind, seed), 1 << 12, rawEdges(kind, seed, 1<<12, 20000), Options{HubThreshold: 8}, true},
			)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := FromEdgesOpts(c.n, c.edges, c.o), refFromEdges(c.n, c.edges, c.o)
			sameGraph(t, got, want)
			if len(c.edges) > 1000 && (want.m == len(c.edges) || c.hubs && hubs(want) == 0) {
				t.Fatalf("%d of %d edges kept, %d hubs: case lost its duplicates or hubs",
					want.m, len(c.edges), hubs(want))
			}
		})
	}
}

// hubs counts g's indexed lists.
func hubs(g *Streaming) int {
	n := 0
	for v := range g.out {
		if g.outIdx[v] != nil {
			n++
		}
		if g.inIdx[v] != nil {
			n++
		}
	}
	return n
}

// BenchmarkFromEdges compares the linear bulk build with the AddEdge loop
// on a skewed RMAT edge list with repeats (~200k edges over 32k vertices).
func BenchmarkFromEdges(b *testing.B) {
	const n = 1 << 15
	es := rawEdges("rmat", 9, n, 200000)
	for _, tc := range []struct {
		name  string
		build func(int, []Edge, Options) *Streaming
	}{{"bulk", FromEdgesOpts}, {"reference", refFromEdges}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkGraph = tc.build(n, es, Options{})
			}
		})
	}
}

var sinkGraph *Streaming
