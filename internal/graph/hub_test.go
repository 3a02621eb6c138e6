package graph

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
)

// hubBatch samples a batch where hubFrac of the updates have vertex 0 as
// their source — the adversarial skew for the adjacency index.
func hubBatch(r *rng.Xoshiro256, n, size int, hubFrac float64) Batch {
	b := make(Batch, 0, size)
	for i := 0; i < size; i++ {
		src := VertexID(r.Intn(n))
		if r.Float64() < hubFrac {
			src = 0
		}
		dst := VertexID(r.Intn(n))
		if src == dst {
			continue
		}
		b = append(b, Update{
			Edge: Edge{Src: src, Dst: dst, W: r.Weight(8)},
			Del:  r.Float64() < 0.4,
		})
	}
	return b
}

// rmatEdge samples one RMAT edge over 2^scale vertices with the canonical
// (0.57, 0.19, 0.19, 0.05) quadrant probabilities.
func rmatEdge(r *rng.Xoshiro256, scale int) (VertexID, VertexID) {
	var src, dst VertexID
	for level := 0; level < scale; level++ {
		p := r.Float64()
		var sBit, dBit VertexID
		switch {
		case p < 0.57:
		case p < 0.76:
			dBit = 1
		case p < 0.95:
			sBit = 1
		default:
			sBit, dBit = 1, 1
		}
		src = src<<1 | sBit
		dst = dst<<1 | dBit
	}
	return src, dst
}

// TestHubIndexedMatchesScan asserts the tentpole equivalence: the
// hub-indexed adjacency and the pure scan-based adjacency produce identical
// Edges() output (and identical applied sub-batches) on random update
// streams, including heavily hub-skewed ones.
func TestHubIndexedMatchesScan(t *testing.T) {
	const nv = 4 * HubThreshold
	for _, hubFrac := range []float64{0, 0.5, 0.95} {
		r := rng.New(uint64(1000 + int(hubFrac*100)))
		idxed := NewStreaming(nv)
		scan := NewStreaming(nv)
		scan.DisableHubIndex()
		for round := 0; round < 30; round++ {
			b := hubBatch(r, nv, 300, hubFrac)
			a1 := idxed.ApplyBatch(b)
			a2 := scan.ApplyBatch(b)
			if len(a1) != len(a2) {
				t.Fatalf("hubFrac %v round %d: applied %d vs %d", hubFrac, round, len(a1), len(a2))
			}
			for i := range a1 {
				if a1[i] != a2[i] {
					t.Fatalf("hubFrac %v round %d: applied[%d] %v vs %v", hubFrac, round, i, a1[i], a2[i])
				}
			}
			if err := idxed.Validate(); err != nil {
				t.Fatalf("hubFrac %v round %d: indexed graph invalid: %v", hubFrac, round, err)
			}
			if err := scan.Validate(); err != nil {
				t.Fatalf("hubFrac %v round %d: scan graph invalid: %v", hubFrac, round, err)
			}
			e1, e2, ref := idxed.Edges(), scan.Edges(), refEdges(scan)
			if len(e1) != len(e2) || len(e1) != len(ref) {
				t.Fatalf("hubFrac %v round %d: %d vs %d vs %d (reference) edges", hubFrac, round, len(e1), len(e2), len(ref))
			}
			for i := range e1 {
				if e1[i] != e2[i] || e1[i] != ref[i] {
					t.Fatalf("hubFrac %v round %d: edge %d: %v vs %v vs %v (reference)", hubFrac, round, i, e1[i], e2[i], ref[i])
				}
			}
		}
		if idxed.outIdx[0] == nil && hubFrac > 0.4 {
			t.Fatalf("hubFrac %v: vertex 0 never became a hub — test lost its teeth", hubFrac)
		}
	}
}

// TestHubIndexBuildDropHysteresis pins the build/drop thresholds: the index
// appears at HubThreshold and is discarded only below HubThreshold/4.
func TestHubIndexBuildDropHysteresis(t *testing.T) {
	n := HubThreshold * 2
	g := NewStreaming(n + 1)
	for d := 1; d <= HubThreshold-1; d++ {
		g.AddEdge(Edge{0, VertexID(d), 1})
	}
	if g.outIdx[0] != nil {
		t.Fatalf("index built at degree %d, threshold is %d", g.OutDegree(0), HubThreshold)
	}
	g.AddEdge(Edge{0, VertexID(HubThreshold), 1})
	if g.outIdx[0] == nil {
		t.Fatal("index not built at threshold")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Shrink back down: the index must survive until hubDropThreshold.
	for d := HubThreshold; d > hubDropThreshold; d-- {
		g.DeleteEdge(0, VertexID(d))
	}
	if g.outIdx[0] == nil {
		t.Fatalf("index dropped early at degree %d (floor %d)", g.OutDegree(0), hubDropThreshold)
	}
	g.DeleteEdge(0, VertexID(hubDropThreshold))
	if g.outIdx[0] != nil {
		t.Fatalf("index kept at degree %d, floor %d", g.OutDegree(0), hubDropThreshold)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// In-direction symmetry: many sources pointing at one sink.
	h := NewStreaming(n + 1)
	for s := 1; s <= HubThreshold; s++ {
		h.AddEdge(Edge{VertexID(s), 0, 1})
	}
	if h.inIdx[0] == nil {
		t.Fatal("in-index not built at threshold")
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestHubParallelMatchesSequential runs hub-skewed batches through both
// batch paths; the parallel path maintains the same indexes shard-locally.
func TestHubParallelMatchesSequential(t *testing.T) {
	r := rng.New(31)
	base := NewStreaming(96)
	for i := 0; i < 600; i++ {
		d := VertexID(r.Intn(96))
		if d != 0 {
			base.AddEdge(Edge{0, d, r.Weight(4)})
		}
	}
	for trial := 0; trial < 8; trial++ {
		raw := hubBatch(r, 96, 500, 0.8)
		seen := map[[2]VertexID]bool{}
		b := raw[:0]
		for _, u := range raw {
			k := [2]VertexID{u.Src, u.Dst}
			if !seen[k] {
				seen[k] = true
				b = append(b, u)
			}
		}
		g1, g2 := base.Clone(), base.Clone()
		a1 := g1.ApplyBatch(b)
		a2 := g2.ApplyBatchParallel(b, 4)
		if len(a1) != len(a2) {
			t.Fatalf("trial %d: applied %d vs %d", trial, len(a1), len(a2))
		}
		if err := g2.Validate(); err != nil {
			t.Fatalf("trial %d: parallel hub graph invalid: %v", trial, err)
		}
		e1, e2 := g1.Edges(), g2.Edges()
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("trial %d: edge %d: %v vs %v", trial, i, e1[i], e2[i])
			}
		}
	}
}

// TestCloneCopiesHubIndex: mutating a clone's hub must not corrupt the
// original's index (and vice versa).
func TestCloneCopiesHubIndex(t *testing.T) {
	g := NewStreaming(HubThreshold * 3)
	for d := 1; d <= HubThreshold+5; d++ {
		g.AddEdge(Edge{0, VertexID(d), 1})
	}
	c := g.Clone()
	if c.outIdx[0] == nil {
		t.Fatal("clone lost the hub index")
	}
	c.DeleteEdge(0, 1)
	if _, ok := g.HasEdge(0, 1); !ok {
		t.Fatal("clone shares index state with original")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestToCSRIntoReusesArena: ToCSRInto must equal ToCSR and reuse backing
// arrays across snapshots once capacity has been established.
func TestToCSRIntoReusesArena(t *testing.T) {
	r := rng.New(5)
	g := NewStreaming(64)
	g.ApplyBatch(hubBatch(r, 64, 800, 0.3))
	want := g.ToCSR()
	var arena CSR
	got := g.ToCSRInto(&arena)
	if got != &arena {
		t.Fatal("ToCSRInto did not return its argument")
	}
	compareCSR(t, want, got)
	// Mutate slightly and re-snapshot into the same arena: no new arrays.
	g.DeleteEdge(want.OutDst[0], want.OutDst[1]) // may miss; irrelevant
	p0 := &got.OutDst[:cap(got.OutDst)][0]
	g.ToCSRInto(&arena)
	if &arena.OutDst[:cap(arena.OutDst)][0] != p0 {
		t.Fatal("ToCSRInto reallocated a buffer that had capacity")
	}
	compareCSR(t, g.ToCSR(), &arena)
	// Nil receiver degrades to ToCSR.
	compareCSR(t, g.ToCSR(), g.ToCSRInto(nil))
}

func compareCSR(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.N != b.N || a.M != b.M {
		t.Fatalf("dims: %d/%d vs %d/%d", a.N, a.M, b.N, b.M)
	}
	for v := VertexID(0); int(v) < a.N; v++ {
		ad, aw := a.OutEdges(v)
		bd, bw := b.OutEdges(v)
		if len(ad) != len(bd) {
			t.Fatalf("out row %d: %v vs %v", v, ad, bd)
		}
		for i := range ad {
			if ad[i] != bd[i] || aw[i] != bw[i] {
				t.Fatalf("out row %d entry %d differs", v, i)
			}
		}
		as, av := a.InEdges(v)
		bs, bv := b.InEdges(v)
		if len(as) != len(bs) {
			t.Fatalf("in row %d: %v vs %v", v, as, bs)
		}
		for i := range as {
			if as[i] != bs[i] || av[i] != bv[i] {
				t.Fatalf("in row %d entry %d differs", v, i)
			}
		}
	}
}

// FuzzHubAdjacency drives AddEdge/DeleteEdge/HasEdge from an op tape
// against a map oracle, validating index integrity after every step burst.
func FuzzHubAdjacency(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x80, 0x01, 0x00, 0x41})
	f.Add([]byte{0x01, 0x02, 0x03, 0x81, 0x82, 0x83, 0x01})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const n = 32
		g := NewStreaming(n)
		oracle := map[[2]VertexID]Weight{}
		for i := 0; i+1 < len(tape); i += 2 {
			src := VertexID(tape[i] & 0x1f)
			dst := VertexID(tape[i+1] & 0x1f)
			if src == dst {
				continue
			}
			k := [2]VertexID{src, dst}
			if tape[i]&0x80 != 0 {
				_, want := oracle[k]
				if _, ok := g.DeleteEdge(src, dst); ok != want {
					t.Fatalf("DeleteEdge(%d,%d) = %v, oracle %v", src, dst, ok, want)
				}
				delete(oracle, k)
			} else {
				w := Weight(tape[i+1]%7) + 1
				_, dup := oracle[k]
				if g.AddEdge(Edge{src, dst, w}) == dup {
					t.Fatalf("AddEdge(%d,%d) diverged from oracle", src, dst)
				}
				if !dup {
					oracle[k] = w
				}
			}
			if w, ok := g.HasEdge(src, dst); ok != (oracle[k] != 0) || (ok && w != oracle[k]) {
				t.Fatalf("HasEdge(%d,%d) diverged", src, dst)
			}
		}
		if g.NumEdges() != len(oracle) {
			t.Fatalf("NumEdges %d != oracle %d", g.NumEdges(), len(oracle))
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkApplyBatchHub measures steady-state batch application on a
// 1-hub star graph and an RMAT graph, with and without the hub index (the
// scan variants are the pre-index baseline the >=5x acceptance criterion is
// judged against). Each iteration deletes K hub-incident edges and re-adds
// them, so the graph returns to its start state and every iteration does
// identical work.
func BenchmarkApplyBatchHub(b *testing.B) {
	const k = 256
	star := func() (*Streaming, Batch) {
		n := 1 << 15
		g := NewStreaming(n)
		for d := 1; d < n; d++ {
			g.AddEdge(Edge{0, VertexID(d), 1})
		}
		batch := make(Batch, 0, 2*k)
		for i := 0; i < k; i++ {
			batch = append(batch, Update{Edge: Edge{0, VertexID(1 + i*97), 1}, Del: true})
		}
		for i := 0; i < k; i++ {
			batch = append(batch, Update{Edge: Edge{0, VertexID(1 + i*97), 1}, Del: false})
		}
		return g, batch
	}
	rmat := func() (*Streaming, Batch) {
		const scale = 14
		r := rng.New(77)
		g := NewStreaming(1 << scale)
		var accepted []Edge
		for len(accepted) < 6*(1<<scale) {
			s, d := rmatEdge(r, scale)
			if s == d {
				continue
			}
			e := Edge{s, d, 1}
			if g.AddEdge(e) {
				accepted = append(accepted, e)
			}
		}
		// Target the natural RMAT hubs: take the k accepted edges with the
		// highest-degree sources so the batch stresses skewed lists.
		sort.SliceStable(accepted, func(i, j int) bool {
			return g.OutDegree(accepted[i].Src) > g.OutDegree(accepted[j].Src)
		})
		batch := make(Batch, 0, 2*k)
		for i := 0; i < k; i++ {
			batch = append(batch, Update{Edge: accepted[i], Del: true})
		}
		for i := 0; i < k; i++ {
			batch = append(batch, Update{Edge: accepted[i], Del: false})
		}
		return g, batch
	}
	for _, tc := range []struct {
		name  string
		build func() (*Streaming, Batch)
		scan  bool
	}{
		{"star/indexed", star, false},
		{"star/scan", star, true},
		{"rmat/indexed", rmat, false},
		{"rmat/scan", rmat, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g, batch := tc.build()
			if tc.scan {
				g.DisableHubIndex()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := len(g.ApplyBatch(batch)); got != len(batch) {
					b.Fatalf("applied %d of %d", got, len(batch))
				}
			}
			b.ReportMetric(float64(len(batch)), "updates/batch")
		})
	}
}

// BenchmarkLookupCrossover times one neighbour lookup (half hits, half
// misses, as a batch of adds and deletes probes) on lists of growing
// length, by linear scan and through the hub index: the list length where
// the index starts to win is the evidence behind HubThreshold.
func BenchmarkLookupCrossover(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		r := rng.New(uint64(n))
		list := make([]Half, n)
		for i := range list {
			list[i] = Half{To: VertexID(r.Intn(1 << 20)), W: 1}
		}
		idx := indexOf(list)
		probes := make([]VertexID, 1024)
		for i := range probes {
			if i%2 == 0 {
				probes[i] = list[r.Intn(n)].To
			} else {
				probes[i] = VertexID(1<<20 + r.Intn(1<<20))
			}
		}
		for _, tc := range []struct {
			name string
			idx  *hubIndex
		}{{"scan", nil}, {"index", idx}} {
			b.Run(fmt.Sprintf("len=%d/%s", n, tc.name), func(b *testing.B) {
				var sum int32
				for i := 0; i < b.N; i++ {
					sum += lookupHalf(list, tc.idx, probes[i&1023])
				}
				sinkPos = sum
			})
		}
	}
}

var sinkPos int32
