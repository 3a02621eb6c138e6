package dflow

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/etree"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// flowOracle recomputes the flow adjacency from scratch as the old
// map-of-maps representation would have: counts of graph edges per
// cross-flow pair.
func flowOracle(g *graph.Streaming, p *Partition) (out, in []map[int32]int32) {
	out = make([]map[int32]int32, p.NumFlows())
	in = make([]map[int32]int32, p.NumFlows())
	for _, e := range g.Edges() {
		fu, fv := p.Flow(e.Src), p.Flow(e.Dst)
		if fu == fv {
			continue
		}
		if out[fu] == nil {
			out[fu] = make(map[int32]int32)
		}
		out[fu][fv]++
		if in[fv] == nil {
			in[fv] = make(map[int32]int32)
		}
		in[fv][fu]++
	}
	return out, in
}

func sortedKeys(m map[int32]int32) []int32 {
	ks := make([]int32, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func collectSorted(iter func(func(int32))) []int32 {
	var got []int32
	iter(func(f int32) { got = append(got, f) })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

func compareFlowGraph(t *testing.T, tag string, fg *FlowGraph, g *graph.Streaming, p *Partition) {
	t.Helper()
	out, in := flowOracle(g, p)
	for f := int32(0); int(f) < p.NumFlows(); f++ {
		wantOut := sortedKeys(out[f])
		gotOut := collectSorted(func(fn func(int32)) { fg.OutFlows(f, fn) })
		if len(wantOut) != len(gotOut) {
			t.Fatalf("%s: flow %d out = %v, oracle %v", tag, f, gotOut, wantOut)
		}
		for i := range wantOut {
			if wantOut[i] != gotOut[i] {
				t.Fatalf("%s: flow %d out = %v, oracle %v", tag, f, gotOut, wantOut)
			}
		}
		if fg.OutDegree(f) != len(wantOut) {
			t.Fatalf("%s: flow %d OutDegree = %d, oracle %d", tag, f, fg.OutDegree(f), len(wantOut))
		}
		wantIn := sortedKeys(in[f])
		gotIn := collectSorted(func(fn func(int32)) { fg.InFlows(f, fn) })
		if len(wantIn) != len(gotIn) {
			t.Fatalf("%s: flow %d in = %v, oracle %v", tag, f, gotIn, wantIn)
		}
		for i := range wantIn {
			if wantIn[i] != gotIn[i] {
				t.Fatalf("%s: flow %d in = %v, oracle %v", tag, f, gotIn, wantIn)
			}
		}
	}
}

// TestFlowGraphMatchesMapOracle streams random add/delete updates through
// the CSR-backed FlowGraph (including deletions driving CSR counts to zero
// and re-additions resurrecting them, plus novel pairs landing in the
// overflow maps) and checks every view against a from-scratch oracle.
// Mid-stream Rebuild calls must fold the overflow back into the CSR and
// keep all views identical.
func TestFlowGraphMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		cfg := gen.Config{Kind: gen.ER, NumV: 60, NumE: 150, Seed: seed}
		g := graph.FromEdges(cfg.NumV, gen.Generate(cfg))
		f := etree.NewForest(g, etree.Forward)
		p := NewPartition(f, 6)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		fg := NewFlowGraph(g, p)
		compareFlowGraph(t, "initial", fg, g, p)

		for step := 0; step < 200; step++ {
			src := graph.VertexID(r.Intn(cfg.NumV))
			dst := graph.VertexID(r.Intn(cfg.NumV))
			if src == dst {
				continue
			}
			if r.Float64() < 0.45 {
				if _, ok := g.DeleteEdge(src, dst); ok {
					fg.DeleteEdge(src, dst)
				}
			} else {
				if g.AddEdge(graph.Edge{Src: src, Dst: dst, W: 1}) {
					fg.AddEdge(src, dst)
				}
			}
			if step%23 == 0 {
				compareFlowGraph(t, "stream", fg, g, p)
			}
			if step%67 == 66 {
				fg.Rebuild(g, p) // same partition, fresh CSR
				compareFlowGraph(t, "rebuild", fg, g, p)
				sameCSR(t, "rebuild", fg, refRebuild(g, p))
			}
		}
		compareFlowGraph(t, "final", fg, g, p)

		// A rebuild under a brand-new partition (the repartition path) must
		// also agree, reusing the same buffers.
		f2 := etree.NewForest(g, etree.Forward)
		p2 := NewPartition(f2, 9)
		fg.Rebuild(g, p2)
		compareFlowGraph(t, "repartition", fg, g, p2)
		sameCSR(t, "repartition", fg, refRebuild(g, p2))
	}
}

// refRebuild is the sort-based Rebuild the counting pass replaced, kept as
// the equivalence reference: count cross edges per source flow, flatten the
// destination flows per row, sort and run-length-encode each row, then
// build the reverse index. It returns a fresh FlowGraph.
func refRebuild(g *graph.Streaming, part *Partition) *FlowGraph {
	nf := part.NumFlows()
	fg := newFlowGraphN(nf)
	fg.part = part
	rowLen := make([]int32, nf)
	total := 0
	for v := 0; v < g.NumVertices(); v++ {
		fu := part.Flow(graph.VertexID(v))
		for _, h := range g.Out(graph.VertexID(v)) {
			if part.Flow(h.To) != fu {
				rowLen[fu]++
				total++
			}
		}
	}
	tmpDst := make([]int32, total)
	cur := fg.outPtr
	pos := int32(0)
	for f := 0; f < nf; f++ {
		cur[f] = pos
		pos += rowLen[f]
		rowLen[f] = cur[f]
	}
	cur[nf] = pos
	for v := 0; v < g.NumVertices(); v++ {
		fu := part.Flow(graph.VertexID(v))
		for _, h := range g.Out(graph.VertexID(v)) {
			if fv := part.Flow(h.To); fv != fu {
				tmpDst[cur[fu]] = fv
				cur[fu]++
			}
		}
	}
	for f := 0; f < nf; f++ {
		row := tmpDst[rowLen[f]:cur[f]]
		slices.Sort(row)
		fg.outPtr[f] = int32(len(fg.outDst))
		for i := 0; i < len(row); {
			j := i + 1
			for j < len(row) && row[j] == row[i] {
				j++
			}
			fg.outDst = append(fg.outDst, row[i])
			fg.outCnt = append(fg.outCnt, int32(j-i))
			i = j
		}
		fg.outDeg[f] = int32(len(fg.outDst)) - fg.outPtr[f]
	}
	fg.outPtr[nf] = int32(len(fg.outDst))
	inLen := make([]int32, nf)
	for _, d := range fg.outDst {
		inLen[d]++
	}
	pos = 0
	for f := 0; f < nf; f++ {
		fg.inPtr[f] = pos
		pos += inLen[f]
		inLen[f] = fg.inPtr[f]
	}
	fg.inPtr[nf] = pos
	fg.inSrc = make([]int32, pos)
	fg.inCnt = make([]int32, pos)
	for f := 0; f < nf; f++ {
		for p := fg.outPtr[f]; p < fg.outPtr[f+1]; p++ {
			d := fg.outDst[p]
			fg.inSrc[inLen[d]] = int32(f)
			fg.inCnt[inLen[d]] = fg.outCnt[p]
			inLen[d]++
		}
	}
	return fg
}

// sameCSR fails unless got's CSR arrays equal want's element for element
// and got's overflow maps are empty, as they must be right after a rebuild.
func sameCSR(t *testing.T, tag string, got, want *FlowGraph) {
	t.Helper()
	for _, a := range []struct {
		name      string
		got, want []int32
	}{
		{"outPtr", got.outPtr, want.outPtr}, {"outDst", got.outDst, want.outDst},
		{"outCnt", got.outCnt, want.outCnt}, {"inPtr", got.inPtr, want.inPtr},
		{"inSrc", got.inSrc, want.inSrc}, {"inCnt", got.inCnt, want.inCnt},
		{"outDeg", got.outDeg, want.outDeg},
	} {
		if !slices.Equal(a.got, a.want) {
			t.Fatalf("%s: %s = %v, reference %v", tag, a.name, a.got, a.want)
		}
	}
	for f := range got.outOvf {
		if len(got.outOvf[f]) != 0 || len(got.inOvf[f]) != 0 {
			t.Fatalf("%s: flow %d overflow not emptied by the rebuild", tag, f)
		}
	}
}

// TestFlowGraphRebuildMatchesReference holds the counting Rebuild to the
// sort-based reference, array for array, on seeded RMAT, BA and ER graphs
// and degenerate shapes under forest partitions (both directions; caps 1,
// 7, the default and past n, which gives a single flow) and key-forest
// partitions. One FlowGraph is rebuilt across every case so buffer reuse is
// covered. Each graph is then mutated by ApplyBatch — whose swap-deletes
// reorder adjacency lists — while AddEdge/DeleteEdge fill the overflow
// maps, and the rebuild under the old and a fresh partition must match
// again.
func TestFlowGraphRebuildMatchesReference(t *testing.T) {
	fg := &FlowGraph{}
	check := func(tag string, g *graph.Streaming, p *Partition) {
		t.Helper()
		fg.Rebuild(g, p)
		sameCSR(t, tag, fg, refRebuild(g, p))
		compareFlowGraph(t, tag, fg, g, p)
	}
	for name, g := range equivGraphs() {
		n := g.NumVertices()
		for _, dir := range []etree.Direction{etree.Forward, etree.Backward} {
			f := etree.NewForest(g, dir)
			for _, cap := range []int{1, 7, DefaultCap, n + 1} {
				check(fmt.Sprintf("%s/dir=%d/cap=%d", name, dir, cap), g, NewPartition(f, cap))
			}
		}
		parent := randomForest(uint64(n), n, 0.05, 0.1)
		check(name+"/parents", g, NewPartitionFromParents(parent, 16))
		if n == 0 {
			continue
		}

		// Mutate: overflow-filling incremental updates, then a rebuild.
		p := NewPartition(etree.NewForest(g, etree.Forward), 7)
		fg.Rebuild(g, p)
		r := rng.New(uint64(n) + 3)
		var b graph.Batch
		for i := 0; i < 4*n; i++ {
			e := graph.Edge{Src: graph.VertexID(r.Intn(n)), Dst: graph.VertexID(r.Intn(n)), W: 1}
			if e.Src != e.Dst {
				b = append(b, graph.Update{Edge: e, Del: r.Float64() < 0.4})
			}
		}
		for _, u := range b[:len(b)/2] {
			if u.Del {
				if _, ok := g.DeleteEdge(u.Src, u.Dst); ok {
					fg.DeleteEdge(u.Src, u.Dst)
				}
			} else if g.AddEdge(u.Edge) {
				fg.AddEdge(u.Src, u.Dst)
			}
		}
		if !slices.ContainsFunc(fg.outOvf, func(m map[int32]int32) bool { return len(m) > 0 }) {
			t.Fatalf("%s: incremental updates left the overflow maps empty", name)
		}
		g.ApplyBatch(b[len(b)/2:])
		check(name+"/mutated", g, p)
		check(name+"/mutated/repartition", g, NewPartition(etree.NewForest(g, etree.Backward), 7))
	}
}
