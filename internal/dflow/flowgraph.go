package dflow

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

func errDuplicate(v uint32) error { return fmt.Errorf("dflow: vertex %d in two flows", v) }
func errFlowOf(v uint32, got, want int32) error {
	return fmt.Errorf("dflow: FlowOf[%d] = %d, member of %d", v, got, want)
}
func errUnassigned(v uint32) error { return fmt.Errorf("dflow: vertex %d unassigned", v) }

// FlowGraph is the flow-level dependency digraph: an edge f->g exists while
// at least one graph edge leaves a vertex of flow f into a vertex of flow g.
// It is the runtime index the paper derives from the backward-triangle
// D-trees: given an impacted flow, it answers "which other flows can my
// values reach" without touching graph edges (§V-A).
//
// Storage is a CSR-style refcount index rebuilt into reusable buffers at
// (re)partition time — the former map-of-maps representation re-allocated
// O(flows + cross edges) of map headers on every rebuild. Between rebuilds,
// AddEdge/DeleteEdge adjust refcounts in place; a flow pair that first
// appears after the rebuild goes into a small per-flow overflow map (kept
// allocated and emptied with clear() at the next rebuild). A CSR entry may
// rest at count zero and be re-incremented later; iteration skips
// non-positive counts.
type FlowGraph struct {
	part *Partition

	outPtr, outDst, outCnt []int32 // rows sorted by dst flow id
	inPtr, inSrc, inCnt    []int32 // reverse index, rows sorted by src
	outDeg                 []int32 // distinct downstream flows with positive count

	outOvf []map[int32]int32 // novel pairs since the last rebuild
	inOvf  []map[int32]int32

	cnt []int32 // rebuild scratch: per-destination-flow count, then in-row cursor
	row []int32 // rebuild scratch: distinct destination flows of one row
}

// NewFlowGraph indexes every cross-flow edge of g under partition part.
func NewFlowGraph(g *graph.Streaming, part *Partition) *FlowGraph {
	fg := &FlowGraph{}
	fg.Rebuild(g, part)
	return fg
}

// newFlowGraphN returns an empty FlowGraph over n flows with no partition.
// Tests use it to build flow digraphs directly via addFlowEdge.
func newFlowGraphN(n int) *FlowGraph {
	fg := &FlowGraph{}
	fg.sizeFor(n)
	return fg
}

// sizeFor (re)establishes buffers for n flows, reusing capacity. Counts and
// overflow maps are emptied; pointer arrays are zeroed.
func (fg *FlowGraph) sizeFor(n int) {
	fg.outPtr = resetI32(fg.outPtr, n+1)
	fg.inPtr = resetI32(fg.inPtr, n+1)
	fg.outDeg = resetI32(fg.outDeg, n)
	fg.cnt = resetI32(fg.cnt, n)
	fg.outDst = fg.outDst[:0]
	fg.outCnt = fg.outCnt[:0]
	fg.inSrc = fg.inSrc[:0]
	fg.inCnt = fg.inCnt[:0]
	fg.outOvf = resetOvf(fg.outOvf, n)
	fg.inOvf = resetOvf(fg.inOvf, n)
}

// resetI32 returns a zeroed slice of length n reusing capacity.
func resetI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resetOvf returns a length-n overflow slice whose existing maps are kept
// allocated but emptied, so steady-state rebuilds free no map storage.
func resetOvf(s []map[int32]int32, n int) []map[int32]int32 {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]map[int32]int32, n-cap(s))...)
	}
	s = s[:n]
	for _, m := range s {
		clear(m)
	}
	return s
}

// Rebuild re-indexes every cross-flow edge of g under part, reusing the
// receiver's buffers. Engines call this at repartition instead of
// allocating a fresh FlowGraph. Each source flow's members are walked once:
// a dense per-destination-flow counter accumulates the row, the row's
// distinct flows (at most NumFlows) are sorted, emitted and their counters
// reset, so the cost is O(V+E) plus sorting each row's distinct flows.
func (fg *FlowGraph) Rebuild(g *graph.Streaming, part *Partition) {
	fg.part = part
	nf := part.NumFlows()
	fg.sizeFor(nf)

	cnt, row := fg.cnt, fg.row[:0] // cnt is all zero between rows
	for f, members := range part.Flows {
		row = row[:0]
		for _, v := range members {
			for _, h := range g.Out(v) {
				if d := part.FlowOf[h.To]; d != int32(f) {
					if cnt[d] == 0 {
						row = append(row, d)
					}
					cnt[d]++
				}
			}
		}
		slices.Sort(row)
		fg.outPtr[f] = int32(len(fg.outDst))
		fg.outDeg[f] = int32(len(row))
		for _, d := range row {
			fg.outDst = append(fg.outDst, d)
			fg.outCnt = append(fg.outCnt, cnt[d])
			cnt[d] = 0
		}
	}
	fg.outPtr[nf] = int32(len(fg.outDst))
	fg.row = row

	// Reverse index: walking out-rows in ascending f appends sources to
	// each in-row already sorted, so no per-row sort is needed.
	inLen := cnt // reuse the (all-zero) counters as in-row cursors
	for _, g := range fg.outDst {
		inLen[g]++
	}
	pos := int32(0)
	for f := 0; f < nf; f++ {
		fg.inPtr[f] = pos
		pos += inLen[f]
		inLen[f] = fg.inPtr[f]
	}
	fg.inPtr[nf] = pos
	fg.inSrc = resetI32(fg.inSrc, int(pos))
	fg.inCnt = resetI32(fg.inCnt, int(pos))
	for f := 0; f < nf; f++ {
		for p := fg.outPtr[f]; p < fg.outPtr[f+1]; p++ {
			gid := fg.outDst[p]
			at := inLen[gid]
			fg.inSrc[at] = int32(f)
			fg.inCnt[at] = fg.outCnt[p]
			inLen[gid]++
		}
	}
}

// csrFind binary-searches row f of a CSR for neighbour x, returning the
// entry position or -1.
func csrFind(ptr, ids []int32, f, x int32) int32 {
	lo, hi := ptr[f], ptr[f+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ids[mid] < x:
			lo = mid + 1
		case ids[mid] > x:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// AddEdge records graph edge u->v.
func (fg *FlowGraph) AddEdge(u, v graph.VertexID) {
	fu, fv := fg.part.Flow(u), fg.part.Flow(v)
	if fu == fv {
		return
	}
	fg.addFlowEdge(fu, fv)
}

// DeleteEdge removes graph edge u->v from the index.
func (fg *FlowGraph) DeleteEdge(u, v graph.VertexID) {
	fu, fv := fg.part.Flow(u), fg.part.Flow(v)
	if fu == fv {
		return
	}
	// Out direction.
	if p := csrFind(fg.outPtr, fg.outDst, fu, fv); p >= 0 {
		if fg.outCnt[p] > 0 {
			if fg.outCnt[p]--; fg.outCnt[p] == 0 {
				fg.outDeg[fu]--
			}
		}
	} else if m := fg.outOvf[fu]; m != nil {
		if c := m[fv]; c > 0 {
			if c == 1 {
				delete(m, fv)
				fg.outDeg[fu]--
			} else {
				m[fv] = c - 1
			}
		}
	}
	// In direction.
	if p := csrFind(fg.inPtr, fg.inSrc, fv, fu); p >= 0 {
		if fg.inCnt[p] > 0 {
			fg.inCnt[p]--
		}
	} else if m := fg.inOvf[fv]; m != nil {
		if c := m[fu]; c > 0 {
			if c == 1 {
				delete(m, fu)
			} else {
				m[fu] = c - 1
			}
		}
	}
}

// addFlowEdge bumps the refcount of flow edge fu->fv by one.
func (fg *FlowGraph) addFlowEdge(fu, fv int32) {
	if p := csrFind(fg.outPtr, fg.outDst, fu, fv); p >= 0 {
		if fg.outCnt[p]++; fg.outCnt[p] == 1 {
			fg.outDeg[fu]++
		}
	} else {
		m := fg.outOvf[fu]
		if m == nil {
			m = make(map[int32]int32)
			fg.outOvf[fu] = m
		}
		if m[fv]++; m[fv] == 1 {
			fg.outDeg[fu]++
		}
	}
	if p := csrFind(fg.inPtr, fg.inSrc, fv, fu); p >= 0 {
		fg.inCnt[p]++
	} else {
		m := fg.inOvf[fv]
		if m == nil {
			m = make(map[int32]int32)
			fg.inOvf[fv] = m
		}
		m[fu]++
	}
}

// NumFlows returns the number of flows.
func (fg *FlowGraph) NumFlows() int { return len(fg.outDeg) }

// OutFlows calls fn for each flow downstream of f.
func (fg *FlowGraph) OutFlows(f int32, fn func(g int32)) {
	for p := fg.outPtr[f]; p < fg.outPtr[f+1]; p++ {
		if fg.outCnt[p] > 0 {
			fn(fg.outDst[p])
		}
	}
	for g, c := range fg.outOvf[f] {
		if c > 0 {
			fn(g)
		}
	}
}

// InFlows calls fn for each flow upstream of f.
func (fg *FlowGraph) InFlows(f int32, fn func(g int32)) {
	for p := fg.inPtr[f]; p < fg.inPtr[f+1]; p++ {
		if fg.inCnt[p] > 0 {
			fn(fg.inSrc[p])
		}
	}
	for g, c := range fg.inOvf[f] {
		if c > 0 {
			fn(g)
		}
	}
}

// OutDegree returns the number of downstream flows of f.
func (fg *FlowGraph) OutDegree(f int32) int { return int(fg.outDeg[f]) }
