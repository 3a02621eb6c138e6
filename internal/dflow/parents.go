package dflow

import "slices"

// NewPartitionFromParents extracts dependency-flows from a key-edge
// dependence forest given as a parent array (parent[v] == -1 for roots).
// This is the selective-algorithm path of §IV-B: key edges give every
// vertex at most one parent, so the D-tree is a plain forest and flows are
// packed subtrees. Children of a root start new flows so independent
// subtrees (PROPERTY 1) land in different flows; the cap bounds flow size.
//
// The function assumes the parent array is acyclic (guaranteed for
// monotonic algorithms; see internal/etree.KeyForest).
func NewPartitionFromParents(parent []int32, cap int) *Partition {
	if cap <= 0 {
		cap = DefaultCap
	}
	n := len(parent)
	p := &Partition{
		FlowOf: make([]int32, n),
		Cap:    cap,
	}
	// Child lists in CSR form, each in ascending vertex order: kids[off[u]:
	// off[u+1]] are u's children. Counting pass, prefix sums, fill pass.
	off := make([]int32, n+1)
	roots := make([]int32, 0, 64)
	for v, pa := range parent {
		if pa == -1 {
			roots = append(roots, int32(v))
		} else {
			off[pa+1]++
		}
	}
	prefixSum(off)
	kids := make([]int32, off[n])
	fill := slices.Clone(off[:n])
	for v, pa := range parent {
		if pa != -1 {
			kids[fill[pa]] = int32(v)
			fill[pa]++
		}
	}
	// DFS pack each root's subtree into one backing slice; a flow is a
	// capped window of it. Small subtrees share flows (they are independent
	// by construction, and dust-sized flows would drown the scheduler in
	// boundary traffic).
	packed := make([]uint32, 0, n)
	start := 0
	stack := make([]int32, 0, 64)
	for _, r := range roots {
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(packed)-start >= cap {
				p.Flows = append(p.Flows, packed[start:len(packed):len(packed)])
				start = len(packed)
			}
			packed = append(packed, uint32(v))
			stack = append(stack, kids[off[v]:off[v+1]]...)
		}
	}
	if len(packed) > start {
		p.Flows = append(p.Flows, packed[start:len(packed):len(packed)])
	}
	for fi, flow := range p.Flows {
		for _, v := range flow {
			p.FlowOf[v] = int32(fi)
		}
	}
	return p
}
