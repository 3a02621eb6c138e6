// Package dflow turns D-trees into dependency-flows and schedules them.
// It implements the paper's Dependency Management module (§III, §V-A):
// flows are extracted from the forward-triangle D-tree forest (space), and
// their execution order is constrained by the cross-flow edges the backward
// triangle induces (time). Cyclically dependent flows are merged into one
// scheduling unit, exactly as §V-A prescribes for flows that form a cycle.
package dflow

import (
	"slices"

	"repro/internal/etree"
	"repro/internal/graph"
)

// Partition assigns every vertex to a dependency-flow. Flows are packed in
// D-tree DFS order so tree-adjacent vertices are flow-adjacent, which is
// what the specialized layout (internal/layout) exploits.
type Partition struct {
	// FlowOf maps a vertex to its flow.
	FlowOf []int32
	// Flows lists each flow's member vertices in pack order.
	Flows [][]uint32
	// Cap is the flow size cap used at build time.
	Cap int
}

// DefaultCap is the default flow size cap: small enough that one flow's
// vertex values and edge pointers fit comfortably in a private cache,
// large enough to amortize scheduling.
const DefaultCap = 1024

// NewPartition extracts dependency-flows from a D-tree forest. Hyper
// vertices are kept together when possible; hyper vertices and trees larger
// than cap are divided into sub-flows (the paper's §V-A "divide the
// oversized dependency-flow"), whose mutual ordering the scheduler
// preserves through the flow graph.
func NewPartition(f *etree.Forest, cap int) *Partition {
	if cap <= 0 {
		cap = DefaultCap
	}
	n := f.N()
	p := &Partition{
		FlowOf: make([]int32, n),
		Cap:    cap,
	}
	rep := make([]int32, n)
	for v := range rep {
		rep[v] = f.Rep(graph.VertexID(v))
	}

	// Members grouped by hyper representative in CSR form, ascending vertex
	// order inside each hyper vertex: mem[mOff[r]:mOff[r+1]].
	mOff := make([]int32, n+1)
	for _, r := range rep {
		mOff[r+1]++
	}
	prefixSum(mOff)
	mem := make([]uint32, n)
	fill := slices.Clone(mOff[:n])
	for v, r := range rep {
		mem[fill[r]] = uint32(v)
		fill[r]++
	}

	// Condensed tree structure over hyper nodes: each hyper node gets at
	// most one chosen parent (the hyper of the smallest member link that
	// leaves the node). Child lists, in the order the children were
	// discovered, drive the packing DFS: kids[cOff[r]:cOff[r+1]].
	chosen := make([]int32, n)
	for i := range chosen {
		chosen[i] = -1
	}
	found := make([]int32, 0, 64) // hyper nodes in discovery order
	cOff := make([]int32, n+1)
	for v, r := range rep {
		l := f.Link(graph.VertexID(v))
		if l == -1 || rep[l] == r || chosen[r] != -1 {
			continue
		}
		chosen[r] = rep[l]
		found = append(found, r)
		cOff[rep[l]+1]++
	}
	prefixSum(cOff)
	kids := make([]int32, len(found))
	copy(fill, cOff[:n])
	for _, r := range found {
		kids[fill[chosen[r]]] = r
		fill[chosen[r]]++
	}

	// Iterative DFS over the condensed tree: pack the node, then descend
	// into children so a root and its subtree stay flow-contiguous.
	visited := make([]bool, n)
	packed := make([]uint32, 0, n)
	stack := make([]int32, 0, 64)
	dfs := func(root int32) {
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[r] {
				continue
			}
			visited[r] = true
			packed = append(packed, mem[mOff[r]:mOff[r+1]]...)
			stack = append(stack, kids[cOff[r]:cOff[r+1]]...)
		}
	}

	// Roots first (hyper nodes with no chosen parent); the chosen-parent
	// links can form cycles across hyper nodes, so sweep leftovers after.
	// Small trees share flows: PROPERTY 1 guarantees sibling subtrees are
	// independent, so colocating them is safe, and it avoids degenerate
	// dust flows whose boundary traffic would dominate scheduling.
	for _, r := range rep {
		if chosen[r] == -1 && !visited[r] {
			dfs(r)
		}
	}
	for _, r := range rep {
		if !visited[r] {
			dfs(r)
		}
	}

	// Flows are consecutive cap-sized windows of the pack order, all views
	// of one backing slice.
	for start := 0; start < n; start += cap {
		end := min(start+cap, n)
		fi := int32(len(p.Flows))
		for _, v := range packed[start:end] {
			p.FlowOf[v] = fi
		}
		p.Flows = append(p.Flows, packed[start:end:end])
	}
	return p
}

// prefixSum turns per-slot counts in off[1:] into CSR row offsets.
func prefixSum(off []int32) {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
}

// NumFlows returns the number of flows.
func (p *Partition) NumFlows() int { return len(p.Flows) }

// Flow returns the flow id of v.
func (p *Partition) Flow(v graph.VertexID) int32 { return p.FlowOf[v] }

// Members returns the member vertices of flow f in pack order.
func (p *Partition) Members(f int32) []uint32 { return p.Flows[f] }

// Validate checks that flows partition the vertex set exactly and that no
// flow (other than oversized-hyper splits) exceeds the cap. O(N).
func (p *Partition) Validate() error {
	seen := make([]bool, len(p.FlowOf))
	for fi, flow := range p.Flows {
		for _, v := range flow {
			if seen[v] {
				return errDuplicate(v)
			}
			seen[v] = true
			if p.FlowOf[v] != int32(fi) {
				return errFlowOf(v, p.FlowOf[v], int32(fi))
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return errUnassigned(uint32(v))
		}
	}
	return nil
}
