package dflow

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// refPartitionFromParents is the [][]int32 child-list NewPartitionFromParents
// the CSR build replaced, kept as the equivalence reference.
func refPartitionFromParents(parent []int32, cap int) *Partition {
	if cap <= 0 {
		cap = DefaultCap
	}
	n := len(parent)
	p := &Partition{
		FlowOf: make([]int32, n),
		Cap:    cap,
	}
	children := make([][]int32, n)
	roots := make([]int32, 0, 64)
	for v, pa := range parent {
		if pa == -1 {
			roots = append(roots, int32(v))
		} else {
			children[pa] = append(children[pa], int32(v))
		}
	}
	var cur []uint32
	flush := func() {
		if len(cur) > 0 {
			p.Flows = append(p.Flows, cur)
			cur = nil
		}
	}
	stack := make([]int32, 0, 64)
	for _, r := range roots {
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(cur) >= cap {
				flush()
			}
			cur = append(cur, uint32(v))
			stack = append(stack, children[v]...)
		}
	}
	flush()
	for fi, flow := range p.Flows {
		for _, v := range flow {
			p.FlowOf[v] = int32(fi)
		}
	}
	return p
}

// randomForest returns a seeded acyclic parent array over n vertices:
// vertices are visited in a random order and each picks an earlier one as
// parent (or becomes a root with probability rootP), so parents and
// children interleave in id order. hubP routes that share of the children
// to one hub, giving it a long child list.
func randomForest(seed uint64, n int, rootP, hubP float64) []int32 {
	r := rng.New(seed)
	perm := r.Perm(n)
	parent := make([]int32, n)
	for i, v := range perm {
		switch {
		case i == 0 || r.Float64() < rootP:
			parent[v] = -1
		case r.Float64() < hubP:
			parent[v] = int32(perm[0])
		default:
			parent[v] = int32(perm[r.Intn(i)])
		}
	}
	return parent
}

// TestPartitionFromParentsMatchesReference holds the CSR build to the
// reference on seeded forests — random, hub-heavy, all-roots, a single
// chain and the empty forest — under caps of 1, small, the default, n and
// past n.
func TestPartitionFromParentsMatchesReference(t *testing.T) {
	chain := make([]int32, 300)
	for v := range chain {
		chain[v] = int32(v) - 1
	}
	allRoots := make([]int32, 200)
	for v := range allRoots {
		allRoots[v] = -1
	}
	forests := map[string][]int32{
		"empty":     {},
		"all-roots": allRoots,
		"chain":     chain,
		"random":    randomForest(1, 500, 0.02, 0),
		"rooty":     randomForest(2, 500, 0.4, 0),
		"hub":       randomForest(3, 800, 0.01, 0.5),
		"large":     randomForest(4, 5000, 0.001, 0.1),
	}
	for name, parent := range forests {
		n := len(parent)
		for _, cap := range []int{1, 3, 16, 0, n, n + 7} {
			t.Run(fmt.Sprintf("%s/cap=%d", name, cap), func(t *testing.T) {
				got := NewPartitionFromParents(parent, cap)
				want := refPartitionFromParents(parent, cap)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("partition differs from reference:\n got %v flows %v\nwant %v flows %v",
						got.FlowOf, got.Flows, want.FlowOf, want.Flows)
				}
				if err := got.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkPartitionFromParents compares the CSR build with the reference
// on a 50k-vertex forest.
func BenchmarkPartitionFromParents(b *testing.B) {
	parent := randomForest(5, 50000, 0.001, 0.05)
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewPartitionFromParents(parent, DefaultCap)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refPartitionFromParents(parent, DefaultCap)
		}
	})
}
