package graph

import (
	"runtime"
	"sync"
)

// ApplyBatchParallel applies a batch with vertex-sharded parallelism: every
// out-list is mutated only by the goroutine owning the source shard, every
// in-list only by the goroutine owning the destination shard, so no locks
// are needed. Within one vertex the original update order is preserved, so
// the result is identical to ApplyBatch for batches that do not contain
// both an addition and a deletion of the same edge (the stream samplers in
// internal/gen never emit such pairs).
//
// It returns the updates that actually took effect (in batch order), which
// downstream engines use to drive refinement. This mirrors the paper's
// workflow where Workers "update the graph data in parallel" while the
// Manager maintains D-trees (Fig 9).
func (g *Streaming) ApplyBatchParallel(b Batch, workers int) Batch {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(b) < 256 {
		return g.ApplyBatch(b)
	}
	shard := func(v VertexID) int { return int(v) % workers }

	// took[i] records whether update i took effect; decided on the
	// out-direction pass (the authoritative one), then mirrored by the
	// in-direction pass.
	took := make([]bool, len(b))
	weights := make([]Weight, len(b))

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i, u := range b {
				if shard(u.Src) != w {
					continue
				}
				if u.Del {
					if wt, ok := g.removeHalfIdx(g.out, g.outIdx, u.Src, u.Dst); ok {
						took[i] = true
						weights[i] = wt
					}
				} else {
					if lookupHalf(g.out[u.Src], g.outIdx[u.Src], u.Dst) < 0 {
						g.appendHalf(g.out, g.outIdx, u.Src, Half{To: u.Dst, W: u.W})
						took[i] = true
						weights[i] = u.W
					}
				}
			}
		}(w)
	}
	wg.Wait()

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i, u := range b {
				if shard(u.Dst) != w || !took[i] {
					continue
				}
				if u.Del {
					if _, ok := g.removeHalfIdx(g.in, g.inIdx, u.Dst, u.Src); !ok {
						panic("graph: in/out adjacency diverged during parallel delete")
					}
				} else {
					g.appendHalf(g.in, g.inIdx, u.Dst, Half{To: u.Src, W: weights[i]})
				}
			}
		}(w)
	}
	wg.Wait()

	applied := make(Batch, 0, len(b))
	delta := 0
	for i, u := range b {
		if took[i] {
			u.W = weights[i]
			applied = append(applied, u)
			if u.Del {
				delta--
			} else {
				delta++
			}
		}
	}
	g.m += delta
	return applied
}

// ParallelFor runs fn over [0, n) split into contiguous chunks across the
// given number of workers (GOMAXPROCS when workers <= 0). It is the shared
// fork-join primitive for vertex-parallel phases.
func ParallelFor(n, workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
