package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Graph shapes, pinned here rather than taken from gen.Dataset so that
// GRAPHFLY_SCALE cannot rescale a workload. Only the generator seed varies
// with the benchmark's --seed.
var (
	// ttShape is the Twitter-MPI stand-in: a skewed RMAT graph.
	ttShape = gen.Config{Name: "TT", Kind: gen.RMAT, NumV: 53_000, NumE: 2_000_000,
		A: 0.60, B: 0.19, C: 0.19, MaxWeight: 8}
	// ukShape is the UKDomain stand-in: Barabási–Albert preferential
	// attachment, a strong power law.
	ukShape = gen.Config{Name: "UK", Kind: gen.BA, NumV: 40_000, NumE: 1_000_000, MaxWeight: 8}
)

// initialFraction is the paper's warm start: half the edges form G0.
const initialFraction = 0.5

// mix is splitmix64, used to derive independent generator seeds from the
// benchmark seed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// input is one workload's generated graph and update stream.
type input struct {
	w       gen.Workload
	genS    float64 // time spent generating the edge list
	streamS float64 // time spent splitting it into G0 and batches
}

// poolBatches is how many batches fit in the held-out edge pool: every
// addition consumes one pool edge, so past this count gen.BuildWorkload
// would fall back to uniform synthetic edges.
func poolBatches(nEdges int, sc gen.StreamConfig) int {
	pool := nEdges - int(float64(nEdges)*sc.InitialFraction)
	adds := sc.BatchSize - int(float64(sc.BatchSize)*sc.DeleteRatio)
	if adds <= 0 {
		return 0
	}
	return pool / adds
}

// makeInput generates shape under seed and cuts a stream of numBatches
// batches from it (0 = as many as the held-out pool holds), refusing a
// stream that would leave the pool.
func makeInput(shape gen.Config, seed uint64, batchSize, numBatches int, deleteRatio float64) (input, error) {
	cfg := shape
	cfg.Seed = mix(seed ^ mix(uint64(len(shape.Name))<<32|uint64(shape.Kind)))
	var in input
	t := time.Now()
	edges := gen.Generate(cfg)
	in.genS = time.Since(t).Seconds()
	sc := gen.StreamConfig{
		InitialFraction: initialFraction,
		DeleteRatio:     deleteRatio,
		BatchSize:       batchSize,
		NumBatches:      numBatches,
		Seed:            mix(seed + 1),
	}
	limit := poolBatches(len(edges), sc)
	if sc.NumBatches == 0 {
		sc.NumBatches = limit
	}
	if sc.NumBatches > limit {
		return in, fmt.Errorf("%s: %d batches of %d exceed the held-out pool (%d batches)", shape.Name, sc.NumBatches, batchSize, limit)
	}
	t = time.Now()
	in.w = gen.BuildWorkload(cfg.NumV, edges, sc)
	in.streamS = time.Since(t).Seconds()
	return in, nil
}

// properties are the measured input traits a later "helps only inputs with
// property X" claim can cite.
type properties struct {
	vertices, edges int
	maxInDeg        int
	top1InShare     float64 // share of in-edges on the top 1% of vertices by in-degree
	delShare        float64 // share of stream updates that are deletions
}

func measure(w gen.Workload) properties {
	p := properties{vertices: w.NumV, edges: len(w.Initial)}
	deg := make([]int, w.NumV)
	for _, e := range w.Initial {
		deg[e.Dst]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(deg)))
	if len(deg) > 0 {
		p.maxInDeg = deg[0]
	}
	top := (w.NumV + 99) / 100
	sum := 0
	for _, d := range deg[:top] {
		sum += d
	}
	if len(w.Initial) > 0 {
		p.top1InShare = float64(sum) / float64(len(w.Initial))
	}
	var dels, total int
	for _, b := range w.Batches {
		for _, u := range b {
			if u.Del {
				dels++
			}
		}
		total += len(b)
	}
	if total > 0 {
		p.delShare = float64(dels) / float64(total)
	}
	return p
}

// finalGraph replays the whole stream onto a fresh copy of G0.
func finalGraph(w gen.Workload) *graph.Streaming {
	g := graph.FromEdges(w.NumV, w.Initial)
	for _, b := range w.Batches {
		g.ApplyBatch(b)
	}
	return g
}
