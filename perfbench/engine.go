package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/algo"
	"repro/internal/dflow"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/kickstarter"
	"repro/internal/metrics"
	"repro/internal/oracle"
)

// sssp-rmat: ~10k-update batches with 30% deletions, so trimming, D-tree
// and flow maintenance carry the batch (the selective path).
const (
	ssspBatch     = 10_000
	ssspDeletions = 0.3
)

// pagerank-ba: PageRank's delta-push compute dominates every batch. The
// batches are small so that a 10 s run still holds 100+ of them.
const (
	prBatch     = 100
	prDeletions = 0.1
	prBatches   = 40 // per round
)

// batchEngine is the part of engine.Selective and engine.Accumulative the
// closed loop drives.
type batchEngine interface {
	ProcessBatchE(graph.Batch) (engine.BatchStats, error)
	Values() []float64
	Partition() *dflow.Partition
}

func runSSSPRmat(c *config, r *runStats) error {
	alg := algo.SSSP{Src: 0}
	// One round is every batch the held-out pool holds (about 105).
	in, err := makeInput(ttShape, c.seed, ssspBatch, 0, ssspDeletions)
	if err != nil {
		return err
	}
	want, _ := algo.SolveSelective(finalGraph(in.w), alg)
	check := func(got []float64) error { return exactMismatch(got, want) }
	build := func(g *graph.Streaming, cfg engine.Config) batchEngine { return engine.NewSelective(g, alg, cfg) }
	if err := closedLoop(c, r, in, "engine.NewSelective", build, check); err != nil {
		return err
	}
	if c.trace {
		ks := func(g *graph.Streaming) func(graph.Batch) engine.BatchStats {
			return kickstarter.New(g, alg, engine.Config{Workers: c.workers}).ProcessBatch
		}
		r.layers["ref.kickstarter_batch_p50_ms"] = control(c, in, ks)
	}
	return nil
}

func runPageRankBA(c *config, r *runStats) error {
	in, err := makeInput(ukShape, c.seed, prBatch, prBatches, prDeletions)
	if err != nil {
		return err
	}
	alg := algo.NewPageRank(in.w.NumV)
	want := algo.SolveAccumulative(finalGraph(in.w), alg)
	check := func(got []float64) error {
		if v, bad := oracle.FirstDivergence(got, want, oracle.AccTolerance); bad {
			return fmt.Errorf("vertex %d = %v, reference %v", v, got[v], want[v])
		}
		return nil
	}
	build := func(g *graph.Streaming, cfg engine.Config) batchEngine { return engine.NewAccumulative(g, alg, cfg) }
	if err := closedLoop(c, r, in, "engine.NewAccumulative", build, check); err != nil {
		return err
	}
	if c.trace {
		one := func(g *graph.Streaming) func(graph.Batch) engine.BatchStats {
			return engine.NewAccumulative(g, alg, engine.Config{Workers: 1}).ProcessBatch
		}
		r.layers["ref.workers1_batch_p50_ms"] = control(c, in, one)
	}
	return nil
}

// exactMismatch reports the first vertex whose value differs from the
// reference; selective algorithms converge to a unique fixpoint, so the
// comparison is bit-exact.
func exactMismatch(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, reference has %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d = %v, reference %v", v, got[v], want[v])
		}
	}
	return nil
}

// closedLoop sets an engine up from G0 each round, sends the round's batches
// one after another (each waits for the previous one to return), and checks
// the final values against the reference.
func closedLoop(c *config, r *runStats, in input, ctor string,
	build func(*graph.Streaming, engine.Config) batchEngine, check func([]float64) error) error {
	var lay engineLayers
	reg := metrics.NewRegistry()
	var initS []float64
	var batches, boundaries, flows int
	err := r.rounds(c, func(k int, tr *tracer) error {
		cfg := engine.Config{Workers: c.workers}
		if tr != nil {
			cfg.Metrics = reg
		}
		t0 := time.Now()
		g := graph.FromEdges(in.w.NumV, in.w.Initial)
		t1 := time.Now()
		e := build(g, cfg)
		t2 := time.Now()
		r.setupS = append(r.setupS, t2.Sub(t0).Seconds())
		initS = append(initS, t2.Sub(t1).Seconds())
		root := tr.add("setup", 0, -1, t0, t2, nil)
		tr.add("graph.FromEdges", root, -1, t0, t1, nil)
		tr.add(ctor, root, -1, t1, t2, nil)

		var roundMs []float64
		ph := beginTimed()
		for i, b := range in.w.Batches {
			part := e.Partition()
			s := time.Now()
			st, err := e.ProcessBatchE(b)
			end := time.Now()
			d := end.Sub(s)
			r.attempted++
			r.timedS += d.Seconds()
			if err != nil {
				r.failed++
				r.batchMs = append(r.batchMs, math.Inf(1))
				warnf("batch %d: %v", i, err)
				continue
			}
			r.batchMs = append(r.batchMs, ms(d))
			r.updates += st.Applied
			roundMs = append(roundMs, ms(d))
			batches++
			if e.Partition() != part {
				boundaries++
			}
			if tr != nil {
				lay.add(d, len(b), st)
				tr.add("engine.ProcessBatch", 0, int64(i), s, end, phaseAttrs(st))
			}
		}
		ph.end(r)
		if tr != nil {
			r.tracedMs = append(r.tracedMs, mean(roundMs))
		} else {
			r.untracedMs = append(r.untracedMs, mean(roundMs))
		}
		if err := check(e.Values()); err != nil {
			r.failf("round %d: %v", k, err)
		}
		flows = e.Partition().NumFlows()
		return nil
	})
	if err != nil {
		return err
	}
	if c.trace {
		L := r.layers
		lay.report(L)
		L["engine.init_s"] = median(initS)
		L["engine.dispatch_wait_p99_us"] = histUs(reg, "sched.dispatch_wait_ns", 0.99)
		L["dflow.flows"] = float64(flows)
		if batches > 0 {
			L["input.boundary_batch_share"] = float64(boundaries) / float64(batches)
		}
		inputLayers(L, in, measure(in.w))
	}
	return nil
}

// control runs a reference engine over the workload's stream for at most
// half the run length and returns its median batch time. Controls appear
// only in traced runs and never in the end-to-end metrics.
func control(c *config, in input, build func(*graph.Streaming) func(graph.Batch) engine.BatchStats) float64 {
	process := build(graph.FromEdges(in.w.NumV, in.w.Initial))
	budget := time.Duration(c.seconds / 2 * float64(time.Second))
	start := time.Now()
	var lat []float64
	for _, b := range in.w.Batches {
		s := time.Now()
		process(b)
		lat = append(lat, ms(time.Since(s)))
		if time.Since(start) > budget {
			break
		}
	}
	return median(lat)
}

// phaseAttrs attaches an engine batch's phase split to its span.
func phaseAttrs(st engine.BatchStats) map[string]float64 {
	return map[string]float64{
		"applied":     float64(st.Applied),
		"apply_ms":    ms(st.ApplyTime),
		"dtree_ms":    ms(st.DtreeTime),
		"maintain_ms": ms(st.MaintainTime - st.DtreeTime),
		"trim_ms":     ms(st.TrimTime),
		"schedule_ms": ms(st.ScheduleTime),
		"compute_ms":  ms(st.ComputeTime),
		"total_ms":    ms(st.Total),
	}
}
