package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/algo"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// cluster-sssp: the socket cluster — a coordinator and two in-process
// workers over loopback, each worker with its own WAL directory.
const (
	clusterBatch     = 2000
	clusterDeletions = 0.1
	clusterBatches   = 48 // per round
	clusterWorkers   = 2
	// clusterCkptEvery is the coordinator's default checkpoint cadence,
	// set explicitly so dist.ckpt_batch_p50_ms knows which batches carry
	// a checkpoint.
	clusterCkptEvery = 4
)

func runClusterSSSP(c *config, r *runStats) error {
	alg := algo.SSSP{Src: 0}
	in, err := makeInput(ttShape, c.seed, clusterBatch, clusterBatches, clusterDeletions)
	if err != nil {
		return err
	}
	want, _ := algo.SolveSelective(finalGraph(in.w), alg)
	coordReg, workerReg := metrics.NewRegistry(), metrics.NewRegistry()
	var initS, joinS, ckptMs, batchMs []float64
	var batches, boundaries int
	err = r.rounds(c, func(k int, tr *tracer) error {
		ccfg := dist.CoordConfig{Addr: "127.0.0.1:0", CkptEvery: clusterCkptEvery}
		var wreg *metrics.Registry
		if tr != nil {
			ccfg.Metrics, wreg = coordReg, workerReg
		}
		t0 := time.Now()
		g := graph.FromEdges(in.w.NumV, in.w.Initial)
		t1 := time.Now()
		coord, err := dist.NewCoordinator(g, alg, ccfg)
		if err != nil {
			return err
		}
		t2 := time.Now()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, clusterWorkers)
		for i := 0; i < clusterWorkers; i++ {
			wcfg := dist.WorkerConfig{
				Addr: coord.Addr(), ID: i, Metrics: wreg,
				Dir: filepath.Join(c.workdir, fmt.Sprintf("cluster-%d", k), fmt.Sprintf("worker-%d", i)),
			}
			go func() { done <- dist.RunWorker(ctx, wcfg) }()
		}
		// stop closes the coordinator, whose bye ends the workers, and waits
		// for both worker goroutines; a worker that misses the bye is
		// cancelled.
		stop := func() error {
			coord.Close()
			var firstErr error
			for i, cancelled := 0, false; i < clusterWorkers; {
				select {
				case err := <-done:
					i++
					if err != nil && firstErr == nil {
						firstErr = err
					}
				case <-time.After(10 * time.Second):
					if cancelled {
						return fmt.Errorf("%d workers still running after cancel", clusterWorkers-i)
					}
					cancel()
					cancelled = true
				}
			}
			return firstErr
		}
		jctx, jcancel := context.WithTimeout(ctx, 60*time.Second)
		err = coord.WaitForWorkers(jctx, clusterWorkers)
		jcancel()
		if err != nil {
			stop()
			return fmt.Errorf("workers did not join: %w", err)
		}
		t3 := time.Now()
		r.setupS = append(r.setupS, t3.Sub(t0).Seconds())
		initS = append(initS, t2.Sub(t1).Seconds())
		joinS = append(joinS, t3.Sub(t2).Seconds())
		root := tr.add("setup", 0, -1, t0, t3, nil)
		tr.add("graph.FromEdges", root, -1, t0, t1, nil)
		tr.add("dist.NewCoordinator", root, -1, t1, t2, nil)
		tr.add("dist.WaitForWorkers", root, -1, t2, t3, nil)

		var roundMs []float64
		ph := beginTimed()
		for i, b := range in.w.Batches {
			s := time.Now()
			err := coord.ProcessBatch(ctx, b)
			end := time.Now()
			d := end.Sub(s)
			r.attempted++
			r.timedS += d.Seconds()
			if err != nil {
				r.failed++
				r.batchMs = append(r.batchMs, math.Inf(1))
				warnf("round %d batch %d: %v", k, i, err)
				continue
			}
			r.batchMs = append(r.batchMs, ms(d))
			batchMs = append(batchMs, ms(d))
			roundMs = append(roundMs, ms(d))
			r.updates += len(b)
			batches++
			seq := coord.BoundarySeq()
			ckpt := seq%clusterCkptEvery == 0
			if ckpt {
				boundaries++
				ckptMs = append(ckptMs, ms(d))
			}
			tr.add("dist.ProcessBatch", 0, int64(i), s, end, map[string]float64{"seq": float64(seq), "ckpt": b2f(ckpt)})
		}
		ph.end(r)
		if tr != nil {
			r.tracedMs = append(r.tracedMs, mean(roundMs))
		} else {
			r.untracedMs = append(r.untracedMs, mean(roundMs))
		}
		if err := exactMismatch(coord.Values(), want); err != nil {
			r.failf("round %d: cluster state: %v", k, err)
		}
		if err := stop(); err != nil {
			return fmt.Errorf("worker exit: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if c.trace {
		L := r.layers
		local := func(g *graph.Streaming) func(graph.Batch) engine.BatchStats {
			return engine.NewSelective(g, alg, engine.Config{Workers: c.workers}).ProcessBatch
		}
		L["dist.local_batch_p50_ms"] = control(c, in, local)
		L["dist.overhead_p50_ms"] = median(batchMs) - L["dist.local_batch_p50_ms"]
		L["dist.ckpt_batch_p50_ms"] = median(ckptMs)
		for _, n := range []string{"dist.retransmits", "dist.reconnects", "dist.peer_down", "dist.dups_discarded"} {
			L[n] = float64(coordReg.Counter(n).Value() + workerReg.Counter(n).Value())
		}
		L["dist.worker_fsync_p90_us"] = histUs(workerReg, "wal.fsync_ns", 0.9)
		walLayers(L, workerReg)
		L["dist.join_s"] = median(joinS)
		L["engine.init_s"] = median(initS)
		if batches > 0 {
			L["input.boundary_batch_share"] = float64(boundaries) / float64(batches)
		}
		inputLayers(L, in, measure(in.w))
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
