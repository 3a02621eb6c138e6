package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/wal"
)

// serve-open: 500-update batches at a fixed 30 batches/s on one ingest
// session, beside one subscriber. At this rate the applier keeps up on the
// TT graph, so the latencies measure service rather than queue growth.
// BENCHMARK.json does not gate this workload: its millisecond latencies
// swing with the host's load by more than any allowed bound (README.md).
const (
	serveBatch     = 500
	serveDeletions = 0.1
	serveRate      = 30  // batches per second
	serveBatches   = 105 // per round: 3.5 s of open-loop load
)

// graphflyd's serving defaults, except that periodic snapshots are off:
// each one writes the whole graph and stalls the applier for ≈250 ms, which
// made the visible tail follow the disk rather than the serving path.
const (
	serveGroupWindow = 500 * time.Microsecond
	serveSnapEvery   = 0
	serveDedup       = 64
)

func runServeOpen(c *config, r *runStats) error {
	alg := algo.SSSP{Src: 0}
	in, err := makeInput(ttShape, c.seed, serveBatch, serveBatches, serveDeletions)
	if err != nil {
		return err
	}
	want, _ := algo.SolveSelective(finalGraph(in.w), alg)
	s := &serveRun{c: c, r: r, in: in, alg: alg, want: want,
		engReg: metrics.NewRegistry(), walReg: metrics.NewRegistry(), srvReg: metrics.NewRegistry()}
	if err := r.rounds(c, s.round); err != nil {
		return err
	}
	if c.trace {
		s.report()
	}
	return nil
}

// serveRun holds what serve-open accumulates across rounds.
type serveRun struct {
	c    *config
	r    *runStats
	in   input
	alg  algo.Selective
	want []float64 // reference for the stream applied in send order

	engReg, walReg, srvReg *metrics.Registry // fed by traced rounds only

	initS, lateMs, visibleMs, ackToVisMs []float64
	backlog                              uint64
	flows                                int
}

// subscriber records every delta one subscription session receives.
type subscriber struct {
	mu     sync.Mutex
	deltas []seen
	max    uint64
	ended  bool // the stream ended (bye, drop, or error)
	err    error
	done   chan struct{}
}

func (s *subscriber) run(c *serve.Client) {
	defer close(s.done)
	for {
		d, ok, err := c.Next(0)
		at := time.Now()
		s.mu.Lock()
		if err != nil || !ok {
			s.ended, s.err = true, err
			s.mu.Unlock()
			return
		}
		s.deltas = append(s.deltas, seen{seq: d.Seq, at: at})
		if d.Seq > s.max {
			s.max = d.Seq
		}
		s.mu.Unlock()
	}
}

func (s *subscriber) reached(seq uint64) (bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max >= seq, s.ended
}

// round starts a fresh server over G0, drives one open-loop stream through
// it, checks the served state, and shuts it down.
func (s *serveRun) round(k int, tr *tracer) error {
	c, r := s.c, s.r
	dir := filepath.Join(c.workdir, fmt.Sprintf("serve-%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ecfg := engine.Config{Workers: c.workers}
	wopts := wal.Options{Dir: dir, Policy: wal.FsyncAlways, GroupWindow: serveGroupWindow}
	var srvReg *metrics.Registry
	if tr != nil {
		ecfg.Metrics, wopts.Metrics, srvReg = s.engReg, s.walReg, s.srvReg
	}

	t0 := time.Now()
	g := graph.FromEdges(s.in.w.NumV, s.in.w.Initial)
	t1 := time.Now()
	d, err := wal.NewDurableSelective(g, s.alg, ecfg, wal.DurableConfig{Wal: wopts, SnapshotEvery: serveSnapEvery, DedupWindow: serveDedup})
	if err != nil {
		return err
	}
	t2 := time.Now()
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0", Backend: serve.SelectiveBackend{D: d, Alg: s.alg}, Metrics: srvReg})
	if err != nil {
		d.Close()
		return err
	}
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
	subc, err := serve.DialOpts(srv.Addr(), serve.ClientOptions{Role: serve.RoleQuery})
	if err != nil {
		shutdown()
		return err
	}
	defer subc.Close()
	if err := subc.Subscribe(); err != nil {
		shutdown()
		return err
	}
	ing, err := serve.DialOpts(srv.Addr(), serve.ClientOptions{Role: serve.RoleIngest, ClientID: "perfbench-ingest"})
	if err != nil {
		shutdown()
		return err
	}
	defer ing.Close()
	t3 := time.Now()
	r.setupS = append(r.setupS, t3.Sub(t0).Seconds())
	s.initS = append(s.initS, t2.Sub(t1).Seconds())
	root := tr.add("setup", 0, -1, t0, t3, nil)
	tr.add("graph.FromEdges", root, -1, t0, t1, nil)
	tr.add("wal.NewDurableSelective", root, -1, t1, t2, nil)
	tr.add("serve.New+Dial", root, -1, t2, t3, nil)

	sub := &subscriber{done: make(chan struct{})}
	go sub.run(subc)
	// The subscription registers asynchronously; give it a moment so the
	// first batch's delta is not missed.
	time.Sleep(50 * time.Millisecond)
	base := ing.Welcome.Seq

	batches := s.in.w.Batches
	n := len(batches)
	seqs := make([]uint64, n)
	acks := make([]time.Time, n)
	spans := make([]int, n)
	ph := beginTimed()
	ol := openLoop{start: time.Now(), period: time.Second / serveRate}
	var lastSeq uint64
	for i, b := range batches {
		due := ol.due(i)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		s.lateMs = append(s.lateMs, ms(ol.late(i, sent)))
		seq, err := ing.Ingest(b)
		at := time.Now()
		r.attempted++
		if err != nil {
			r.failed++
			warnf("round %d batch %d: ingest: %v", k, i, err)
			continue
		}
		seqs[i], acks[i] = seq, at
		if seq > lastSeq {
			lastSeq = seq
		}
		spans[i] = tr.add("serve.Ingest", 0, int64(seq), due, at, map[string]float64{"late_ms": ms(ol.late(i, sent))})
	}
	if st, err := ing.Stat(); err == nil && st.LoggedSeq > st.AppliedSeq {
		s.backlog = max(s.backlog, st.LoggedSeq-st.AppliedSeq)
	}

	// Wait for the applier to publish the last batch, then for its delta.
	var appliedAt time.Time
	for limit := time.Now().Add(30 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		if srv.Snapshot().Seq >= lastSeq {
			appliedAt = time.Now()
			break
		}
		if time.Now().After(limit) {
			return errors.New("applier did not catch up within 30 s")
		}
	}
	for limit := time.Now().Add(500 * time.Millisecond); time.Now().Before(limit); time.Sleep(200 * time.Microsecond) {
		if ok, ended := sub.reached(lastSeq); ok || ended {
			break
		}
	}
	snap := srv.Snapshot()
	_, dropped := sub.reached(lastSeq)
	ing.Close()
	if err := shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	<-sub.done

	var roundMs []float64
	var lastVis time.Time
	for i := range batches {
		if seqs[i] == 0 {
			r.batchMs = append(r.batchMs, math.Inf(1))
			s.visibleMs = append(s.visibleMs, math.Inf(1))
			continue
		}
		ack := ol.sinceDue(i, acks[i])
		r.batchMs = append(r.batchMs, ack)
		roundMs = append(roundMs, ack)
		vis, ok := visibleAt(sub.deltas, seqs[i])
		if !ok && !dropped {
			// Its own delta was empty and no later one came: the batch was
			// readable once its snapshot was published.
			vis, ok = appliedAt, true
		}
		if !ok {
			r.failed++
			s.visibleMs = append(s.visibleMs, math.Inf(1))
			continue
		}
		s.visibleMs = append(s.visibleMs, ol.sinceDue(i, vis))
		s.ackToVisMs = append(s.ackToVisMs, ms(vis.Sub(acks[i])))
		r.updates += len(batches[i])
		if vis.After(lastVis) {
			lastVis = vis
		}
		tr.add("serve.visible", spans[i], int64(seqs[i]), ol.due(i), vis, nil)
	}
	if !lastVis.IsZero() {
		r.timedS += lastVis.Sub(ol.start).Seconds()
	}
	ph.end(r)
	if tr != nil {
		r.tracedMs = append(r.tracedMs, mean(roundMs))
	} else {
		r.untracedMs = append(r.untracedMs, mean(roundMs))
	}
	if dropped && sub.err != nil {
		warnf("round %d: subscriber dropped: %v", k, sub.err)
	}
	s.check(k, base, seqs, snap)
	s.flows = d.Eng.Partition().NumFlows() // the applier has stopped
	return nil
}

// check verifies that acknowledged sequences are unique and gap-free and
// that the served state equals a from-scratch solve of the acknowledged
// batches replayed in sequence order.
func (s *serveRun) check(k int, base uint64, seqs []uint64, snap *engine.StateSnapshot) {
	var order []int
	for i, q := range seqs {
		if q != 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return seqs[order[a]] < seqs[order[b]] })
	identity := len(order) == len(seqs)
	for j, i := range order {
		if seqs[i] != base+uint64(j)+1 {
			s.r.failf("round %d: acked seq %d at position %d, want %d (duplicate or gap)", k, seqs[i], j, base+uint64(j)+1)
			return
		}
		identity = identity && i == j
	}
	if len(order) > 0 && snap.Seq != seqs[order[len(order)-1]] {
		s.r.failf("round %d: served snapshot at seq %d, last ack %d", k, snap.Seq, seqs[order[len(order)-1]])
		return
	}
	want := s.want
	if !identity {
		g := graph.FromEdges(s.in.w.NumV, s.in.w.Initial)
		for _, i := range order {
			g.ApplyBatch(s.in.w.Batches[i])
		}
		want, _ = algo.SolveSelective(g, s.alg)
	}
	if err := exactMismatch(snap.Vals, want); err != nil {
		s.r.failf("round %d: served state: %v", k, err)
	}
}

func (s *serveRun) report() {
	L := s.r.layers
	walLayers(L, s.walReg)
	L["serve.group_size_mean"] = s.srvReg.Histogram("serve.group_commit_size").Mean()
	L["serve.rejected"] = float64(s.srvReg.Counter("serve.rejected").Value())
	L["serve.backlog_end"] = float64(s.backlog)
	L["serve.read_lag_p50_ms"] = histMs(s.srvReg, "serve.read_lag_ns", 0.5)
	L["serve.read_lag_p90_ms"] = histMs(s.srvReg, "serve.read_lag_ns", 0.9)
	L["serve.apply_p50_ms"] = histMs(s.engReg, "batch.total_ns", 0.5)
	L["serve.visible_p50_ms"] = finite(percentile(append([]float64(nil), s.visibleMs...), 50))
	L["serve.visible_p90_ms"] = finite(percentile(append([]float64(nil), s.visibleMs...), 90))
	L["serve.ack_to_visible_p50_ms"] = median(s.ackToVisMs)
	L["harness.late_p90_ms"] = percentile(append([]float64(nil), s.lateMs...), 90)
	L["engine.init_s"] = median(s.initS)
	L["dflow.flows"] = float64(s.flows)
	registryEngineLayers(L, s.engReg)
	inputLayers(L, s.in, measure(s.in.w))
}

// registryEngineLayers reports the engine split from its metrics registry,
// for an engine the benchmark does not call directly (the serving applier
// does). The registry has no D-tree phase, so dflow.maintain_ms includes it.
func registryEngineLayers(L map[string]float64, reg *metrics.Registry) {
	n := reg.Counter("batch.count").Value()
	if n == 0 {
		return
	}
	meanMs := func(h string) float64 { return reg.Histogram(h).Mean() / 1e6 }
	per := func(ctr string) float64 { return float64(reg.Counter(ctr).Value()) / float64(n) }
	L["engine.batch_mean_ms"] = meanMs("batch.total_ns")
	L["graph.apply_ms"] = meanMs("phase.apply_ns")
	L["dflow.maintain_ms"] = meanMs("phase.maintain_ns")
	L["dflow.maintain_p90_ms"] = histMs(reg, "phase.maintain_ns", 0.9)
	L["dflow.schedule_ms"] = meanMs("phase.schedule_ns")
	L["dflow.units"] = per("schedule.units")
	L["engine.trim_ms"] = meanMs("phase.trim_ns")
	L["engine.trim_roots"] = per("trim.roots")
	L["engine.trimmed"] = per("trim.vertices")
	L["engine.compute_ms"] = meanMs("phase.compute_ns")
	L["engine.relaxations"] = per("compute.relaxations")
	L["engine.pulls"] = per("compute.pulls")
	L["engine.cross_msgs"] = per("compute.cross_msgs")
	if a := reg.Counter("updates.applied").Value(); a > 0 {
		L["engine.relax_per_update"] = float64(reg.Counter("compute.relaxations").Value()) / float64(a)
	}
	L["engine.dispatches"] = per("sched.dispatches")
	if d := reg.Counter("sched.dispatches").Value(); d > 0 {
		L["engine.steal_frac"] = float64(reg.Counter("sched.steals").Value()) / float64(d)
	}
	L["engine.parks"] = per("sched.parks")
	L["engine.dispatch_wait_p99_us"] = histUs(reg, "sched.dispatch_wait_ns", 0.99)
	phases := 0.0
	for _, p := range []string{"apply", "maintain", "trim", "schedule", "compute"} {
		phases += meanMs("phase." + p + "_ns")
	}
	L["engine.unattributed_ms"] = L["engine.batch_mean_ms"] - phases
}
