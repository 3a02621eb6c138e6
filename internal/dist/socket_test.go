package dist

// In-process tests for the socket runtime: a real Coordinator listening on
// a loopback TCP port, with RunWorker instances as goroutines. Everything
// crosses real sockets and real WAL files; only process boundaries are
// elided (proc_test.go covers those with actual kill -9).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netfault"
)

func clusterWorkload(seed uint64, batches int) gen.Workload {
	cfg := gen.TestDataset(seed)
	cfg.NumV, cfg.NumE = 300, 2000
	edges := gen.Generate(cfg)
	return gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.5, DeleteRatio: 0.3, BatchSize: 150,
		NumBatches: batches, Seed: seed + 1,
	})
}

// deletionHeavyWorkload keeps deleting the support chains recovery has to
// rebuild: most of every batch removes edges from a dense initial graph.
func deletionHeavyWorkload() gen.Workload {
	cfg := gen.TestDataset(90)
	cfg.NumV, cfg.NumE = 200, 1500
	edges := gen.Generate(cfg)
	return gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.7, DeleteRatio: 0.8, BatchSize: 100, NumBatches: 4, Seed: 91,
	})
}

// fastCoordConfig returns timers tight enough that death detection and
// retransmission resolve in tens of milliseconds.
func fastCoordConfig() CoordConfig {
	return CoordConfig{
		Addr:           "127.0.0.1:0",
		FlowCap:        32,
		CkptEvery:      2,
		BatchTimeout:   30 * time.Second,
		HeartbeatEvery: 20 * time.Millisecond,
		RetransBase:    25 * time.Millisecond,
		PeerTimeout:    400 * time.Millisecond,
		MaxRetries:     10,
	}
}

// testWorker is one in-process worker with crash and restart controls.
type testWorker struct {
	id       int
	dir      string
	cancel   context.CancelFunc
	hardStop chan struct{}
	done     chan error
}

func startTestWorker(addr, dir string, id int) *testWorker {
	ctx, cancel := context.WithCancel(context.Background())
	tw := &testWorker{
		id: id, dir: dir, cancel: cancel,
		hardStop: make(chan struct{}),
		done:     make(chan error, 1),
	}
	go func() {
		tw.done <- RunWorker(ctx, WorkerConfig{
			Addr: addr, Dir: dir, ID: id,
			ConnectTimeout: 10 * time.Second,
			HeartbeatEvery: 20 * time.Millisecond,
			RetransBase:    25 * time.Millisecond,
			PeerTimeout:    400 * time.Millisecond,
			MaxRetries:     10,
			HardStop:       tw.hardStop,
		})
	}()
	return tw
}

// crash simulates kill -9 and waits for the worker goroutine to exit.
func (tw *testWorker) crash(t *testing.T) {
	t.Helper()
	close(tw.hardStop)
	select {
	case <-tw.done:
	case <-time.After(5 * time.Second):
		t.Fatal("crashed worker did not exit")
	}
	tw.cancel()
}

// stop cancels the context (SIGTERM path) and waits for a clean exit.
func (tw *testWorker) stop(t *testing.T) {
	t.Helper()
	tw.cancel()
	select {
	case err := <-tw.done:
		if err != nil {
			t.Fatalf("worker %d: graceful stop returned %v", tw.id, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("worker %d did not stop", tw.id)
	}
}

// wait reaps a worker expected to exit on its own (coordinator bye).
func (tw *testWorker) wait(t *testing.T) {
	t.Helper()
	select {
	case err := <-tw.done:
		if err != nil {
			t.Fatalf("worker %d exited with %v", tw.id, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("worker %d did not exit after bye", tw.id)
	}
	tw.cancel()
}

// socketHarness holds one running cluster plus the oracle replica.
type socketHarness struct {
	t       *testing.T
	alg     algo.Selective
	coord   *Coordinator
	ref     *graph.Streaming
	workers map[int]*testWorker
	base    string
}

func newSocketHarness(t *testing.T, alg algo.Selective, w gen.Workload, n int) *socketHarness {
	t.Helper()
	initial := w.Initial
	if alg.Symmetric() {
		var both []graph.Edge
		for _, e := range initial {
			both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
		initial = both
	}
	g := graph.FromEdges(w.NumV, initial)
	coord, err := NewCoordinator(g, alg, fastCoordConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := &socketHarness{
		t: t, alg: alg, coord: coord,
		ref:     g.Clone(),
		workers: map[int]*testWorker{},
		base:    t.TempDir(),
	}
	for i := 0; i < n; i++ {
		h.startWorker(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := coord.WaitForWorkers(ctx, n); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *socketHarness) workerDir(id int) string {
	return filepath.Join(h.base, fmt.Sprintf("worker-%d", id))
}

func (h *socketHarness) startWorker(id int) *testWorker {
	tw := startTestWorker(h.coord.Addr(), h.workerDir(id), id)
	h.workers[id] = tw
	return tw
}

// runBatch processes one batch and asserts bit-exact agreement with the
// single-machine oracle.
func (h *socketHarness) runBatch(bi int, b graph.Batch) {
	h.t.Helper()
	if err := h.coord.ProcessBatch(context.Background(), b); err != nil {
		h.t.Fatalf("batch %d: %v", bi, err)
	}
	rb := b
	if h.alg.Symmetric() {
		rb = engine.Symmetrize(b)
	}
	h.ref.ApplyBatch(rb)
	want, _ := algo.SolveSelective(h.ref, h.alg)
	got := h.coord.Values()
	for v := range want {
		if want[v] != got[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
			h.t.Fatalf("%s batch %d: vertex %d = %v, want %v", h.alg.Name(), bi, v, got[v], want[v])
		}
	}
}

// runBatchCrashing runs batch bi while worker id is killed delay into it,
// then restarts the victim onto its WAL directory and waits for the rejoin.
func (h *socketHarness) runBatchCrashing(bi int, b graph.Batch, id int, delay time.Duration) {
	h.t.Helper()
	victim := h.workers[id]
	go func() {
		time.Sleep(delay)
		close(victim.hardStop)
	}()
	h.runBatch(bi, b)
	<-victim.done
	victim.cancel()
	n := len(h.workers)
	h.startWorker(id)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.coord.WaitForWorkers(ctx, n); err != nil {
		h.t.Fatal(err)
	}
}

func (h *socketHarness) close() {
	h.coord.Close()
	for _, tw := range h.workers {
		select {
		case <-tw.done:
		case <-time.After(5 * time.Second):
		}
		tw.cancel()
	}
}

func TestSocketClusterMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			w := clusterWorkload(uint64(90+n), 4)
			h := newSocketHarness(t, algo.SSSP{Src: 0}, w, n)
			defer h.close()
			for bi, b := range w.Batches {
				h.runBatch(bi, b)
			}
		})
	}
}

func TestSocketClusterAlgorithms(t *testing.T) {
	algs := []algo.Selective{algo.BFS{Src: 0}, algo.SSWP{Src: 0}, algo.CC{}}
	for _, a := range algs {
		t.Run(a.Name(), func(t *testing.T) {
			w := clusterWorkload(97, 3)
			h := newSocketHarness(t, a, w, 2)
			defer h.close()
			for bi, b := range w.Batches {
				h.runBatch(bi, b)
			}
		})
	}
}

// TestSocketCheckpointFramesOnDisk asserts the acceptance criterion that
// worker checkpoints on disk carry KindDistCheckpoint frames.
func TestSocketCheckpointFramesOnDisk(t *testing.T) {
	w := clusterWorkload(101, 4) // CkptEvery=2 -> checkpoints at seq 2 and 4
	h := newSocketHarness(t, algo.SSSP{Src: 0}, w, 2)
	defer h.close()
	for bi, b := range w.Batches {
		h.runBatch(bi, b)
	}
	for id := 0; id < 2; id++ {
		ck, err := loadWorkerCkpt(h.workerDir(id))
		if err != nil {
			t.Fatalf("worker %d checkpoint: %v", id, err)
		}
		if ck == nil {
			t.Fatalf("worker %d wrote no checkpoint", id)
		}
		if ck.Seq == 0 || len(ck.Vals) != h.ref.NumVertices() {
			t.Fatalf("worker %d checkpoint: seq=%d vals=%d", id, ck.Seq, len(ck.Vals))
		}
	}
}

// TestSocketGracefulLeaveAndJoin: a worker leaving via SIGTERM shrinks the
// membership without failing batches; a new worker joining grows it.
func TestSocketGracefulLeaveAndJoin(t *testing.T) {
	w := clusterWorkload(103, 4)
	h := newSocketHarness(t, algo.SSSP{Src: 0}, w, 2)
	defer h.close()
	h.runBatch(0, w.Batches[0])

	h.workers[0].stop(t) // graceful leave: bye + final checkpoint
	h.runBatch(1, w.Batches[1])
	if live := h.coord.LiveWorkers(); live != 1 {
		t.Fatalf("after leave: %d live workers, want 1", live)
	}

	h.startWorker(2) // fresh member
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.coord.WaitForWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	h.runBatch(2, w.Batches[2])
	h.runBatch(3, w.Batches[3])
	if live := h.coord.LiveWorkers(); live != 2 {
		t.Fatalf("after join: %d live workers, want 2", live)
	}
}

// TestSocketCrashRestartMidBatch kills workers while a batch is in flight;
// the survivors re-run, each restarted worker recovers from its WAL and
// rejoins, and every batch still matches the oracle bit-exactly. The
// deletion-heavy stream keeps trimming the support chains the re-run has
// to rebuild.
func TestSocketCrashRestartMidBatch(t *testing.T) {
	cases := []struct {
		name    string
		w       gen.Workload
		workers int
		crashes map[int]int // batch -> victim id
	}{
		{"uniform", clusterWorkload(107, 5), 3, map[int]int{2: 1}},
		{"deletion-heavy", deletionHeavyWorkload(), 4, map[int]int{1: 1, 3: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newSocketHarness(t, algo.SSSP{Src: 0}, tc.w, tc.workers)
			defer h.close()
			for bi, b := range tc.w.Batches {
				if id, ok := tc.crashes[bi]; ok {
					h.runBatchCrashing(bi, b, id, 2*time.Millisecond)
				} else {
					h.runBatch(bi, b)
				}
			}
		})
	}
}

// TestSocketRejectsMalformedBatch: a batch naming a vertex past NumV fails
// with a typed error before any state changes, and the cluster stays
// oracle-exact on the rest of the stream.
func TestSocketRejectsMalformedBatch(t *testing.T) {
	w := clusterWorkload(500, 2)
	h := newSocketHarness(t, algo.SSSP{Src: 0}, w, 3)
	defer h.close()
	bad := graph.Batch{{Edge: graph.Edge{Src: 0, Dst: uint32(w.NumV) + 7, W: 1}}}
	err := h.coord.ProcessBatch(context.Background(), bad)
	var be *graph.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *graph.BatchError, got %v", err)
	}
	if be.Index != 0 {
		t.Fatalf("BatchError.Index = %d, want 0", be.Index)
	}
	for bi, b := range w.Batches {
		h.runBatch(bi, b)
	}
}

// TestSocketAllWorkersDie kills the whole membership mid-batch; restarted
// processes must be admitted into the in-flight batch and finish it.
func TestSocketAllWorkersDie(t *testing.T) {
	w := clusterWorkload(109, 3)
	h := newSocketHarness(t, algo.SSSP{Src: 0}, w, 2)
	defer h.close()
	h.runBatch(0, w.Batches[0])

	w0, w1 := h.workers[0], h.workers[1]
	go func() {
		time.Sleep(2 * time.Millisecond)
		close(w0.hardStop)
		close(w1.hardStop)
		<-w0.done
		<-w1.done
		// Respawn both; the coordinator is still inside ProcessBatch.
		h.startWorker(0)
		h.startWorker(1)
	}()
	h.runBatch(1, w.Batches[1])
	w0.cancel()
	w1.cancel()
	h.runBatch(2, w.Batches[2])
}

// TestSocketChaosSeeded is the in-process chaos loop: random mid-batch
// kill -9s with random restart delays across a longer stream, every batch
// checked against the oracle. Deterministically seeded.
func TestSocketChaosSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos loop is slow under -short")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := clusterWorkload(uint64(120+seed), 6)
			const n = 3
			h := newSocketHarness(t, algo.SSSP{Src: 0}, w, n)
			defer h.close()
			for bi, b := range w.Batches {
				if bi > 0 && rng.Intn(2) == 0 {
					id := rng.Intn(n)
					delay := time.Duration(rng.Intn(4)) * time.Millisecond
					h.runBatchCrashing(bi, b, id, delay)
				} else {
					h.runBatch(bi, b)
				}
			}
		})
	}
}

// TestSocketMembershipChurnSweep is the seeded membership-churn loop for the
// multi-process runtime: between batches the scenario gracefully retires
// members, crashes them outright, restarts crashed ids onto their old WAL
// directories, and admits brand-new members under fresh ids — with at least
// one worker always live — and every batch must still match the
// single-machine oracle bit-exactly.
func TestSocketMembershipChurnSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("membership churn sweep is slow under -short")
	}
	for _, seed := range []int64{11, 12, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := clusterWorkload(uint64(140+seed), 8)
			h := newSocketHarness(t, algo.SSSP{Src: 0}, w, 2)
			defer h.close()
			live := map[int]bool{0: true, 1: true}
			var crashed []int // dead ids whose WAL dirs await a restart
			nextID := 2
			pick := func() int {
				ids := make([]int, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				return ids[rng.Intn(len(ids))]
			}
			admit := func(id int) {
				h.startWorker(id)
				live[id] = true
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := h.coord.WaitForWorkers(ctx, len(live)); err != nil {
					t.Fatal(err)
				}
			}
			stops, crashes, joins, restarts := 0, 0, 0, 0
			for bi, b := range w.Batches {
				if bi > 0 {
					switch action := rng.Intn(4); {
					case action == 0 && len(live) > 1: // graceful leave (bye + final checkpoint)
						id := pick()
						h.workers[id].stop(t)
						delete(h.workers, id) // already reaped
						delete(live, id)
						stops++
					case action == 1 && len(live) > 1: // kill -9; detection happens mid-batch
						id := pick()
						tw := h.workers[id]
						close(tw.hardStop)
						select {
						case <-tw.done:
						case <-time.After(5 * time.Second):
							t.Fatalf("worker %d did not die", id)
						}
						tw.cancel()
						delete(h.workers, id)
						delete(live, id)
						crashed = append(crashed, id)
						crashes++
					case action == 2: // brand-new member under a fresh id
						admit(nextID)
						nextID++
						joins++
					case action == 3 && len(crashed) > 0: // restart a crashed id onto its WAL
						id := crashed[len(crashed)-1]
						crashed = crashed[:len(crashed)-1]
						admit(id)
						restarts++
					}
				}
				h.runBatch(bi, b)
			}
			if got := h.coord.LiveWorkers(); got != len(live) {
				t.Fatalf("final membership: coordinator sees %d live, want %d", got, len(live))
			}
			t.Logf("churn seed %d: %d graceful leaves, %d crashes, %d fresh joins, %d restarts, %d final members",
				seed, stops, crashes, joins, restarts, len(live))
			if stops+crashes+joins+restarts == 0 {
				t.Fatal("sweep exercised no membership churn")
			}
		})
	}
}

// TestSocketWorkerThroughFaultProxy parks a netfault proxy between the
// coordinator and one worker's dial address — no dist code changes, the
// worker just dials the proxy — and oracle-checks every batch under a
// seeded fault mix.
//
// The delay-only mix never spends the fault budget, so it jitters the link
// for the whole run, and MaxDelay stays far under PeerTimeout so the link
// layer never declares the worker dead: a slow, jittery path reorders
// nothing the seq/ack layer can't absorb. The reset+partial mixes kill the
// proxied connection mid-frame; the worker must redial and the link resume
// where the old socket broke, with the worker never leaving the membership.
// They run a longer stream: the proxy's Read and Write share one seeded
// draw sequence per connection, and a connection's first reset draw can
// sit past the hundredth I/O operation (seed 9), which a 6-batch stream
// under -race does not always reach.
func TestSocketWorkerThroughFaultProxy(t *testing.T) {
	cases := map[string]netfault.Config{
		"delay": {Seed: 171, DelayProb: 0.35, MaxDelay: 5 * time.Millisecond},
	}
	for seed := uint64(7); seed <= 9; seed++ {
		cases[fmt.Sprintf("reset-partial/seed=%d", seed)] = netfault.Config{
			Seed: seed, ResetProb: 0.03, PartialProb: 0.02, DelayProb: 0.05,
			MaxDelay: 2 * time.Millisecond, MaxFaults: 12,
		}
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			batches := 6
			if cfg.ResetProb > 0 {
				batches = 16
			}
			w := clusterWorkload(171, batches)
			h := newSocketHarness(t, algo.SSSP{Src: 0}, w, 1)
			p := netfault.NewProxy(h.coord.Addr(), cfg)
			paddr, err := p.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			defer h.close()
			h.workers[1] = startTestWorker(paddr.String(), h.workerDir(1), 1)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if err := h.coord.WaitForWorkers(ctx, 2); err != nil {
				t.Fatal(err)
			}
			for bi, b := range w.Batches {
				h.runBatch(bi, b)
			}
			if got := h.coord.LiveWorkers(); got != 2 {
				t.Fatalf("proxied worker was declared dead: %d live workers, want 2", got)
			}
			if cfg.ResetProb > 0 {
				if p.In.Resets() == 0 {
					t.Fatal("proxy injected no resets; the reconnect path was not exercised")
				}
			} else if p.In.Delays() == 0 {
				t.Fatal("proxy injected no delays; the fault path was not exercised")
			}
			t.Logf("proxied link: %d resets, %d delays across %d batches",
				p.In.Resets(), p.In.Delays(), len(w.Batches))
		})
	}
}
