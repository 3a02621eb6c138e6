package expr

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/algo"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/netfault"
)

// FigS4 is this reproduction's crash-recovery latency figure for the
// real-socket multi-process runtime (no paper counterpart; the paper's
// cluster is assumed reliable). A coordinator plus N workers run an SSSP
// stream over loopback TCP with per-worker WALs; on alternating batches
// one worker is killed mid-batch (the HardStop hook — the in-process
// equivalent of kill -9), the survivors roll back and re-run the batch,
// and the victim restarts from its WAL and rejoins at the next boundary.
// The columns price both halves of the protocol: recovery latency is
// death-detection through the re-run batch completing (dist.recovery_ns),
// rejoin latency is hello through admission (dist.rejoin_ns). Reconnect
// and retransmit counts come from the reliable link layer, summed over
// both ends of every link. Every run ends with a bit-exactness check
// against the single-machine oracle; a diverged run reports NA rather than
// a latency for a wrong answer.
func FigS4(sc Scale) Table {
	t := Table{
		ID:    "Fig S4",
		Title: "Crash recovery in the socket runtime: kill -9 mid-batch, WAL replay, rejoin (SSSP/LJ)",
		Header: []string{"Workers", "Batches", "Crashes", "Recover p50 ms", "Recover p95 ms",
			"Rejoin p50 ms", "Reconnects", "Retransmits", "Rebalances"},
	}
	// Recovery is priced per crash, so give each run enough batches for
	// several kill/rejoin cycles.
	if sc.Batches < 6 {
		sc.Batches = 6
	}
	w := workload("LJ", sc, 0.3, 0x54)
	for _, n := range []int{2, 3} {
		reg := metrics.NewRegistry()
		// Kill one worker mid-batch on every odd batch, round-robin.
		run := runSocketStream(w, n, reg, netfault.Config{}, func(bi int) (int, bool) {
			return bi / 2 % n, bi%2 == 1
		})
		ok := run.ok
		recov := reg.Histogram("dist.recovery_ns")
		rejoin := reg.Histogram("dist.rejoin_ns")
		hms := func(h *metrics.Histogram, q float64) Cell {
			if !ok || h.Count() == 0 {
				return NA()
			}
			return Float(float64(h.Quantile(q))/1e6, 1)
		}
		count := func(name string) Cell {
			if !ok {
				return NA()
			}
			return IntCell(int(reg.Counter(name).Value()))
		}
		if shared := sc.registry(); shared != nil && ok {
			prefix := fmt.Sprintf("s4.n%d.", n)
			shared.Gauge(prefix + "recovery_p95_ns").Set(float64(recov.Quantile(0.95)))
			shared.Gauge(prefix + "rejoin_p95_ns").Set(float64(rejoin.Quantile(0.95)))
			shared.Counter(prefix + "reconnects").Add(reg.Counter("dist.reconnects").Value())
			shared.Counter(prefix + "retransmits").Add(reg.Counter("dist.retransmits").Value())
			shared.Counter(prefix + "rebalances").Add(reg.Counter("dist.rebalances").Value())
		}
		t.AddRow(IntCell(n), IntCell(len(w.Batches)), IntCell(run.crashes),
			hms(recov, 0.5), hms(recov, 0.95), hms(rejoin, 0.5),
			count("dist.reconnects"), count("dist.retransmits"), count("dist.rebalances"))
	}
	return t
}

// socketWorker is one in-process worker of a loopback socket cluster.
type socketWorker struct {
	id     int
	dir    string
	cancel context.CancelFunc
	hard   chan struct{}
	done   chan error
}

func startSocketWorker(addr, dir string, id int, reg *metrics.Registry) *socketWorker {
	ctx, cancel := context.WithCancel(context.Background())
	sw := &socketWorker{
		id: id, dir: dir, cancel: cancel,
		hard: make(chan struct{}),
		done: make(chan error, 1),
	}
	go func() {
		sw.done <- dist.RunWorker(ctx, dist.WorkerConfig{
			Addr: addr, Dir: dir, ID: id,
			ConnectTimeout: 20 * time.Second,
			HeartbeatEvery: 20 * time.Millisecond,
			RetransBase:    25 * time.Millisecond,
			PeerTimeout:    400 * time.Millisecond,
			MaxRetries:     10,
			Metrics:        reg,
			HardStop:       sw.hard,
		})
	}()
	return sw
}

// crashPlan names the worker to kill mid-batch during batch bi, if any.
type crashPlan func(bi int) (victim int, ok bool)

// socketRun is the outcome of one runSocketStream call.
type socketRun struct {
	crashes int
	wall    time.Duration // first batch start through the last batch's end, rejoins included
	ok      bool          // the stream completed and converged bit-exactly
}

// runSocketStream drives an SSSP stream through a coordinator plus n
// in-process workers over loopback TCP with per-worker WALs. With an
// enabled fault config the workers dial a netfault proxy in front of the
// coordinator; crash kills the planned victim 1 ms into a batch (HardStop,
// the in-process kill -9) and restarts it onto its WAL once the batch
// completes. Coordinator and workers share reg, so the dist.* link
// counters cover both ends of every link. The converged values are checked
// against algo.SolveSelective on the final graph.
func runSocketStream(w gen.Workload, n int, reg *metrics.Registry, faults netfault.Config, crash crashPlan) (run socketRun) {
	alg := algo.SSSP{Src: 0}
	base, err := os.MkdirTemp("", "graphfly-socket-")
	if err != nil {
		return run
	}
	defer os.RemoveAll(base)

	coord, err := dist.NewCoordinator(buildGraph(w, false), alg, dist.CoordConfig{
		Addr:           "127.0.0.1:0",
		CkptEvery:      2,
		HeartbeatEvery: 20 * time.Millisecond,
		RetransBase:    25 * time.Millisecond,
		PeerTimeout:    400 * time.Millisecond,
		MaxRetries:     10,
		Metrics:        reg,
	})
	if err != nil {
		return run
	}
	workers := make(map[int]*socketWorker, n)
	reap := func(sw *socketWorker) {
		select {
		case <-sw.done:
		case <-time.After(10 * time.Second):
		}
		sw.cancel()
	}
	dial := coord.Addr()
	var proxy *netfault.Proxy
	if faults.Enabled() {
		proxy = netfault.NewProxy(dial, faults)
		paddr, err := proxy.Start("127.0.0.1:0")
		if err != nil {
			coord.Close()
			return run
		}
		dial = paddr.String()
	}
	defer func() {
		// Stop the workers explicitly once the coordinator is gone: a bye
		// lost to an injected reset would leave a worker redialing the
		// still-listening proxy.
		coord.Close()
		for _, sw := range workers {
			sw.cancel()
			reap(sw)
		}
		if proxy != nil {
			proxy.Close()
		}
	}()
	start := func(id int) {
		workers[id] = startSocketWorker(dial, filepath.Join(base, fmt.Sprintf("worker-%d", id)), id, reg)
	}
	join := func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return coord.WaitForWorkers(ctx, n) == nil
	}
	for i := 0; i < n; i++ {
		start(i)
	}
	if !join() {
		return run
	}

	ref := buildGraph(w, false)
	t0 := time.Now()
	for bi, b := range w.Batches {
		var victim *socketWorker
		if id, ok := crash(bi); ok {
			victim = workers[id]
			go func() {
				time.Sleep(time.Millisecond)
				close(victim.hard)
			}()
		}
		if err := coord.ProcessBatch(context.Background(), b); err != nil {
			return run
		}
		ref.ApplyBatch(b)
		if victim != nil {
			reap(victim)
			run.crashes++
			start(victim.id)
			if !join() {
				return run
			}
		}
	}
	run.wall = time.Since(t0)

	want, _ := algo.SolveSelective(ref, alg)
	got := coord.Values()
	for v := range want {
		if want[v] != got[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
			return run
		}
	}
	run.ok = true
	return run
}
