package main

// Distributed mode: the socket coordinator runs in this process and a
// supervisor keeps N workers alive. Two flags pick how a worker runs:
//
//   - -cluster N spawns real graphfly-worker processes, each with its own
//     WAL directory under -clusterDir. Pid files
//     (<clusterDir>/worker-<id>.pid) track the live processes so external
//     chaos harnesses (scripts/chaos.sh) can pick kill victims.
//   - -nodes N runs dist.RunWorker goroutines over loopback, with their
//     WAL directories in a temporary directory removed at exit. With
//     -faults the workers dial a netfault proxy in front of the
//     coordinator, so seeded resets, torn writes and stalls hit every link.
//
// Workers that die uncleanly (crash, kill -9, a link past its retry budget)
// are respawned with the same id and directory so they recover locally and
// rejoin; workers that exit cleanly (coordinator bye, SIGTERM) stay down.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netfault"
)

// clusterOpts configures startCluster. Exactly one worker kind is chosen:
// inProcess for -nodes, graphfly-worker processes under dir otherwise.
type clusterOpts struct {
	n, flowCap, ckptEvery int
	addr                  string
	inProcess             bool
	dir, workerBin        string
	faults                netfault.Config
	reg                   *metrics.Registry
}

// clusterRuntime ties the in-process coordinator to the worker supervisor.
type clusterRuntime struct {
	coord  *dist.Coordinator
	sup    *supervisor
	proxy  *netfault.Proxy // nil without -faults
	tmpDir string          // removed at close; empty for -cluster
}

// startCluster launches the coordinator (and the fault proxy, if any),
// starts n supervised workers, and waits until all n have joined.
func startCluster(ctx context.Context, g *graph.Streaming, a algo.Selective, o clusterOpts) (*clusterRuntime, error) {
	c := &clusterRuntime{}
	var bin string
	if o.inProcess {
		tmp, err := os.MkdirTemp("", "graphfly-nodes-")
		if err != nil {
			return nil, err
		}
		c.tmpDir, o.dir = tmp, tmp
	} else {
		var err error
		if bin, err = locateWorkerBin(o.workerBin); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(o.dir, 0o755); err != nil {
			return nil, err
		}
	}
	coord, err := dist.NewCoordinator(g, a, dist.CoordConfig{
		Addr:      o.addr,
		FlowCap:   o.flowCap,
		CkptEvery: o.ckptEvery,
		Metrics:   o.reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "graphfly: %s\n", fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord = coord
	dial := coord.Addr()
	if o.faults.Enabled() {
		c.proxy = netfault.NewProxy(dial, o.faults)
		paddr, err := c.proxy.Start("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		dial = paddr.String()
	}
	run := execWorker(bin, dial, o.dir)
	if o.inProcess {
		run = inProcessWorker(dial, o.dir)
	}
	c.sup = newSupervisor(run)
	for i := 0; i < o.n; i++ {
		c.sup.spawn(i)
	}
	if err := coord.WaitForWorkers(ctx, o.n); err != nil {
		c.close()
		return nil, fmt.Errorf("waiting for %d workers: %w", o.n, err)
	}
	return c, nil
}

// close byes the workers through the coordinator, stops them, and tears
// down the proxy and the temporary worker directories.
func (c *clusterRuntime) close() {
	if c.coord != nil {
		c.coord.Close()
	}
	if c.sup != nil {
		c.sup.stop()
	}
	if c.proxy != nil {
		c.proxy.Close()
	}
	if c.tmpDir != "" {
		os.RemoveAll(c.tmpDir)
	}
}

// workerRunner runs one incarnation of worker id until it exits. A nil
// return is a clean exit (bye or graceful shutdown); an error is a death
// the supervisor answers with a respawn. Cancelling ctx asks the worker to
// shut down gracefully.
type workerRunner func(ctx context.Context, id int) error

func workerDir(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("worker-%d", id))
}

// execWorker runs each incarnation as a graphfly-worker process and keeps
// its pid file current while it lives.
func execWorker(bin, addr, dir string) workerRunner {
	return func(ctx context.Context, id int) error {
		cmd := exec.CommandContext(ctx, bin, "-addr", addr, "-dir", workerDir(dir, id), "-id", strconv.Itoa(id))
		cmd.Stderr = os.Stderr
		// Stopping asks for a graceful exit (bye + final checkpoint) and
		// escalates to SIGKILL when it does not come in time.
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 10 * time.Second
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn: %w", err)
		}
		pidPath := filepath.Join(dir, fmt.Sprintf("worker-%d.pid", id))
		os.WriteFile(pidPath, []byte(strconv.Itoa(cmd.Process.Pid)+"\n"), 0o644)
		defer os.Remove(pidPath)
		return cmd.Wait()
	}
}

// inProcessWorker runs each incarnation as a RunWorker call in this process.
func inProcessWorker(addr, dir string) workerRunner {
	return func(ctx context.Context, id int) error {
		return dist.RunWorker(ctx, dist.WorkerConfig{Addr: addr, Dir: workerDir(dir, id), ID: id})
	}
}

// supervisor keeps workers running, respawning any that die uncleanly with
// their id (and so their durable directory) preserved.
type supervisor struct {
	run    workerRunner
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newSupervisor(run workerRunner) *supervisor {
	ctx, cancel := context.WithCancel(context.Background())
	return &supervisor{run: run, ctx: ctx, cancel: cancel}
}

func (s *supervisor) spawn(id int) {
	s.wg.Add(1)
	go s.runLoop(id)
}

func (s *supervisor) runLoop(id int) {
	defer s.wg.Done()
	for {
		err := s.run(s.ctx, id)
		if err == nil || s.ctx.Err() != nil {
			return // clean exit, or told to stop
		}
		fmt.Fprintf(os.Stderr, "graphfly: worker %d died (%v) — respawning\n", id, err)
		select {
		case <-s.ctx.Done():
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// stop asks every worker to shut down gracefully and waits for them all.
func (s *supervisor) stop() {
	s.cancel()
	s.wg.Wait()
}

// locateWorkerBin resolves the graphfly-worker executable: an explicit
// path wins, then a sibling of this binary, then $PATH.
func locateWorkerBin(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "graphfly-worker")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("graphfly-worker"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("graphfly-worker binary not found — build it next to graphfly (go build ./cmd/...) or pass -workerBin")
}
