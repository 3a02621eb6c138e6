// Command perfbench is the repository's benchmark. It drives GraphFly only
// through public calls — the engines' ProcessBatch, the serving front-end's
// server and client, and the socket cluster's coordinator and workers — on
// seeded synthetic inputs, checks every final state against a from-scratch
// reference, and prints one JSON result line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A workload drives one input through one part of the system.
type workload struct {
	name string
	run  func(c *config, r *runStats) error
}

var workloads = []workload{
	{"sssp-rmat", runSSSPRmat},
	{"pagerank-ba", runPageRankBA},
	{"serve-open", runServeOpen},
	{"cluster-sssp", runClusterSSSP},
}

// config is one run's settings.
type config struct {
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string // scratch space inside the checkout
	workers  int    // engine workers: one per CPU
	deadline time.Time
	tr       *tracer // nil unless --trace 1
}

// lastRoundStart is when a run stops starting rounds, whatever --seconds
// asks for, so that it always exits well inside three minutes.
const lastRoundStart = 120 * time.Second

// minRounds is how many times every run sets the system up, so setup_s is
// a median and never a single sample.
const minRounds = 3

// runStats accumulates one run's measurements.
type runStats struct {
	setupS     []float64
	attempted  int
	failed     int
	batchMs    []float64 // caller-timed batch calls; +Inf for a failed call
	updates    int       // updates applied by the timed calls
	timedS     float64   // time spent inside timed phases
	heapPeakMB float64
	gocost     goCost
	mismatch   []string
	layers     map[string]float64 // per-layer metrics, filled by traced rounds

	// Mean caller-timed batch time of untraced and traced rounds, for
	// harness.trace_overhead_frac.
	untracedMs, tracedMs []float64
}

func (r *runStats) failf(format string, args ...any) {
	r.mismatch = append(r.mismatch, fmt.Sprintf(format, args...))
}

// rounds calls round until the run has measured for the configured
// seconds and set up at least minRounds times. In a traced run every
// second round is traced, so the untraced rounds between them measure the
// tracing overhead.
func (r *runStats) rounds(c *config, round func(k int, tr *tracer) error) error {
	for k := 0; k < minRounds || r.timedS < c.seconds; k++ {
		if k > 0 && time.Now().After(c.deadline) {
			warnf("stopping after %d rounds: wall-time limit reached", k)
			break
		}
		var tr *tracer
		if c.trace && k%2 == 1 {
			tr = c.tr
			tr.round = k
		}
		if err := round(k, tr); err != nil {
			return fmt.Errorf("round %d: %w", k, err)
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the caller-visible metrics an untraced run reports, with
// their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"upd_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p90_ms", "ms"},
	{"heap_peak_mb", "MiB"},
}

func (r *runStats) endToEnd() map[string]float64 {
	ups := 0.0
	if r.timedS > 0 {
		ups = float64(r.updates) / r.timedS
	}
	if n := len(r.batchMs); n > 0 && tailPercentile(n) < 90 {
		warnf("only %d samples: p90 has fewer than %d beyond it", n, minBeyond)
	}
	return map[string]float64{
		"setup_s":      median(r.setupS),
		"upd_per_s":    ups,
		"batch_p50_ms": finite(percentile(r.batchMs, 50)),
		"batch_p90_ms": finite(percentile(r.batchMs, 90)),
		"heap_peak_mb": r.heapPeakMB,
	}
}

// finishLayers adds the per-layer metrics every workload reports the same
// way. A layer the workload does not run reports 0.
func (r *runStats) finishLayers() {
	L := r.layers
	batches := len(r.batchMs)
	if batches > 0 {
		L["go.alloc_mb_per_batch"] = float64(r.gocost.allocBytes) / (1 << 20) / float64(batches)
	}
	L["go.gc_cycles"] = float64(r.gocost.gcCycles)
	L["go.gc_pause_ms"] = float64(r.gocost.pauseNs) / 1e6
	if u, t := mean(r.untracedMs), mean(r.tracedMs); u > 0 && t > 0 {
		L["harness.trace_overhead_frac"] = t/u - 1
	}
	for _, n := range perLayer {
		if _, ok := L[n.name]; !ok {
			L[n.name] = 0
		}
	}
}

func main() {
	name := flag.String("workload", "", "workload: sssp-rmat | pagerank-ba | serve-open | cluster-sssp")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for WAL files and traces")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	c := &config{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workers:  runtime.NumCPU(),
		deadline: time.Now().Add(lastRoundStart),
	}
	if c.trace {
		c.tr = newTracer()
	}
	var err error
	if c.workdir, err = os.MkdirTemp(*workdir, "run-"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &runStats{layers: map[string]float64{}}
	err = wl.run(c, r)
	os.RemoveAll(c.workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}

	res := result{Correct: len(r.mismatch) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if c.trace {
		r.finishLayers()
		for _, n := range perLayer {
			res.Metrics[n.name] = metric{Value: r.layers[n.name], Unit: n.unit}
		}
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, c.seed))
		if err := c.tr.write(path); err != nil {
			warnf("writing spans: %v", err)
		} else {
			warnf("spans written to %s", path)
		}
	} else {
		e2e := r.endToEnd()
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
	}
	if res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(1)
	}
	sort.Strings(r.mismatch)
	for _, m := range r.mismatch {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness: %s\n", wl.name, m)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
