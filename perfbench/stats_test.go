package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	if got := percentile(seq(100), 90); got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(seq(100), 50); got != 50 {
		t.Fatalf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(seq(1), 99); got != 1 {
		t.Fatalf("p99 of one sample = %v, want 1", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("percentile of no samples = %v, want 0", got)
	}
	// A failed operation is +Inf: it sorts last and misses every limit.
	xs := []float64{math.Inf(1), 1, 2}
	if got := percentile(xs, 50); got != 2 {
		t.Fatalf("p50 with one failure = %v, want 2", got)
	}
	if got := finite(percentile(xs, 90)); got != failedMs {
		t.Fatalf("p90 with one failure of three = %v, want %v", got, failedMs)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v keeps only %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
	if got := beyond(100, 90); got != 10 {
		t.Fatalf("beyond(100, p90) = %d, want 10", got)
	}
}

func TestOpenLoopDueAndLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	o := openLoop{start: t0, period: 10 * time.Millisecond}
	if got := o.due(3); !got.Equal(t0.Add(30 * time.Millisecond)) {
		t.Fatalf("due(3) = %v, want start+30ms", got.Sub(t0))
	}
	if got := o.late(3, t0.Add(35*time.Millisecond)); got != 5*time.Millisecond {
		t.Fatalf("late send = %v, want 5ms", got)
	}
	if got := o.late(3, t0.Add(25*time.Millisecond)); got != 0 {
		t.Fatalf("early send counted as late: %v", got)
	}
	// Latency runs from the due time, so a send delayed by a stall is
	// charged its wait.
	if got := o.sinceDue(3, t0.Add(42*time.Millisecond)); got != 12 {
		t.Fatalf("sinceDue = %v ms, want 12", got)
	}
}

func TestVisibleAtFirstDeltaAtOrAfterSeq(t *testing.T) {
	t0 := time.Unix(2000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	deltas := []seen{{seq: 2, at: at(1)}, {seq: 5, at: at(2)}, {seq: 6, at: at(3)}}
	for _, c := range []struct {
		seq  uint64
		want time.Time
		ok   bool
	}{
		{1, at(1), true}, // no delta of its own: visible with the next one
		{2, at(1), true},
		{3, at(2), true},
		{5, at(2), true},
		{6, at(3), true},
		{7, time.Time{}, false},
	} {
		got, ok := visibleAt(deltas, c.seq)
		if ok != c.ok || !got.Equal(c.want) {
			t.Errorf("visibleAt(%d) = %v,%v, want %v,%v", c.seq, got.Sub(t0), ok, c.want.Sub(t0), c.ok)
		}
	}
}

func TestUnattributedExcludesNestedDtree(t *testing.T) {
	st := engine.BatchStats{
		ApplyTime:    1 * time.Millisecond,
		MaintainTime: 3 * time.Millisecond,
		DtreeTime:    1 * time.Millisecond, // part of MaintainTime
		TrimTime:     1 * time.Millisecond,
		ScheduleTime: 1 * time.Millisecond,
		ComputeTime:  2 * time.Millisecond,
	}
	if got := phaseSum(st); got != 8*time.Millisecond {
		t.Fatalf("phaseSum = %v, want 8ms", got)
	}
	if got := unattributed(10*time.Millisecond, st); got != 2*time.Millisecond {
		t.Fatalf("unattributed = %v, want 2ms", got)
	}
}

// TestPoolBatchesStaysInPool checks that a stream of poolBatches batches
// draws every addition from the generated edges, and that one batch more
// would not.
func TestPoolBatchesStaysInPool(t *testing.T) {
	cfg := gen.TestDataset(7)
	edges := gen.Generate(cfg)
	known := map[[2]graph.VertexID]bool{}
	for _, e := range edges {
		known[[2]graph.VertexID{e.Src, e.Dst}] = true
	}
	sc := gen.StreamConfig{InitialFraction: initialFraction, DeleteRatio: 0.3, BatchSize: 100, Seed: 3}
	n := poolBatches(len(edges), sc)
	if n < 2 {
		t.Fatalf("pool holds %d batches; test graph too small", n)
	}
	foreign := func(batches int) int {
		sc.NumBatches = batches
		w := gen.BuildWorkload(cfg.NumV, edges, sc)
		k := 0
		for _, b := range w.Batches {
			for _, u := range b {
				if !u.Del && !known[[2]graph.VertexID{u.Src, u.Dst}] {
					k++
				}
			}
		}
		return k
	}
	if k := foreign(n); k != 0 {
		t.Fatalf("%d batches (the pool limit) added %d edges from outside the pool", n, k)
	}
	if k := foreign(n + 1); k == 0 {
		t.Fatalf("%d batches stayed in the pool; poolBatches undercounts", n+1)
	}
}

func TestMeasureProperties(t *testing.T) {
	w := gen.Workload{
		NumV: 200,
		Initial: []graph.Edge{
			{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}, {Src: 4, Dst: 5},
		},
		Batches: []graph.Batch{
			{{Edge: graph.Edge{Src: 6, Dst: 7}}, {Edge: graph.Edge{Src: 1, Dst: 0}, Del: true}},
			{{Edge: graph.Edge{Src: 8, Dst: 9}}, {Edge: graph.Edge{Src: 8, Dst: 10}}},
		},
	}
	p := measure(w)
	if p.vertices != 200 || p.edges != 4 || p.maxInDeg != 3 {
		t.Fatalf("measure = %+v", p)
	}
	// Top 1% of 200 vertices is 2 vertices: in-degrees 3 and 1 of 4 edges.
	if p.top1InShare != 1.0 {
		t.Fatalf("top-1%% in-edge share = %v, want 1", p.top1InShare)
	}
	if p.delShare != 0.25 {
		t.Fatalf("deletion share = %v, want 0.25", p.delShare)
	}
}

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		found := false
		for _, p := range workloads {
			found = found || p.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
}
