package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one batch share its batch index (engine and cluster) or WAL
// sequence (serving); Parent links a call to the span that caused it.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Round  int                `json:"round"`
	Batch  int64              `json:"batch"`
	Start  float64            `json:"start_us"`
	End    float64            `json:"end_us"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced rounds run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	round int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id (0 on a nil tracer; ids start at 1).
func (t *tracer) add(name string, parent int, batch int64, start, end time.Time, attrs map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Round: t.round, Batch: batch,
		Start: float64(start.Sub(t.t0)) / 1e3, End: float64(end.Sub(t.t0)) / 1e3,
		Attrs: attrs,
	})
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapSampler polls the live heap while a timed phase runs and keeps the
// peak. runtime/metrics reads do not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// goCost is the Go runtime's work over the timed phases of a run: bytes
// allocated, collections, and stop-the-world pause time.
type goCost struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
}

// markGo reads the runtime counters. It stops the world briefly, so it is
// called only outside timed calls.
func markGo() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

// addSince adds the runtime work done since mark.
func (c *goCost) addSince(mark *runtime.MemStats) {
	end := markGo()
	c.allocBytes += end.TotalAlloc - mark.TotalAlloc
	c.gcCycles += end.NumGC - mark.NumGC
	c.pauseNs += end.PauseTotalNs - mark.PauseTotalNs
}

// timedPhase brackets one round's timed loop: heap peak and runtime cost.
type timedPhase struct {
	heap *heapSampler
	mark *runtime.MemStats
}

func beginTimed() timedPhase {
	runtime.GC() // each round starts from the same collected heap
	return timedPhase{mark: markGo(), heap: startHeapSampler()}
}

// end folds the phase into the run's accumulators.
func (p timedPhase) end(r *runStats) {
	if peak := p.heap.finish(); peak > r.heapPeakMB {
		r.heapPeakMB = peak
	}
	r.gocost.addSince(p.mark)
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
