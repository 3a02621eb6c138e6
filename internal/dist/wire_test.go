package dist

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/wal"
)

// welcomes returns a full and a catch-up welcome over a churned worker
// view, as the coordinator would send them.
func welcomes() []wireWelcome {
	g, vals, parent := ckptState(3)
	w := clusterWorkload(3, 3)
	base := wireWelcome{
		ID: 2, AlgName: "SSSP", NumV: uint32(g.NumVertices()), FlowCap: 64,
		CkptEvery: 4, BatchSeq: 7, Vals: vals, Parent: parent,
	}
	full, catchup := base, base
	full.Full, full.Edges = true, g.Edges()
	catchup.Catchup = w.Batches
	return []wireWelcome{full, catchup}
}

// TestDecodeWelcomeRejectsOutOfRange: a welcome naming a vertex past NumV,
// a non-finite weight, a NumV past the cap, or state arrays of another
// length is an error, not a worker panic (installing a full-mode edge 7->1
// with NumV 3 would index past graph.FromEdges' lists).
func TestDecodeWelcomeRejectsOutOfRange(t *testing.T) {
	ok := wireWelcome{NumV: 3, Full: true, Edges: []graph.Edge{{Src: 0, Dst: 2, W: 1}},
		Vals: make([]float64, 3), Parent: []int32{-1, 0, 0}}
	if _, err := decodeWelcome(encodeWelcome(ok)[1:]); err != nil {
		t.Fatalf("well-formed welcome rejected: %v", err)
	}
	for name, mut := range map[string]func(*wireWelcome){
		"edge-src": func(w *wireWelcome) { w.Edges = []graph.Edge{{Src: 7, Dst: 1, W: 1}} },
		"edge-dst": func(w *wireWelcome) { w.Edges = []graph.Edge{{Src: 1, Dst: 3, W: 1}} },
		"catchup-src": func(w *wireWelcome) {
			w.Full, w.Catchup = false, []graph.Batch{nil, {{Edge: graph.Edge{Src: 3, Dst: 0}}}}
		},
		"catchup-dst": func(w *wireWelcome) {
			w.Full, w.Catchup = false, []graph.Batch{{{Edge: graph.Edge{Src: 0, Dst: 9}, Del: true}}}
		},
		"edge-nan": func(w *wireWelcome) { w.Edges = []graph.Edge{{Src: 1, Dst: 2, W: math.NaN()}} },
		"catchup-inf": func(w *wireWelcome) {
			w.Full, w.Catchup = false, []graph.Batch{{{Edge: graph.Edge{Src: 0, Dst: 1, W: math.Inf(1)}}}}
		},
		"parent":       func(w *wireWelcome) { w.Parent = []int32{-1, 3, 0} },
		"parent-neg":   func(w *wireWelcome) { w.Parent = []int32{-2, 0, 0} },
		"short-vals":   func(w *wireWelcome) { w.Vals = w.Vals[:2] },
		"long-parents": func(w *wireWelcome) { w.Parent = append(w.Parent, 0) },
		"numv-cap": func(w *wireWelcome) {
			w.NumV = maxWelcomeVertices + 1
			w.Vals, w.Parent = nil, nil
		},
	} {
		w := ok
		mut(&w)
		if _, err := decodeWelcome(encodeWelcome(w)[1:]); !errors.Is(err, wal.ErrCorrupt) {
			t.Errorf("%s: decodeWelcome = %v, want ErrCorrupt", name, err)
		}
	}
	for _, w := range welcomes() {
		got, err := decodeWelcome(encodeWelcome(w)[1:])
		if err != nil {
			t.Fatalf("coordinator welcome (full=%v) rejected: %v", w.Full, err)
		}
		if len(got.Edges) != len(w.Edges) || len(got.Catchup) != len(w.Catchup) || len(got.Vals) != len(w.Vals) {
			t.Fatalf("coordinator welcome (full=%v) did not round-trip", w.Full)
		}
	}
}

// FuzzDecodeWelcome: any welcome body decodes to an error or to a value a
// worker can install — FromEdges over its vertex count and edges, then
// every catch-up batch applied — without a panic, and never with an
// allocation the body's size does not justify.
func FuzzDecodeWelcome(f *testing.F) {
	for _, w := range welcomes() {
		body := encodeWelcome(w)[1:]
		f.Add(body)
		for _, cut := range []int{0, 4, 9, 25, len(body) / 2, len(body) - 1} {
			f.Add(body[:cut])
		}
		for _, at := range []int{0, 8, 12, 30, len(body) / 2, len(body) - 1} {
			mut := append([]byte(nil), body...)
			mut[at] ^= 0x40
			f.Add(mut)
		}
	}
	crash := wireWelcome{NumV: 3, Full: true, Edges: []graph.Edge{{Src: 7, Dst: 1, W: 1}},
		Vals: make([]float64, 3), Parent: []int32{-1, -1, -1}}
	f.Add(encodeWelcome(crash)[1:])
	f.Fuzz(func(t *testing.T, body []byte) {
		var w wireWelcome
		var err error
		var before, mid, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err = decodeWelcome(body)
		runtime.ReadMemStats(&mid)
		if n := mid.TotalAlloc - before.TotalAlloc; n > uint64(8*len(body))+1<<20 {
			t.Fatalf("decoding a %d-byte welcome allocated %d", len(body), n)
		}
		if err != nil {
			return
		}
		g := graph.FromEdges(int(w.NumV), w.Edges)
		for _, b := range w.Catchup {
			g.ApplyBatch(b)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - mid.TotalAlloc; n > uint64(16*len(body))+1<<20 {
			t.Fatalf("installing a %d-byte welcome allocated %d", len(body), n)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
