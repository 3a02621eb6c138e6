package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// refSortedEdges is the comparison-sort edge list the snapshot writers used
// to serialize: every out-list, sorted by (src, dst).
func refSortedEdges(g *graph.Streaming) []graph.Edge {
	var es []graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		for _, h := range g.Out(graph.VertexID(v)) {
			es = append(es, graph.Edge{Src: graph.VertexID(v), Dst: h.To, W: h.W})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		return es[i].Dst < es[j].Dst
	})
	return es
}

// refEncodeEdges is the EncodeEdges payload codec AppendEdgesFrame replaced.
func refEncodeEdges(buf []byte, edges []graph.Edge) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, e.Src)
		buf = binary.LittleEndian.AppendUint32(buf, e.Dst)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.W))
	}
	return buf
}

// refEdgesFrame is the old writers' composition:
// AppendFrame(buf, KindSnapEdges, EncodeEdges(nil, g.Edges())).
func refEdgesFrame(buf []byte, g *graph.Streaming) []byte {
	return AppendFrame(buf, KindSnapEdges, refEncodeEdges(nil, refSortedEdges(g)))
}

// churnedGraph builds a seeded random graph with the adjacency orders real
// streams leave: a hub whose out-list is far past 32 entries, lists
// reordered by swap-deletes, and a quarter of the vertices without edges.
func churnedGraph(seed uint64, n int) *graph.Streaming {
	r := rng.New(seed)
	g := graph.NewStreaming(n)
	live := n - n/4
	for i := 0; i < 10*n; i++ {
		src := graph.VertexID(r.Intn(live))
		if r.Float64() < 0.25 {
			src = 0
		}
		g.AddEdge(graph.Edge{Src: src, Dst: graph.VertexID(r.Intn(live)), W: r.Weight(9)})
	}
	for _, e := range refSortedEdges(g) {
		if r.Float64() < 0.3 {
			g.DeleteEdge(e.Src, e.Dst)
		}
	}
	for i := 0; i < n; i++ {
		g.AddEdge(graph.Edge{Src: 0, Dst: graph.VertexID(r.Intn(live)), W: r.Weight(9)})
	}
	return g
}

func TestAppendEdgesFrameMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Streaming{
		"no-vertices": graph.NewStreaming(0),
		"no-edges":    graph.NewStreaming(7),
		"small":       churnedGraph(1, 40),
		"hub":         churnedGraph(2, 400),
		"hub-2":       churnedGraph(3, 2000),
	}
	for name, g := range graphs {
		if name == "hub" && g.OutDegree(0) <= 32 {
			t.Fatalf("hub out-degree %d never passed the old sort threshold", g.OutDegree(0))
		}
		for _, prefix := range [][]byte{nil, {1, 2, 3}} {
			got := AppendEdgesFrame(append([]byte(nil), prefix...), g)
			want := refEdgesFrame(append([]byte(nil), prefix...), g)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s (prefix %d): frame differs from the reference composition", name, len(prefix))
			}
			if len(got)-len(prefix) != edgesFrameLen(g) {
				t.Fatalf("%s: frame is %d bytes, edgesFrameLen says %d", name, len(got)-len(prefix), edgesFrameLen(g))
			}
		}
		// A buffer sized by edgesFrameLen is filled in place, not copied.
		buf := make([]byte, 5, 5+edgesFrameLen(g))
		if got := AppendEdgesFrame(buf, g); &got[0] != &buf[0] {
			t.Fatalf("%s: AppendEdgesFrame reallocated a large-enough buffer", name)
		}
		kind, p, err := ReadFrame(bytes.NewReader(AppendEdgesFrame(nil, g)))
		if err != nil || kind != KindSnapEdges {
			t.Fatalf("%s: ReadFrame = kind %d, %v", name, kind, err)
		}
		es, err := DecodeEdges(p, g.NumVertices())
		if err != nil {
			t.Fatal(err)
		}
		if want := g.Edges(); len(es) != len(want) {
			t.Fatalf("%s: decoded %d edges, want %d", name, len(es), len(want))
		}
	}
}

// goldenState returns the fixed graph and engine state the byte-identity
// test writes: a churned graph with deterministic values and parents.
func goldenState() (*graph.Streaming, []float64, []int32, *engine.AccState) {
	g := churnedGraph(42, 300)
	n := g.NumVertices()
	vals := make([]float64, n)
	parent := make([]int32, n)
	st := &engine.AccState{Dim: 1, State: make([]float64, n), Agg: make([]float64, n), LastUnit: make([]float64, n)}
	for v := 0; v < n; v++ {
		vals[v] = float64(v%17) + 0.5
		parent[v] = int32(v) - 1
		st.State[v], st.Agg[v], st.LastUnit[v] = float64(v)/7, float64(v%5), 1/float64(v+1)
	}
	return g, vals, parent, st
}

// TestSnapshotFilesByteIdentical proves the single-pass writers leave the
// same bytes on disk as the build-sort-copy writers they replaced: each
// file equals the old frame composition, and its SHA-256 equals the digest
// the old writers produced for the same graph and state.
func TestSnapshotFilesByteIdentical(t *testing.T) {
	g, vals, parent, st := goldenState()
	dd := NewDedupTable(4)
	dd.Record("c", 1, 3)
	dd.Record("c", 2, 9)
	dir := t.TempDir()
	opts := Options{Dir: dir, Policy: FsyncOff}

	var hdr [12]byte
	putU32(hdr[8:12], uint32(g.NumVertices()))
	refSnap := func(seq uint64, kind byte, state []byte, dedup *DedupTable) []byte {
		putU64(hdr[0:8], seq)
		buf := AppendFrame(nil, KindSnapHeader, hdr[:])
		buf = refEdgesFrame(buf, g)
		buf = AppendFrame(buf, kind, state)
		if dedup != nil {
			buf = AppendFrame(buf, KindSnapDedup, dedup.Encode(nil, seq))
		}
		return AppendFrame(buf, KindSnapFooter, hdr[0:8])
	}
	cases := []struct {
		name   string
		seq    uint64
		write  func() error
		want   []byte
		digest string // SHA-256 of the old writers' file
	}{
		{"snapshot", 5, func() error { return WriteSnapshot(opts, 5, g, vals, parent) },
			refSnap(5, KindSnapState, EncodeState(nil, vals, parent), nil),
			"56c3060487e91cb38f8ce576e6b15bf582d3d60d67d4afc692160c169ef4cd87"},
		{"snapshot+dedup", 6, func() error { return writeSnapshotWith(opts, 6, g, vals, parent, dd) },
			refSnap(6, KindSnapState, EncodeState(nil, vals, parent), dd),
			"89db140201f14927c5c451c58fb75a67372f8251b525d64fce71a0eab0a13b83"},
		{"acc-snapshot", 7, func() error { return WriteAccSnapshot(opts, 7, g, st) },
			refSnap(7, KindSnapAccState, EncodeAccState(nil, g.NumVertices(), st), nil),
			"6488c0fc75fa8157e7cba0e4c75e08e193d062ebd935b7305b0e28e2e20d66e0"},
	}
	for _, tc := range cases {
		if err := tc.write(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, SnapName(tc.seq)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: file differs from the reference composition", tc.name)
		}
		if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != tc.digest {
			t.Fatalf("%s: file digest %x, want %s", tc.name, sum, tc.digest)
		}
	}
}

// allocDuring reports the bytes fn allocates (process-wide TotalAlloc).
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is the most a decoder may allocate for n input bytes: a small
// multiple of the input (frame bodies plus decoded values) plus a constant
// for the first frame chunk and bookkeeping — never what a declared
// length alone asks for.
func allocBound(n int) uint64 { return uint64(8*n) + 1<<20 }

// tornAndFlipped returns the seed variants of a valid encoding: torn at a
// spread of lengths and bit-flipped at a spread of offsets.
func tornAndFlipped(b []byte) [][]byte {
	var out [][]byte
	for _, cut := range []int{0, 1, 4, 8, 9, len(b) / 3, len(b) / 2, len(b) - 9, len(b) - 1} {
		if cut >= 0 && cut < len(b) {
			out = append(out, append([]byte(nil), b[:cut]...))
		}
	}
	for _, at := range []int{0, 3, 8, 12, len(b) / 2, len(b) - 1} {
		if at >= 0 && at < len(b) {
			mut := append([]byte(nil), b...)
			mut[at] ^= 0x10
			out = append(out, mut)
		}
	}
	return out
}

// FuzzDecodeEdges: any payload decodes to an error or to edges inside the
// vertex range that re-encode to the very same bytes — never a panic, and
// never an allocation the payload's size does not justify.
func FuzzDecodeEdges(f *testing.F) {
	for _, g := range []*graph.Streaming{graph.NewStreaming(3), churnedGraph(5, 40)} {
		frame := AppendEdgesFrame(nil, g)
		payload := frame[frameHeaderLen+1:]
		f.Add(payload, uint32(g.NumVertices()))
		for _, v := range tornAndFlipped(payload) {
			f.Add(v, uint32(g.NumVertices()))
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint32(10)) // declares 4G edges
	f.Fuzz(func(t *testing.T, p []byte, numV uint32) {
		var es []graph.Edge
		var err error
		n := allocDuring(func() { es, err = DecodeEdges(p, int(numV%(1<<20))) })
		if n > allocBound(len(p)) {
			t.Fatalf("decoding %d bytes allocated %d", len(p), n)
		}
		if err != nil {
			return
		}
		for _, e := range es {
			if e.Src >= numV%(1<<20) || e.Dst >= numV%(1<<20) {
				t.Fatalf("edge %v escapes %d vertices", e, numV%(1<<20))
			}
		}
		if !bytes.Equal(refEncodeEdges(nil, es), p) {
			t.Fatal("accepted payload does not re-encode to itself")
		}
	})
}

// FuzzReadSnapshot feeds arbitrary bytes as a snapshot file to both
// snapshot readers: each returns an error or a snapshot whose every section
// is consistent with its header — never a panic, and never an allocation
// the file's size does not justify.
func FuzzReadSnapshot(f *testing.F) {
	g, vals, parent, st := goldenState()
	small := churnedGraph(9, 24)
	sVals, sParent := vals[:24], make([]int32, 24)
	for i := range sParent {
		sParent[i] = -1
	}
	seedDir := f.TempDir()
	opts := Options{Dir: seedDir, Policy: FsyncOff}
	dd := NewDedupTable(4)
	dd.Record("c", 1, 2)
	writes := []func() error{
		func() error { return WriteSnapshot(opts, 1, small, sVals, sParent) },
		func() error { return writeSnapshotWith(opts, 2, small, sVals, nil, dd) },
		func() error { return WriteAccSnapshot(opts, 3, g, st) },
		func() error { return WriteSnapshot(opts, 4, g, vals, parent) },
	}
	for i, w := range writes {
		if err := w(); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(seedDir, SnapName(uint64(i+1))))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for _, v := range tornAndFlipped(b) {
			f.Add(v)
		}
	}
	var huge [frameHeaderLen]byte // a lone header declaring a 1 GiB frame
	putU32(huge[0:4], MaxFrameLen)
	f.Add(huge[:])
	path := filepath.Join(f.TempDir(), "fuzz.snap")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var sd *SnapshotData
		var ad *AccSnapshotData
		var err, aerr error
		n := allocDuring(func() {
			sd, err = ReadSnapshot(path)
			ad, aerr = ReadAccSnapshot(path)
		})
		if n > 2*allocBound(len(data)) {
			t.Fatalf("reading a %d-byte file allocated %d", len(data), n)
		}
		if err == nil {
			if len(sd.Vals) != sd.NumV || (len(sd.Parent) != 0 && len(sd.Parent) != sd.NumV) {
				t.Fatalf("snapshot state %d/%d disagrees with %d vertices", len(sd.Vals), len(sd.Parent), sd.NumV)
			}
			checkEdges(t, sd.Edges, sd.NumV)
		}
		if aerr == nil {
			if want := ad.NumV * ad.Acc.Dim; len(ad.Acc.State) != want || len(ad.Acc.Agg) != want || len(ad.Acc.LastUnit) != want {
				t.Fatalf("acc snapshot vectors disagree with %d vertices x dim %d", ad.NumV, ad.Acc.Dim)
			}
			checkEdges(t, ad.Edges, ad.NumV)
		}
	})
}

func checkEdges(t *testing.T, es []graph.Edge, numV int) {
	t.Helper()
	for _, e := range es {
		if int(e.Src) >= numV || int(e.Dst) >= numV {
			t.Fatalf("edge %v escapes %d vertices", e, numV)
		}
	}
}
