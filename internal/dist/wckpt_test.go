package dist

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

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wal"
)

// ckptState returns a worker view after churn: a cluster workload with its
// deletion batches applied (swap-deleted adjacency orders) plus a hub whose
// out-list, inserted in shuffled order, is far past 32 entries.
func ckptState(seed uint64) (*graph.Streaming, []float64, []int32) {
	w := clusterWorkload(seed, 4)
	g := graph.FromEdges(w.NumV, w.Initial)
	for _, b := range w.Batches {
		g.ApplyBatch(b)
	}
	r := rng.New(seed)
	for _, d := range r.Perm(w.NumV)[:80] {
		g.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(d), W: r.Weight(8)})
	}
	vals, parent := algo.SolveSelective(g, algo.SSSP{Src: 0})
	return g, vals, parent
}

// refWorkerCkpt is the checkpoint composition the single-pass encoder
// replaced: a comparison-sorted edge list, encoded, then copied into its
// frame.
func refWorkerCkpt(seq uint64, g *graph.Streaming, vals []float64, parent []int32) []byte {
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
	edges := binary.LittleEndian.AppendUint32(nil, uint32(len(es)))
	for _, e := range es {
		edges = binary.LittleEndian.AppendUint32(edges, e.Src)
		edges = binary.LittleEndian.AppendUint32(edges, e.Dst)
		edges = binary.LittleEndian.AppendUint64(edges, math.Float64bits(e.W))
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], seq)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(g.NumVertices()))
	buf := wal.AppendFrame(nil, wal.KindSnapHeader, hdr[:])
	buf = wal.AppendFrame(buf, wal.KindSnapEdges, edges)
	buf = wal.AppendFrame(buf, wal.KindDistCheckpoint, wal.EncodeDistCheckpoint(nil, seq, vals, parent))
	return wal.AppendFrame(buf, wal.KindSnapFooter, hdr[0:8])
}

// TestWorkerCkptByteIdentical proves the worker store's checkpoint files
// keep their bytes: the file a store writes equals the old composition,
// its SHA-256 equals the digest the old writer produced for the same view,
// and a reused buffer encodes the same bytes as a fresh one.
func TestWorkerCkptByteIdentical(t *testing.T) {
	g, vals, parent := ckptState(31)
	if g.OutDegree(1) <= 32 {
		t.Fatalf("hub out-degree %d never passed the old sort threshold", g.OutDegree(1))
	}
	s, err := openWorkerStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	// SHA-256 of the file the old writer produced for this view.
	const digest = "406709855d4cc517884232a7ab253370287962ceab215ff77bcf4bf125deb038"
	// The second checkpoint reuses the store's encode buffer.
	for _, seq := range []uint64{4, 8} {
		if err := s.checkpoint(seq, g, vals, parent); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(s.dir, wckptName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, refWorkerCkpt(seq, g, vals, parent)) {
			t.Fatalf("seq %d: checkpoint differs from the reference composition", seq)
		}
		if sum := sha256.Sum256(got); seq == 4 && hex.EncodeToString(sum[:]) != digest {
			t.Fatalf("checkpoint digest %x, want %s", sum, digest)
		}
	}
	ck, err := s.loadCkpt()
	if err != nil || ck.Seq != 8 {
		t.Fatalf("loadCkpt = %+v, %v", ck, err)
	}
	if want := g.Edges(); len(ck.Edges) != len(want) {
		t.Fatalf("checkpoint holds %d edges, want %d", len(ck.Edges), len(want))
	}
}

// FuzzReadWorkerCkpt feeds arbitrary bytes as a worker checkpoint file:
// readWorkerCkpt returns an error or a checkpoint consistent with its
// header — never a panic, and never an allocation the file's size does not
// justify.
func FuzzReadWorkerCkpt(f *testing.F) {
	for _, seed := range []uint64{3, 31} {
		g, vals, parent := ckptState(seed)
		b := encodeWorkerCkpt(nil, seed, g, vals, parent)
		f.Add(b)
		for _, cut := range []int{0, 8, 9, len(b) / 2, len(b) - 1} {
			f.Add(b[:cut])
		}
		for _, at := range []int{0, 4, 12, len(b) / 2, len(b) - 1} {
			mut := append([]byte(nil), b...)
			mut[at] ^= 0x40
			f.Add(mut)
		}
	}
	huge := binary.LittleEndian.AppendUint32(nil, wal.MaxFrameLen) // 1 GiB frame
	f.Add(append(huge, 0, 0, 0, 0))
	path := filepath.Join(f.TempDir(), wckptName(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var ck *workerCkpt
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err = readWorkerCkpt(path)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > uint64(8*len(data))+1<<20 {
			t.Fatalf("reading a %d-byte checkpoint allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if len(ck.Vals) != ck.NumV || (len(ck.Parent) != 0 && len(ck.Parent) != ck.NumV) {
			t.Fatalf("checkpoint state %d/%d disagrees with %d vertices", len(ck.Vals), len(ck.Parent), ck.NumV)
		}
		for _, e := range ck.Edges {
			if int(e.Src) >= ck.NumV || int(e.Dst) >= ck.NumV {
				t.Fatalf("edge %v escapes %d vertices", e, ck.NumV)
			}
		}
	})
}
