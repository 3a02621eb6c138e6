package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/graph"
)

// Accumulative snapshot files share the selective snapshot framing (header,
// edges, state, footer) but carry the engine's residual state — rank vector
// plus aggregate and last-broadcast residuals — in a KindSnapAccState frame
// instead of KindSnapState. The kind byte makes the two formats mutually
// unreadable, so a recovery path can never restore the wrong engine family
// from a directory.

// AccSnapshotData is one decoded accumulative snapshot.
type AccSnapshotData struct {
	Seq   uint64
	NumV  int
	Edges []graph.Edge
	Acc   *engine.AccState
}

// WriteAccSnapshot persists g and the accumulative residual state at seq
// with the same atomicity and durability discipline as WriteSnapshot.
func WriteAccSnapshot(opts Options, seq uint64, g *graph.Streaming, st *engine.AccState) error {
	if _, err := opts.fire("snapshot.write"); err != nil {
		return err
	}
	var hdr [12]byte
	putU64(hdr[0:8], seq)
	putU32(hdr[8:12], uint32(g.NumVertices()))
	buf := make([]byte, 0, SnapFileLen(g, 8+8*(len(st.State)+len(st.Agg)+len(st.LastUnit))))
	buf = AppendFrame(buf, KindSnapHeader, hdr[:])
	buf = AppendEdgesFrame(buf, g)
	buf = AppendFrame(buf, KindSnapAccState, EncodeAccState(nil, g.NumVertices(), st))
	buf = AppendFrame(buf, KindSnapFooter, hdr[0:8])
	return writeSnapshotFile(opts, seq, buf)
}

// ReadAccSnapshot loads and fully validates one accumulative snapshot file
// with ReadSnapshot's strictness: frame CRCs, frame order, payload bounds,
// header/footer agreement, and no trailing data.
func ReadAccSnapshot(path string) (*AccSnapshotData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	defer f.Close()

	next := func(want byte) ([]byte, error) {
		kind, payload, err := ReadFrame(f)
		if err != nil {
			return nil, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
		}
		if kind != want {
			return nil, fmt.Errorf("%w: snapshot frame kind %d, want %d", ErrCorrupt, kind, want)
		}
		return payload, nil
	}

	hdr, err := next(KindSnapHeader)
	if err != nil {
		return nil, err
	}
	if len(hdr) != 12 {
		return nil, fmt.Errorf("%w: snapshot header %d bytes", ErrCorrupt, len(hdr))
	}
	sd := &AccSnapshotData{Seq: getU64(hdr[0:8]), NumV: int(getU32(hdr[8:12]))}
	if sd.NumV < 0 || sd.NumV > 1<<28 {
		return nil, fmt.Errorf("%w: snapshot declares %d vertices", ErrCorrupt, sd.NumV)
	}
	edgesP, err := next(KindSnapEdges)
	if err != nil {
		return nil, err
	}
	if sd.Edges, err = DecodeEdges(edgesP, sd.NumV); err != nil {
		return nil, err
	}
	stateP, err := next(KindSnapAccState)
	if err != nil {
		return nil, err
	}
	if sd.Acc, err = DecodeAccState(stateP, sd.NumV); err != nil {
		return nil, err
	}
	footer, err := next(KindSnapFooter)
	if err != nil {
		return nil, err
	}
	if len(footer) != 8 || getU64(footer) != sd.Seq {
		return nil, fmt.Errorf("%w: snapshot footer disagrees with header", ErrCorrupt)
	}
	if _, _, err := ReadFrame(f); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after snapshot footer", ErrCorrupt)
	}
	return sd, nil
}
