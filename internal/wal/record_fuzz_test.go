package wal

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/graph"
)

// Fuzz targets for the WAL record decoders: batch, tagged batch and the
// dedup table. Same invariant as FuzzDecodeEdges — an error or a value
// consistent with the bytes it came from, never a panic, and never an
// allocation the input's size does not justify.

// fuzzBatch is a seed batch mixing additions, deletions and odd weights.
var fuzzBatch = graph.Batch{
	{Edge: graph.Edge{Src: 1, Dst: 2, W: 3}},
	{Edge: graph.Edge{Src: 4, Dst: 5, W: 0.5}, Del: true},
	{Edge: graph.Edge{Src: 0, Dst: 1 << 20, W: math.Inf(1)}},
}

// canonicalBatch returns p with every update's deletion flag in the batch
// payload at off rewritten to EncodeBatch's 0/1 form: DecodeBatch reads any
// nonzero flag as a deletion, so that is the only way an accepted payload
// may differ from its re-encoding.
func canonicalBatch(p []byte, off int) []byte {
	const updLen = 4 + 4 + 8 + 1
	c := append([]byte(nil), p...)
	for at := off + 12 + updLen - 1; at < len(c); at += updLen {
		if c[at] != 0 {
			c[at] = 1
		}
	}
	return c
}

// FuzzDecodeBatch: an accepted batch payload re-encodes to its own bytes.
func FuzzDecodeBatch(f *testing.F) {
	for _, b := range []graph.Batch{nil, fuzzBatch[:1], fuzzBatch} {
		p := EncodeBatch(nil, 7, b)
		f.Add(p)
		for _, v := range tornAndFlipped(p) {
			f.Add(v)
		}
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // declares 4G updates
	f.Fuzz(func(t *testing.T, p []byte) {
		var seq uint64
		var b graph.Batch
		var err error
		n := allocDuring(func() { seq, b, err = DecodeBatch(p) })
		if n > allocBound(len(p)) {
			t.Fatalf("decoding %d bytes allocated %d", len(p), n)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeBatch(nil, seq, b), canonicalBatch(p, 0)) {
			t.Fatal("accepted batch does not re-encode to itself")
		}
	})
}

// FuzzDecodeTaggedBatch: an accepted tagged payload carries a client id in
// the allowed length range and re-encodes to its own bytes.
func FuzzDecodeTaggedBatch(f *testing.F) {
	for _, id := range []string{"c", "client-7", string(make([]byte, maxClientIDLen))} {
		p := EncodeTaggedBatch(nil, 42, id, 9, fuzzBatch)
		f.Add(p)
		for _, v := range tornAndFlipped(p) {
			f.Add(v)
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // declares a 4 GiB client id
	f.Fuzz(func(t *testing.T, p []byte) {
		var seq, cseq uint64
		var b graph.Batch
		var id string
		var err error
		n := allocDuring(func() { seq, b, id, cseq, err = DecodeTaggedBatch(p) })
		if n > allocBound(len(p)) {
			t.Fatalf("decoding %d bytes allocated %d", len(p), n)
		}
		if err != nil {
			return
		}
		if id == "" || len(id) > maxClientIDLen {
			t.Fatalf("accepted a %d-byte client id", len(id))
		}
		if !bytes.Equal(EncodeTaggedBatch(nil, seq, id, cseq, b), canonicalBatch(p, 4+len(id)+8)) {
			t.Fatal("accepted tagged batch does not re-encode to itself")
		}
	})
}

// FuzzDecodeDedupTable: an accepted table re-encodes, in full, to its own
// bytes — so its header, client count, per-client windows and entry order
// all agree with the payload.
func FuzzDecodeDedupTable(f *testing.F) {
	tables := []*DedupTable{NewDedupTable(1), NewDedupTable(4), NewDedupTable(64)}
	tables[1].Record("a", 1, 10)
	tables[1].Record("b", 3, 11)
	for i := uint64(1); i <= 80; i++ {
		tables[2].Record("ingest-"+string(rune('a'+i%5)), i, 100+i)
	}
	for _, tb := range tables {
		p := tb.Encode(nil, math.MaxUint64)
		f.Add(p)
		for _, v := range tornAndFlipped(p) {
			f.Add(v)
		}
	}
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0x0f, 0}) // declares a million clients
	dup := Enc{}                                   // one client id twice
	dup.U32(4)
	dup.U32(2)
	for range 2 {
		dup.Str("a")
		dup.U32(0)
	}
	f.Add(dup.B)
	f.Fuzz(func(t *testing.T, p []byte) {
		var tb *DedupTable
		var err error
		n := allocDuring(func() { tb, err = DecodeDedupTable(p) })
		if n > allocBound(len(p)) {
			t.Fatalf("decoding %d bytes allocated %d", len(p), n)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(tb.Encode(nil, math.MaxUint64), p) {
			t.Fatal("accepted dedup table does not re-encode to itself")
		}
	})
}
