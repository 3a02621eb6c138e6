package graph

import (
	"testing"

	"repro/internal/rng"
)

// checkHubIndex holds h to the map reference: same entries, the occupied
// count, load at most one half, and the linear-probing invariant that every
// slot between an entry's home and the entry itself is occupied (a
// tombstone-free table with a broken run would lose that entry on lookup).
func checkHubIndex(t *testing.T, h *hubIndex, ref map[VertexID]int32) {
	t.Helper()
	if h.n != len(ref) {
		t.Fatalf("index holds %d entries, reference %d", h.n, len(ref))
	}
	if 2*h.n > len(h.slots) {
		t.Fatalf("load %d/%d above one half", h.n, len(h.slots))
	}
	mask := len(h.slots) - 1
	occupied := 0
	for j, s := range h.slots {
		if s == 0 {
			continue
		}
		occupied++
		for i := h.home(s >> 32); i != j; i = (i + 1) & mask {
			if h.slots[i] == 0 {
				t.Fatalf("entry %d at slot %d is cut off from its home by empty slot %d", s>>32-1, j, i)
			}
		}
	}
	if occupied != h.n {
		t.Fatalf("%d occupied slots, count says %d", occupied, h.n)
	}
	for k, p := range ref {
		if got := h.get(k); got != p {
			t.Fatalf("get(%d) = %d, reference %d", k, got, p)
		}
	}
}

// hubIndexOps drives h and its map reference through n random operations
// over keys in [0, keys): puts (inserts and overwrites), deletes (hits and
// misses) and lookups, checking every answer against the reference.
func hubIndexOps(t *testing.T, r *rng.Xoshiro256, h *hubIndex, ref map[VertexID]int32, n, keys int, delFrac float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := VertexID(r.Intn(keys))
		switch p := r.Float64(); {
		case p < delFrac:
			want, ok := ref[k]
			if !ok {
				want = -1
			}
			if got := h.del(k); got != want {
				t.Fatalf("op %d: del(%d) = %d, reference %d", i, k, got, want)
			}
			delete(ref, k)
		case p < delFrac+(1-delFrac)/2:
			pos := int32(r.Intn(1 << 20))
			h.put(k, pos)
			ref[k] = pos
		default:
			want, ok := ref[k]
			if !ok {
				want = -1
			}
			if got := h.get(k); got != want {
				t.Fatalf("op %d: get(%d) = %d, reference %d", i, k, got, want)
			}
		}
		if i%97 == 0 {
			checkHubIndex(t, h, ref)
		}
	}
	checkHubIndex(t, h, ref)
}

// TestHubIndexMatchesMap runs the index against a map reference under
// growth from one slot pair, heavy delete churn at a steady size, and wide
// sparse keys.
func TestHubIndexMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		start   int // newHubIndex size hint
		keys    int
		delFrac float64
	}{
		{"growth", 1, 5000, 0.1},
		{"churn", 64, 300, 0.5},
		{"heavy-delete", 256, 600, 0.7},
		{"wide-keys", 8, 1 << 30, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(len(tc.name)) * 7919)
			h, ref := newHubIndex(tc.start), map[VertexID]int32{}
			hubIndexOps(t, r, h, ref, 20000, tc.keys, tc.delFrac)
		})
	}
}

// TestHubIndexSizing pins the table size: the next power of two at or
// above twice the entry count, so an index built for 64 halves has 128
// slots, not 256.
func TestHubIndexSizing(t *testing.T) {
	for _, tc := range []struct{ n, slots int }{{0, 2}, {1, 2}, {2, 4}, {3, 8}, {64, 128}, {65, 256}, {100, 256}} {
		if got := len(newHubIndex(tc.n).slots); got != tc.slots {
			t.Errorf("newHubIndex(%d) has %d slots, want %d", tc.n, got, tc.slots)
		}
	}
	h := indexOf(make([]Half, 64))
	if len(h.slots) != 128 {
		t.Fatalf("index of a 64-half list has %d slots", len(h.slots))
	}
}

// TestHubIndexWrapAround fills the probe run that starts at the table's
// last slot so it wraps past the end, then deletes from it in every order:
// backward shift must carry wrapped entries back across the boundary.
func TestHubIndexWrapAround(t *testing.T) {
	proto := newHubIndex(16) // 32 slots, room for 16
	mask := len(proto.slots) - 1
	var last, first []VertexID // keys homed at the last and first slot
	for k := VertexID(0); len(last) < 5 || len(first) < 2; k++ {
		switch proto.home(uint64(k) + 1) {
		case mask:
			if len(last) < 5 {
				last = append(last, k)
			}
		case 0:
			if len(first) < 2 {
				first = append(first, k)
			}
		}
	}
	keys := append(append([]VertexID(nil), last...), first...)
	for rot := range keys {
		h, ref := proto.clone(), map[VertexID]int32{}
		for i, k := range keys {
			h.put(k, int32(i))
			ref[k] = int32(i)
		}
		if h.slots[0] == 0 || h.slots[3] == 0 {
			t.Fatal("probe run did not wrap past the table end")
		}
		checkHubIndex(t, h, ref)
		for i := range keys {
			k := keys[(rot+i)%len(keys)]
			if got := h.del(k); got != ref[k] {
				t.Fatalf("rotation %d: del(%d) = %d, want %d", rot, k, got, ref[k])
			}
			delete(ref, k)
			checkHubIndex(t, h, ref)
		}
		if len(h.slots) != 32 {
			t.Fatalf("table grew to %d slots holding at most %d entries", len(h.slots), len(keys))
		}
	}
}

// TestHubIndexCloneDiverges edits a clone and its original differently:
// neither may see the other's changes.
func TestHubIndexCloneDiverges(t *testing.T) {
	r := rng.New(42)
	h, ref := newHubIndex(64), map[VertexID]int32{}
	hubIndexOps(t, r, h, ref, 3000, 400, 0.3)
	c, cref := h.clone(), make(map[VertexID]int32, len(ref))
	for k, p := range ref {
		cref[k] = p
	}
	hubIndexOps(t, r, c, cref, 3000, 400, 0.6)
	checkHubIndex(t, h, ref)
	hubIndexOps(t, r, h, ref, 3000, 2000, 0.1)
	checkHubIndex(t, c, cref)
}

// FuzzHubIndex runs an op tape against the map reference. Each 3-byte op
// is [op][key lo][key hi]: op%4 selects put, del, get or clone (the tape
// continues on the clone; the abandoned index must keep its contents), and
// op's top bit spreads the key over [2^30, 2^31).
func FuzzHubIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 1, 1, 0, 2, 2, 0})
	f.Add([]byte{0, 7, 0, 0x80, 7, 0, 3, 0, 0, 1, 7, 0, 0x81, 7, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		h, ref := newHubIndex(len(tape)%9), map[VertexID]int32{}
		type frozen struct {
			h   *hubIndex
			ref map[VertexID]int32
		}
		var old []frozen
		for i := 0; i+2 < len(tape); i += 3 {
			k := VertexID(tape[i+1]) | VertexID(tape[i+2])<<8
			if tape[i]&0x80 != 0 {
				k = k*0x9E3779B1>>1 | 1<<30
			}
			switch tape[i] % 4 {
			case 0:
				h.put(k, int32(i))
				ref[k] = int32(i)
			case 1:
				want, ok := ref[k]
				if !ok {
					want = -1
				}
				if got := h.del(k); got != want {
					t.Fatalf("del(%d) = %d, reference %d", k, got, want)
				}
				delete(ref, k)
			case 2:
				want, ok := ref[k]
				if !ok {
					want = -1
				}
				if got := h.get(k); got != want {
					t.Fatalf("get(%d) = %d, reference %d", k, got, want)
				}
			case 3:
				c, cref := h.clone(), make(map[VertexID]int32, len(ref))
				for k, p := range ref {
					cref[k] = p
				}
				old = append(old, frozen{h, ref})
				h, ref = c, cref
			}
		}
		checkHubIndex(t, h, ref)
		for _, o := range old {
			checkHubIndex(t, o.h, o.ref)
		}
	})
}
