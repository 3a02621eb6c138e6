package graph

import (
	"math/bits"
	"slices"
)

// hubIndex maps a neighbour to its position in one hub's adjacency list.
// It is an open-addressing table with linear probing over a power-of-two
// slot array kept at most half full, hashed by Fibonacci multiplication.
// A slot packs (neighbour+1)<<32 | position into one word, 0 meaning
// empty. Deletion shifts the rest of the probe run back instead of leaving
// a tombstone, so a lookup miss stops at the first empty slot no matter
// how much churn the list has seen. Vertex IDs are below 2^32-1, so
// neighbour+1 fits the key half.
type hubIndex struct {
	slots []uint64
	n     int  // occupied slots
	shift uint // 64 - log2(len(slots))
}

// newHubIndex returns an index sized for n entries: the next power of two
// at or above 2n slots.
func newHubIndex(n int) *hubIndex {
	lg := bits.Len(uint(2*max(n, 1) - 1))
	return &hubIndex{slots: make([]uint64, 1<<lg), shift: uint(64 - lg)}
}

// indexOf builds the index of list.
func indexOf(list []Half) *hubIndex {
	h := newHubIndex(len(list))
	for i, e := range list {
		h.put(e.To, int32(i))
	}
	return h
}

// home is the first slot probed for the slot's key half (neighbour+1).
func (h *hubIndex) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> h.shift)
}

// find returns the slot holding to, or the empty slot ending its probe run.
func (h *hubIndex) find(to VertexID) int {
	key := uint64(to) + 1
	mask := len(h.slots) - 1
	i := h.home(key)
	for s := h.slots[i]; s != 0 && s>>32 != key; s = h.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// get returns the position of to, or -1 when absent.
func (h *hubIndex) get(to VertexID) int32 {
	if s := h.slots[h.find(to)]; s != 0 {
		return int32(uint32(s))
	}
	return -1
}

// put records to at position pos, inserting or overwriting.
func (h *hubIndex) put(to VertexID, pos int32) {
	i := h.find(to)
	if h.slots[i] == 0 {
		if 2*(h.n+1) > len(h.slots) {
			h.grow()
			i = h.find(to)
		}
		h.n++
	}
	h.slots[i] = (uint64(to)+1)<<32 | uint64(uint32(pos))
}

// del removes to and returns the position it held, or -1 when absent.
// Each later entry of the probe run moves back into the hole unless its
// home slot lies cyclically after the hole.
func (h *hubIndex) del(to VertexID) int32 {
	i := h.find(to)
	s := h.slots[i]
	if s == 0 {
		return -1
	}
	mask := len(h.slots) - 1
	for j := (i + 1) & mask; h.slots[j] != 0; j = (j + 1) & mask {
		if (j-h.home(h.slots[j]>>32))&mask >= (j-i)&mask {
			h.slots[i] = h.slots[j]
			i = j
		}
	}
	h.slots[i] = 0
	h.n--
	return int32(uint32(s))
}

// grow doubles the table and reinserts every entry.
func (h *hubIndex) grow() {
	old := h.slots
	h.slots, h.n, h.shift = make([]uint64, 2*len(old)), 0, h.shift-1
	for _, s := range old {
		if s != 0 {
			h.put(VertexID(s>>32-1), int32(uint32(s)))
		}
	}
}

// clone returns an independent copy of h.
func (h *hubIndex) clone() *hubIndex {
	return &hubIndex{slots: slices.Clone(h.slots), n: h.n, shift: h.shift}
}
