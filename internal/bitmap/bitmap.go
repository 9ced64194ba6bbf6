// Package bitmap implements sparse bitmaps whose backing storage is
// allocated in fixed-size chunks held in a red-black tree, and released
// when a chunk no longer contains set bits.
//
// This mirrors Duet's bitmap design (§4.2 of the paper): "We use a
// red-black tree to dynamically allocate portions of the relevant and done
// bitmaps, to represent ranges that have marked bits, and deallocate them
// when all their bits are unmarked." Memory stays proportional to the
// localized regions a task actually touches.
package bitmap

import (
	"math/bits"

	"duet/internal/rbtree"
)

const (
	// ChunkBits is the number of bits covered by one allocated chunk.
	// 32768 bits = 4 KiB of backing storage per chunk.
	ChunkBits  = 32768
	chunkWords = ChunkBits / 64
)

type chunk struct {
	words [chunkWords]uint64
	// nz summarises words: bit w is set iff words[w] != 0. Set, Unset and
	// Clear maintain it, so a search for the next set bit skips empty
	// words 64 at a time instead of scanning them.
	nz       [chunkWords / 64]uint64
	pop      int    // number of set bits in this chunk
	ci       uint64 // chunk index while allocated
	nextFree *chunk // free-list link while recycled
}

// Sparse is a dynamically-allocated bitmap over a conceptually unbounded
// index space. The zero value is not usable; create with New.
//
// Chunks released by Unset/Clear are parked on an internal free list and
// reused by later Sets, so a bitmap that churns around a steady population
// (like the allocator's size-class buckets) stops allocating once it has
// reached its high-water mark.
type Sparse struct {
	chunks *rbtree.Tree[uint64, *chunk]
	count  uint64 // total set bits
	free   *chunk // recycled chunks, linked through nextFree

	// memo remembers the chunks of recent Test/Set/Unset calls, direct-
	// mapped by chunk index. Bit tests come in runs over neighbouring
	// indices — a few runs interleaved, hence more than one entry — so
	// most of them skip the tree descent.
	memo [4]*chunk
}

// New returns an empty sparse bitmap.
func New() *Sparse {
	return &Sparse{chunks: rbtree.New[uint64, *chunk](func(a, b uint64) bool { return a < b })}
}

// chunkAt returns the chunk with index ci, or nil if none is allocated.
func (s *Sparse) chunkAt(ci uint64) *chunk {
	m := &s.memo[ci%uint64(len(s.memo))]
	if c := *m; c != nil && c.ci == ci {
		return c
	}
	c, ok := s.chunks.Get(ci)
	if ok {
		*m = c
	}
	return c
}

func split(i uint64) (ci uint64, word int, bit uint) {
	return i / ChunkBits, int(i % ChunkBits / 64), uint(i % 64)
}

// newChunk takes a chunk from the free list, or allocates one. Recycled
// chunks are already zeroed (they are only released when empty).
func (s *Sparse) newChunk() *chunk {
	c := s.free
	if c == nil {
		return &chunk{}
	}
	s.free = c.nextFree
	c.nextFree = nil
	return c
}

func (s *Sparse) releaseChunk(c *chunk) {
	c.nextFree = s.free
	s.free = c
}

// Set marks bit i. It reports whether the bit changed (was previously 0).
func (s *Sparse) Set(i uint64) bool {
	ci, w, b := split(i)
	c := s.chunkAt(ci)
	if c == nil {
		c = s.newChunk()
		c.ci = ci
		s.chunks.Set(ci, c)
	}
	mask := uint64(1) << b
	if c.words[w]&mask != 0 {
		return false
	}
	c.words[w] |= mask
	c.nz[w/64] |= uint64(1) << (w % 64)
	c.pop++
	s.count++
	return true
}

// Unset clears bit i, releasing the chunk if it becomes empty. It reports
// whether the bit changed (was previously 1).
func (s *Sparse) Unset(i uint64) bool {
	ci, w, b := split(i)
	c := s.chunkAt(ci)
	if c == nil {
		return false
	}
	mask := uint64(1) << b
	if c.words[w]&mask == 0 {
		return false
	}
	c.words[w] &^= mask
	if c.words[w] == 0 {
		c.nz[w/64] &^= uint64(1) << (w % 64)
	}
	c.pop--
	s.count--
	if c.pop == 0 {
		s.chunks.Delete(ci)
		s.releaseChunk(c)
		s.memo[ci%uint64(len(s.memo))] = nil // chunkAt just put c there
	}
	return true
}

// Test reports whether bit i is set.
func (s *Sparse) Test(i uint64) bool {
	ci, w, b := split(i)
	c := s.chunkAt(ci)
	return c != nil && c.words[w]&(uint64(1)<<b) != 0
}

// AllSet reports whether every bit of [lo, hi) is set; an empty range
// is. It tests a word at a time, so a run of done blocks costs one probe
// per 64 bits rather than one per bit.
func (s *Sparse) AllSet(lo, hi uint64) bool {
	for lo < hi {
		ci, w, b := split(lo)
		c := s.chunkAt(ci)
		if c == nil {
			return false
		}
		end := min(hi, lo-uint64(b)+64) // the range's end within word w
		mask := ^uint64(0) >> (64 - (end - lo)) << b
		if c.words[w]&mask != mask {
			return false
		}
		lo = end
	}
	return true
}

// SetRange sets bits [lo, hi) and returns how many changed.
func (s *Sparse) SetRange(lo, hi uint64) uint64 {
	var changed uint64
	for i := lo; i < hi; i++ {
		if s.Set(i) {
			changed++
		}
	}
	return changed
}

// UnsetRange clears bits [lo, hi) and returns how many changed. It hops
// from set bit to set bit, so clearing a range that holds none (the
// common case for the filesystem's corruption markers) costs one probe.
func (s *Sparse) UnsetRange(lo, hi uint64) uint64 {
	var changed uint64
	for i, ok := s.NextSet(lo); ok && i < hi; i, ok = s.NextSet(i + 1) {
		s.Unset(i)
		changed++
	}
	return changed
}

// Count returns the number of set bits.
func (s *Sparse) Count() uint64 { return s.count }

// Clear removes every set bit. Chunk payloads and tree nodes are recycled
// through the internal free lists rather than released to the garbage
// collector.
func (s *Sparse) Clear() {
	s.chunks.Ascend(nil, func(_ uint64, c *chunk) bool {
		c.words = [chunkWords]uint64{}
		c.nz = [len(c.nz)]uint64{}
		c.pop = 0
		s.releaseChunk(c)
		return true
	})
	s.chunks.Reset()
	s.count = 0
	s.memo = [len(s.memo)]*chunk{}
}

// Chunks returns the number of allocated chunks.
func (s *Sparse) Chunks() int { return s.chunks.Len() }

// MemBytes returns the approximate backing memory in bytes, counting only
// chunk payloads (as the paper's memory-overhead evaluation does).
func (s *Sparse) MemBytes() int { return s.chunks.Len() * chunkWords * 8 }

// IterateSet calls fn for each set bit in increasing order until fn
// returns false.
func (s *Sparse) IterateSet(fn func(i uint64) bool) {
	s.chunks.Ascend(nil, func(ci uint64, c *chunk) bool {
		base := ci * ChunkBits
		for w := 0; w < chunkWords; w++ {
			word := c.words[w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				if !fn(base + uint64(w*64+b)) {
					return false
				}
				word &^= uint64(1) << uint(b)
			}
		}
		return true
	})
}

// NextSet returns the smallest set bit >= from. It walks chunks through
// Ceiling lookups rather than an iteration callback, so the allocator's
// per-write size-class probes stay allocation-free, and inside a chunk
// it follows the non-zero-word summary: one probe costs two
// TrailingZeros64 per chunk visited, however sparse the chunk is.
func (s *Sparse) NextSet(from uint64) (uint64, bool) {
	ci := from / ChunkBits
	for {
		cur, c, ok := s.chunks.Ceiling(ci)
		if !ok {
			return 0, false
		}
		off := 0
		if cur == from/ChunkBits {
			off = int(from % ChunkBits)
		}
		if b, found := c.nextSet(off); found {
			return cur*ChunkBits + uint64(b), true
		}
		ci = cur + 1
	}
}

// nextSet returns the smallest set bit >= off within the chunk.
func (c *chunk) nextSet(off int) (int, bool) {
	w := off / 64
	// The first word is searched with the bits below off masked away.
	if word := c.words[w] &^ (uint64(1)<<(off%64) - 1); word != 0 {
		return w*64 + bits.TrailingZeros64(word), true
	}
	// Then the summary names the next non-zero word, if any: first among
	// the words above w in w's own summary word, then in the later ones.
	if w++; w == chunkWords {
		return 0, false
	}
	sw := w / 64
	m := c.nz[sw] &^ (uint64(1)<<(w%64) - 1)
	for m == 0 {
		if sw++; sw == len(c.nz) {
			return 0, false
		}
		m = c.nz[sw]
	}
	w = sw*64 + bits.TrailingZeros64(m)
	return w*64 + bits.TrailingZeros64(c.words[w]), true
}
