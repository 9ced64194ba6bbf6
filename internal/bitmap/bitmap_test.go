package bitmap

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetTestUnset(t *testing.T) {
	s := New()
	if s.Test(5) {
		t.Error("fresh bitmap has bit set")
	}
	if !s.Set(5) {
		t.Error("Set should report change")
	}
	if s.Set(5) {
		t.Error("second Set should report no change")
	}
	if !s.Test(5) {
		t.Error("bit 5 should be set")
	}
	if s.Count() != 1 {
		t.Errorf("Count = %d", s.Count())
	}
	if !s.Unset(5) {
		t.Error("Unset should report change")
	}
	if s.Unset(5) {
		t.Error("second Unset should report no change")
	}
	if s.Test(5) {
		t.Error("bit 5 should be clear")
	}
	if s.Count() != 0 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestChunkLifecycle(t *testing.T) {
	s := New()
	s.Set(0)
	s.Set(ChunkBits)      // second chunk
	s.Set(10 * ChunkBits) // third chunk
	if s.Chunks() != 3 {
		t.Errorf("Chunks = %d, want 3", s.Chunks())
	}
	if s.MemBytes() != 3*ChunkBits/8 {
		t.Errorf("MemBytes = %d", s.MemBytes())
	}
	s.Unset(ChunkBits)
	if s.Chunks() != 2 {
		t.Errorf("Chunks = %d after freeing middle, want 2", s.Chunks())
	}
	s.Clear()
	if s.Chunks() != 0 || s.Count() != 0 {
		t.Error("Clear should release everything")
	}
}

func TestRanges(t *testing.T) {
	s := New()
	if n := s.SetRange(10, 20); n != 10 {
		t.Errorf("SetRange changed %d, want 10", n)
	}
	if n := s.SetRange(15, 25); n != 5 {
		t.Errorf("overlapping SetRange changed %d, want 5", n)
	}
	for i := uint64(10); i < 25; i++ {
		if !s.Test(i) {
			t.Fatalf("bit %d should be set", i)
		}
	}
	if n := s.UnsetRange(0, 100); n != 15 {
		t.Errorf("UnsetRange changed %d, want 15", n)
	}
	if s.Count() != 0 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestCrossChunkRange(t *testing.T) {
	s := New()
	lo := uint64(ChunkBits - 5)
	hi := uint64(ChunkBits + 5)
	s.SetRange(lo, hi)
	if s.Chunks() != 2 {
		t.Errorf("Chunks = %d, want 2", s.Chunks())
	}
	var got []uint64
	s.IterateSet(func(i uint64) bool { got = append(got, i); return true })
	if len(got) != 10 || got[0] != lo || got[9] != hi-1 {
		t.Errorf("IterateSet = %v", got)
	}
}

func TestIterateEarlyStop(t *testing.T) {
	s := New()
	s.SetRange(0, 100)
	n := 0
	s.IterateSet(func(uint64) bool { n++; return n < 7 })
	if n != 7 {
		t.Errorf("visited %d, want 7", n)
	}
}

func TestNextSet(t *testing.T) {
	s := New()
	s.Set(3)
	s.Set(1000)
	s.Set(uint64(2*ChunkBits + 7))
	cases := []struct {
		from uint64
		want uint64
		ok   bool
	}{
		{0, 3, true},
		{3, 3, true},
		{4, 1000, true},
		{1001, uint64(2*ChunkBits + 7), true},
		{uint64(2*ChunkBits + 8), 0, false},
	}
	for _, c := range cases {
		got, ok := s.NextSet(c.from)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("NextSet(%d) = %d,%v, want %d,%v", c.from, got, ok, c.want, c.ok)
		}
	}
}

// TestRandomAgainstModel compares the sparse bitmap with a map model under
// random operations scattered over a wide, sparse index space.
func TestRandomAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	model := map[uint64]bool{}
	for op := 0; op < 20000; op++ {
		// Cluster indices to exercise chunk reuse, with occasional far jumps.
		var i uint64
		if rng.Intn(10) == 0 {
			i = uint64(rng.Int63n(1 << 40))
		} else {
			i = uint64(rng.Intn(3*ChunkBits + 100))
		}
		switch rng.Intn(3) {
		case 0:
			got := s.Set(i)
			want := !model[i]
			if got != want {
				t.Fatalf("op %d: Set(%d) changed=%v, want %v", op, i, got, want)
			}
			model[i] = true
		case 1:
			got := s.Unset(i)
			want := model[i]
			if got != want {
				t.Fatalf("op %d: Unset(%d) changed=%v, want %v", op, i, got, want)
			}
			delete(model, i)
		case 2:
			if s.Test(i) != model[i] {
				t.Fatalf("op %d: Test(%d) = %v, want %v", op, i, s.Test(i), model[i])
			}
		}
		if s.Count() != uint64(len(model)) {
			t.Fatalf("op %d: Count = %d, want %d", op, s.Count(), len(model))
		}
	}
}

// checkSummary verifies every allocated chunk's non-zero-word summary and
// population count against its words.
func checkSummary(t *testing.T, s *Sparse) {
	t.Helper()
	s.chunks.Ascend(nil, func(ci uint64, c *chunk) bool {
		pop := 0
		for w, word := range c.words {
			pop += bits.OnesCount64(word)
			if got := c.nz[w/64]>>(w%64)&1 == 1; got != (word != 0) {
				t.Fatalf("chunk %d word %d = %#x but its summary bit is %v", ci, w, word, got)
			}
		}
		if pop != c.pop || pop == 0 {
			t.Fatalf("chunk %d holds %d bits, pop says %d (an empty chunk must be released)", ci, pop, c.pop)
		}
		return true
	})
}

// TestSummaryAndNextSetAgainstScan drives Set, Unset, the range operations
// and Clear at indices crowded around word and chunk edges, checking the
// summary after every operation and, at several densities from one bit to
// thousands, NextSet from every position against a scan of a dense model.
func TestSummaryAndNextSetAgainstScan(t *testing.T) {
	const span = 3*ChunkBits + 130
	rng := rand.New(rand.NewSource(11))
	s := New()
	model := make([]bool, span)
	index := func() uint64 {
		var i int
		switch rng.Intn(4) {
		case 0:
			i = rng.Intn(4)*ChunkBits + rng.Intn(5) - 2 // chunk edge
		case 1:
			i = rng.Intn(span/64)*64 + rng.Intn(5) - 2 // word edge
		case 2:
			i = rng.Intn(span/4096)*4096 + rng.Intn(5) - 2 // summary-word edge
		default:
			i = rng.Intn(span)
		}
		return uint64(min(max(i, 0), span-1))
	}
	sweep := func(op int) {
		t.Helper()
		next, ok := uint64(0), false // smallest set index >= i, scanning down
		for i := span - 1; i >= 0; i-- {
			if model[i] {
				next, ok = uint64(i), true
			}
			if got, found := s.NextSet(uint64(i)); found != ok || (ok && got != next) {
				t.Fatalf("op %d: NextSet(%d) = %d,%v, scan says %d,%v", op, i, got, found, next, ok)
			}
		}
		if got, found := s.NextSet(span); found {
			t.Fatalf("op %d: NextSet past the last index = %d", op, got)
		}
	}
	setRange := func(lo, hi uint64, v bool) (changed uint64) {
		for i := lo; i < hi; i++ {
			if model[i] != v {
				model[i] = v
				changed++
			}
		}
		return changed
	}
	for op := 1; op <= 6000; op++ {
		i := index()
		switch k := rng.Intn(16); {
		case k < 7:
			if got, want := s.Set(i), setRange(i, i+1, true) == 1; got != want {
				t.Fatalf("op %d: Set(%d) changed=%v, want %v", op, i, got, want)
			}
		case k < 12:
			if got, want := s.Unset(i), setRange(i, i+1, false) == 1; got != want {
				t.Fatalf("op %d: Unset(%d) changed=%v, want %v", op, i, got, want)
			}
		case k < 14:
			hi := min(i+uint64(rng.Intn(200)), span)
			if got, want := s.SetRange(i, hi), setRange(i, hi, true); got != want {
				t.Fatalf("op %d: SetRange(%d, %d) changed %d, want %d", op, i, hi, got, want)
			}
		default:
			hi := min(i+uint64(rng.Intn(70000)), span)
			if got, want := s.UnsetRange(i, hi), setRange(i, hi, false); got != want {
				t.Fatalf("op %d: UnsetRange(%d, %d) changed %d, want %d", op, i, hi, got, want)
			}
		}
		if op == 3000 {
			s.Clear()
			setRange(0, span, false)
		}
		checkSummary(t, s)
		switch op {
		case 1, 10, 100, 1000, 2999, 3000, 3001, 3010, 6000:
			sweep(op)
		}
	}
	var want uint64
	for _, set := range model {
		if set {
			want++
		}
	}
	if s.Count() != want {
		t.Fatalf("Count = %d, model holds %d", s.Count(), want)
	}
}

// TestQuickSetUnsetRoundTrip property: setting then unsetting any index
// sequence leaves the bitmap empty with zero chunks.
func TestQuickSetUnsetRoundTrip(t *testing.T) {
	f := func(idxs []uint32) bool {
		s := New()
		for _, i := range idxs {
			s.Set(uint64(i))
		}
		for _, i := range idxs {
			s.Unset(uint64(i))
		}
		return s.Count() == 0 && s.Chunks() == 0 && s.MemBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIterateMatchesCount property: iteration visits exactly Count()
// bits in strictly increasing order.
func TestQuickIterateMatchesCount(t *testing.T) {
	f := func(idxs []uint16) bool {
		s := New()
		for _, i := range idxs {
			s.Set(uint64(i))
		}
		var n uint64
		prev := uint64(0)
		first := true
		ok := true
		s.IterateSet(func(i uint64) bool {
			if !first && i <= prev {
				ok = false
				return false
			}
			prev, first = i, false
			n++
			return true
		})
		return ok && n == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAllSetMatchesTest property: AllSet(lo, hi) is true exactly when
// Test holds for every bit of [lo, hi). The bitmaps are set in long runs
// with a few holes, around word and chunk boundaries, over a span with
// absent chunks (chunk 3 is never touched), and the ranges probed start
// and end near those boundaries.
func TestAllSetMatchesTest(t *testing.T) {
	near := func(rng *rand.Rand) uint64 {
		base := uint64(rng.Intn(6)) * ChunkBits
		if rng.Intn(2) == 0 {
			base += uint64(rng.Intn(chunkWords)) * 64
		}
		// Within 65 bits either side of a word or chunk boundary.
		return uint64(max(0, int64(base)+int64(rng.Intn(130))-65))
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		for r := 0; r < 6; r++ {
			lo := near(rng)
			n := uint64(1 + rng.Intn(3*ChunkBits/2))
			if lo/ChunkBits == 3 {
				continue
			}
			hi := lo + n
			if lo < 3*ChunkBits && hi > 3*ChunkBits {
				hi = 3 * ChunkBits
			}
			s.SetRange(lo, hi)
		}
		for h := 0; h < rng.Intn(4); h++ {
			s.Unset(near(rng))
		}
		for probe := 0; probe < 300; probe++ {
			lo := near(rng)
			hi := lo + uint64(rng.Intn(200))
			if rng.Intn(8) == 0 {
				hi = lo + uint64(rng.Intn(3*ChunkBits))
			}
			want := true
			for i := lo; i < hi; i++ {
				if !s.Test(i) {
					want = false
					break
				}
			}
			if got := s.AllSet(lo, hi); got != want {
				t.Fatalf("seed %d: AllSet(%d, %d) = %v, per-bit Test says %v", seed, lo, hi, got, want)
			}
		}
	}
	if s := New(); !s.AllSet(7, 7) || s.AllSet(7, 8) {
		t.Error("an empty range must be all set, a bit of an empty bitmap must not")
	}
}

func BenchmarkSparseSet(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.Set(uint64(i) % (1 << 24))
	}
}

func BenchmarkSparseTest(b *testing.B) {
	s := New()
	for i := uint64(0); i < 1<<20; i += 2 {
		s.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Test(uint64(i) % (1 << 20))
	}
}

// BenchmarkSparseTestRuns is the done-bitmap access pattern of a block
// task under cache churn: short runs of neighbouring bits, alternating
// between two distant regions (the block of the page just evicted, the
// block of the page just added). Runs stay within a chunk, so all but
// the first test of each should skip the tree.
func BenchmarkSparseTestRuns(b *testing.B) {
	s := New()
	for i := uint64(0); i < 64*ChunkBits; i += 2 {
		s.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := uint64(i) / 16
		region := run % 2 * 37 * ChunkBits
		s.Test(region + run*8%ChunkBits + uint64(i)%8)
	}
}

// BenchmarkNextSetSparse is the allocator's size-class probe: the next
// set bit from a random position in a bitmap the size of a 2M-block
// device holding 1, 64 or 4096 run starts. With one bit set most probes
// cross a whole chunk of empty words, which the summary skips.
func BenchmarkNextSetSparse(b *testing.B) {
	const span = 64 * ChunkBits
	for _, set := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("set=%d", set), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			s := New()
			for s.Count() < uint64(set) {
				s.Set(uint64(rng.Intn(span)))
			}
			var probes [1024]uint64
			for k := range probes {
				probes[k] = uint64(rng.Intn(span))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink, _ = s.NextSet(probes[i%len(probes)])
			}
		})
	}
}

var sink uint64
