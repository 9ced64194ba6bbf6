package bitmap

import (
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
