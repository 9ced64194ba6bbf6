package cowfs

import (
	"math/rand"
	"testing"
)

// findFitScan is findFit without the successor probe: the bucket scan
// alone, which is the reference the probe must never disagree with.
func (fi *freeIndex) findFitScan(n, lo, hi int64) (at, avail int64, ok bool) {
	c0 := sizeClass(n)
	best := int64(-1)
	for c := c0 + 1; c < 64; c++ {
		b := fi.buckets[c]
		if b.Count() == 0 {
			continue
		}
		if s, found := b.NextSet(uint64(lo)); found && int64(s) < hi && (best < 0 || int64(s) < best) {
			best = int64(s)
		}
	}
	if b := fi.buckets[c0]; b.Count() > 0 {
		s, found := b.NextSet(uint64(lo))
		for found && int64(s) < hi && (best < 0 || int64(s) < best) {
			if l, _ := fi.runs.Get(int64(s)); l >= n {
				best = int64(s)
				break
			}
			s, found = b.NextSet(s + 1)
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	l, _ := fi.runs.Get(best)
	return best, l, true
}

// TestFindFitAgainstScan builds random free indexes — runs of every
// length class from 1 to 96 blocks separated by random gaps — and
// requires findFit to return exactly what the bucket scan returns for
// every request size and every [lo, hi) window, open-ended ones included.
func TestFindFitAgainstScan(t *testing.T) {
	const span = 160
	rng := rand.New(rand.NewSource(1))
	for state := 0; state < 24; state++ {
		fi := newFreeIndex()
		maxRun := int64(1) << (state % 7) // 1 .. 64, then wrap
		for b := int64(rng.Intn(4)); b < span; {
			l := rng.Int63n(maxRun+int64(state%3)*16) + 1
			if b+l > span {
				l = span - b
			}
			fi.add(b, l)
			b += l + rng.Int63n(6) + 1 // a gap keeps runs non-adjacent
		}
		for n := int64(1); n <= 100; n++ {
			for lo := int64(0); lo <= span; lo++ {
				for _, hi := range []int64{lo + 1, lo + 7, lo + 40, span, int64(1) << 62} {
					if hi <= lo {
						continue
					}
					at, avail, ok := fi.findFit(n, lo, hi)
					wat, wavail, wok := fi.findFitScan(n, lo, hi)
					if at != wat || avail != wavail || ok != wok {
						t.Fatalf("state %d: findFit(%d, %d, %d) = (%d, %d, %v), scan says (%d, %d, %v)",
							state, n, lo, hi, at, avail, ok, wat, wavail, wok)
					}
				}
			}
		}
	}
}
