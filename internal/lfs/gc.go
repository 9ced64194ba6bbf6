package lfs

import (
	"slices"

	"duet/internal/sim"
	"duet/internal/storage"
)

// Garbage collection (§5.4). The cleaner runs in the background when the
// device is idle — or urgently when free segments run low — examines a
// window of up to GCConfig.WindowSegs candidate segments (F2fs cycles
// through 4096 at a time rather than all segments), and cleans the one
// with the minimum cost. Cleaning reads the victim's valid blocks —
// skipping any that are already in the page cache — and re-dirties them so
// writeback appends them to the log, freeing the victim.
//
// The cost function is pluggable: the baseline uses the valid-block count
// with an age tiebreak; the Duet-enabled collector (internal/tasks/gc)
// substitutes valid − cached/2, weighting reads and writes equally as the
// paper does.

// CostFunc scores a candidate segment; the minimum-cost segment is
// cleaned. Return a negative value to exclude a segment.
type CostFunc func(fs *FS, segIdx int) float64

// BaselineCost is the default victim cost: the number of valid blocks
// that must be moved, with older segments slightly preferred (the F2fs
// cost-benefit flavour: moving cold data is more profitable).
func BaselineCost(fs *FS, segIdx int) float64 {
	seg := fs.segs[segIdx]
	// Age discount: a segment untouched for longer gets a small bonus,
	// bounded so valid-count dominates.
	age := (fs.eng.Now() - seg.Mtime).Seconds()
	bonus := age / (age + 60)
	return float64(seg.Valid) - bonus
}

// GCConfig tunes the cleaner.
type GCConfig struct {
	// Interval between idle checks.
	Interval sim.Time
	// IdleAfter: the device must have seen no normal-class completion for
	// this long before background cleaning runs.
	IdleAfter sim.Time
	// UrgentFreeSegs triggers cleaning regardless of idleness when free
	// segments drop to or below this count.
	UrgentFreeSegs int
	// WindowSegs is how many candidate segments are examined per pass
	// (F2fs uses 4096).
	WindowSegs int
	// MaxValidFrac excludes nearly-full segments (cleaning them moves a
	// lot for little gain).
	MaxValidFrac float64
	// Cost scores candidates; nil means BaselineCost.
	Cost CostFunc
	// Owner labels the cleaner's device I/O.
	Owner string
}

// DefaultGCConfig returns cleaner parameters scaled for simulation runs.
func DefaultGCConfig() GCConfig {
	return GCConfig{
		Interval:       200 * sim.Millisecond,
		IdleAfter:      20 * sim.Millisecond,
		UrgentFreeSegs: 4,
		WindowSegs:     4096,
		MaxValidFrac:   0.95,
		Cost:           nil,
		Owner:          "gc",
	}
}

// CleanRecord describes one completed segment cleaning.
type CleanRecord struct {
	Start, Duration sim.Time
	SegIdx          int
	BlocksMoved     int
	BlocksRead      int
	BlocksCached    int
	Urgent          bool
}

// GC is the background cleaner.
type GC struct {
	fs     *FS
	cfg    GCConfig
	cursor int
	// Records holds one entry per cleaned segment (Table 6's cleaning
	// times are computed from these).
	Records []CleanRecord
	stopped bool

	// Scratch reused across cleans. One cleaner process per GC handle, so
	// plain fields are safe even though clean blocks on device I/O.
	all    []gcMove
	toRead []gcMove
	inos   []Ino
}

type gcMove struct {
	ino   Ino
	idx   int64
	block int64
}

// StartGC launches the cleaner process and returns its handle.
func (fs *FS) StartGC(cfg GCConfig) *GC {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultGCConfig().Interval
	}
	if cfg.WindowSegs <= 0 {
		cfg.WindowSegs = 4096
	}
	if cfg.MaxValidFrac <= 0 {
		cfg.MaxValidFrac = 0.95
	}
	if cfg.Cost == nil {
		cfg.Cost = BaselineCost
	}
	if cfg.Owner == "" {
		cfg.Owner = "gc"
	}
	g := &GC{fs: fs, cfg: cfg}
	fs.eng.Go("lfs-gc", g.run)
	return g
}

// Stop halts the cleaner after its current pass.
func (g *GC) Stop() { g.stopped = true }

func (g *GC) run(p *sim.Proc) {
	for !g.stopped {
		p.Sleep(g.cfg.Interval)
		urgent := g.fs.FreeSegments() <= g.cfg.UrgentFreeSegs
		if !urgent && !g.deviceIdle(p) {
			continue
		}
		victim, ok := g.pickVictim()
		if !ok {
			continue
		}
		g.clean(p, victim, urgent)
	}
}

func (g *GC) deviceIdle(p *sim.Proc) bool {
	d := g.fs.disk
	return d.QueueDepth() == 0 && p.Now()-d.LastNormalCompletion() >= g.cfg.IdleAfter
}

// pickVictim returns the minimum-cost cleanable segment within the
// cursor's window. Candidates come from the valid-count buckets, so the
// pass walks only SegFull segments with 1..maxValid valid blocks instead
// of scoring every segment slot in the window. Ties on cost go to the
// segment closest to the cursor, which is exactly what the old linear
// scan's keep-first rule selected.
func (g *GC) pickVictim() (int, bool) {
	n := g.fs.Segments()
	window := g.cfg.WindowSegs
	if window > n {
		window = n
	}
	best, bestCost, bestPos := -1, 0.0, 0
	maxValid := int(float64(g.fs.cfg.SegBlocks) * g.cfg.MaxValidFrac)
	if maxValid > g.fs.cfg.SegBlocks {
		maxValid = g.fs.cfg.SegBlocks
	}
	for v := 1; v <= maxValid; v++ {
		for si := g.fs.validBkt[v]; si >= 0; si = g.fs.segs[si].bktNext {
			pos := int(si) - g.cursor
			if pos < 0 {
				pos += n
			}
			if pos >= window {
				continue
			}
			c := g.cfg.Cost(g.fs, int(si))
			if c < 0 {
				continue
			}
			if best == -1 || c < bestCost || (c == bestCost && pos < bestPos) {
				best, bestCost, bestPos = int(si), c, pos
			}
		}
	}
	g.cursor = (g.cursor + window) % n
	if best == -1 {
		return 0, false
	}
	return best, true
}

// clean migrates the victim's valid blocks: cached blocks cost nothing to
// read; the rest are fetched from the device (coalesced, idle priority).
// All moved blocks are re-dirtied so writeback appends them to the log.
func (g *GC) clean(p *sim.Proc, si int, urgent bool) {
	fs := g.fs
	seg := fs.segs[si]
	start := p.Now()
	rec := CleanRecord{Start: start, SegIdx: si, Urgent: urgent}

	all := g.all[:0]
	toRead := g.toRead[:0]
	base := int64(si * fs.cfg.SegBlocks)
	for k, s := range seg.slots {
		if !s.valid {
			continue
		}
		m := gcMove{ino: s.ino, idx: s.idx, block: base + int64(k)}
		all = append(all, m)
		if fs.cache.Contains(fs.pageKey(s.ino, s.idx)) {
			rec.BlocksCached++
		} else {
			toRead = append(toRead, m)
		}
	}
	g.all, g.toRead = all, toRead
	// Read the missing blocks. The slot walk emits them in ascending block
	// order already, so runs within the segment coalesce without a sort.
	for s := 0; s < len(toRead); {
		e := s + 1
		for e < len(toRead) && toRead[e].block == toRead[e-1].block+1 {
			e++
		}
		class := storage.ClassIdle
		if urgent {
			class = storage.ClassNormal
		}
		if err := fs.disk.Read(p, toRead[s].block, e-s, class, g.cfg.Owner); err != nil {
			// Abandon this pass: the segment stays a candidate and is
			// re-picked later. Counted, not swallowed.
			fs.stats.GCReadErrors++
			if st := fs.obs; st != nil {
				st.tr.Instant(st.tid, "lfs", "gc-abandoned", p.Now())
			}
			return
		}
		for k := s; k < e; k++ {
			m := toRead[k]
			i, _ := fs.inode(m.ino)
			if i == nil || m.idx >= int64(len(i.blocks)) || i.blocks[m.idx] != m.block {
				continue // invalidated while we were reading
			}
			fs.cache.Insert(p, fs.pageKey(m.ino, m.idx), fs.diskVer[m.block])
		}
		s = e
	}
	rec.BlocksRead = len(toRead)
	// Mark everything dirty; writeback migrates it to the log head and
	// invalidates this segment's copies.
	for _, m := range all {
		i, _ := fs.inode(m.ino)
		if i == nil || m.idx >= int64(len(i.blocks)) || i.blocks[m.idx] != m.block {
			continue
		}
		key := fs.pageKey(m.ino, m.idx)
		if !fs.cache.Lookup(key) {
			fs.cache.Insert(p, key, i.vers[m.idx])
		}
		fs.cache.MarkDirty(key, i.vers[m.idx])
		rec.BlocksMoved++
	}
	if urgent {
		// Under pressure, push the migrated data out immediately so the
		// segment frees up; background cleaning leaves it to the flusher.
		// Sort-and-skip-duplicates yields the same ascending unique inode
		// order the old map-plus-sort produced, without the map.
		inos := g.inos[:0]
		for _, m := range all {
			inos = append(inos, m.ino)
		}
		slices.Sort(inos)
		g.inos = inos
		prev := Ino(0) // inode 0 is never allocated
		for _, ino := range inos {
			if ino == prev {
				continue
			}
			prev = ino
			if err := fs.cache.SyncFile(p, fs.id, uint64(ino)); err != nil {
				// The pages stay dirty (or quarantined) in the cache; the
				// segment stays partially valid and a later pass retries.
				fs.stats.GCSyncErrors++
			}
		}
	}
	rec.Duration = p.Now() - start
	g.Records = append(g.Records, rec)
	if st := fs.obs; st != nil {
		st.tr.SliceArg(st.tid, "lfs", "gc-clean", start, p.Now(), "moved", int64(rec.BlocksMoved))
	}
	fs.stats.SegsCleaned++
	fs.stats.GCBlocksMoved += int64(rec.BlocksMoved)
	fs.stats.GCBlocksRead += int64(rec.BlocksRead)
	fs.stats.GCBlocksCached += int64(rec.BlocksCached)
}

// MeanCleanTime returns the average cleaning duration across records,
// or 0 when none exist.
func (g *GC) MeanCleanTime() sim.Time {
	if len(g.Records) == 0 {
		return 0
	}
	var sum sim.Time
	for _, r := range g.Records {
		sum += r.Duration
	}
	return sum / sim.Time(len(g.Records))
}

// CachedValidBlocks counts the victim-relevant cache residency of a
// segment: valid blocks whose pages are currently cached. The baseline
// cost ignores this; the Duet cost uses its event-maintained counters
// instead, but tests use this ground truth for comparison.
func (fs *FS) CachedValidBlocks(segIdx int) int {
	seg := fs.segs[segIdx]
	n := 0
	for _, s := range seg.slots {
		if !s.valid {
			continue
		}
		if fs.cache.Contains(fs.pageKey(s.ino, s.idx)) {
			n++
		}
	}
	return n
}
