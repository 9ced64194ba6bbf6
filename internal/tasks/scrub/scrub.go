// Package scrub implements the filesystem scrubber of §5.1: a background
// pass that reads every allocated block and verifies it against its
// stored checksum, protecting against silent data corruption.
//
// The baseline scrubber reads all allocated blocks sequentially (by
// physical position, the "Btrfs extent key" order of Table 3). The
// opportunistic scrubber additionally registers with Duet for
// Added ∨ Dirtied page events: a page brought into memory was verified by
// the filesystem's read path, so its block is marked scrubbed; a dirtied
// page's block is unmarked because the new checksum must be re-verified.
package scrub

import (
	"errors"
	"fmt"

	"duet/internal/bitmap"
	"duet/internal/core"
	"duet/internal/cowfs"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/tasks"
)

// Owner labels the scrubber's device I/O.
const Owner = "scrub"

// class is the scrubber's I/O priority: idle, like every maintenance task.
const class = storage.ClassIdle

// Config tunes the scrubber.
type Config struct {
	// ChunkBlocks is the sequential read granularity (default 64 blocks
	// = 256 KiB). Larger chunks read faster when the device is idle but
	// stall foreground arrivals for the whole request; 256 KiB keeps the
	// workload-latency impact small (§6.1.3).
	ChunkBlocks int
	// MaxQueue, when positive, overrides the Duet session's bounded
	// fetch queue (the robustness experiments shrink it to force the
	// degraded-mode fallback; zero keeps core.DefaultMaxItems).
	MaxQueue int
}

// DefaultConfig returns the standard scrubber settings.
func DefaultConfig() Config {
	return Config{ChunkBlocks: 64}
}

// Scrubber scans one cowfs filesystem.
type Scrubber struct {
	FS  *cowfs.FS
	Cfg Config
	// Duet and Adapter enable opportunistic mode when both are non-nil.
	Duet    *core.Duet
	Adapter *core.CowAdapter

	Report tasks.Report

	session *core.Session
	cursor  int64
	fetch   []core.Item
	// eventDone tracks blocks marked scrubbed on event evidence alone (no
	// device read by us). When the session turns lossy those marks are the
	// ones that can no longer be trusted: the degraded-mode fallback
	// unmarks them inside the suspect range so the sequential scan
	// re-covers them.
	eventDone *bitmap.Sparse
}

// New creates a baseline scrubber.
func New(fs *cowfs.FS, cfg Config) *Scrubber {
	if cfg.ChunkBlocks <= 0 {
		cfg.ChunkBlocks = 64
	}
	return &Scrubber{FS: fs, Cfg: cfg, Report: tasks.Report{Name: "scrub"}}
}

// NewOpportunistic creates a Duet-enabled scrubber.
func NewOpportunistic(fs *cowfs.FS, cfg Config, d *core.Duet, ad *core.CowAdapter) *Scrubber {
	s := New(fs, cfg)
	s.Duet, s.Adapter = d, ad
	s.Report.Opportunistic = true
	return s
}

// Run performs one full scrub pass. It returns early with an error only
// on unexpected failures; detected corruptions are counted (and repaired
// if configured).
func (s *Scrubber) Run(p *sim.Proc) error {
	s.Report.Start = p.Now()
	defer s.Report.Settle(p)
	s.Report.WorkTotal = s.FS.AllocatedBlocks()
	s.fetch = make([]core.Item, 512)

	if s.Duet != nil {
		sess, err := s.Duet.RegisterBlock(s.Adapter, core.EvtAdded|core.EvtDirtied)
		if err != nil {
			return fmt.Errorf("scrub: %w", err)
		}
		s.session = sess
		if s.Cfg.MaxQueue > 0 {
			sess.MaxItems = s.Cfg.MaxQueue
		}
		s.eventDone = bitmap.New()
		defer func() { _ = sess.Close() }()
		// Harvest continuously: even while the scan is starved waiting
		// for idle-priority I/O, workload events keep marking blocks
		// scrubbed (the paper's tasks fetch many times per second, §6.4).
		stop := false
		defer func() { stop = true }()
		p.Go("scrub-harvester", func(hp *sim.Proc) {
			for !stop && !hp.Engine().Stopping() {
				hp.Sleep(20 * sim.Millisecond)
				s.harvest()
			}
		})
	}

	nb := s.FS.Disk().Blocks()
	chunk := int64(s.Cfg.ChunkBlocks)
	readsBefore := s.FS.Disk().Stats().Owner(Owner).BlocksRead
	for s.cursor = 0; s.cursor < nb; s.cursor += chunk {
		if p.Engine().Stopping() {
			break
		}
		s.harvest()
		end := s.cursor + chunk
		if end > nb {
			end = nb
		}
		if err := s.scrubChunk(p, s.cursor, end); err != nil {
			return err
		}
		// Keep the report current so interrupted runs still carry their
		// I/O and timing.
		s.Report.ReadBlocks = s.FS.Disk().Stats().Owner(Owner).BlocksRead - readsBefore
		s.Report.End = p.Now()
	}
	s.Report.ReadBlocks = s.FS.Disk().Stats().Owner(Owner).BlocksRead - readsBefore
	s.Report.Completed = s.cursor >= nb
	s.Report.End = p.Now()
	return nil
}

// harvest drains Duet events: freshly cached pages were verified on read
// (mark scrubbed), dirtied pages need re-verification (unmark, if not
// already passed by the sequential scan).
func (s *Scrubber) harvest() {
	if s.session == nil {
		return
	}
	if lo, hi, ok := s.session.TakeDegradedRange(); ok {
		s.degradedFallback(lo, hi)
	}
	for {
		n := s.session.FetchInto(s.fetch)
		if n == 0 {
			return
		}
		// Only blocks strictly ahead of the current chunk matter: the
		// scan has already claimed everything at or below it.
		ahead := s.cursor + int64(s.Cfg.ChunkBlocks)
		for _, it := range s.fetch[:n] {
			blk := it.ID
			if it.Flags.Has(core.EvtDirtied) {
				// Re-verify only if the scan has not passed it yet;
				// otherwise the next scrub cycle picks it up (§6.2).
				if int64(blk) >= ahead {
					s.session.UnsetDone(blk)
					s.eventDone.Unset(blk)
				}
				continue
			}
			if it.Flags.Has(core.EvtAdded) {
				// Verified by the filesystem read path.
				if int64(blk) >= ahead && !s.session.CheckDone(blk) {
					s.session.SetDone(blk)
					s.eventDone.Set(blk)
					s.Report.Saved++
					s.Report.WorkDone++
				}
			}
		}
	}
}

// degradedFallback compensates for a lossy session: event-based done
// marks inside the suspect range [lo, hi] are no longer trustworthy
// (a Dirtied notification for them may have been dropped), so they are
// returned to the sequential scan. Blocks the scan already claimed keep
// their marks — the scan read them itself — and, as with late dirtying,
// the next scrub cycle covers anything behind the cursor.
func (s *Scrubber) degradedFallback(lo, hi uint64) {
	s.Report.Degraded++
	if nb := uint64(s.FS.Disk().Blocks()); hi >= nb {
		hi = nb - 1
	}
	if ahead := uint64(s.cursor + int64(s.Cfg.ChunkBlocks)); lo < ahead {
		lo = ahead
	}
	for b, ok := s.eventDone.NextSet(lo); ok && b <= hi; b, ok = s.eventDone.NextSet(b + 1) {
		s.eventDone.Unset(b)
		s.session.UnsetDone(b)
		s.Report.Saved--
		s.Report.WorkDone--
		s.Report.RescanBlocks++
	}
}

// scrubChunk verifies the allocated, not-yet-done blocks in [lo, hi),
// coalescing them into large sequential reads. Each run is claimed in the
// done bitmap before its read is issued so the concurrent harvester never
// double-counts it.
func (s *Scrubber) scrubChunk(p *sim.Proc, lo, hi int64) error {
	runStart := int64(-1)
	flush := func(end int64) error {
		if runStart < 0 {
			return nil
		}
		if s.session != nil {
			for b := runStart; b < end; b++ {
				s.session.SetDone(uint64(b))
			}
		}
		err := s.FS.VerifyRange(p, runStart, int(end-runStart), class, Owner)
		if err != nil {
			if !errors.Is(err, cowfs.ErrCorruption) && !errors.Is(err, storage.ErrBadBlock) {
				return err
			}
			if err2 := s.rescueRun(p, runStart, end); err2 != nil {
				return err2
			}
		}
		s.Report.WorkDone += end - runStart
		runStart = -1
		return nil
	}
	for b := lo; b < hi; b++ {
		todo := s.FS.Allocated(b) && (s.session == nil || !s.session.CheckDone(uint64(b)))
		if todo {
			if runStart < 0 {
				runStart = b
			}
			continue
		}
		if err := flush(b); err != nil {
			return err
		}
	}
	return flush(hi)
}

// rescueRun re-verifies a failed run block by block, counting and
// repairing the corrupted ones. Both silent corruption (checksum
// mismatch) and latent sector errors (unreadable blocks) land here.
func (s *Scrubber) rescueRun(p *sim.Proc, lo, hi int64) error {
	for b := lo; b < hi; b++ {
		if !s.FS.Allocated(b) {
			continue
		}
		_, err := s.FS.VerifyBlock(p, b, class, Owner)
		if err == nil {
			continue
		}
		if !errors.Is(err, cowfs.ErrCorruption) && !errors.Is(err, storage.ErrBadBlock) {
			return err
		}
		s.Report.Errors++
		if err := s.FS.RepairBlock(p, b, class, Owner); err != nil {
			return fmt.Errorf("scrub: repair block %d: %w", b, err)
		}
	}
	return nil
}
