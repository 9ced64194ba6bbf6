// Package avscan implements an anti-virus style scanner, the other
// maintenance task the paper's introduction motivates ("anti-virus scans
// in virtual machines cause I/O storms", §1). It is not one of the five
// tasks the paper modified, but it fits the opportunistic work model
// directly: scanning a file means reading all of it and matching
// signatures, the scan order is irrelevant, and a file that is already in
// memory can be scanned for free.
//
// The baseline scans files in inode-number order. The opportunistic
// scanner is a file task subscribed to Exists notifications that
// prioritizes files with the most pages in memory (Algorithm 1), and
// unmarks files that are modified before the pass reaches them.
package avscan

import (
	"errors"
	"fmt"

	"duet/internal/core"
	"duet/internal/cowfs"
	"duet/internal/duetlib"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/tasks"
)

// Owner labels the scanner's device I/O.
const Owner = "avscan"

// class is the scanner's I/O priority: idle, like the maintenance tasks.
const class = storage.ClassIdle

// Config tunes the scanner.
type Config struct {
	// SignatureCost is simulated CPU time per scanned page (signature
	// matching is compute-heavy; default 5µs/page).
	SignatureCost sim.Time
}

// DefaultConfig returns standard settings.
func DefaultConfig() Config {
	return Config{SignatureCost: 5 * sim.Microsecond}
}

// Scanner scans every file under a directory.
type Scanner struct {
	FS   *cowfs.FS
	Root cowfs.Ino
	Cfg  Config

	Duet    *core.Duet
	Adapter *core.CowAdapter

	// Infected marks inodes whose content should trigger a detection
	// (failure injection for tests; a real scanner matches content).
	Infected map[uint64]bool

	Report tasks.Report
	// Detections lists the infected inodes found.
	Detections []uint64

	session *core.Session
	tracker *duetlib.FileTracker
	pq      *duetlib.PrioQueue
	sizes   map[uint64]int64
}

// New creates a baseline scanner.
func New(fs *cowfs.FS, root cowfs.Ino, cfg Config) *Scanner {
	if cfg.SignatureCost <= 0 {
		cfg.SignatureCost = 5 * sim.Microsecond
	}
	return &Scanner{FS: fs, Root: root, Cfg: cfg, Report: tasks.Report{Name: "avscan"}}
}

// NewOpportunistic creates a Duet-enabled scanner.
func NewOpportunistic(fs *cowfs.FS, root cowfs.Ino, cfg Config, d *core.Duet, ad *core.CowAdapter) *Scanner {
	s := New(fs, root, cfg)
	s.Duet, s.Adapter = d, ad
	s.Report.Opportunistic = true
	return s
}

// Run scans every file that exists when the pass starts. Files modified
// after being scanned are left for the next pass, as with scrubbing.
func (s *Scanner) Run(p *sim.Proc) error {
	s.Report.Start = p.Now()
	defer s.Report.Settle(p)
	files := s.FS.FilesUnder(s.Root)
	s.sizes = make(map[uint64]int64, len(files))
	for _, f := range files {
		s.sizes[uint64(f.Ino)] = f.SizePg
		s.Report.WorkTotal += f.SizePg
	}

	if s.Duet != nil {
		sess, err := s.Duet.RegisterFile(s.Adapter, uint64(s.Root), core.StExists)
		if err != nil {
			return fmt.Errorf("avscan: %w", err)
		}
		s.session = sess
		defer func() { _ = sess.Close() }()
		s.tracker = duetlib.NewFileTracker()
		s.pq = duetlib.NewPrioQueue()
	}

	readsBefore := s.FS.Disk().Stats().Owner(Owner).BlocksRead
	for _, f := range files {
		if p.Engine().Stopping() {
			break
		}
		s.handleQueued(p)
		if s.session != nil && s.session.CheckDone(uint64(f.Ino)) {
			continue
		}
		if err := s.scanOne(p, f.Ino); err != nil {
			return err
		}
		if s.session != nil {
			duetlib.SetDone(s.session, s.tracker, uint64(f.Ino))
		}
		s.Report.ReadBlocks = s.FS.Disk().Stats().Owner(Owner).BlocksRead - readsBefore
		s.Report.End = p.Now()
	}
	s.Report.ReadBlocks = s.FS.Disk().Stats().Owner(Owner).BlocksRead - readsBefore
	s.Report.Completed = s.Report.WorkDone >= s.Report.WorkTotal
	s.Report.End = p.Now()
	return nil
}

// prio orders candidates by cached pages; unknown files (created after
// the pass started) are excluded by marking them done.
func (s *Scanner) prio(ino uint64, t *duetlib.FileTracker) float64 {
	if _, known := s.sizes[ino]; !known {
		duetlib.SetDone(s.session, s.tracker, ino)
		return 0
	}
	return float64(t.CachedPages(ino))
}

func (s *Scanner) handleQueued(p *sim.Proc) {
	if s.session == nil {
		return
	}
	duetlib.HandleQueued(s.session, s.tracker, s.pq, s.prio, func(ino uint64) bool {
		if _, known := s.sizes[ino]; !known {
			return true
		}
		if err := s.scanOne(p, cowfs.Ino(ino)); err != nil {
			return true // vanished or transient: the normal pass re-checks
		}
		duetlib.SetDone(s.session, s.tracker, ino)
		return !p.Engine().Stopping()
	})
}

// scanOne reads the whole file (cache hits are free) and "matches
// signatures" at the configured CPU cost per page.
func (s *Scanner) scanOne(p *sim.Proc, ino cowfs.Ino) error {
	size := s.sizes[uint64(ino)]
	missed, err := s.FS.ReadCount(p, ino, 0, size, class, Owner)
	if errors.Is(err, cowfs.ErrNotFound) {
		// Deleted before the pass reached it: its work disappears.
		s.Report.WorkTotal -= size
		delete(s.sizes, uint64(ino))
		return nil
	}
	if err != nil {
		return fmt.Errorf("avscan: inode %d: %w", ino, err)
	}
	if size > 0 {
		p.Sleep(s.Cfg.SignatureCost * sim.Time(size))
	}
	s.Report.WorkDone += size
	s.Report.Saved += size - missed
	if s.Infected[uint64(ino)] {
		s.Detections = append(s.Detections, uint64(ino))
		s.Report.Errors++
	}
	return nil
}
