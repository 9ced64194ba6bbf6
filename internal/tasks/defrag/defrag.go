// Package defrag implements the file defragmentation task of §5.3: it
// rewrites fragmented files into contiguous extents, processing files in
// inode-number order.
//
// The opportunistic defragmenter is a file task registered for Exists
// notifications. It keeps a priority queue of fragmented files ordered by
// the fraction of their pages currently in memory and processes the
// best-cached candidates out of order, exactly as Algorithm 1 sketches.
// The I/O saved is the pages found in memory (no read needed) plus pages
// the workload had already dirtied (their writeback would happen anyway).
package defrag

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

// Owner labels the defragmenter's device I/O.
const Owner = "defrag"

// class is the defragmenter's I/O priority: idle, like every maintenance
// task.
const class = storage.ClassIdle

// Config tunes the defragmenter.
type Config struct {
	// Threshold is the extent count above which a file is defragmented.
	Threshold int
}

// DefaultConfig returns the standard settings.
func DefaultConfig() Config {
	return Config{Threshold: cowfs.FragmentationThreshold}
}

// Defrag defragments the files under one directory.
type Defrag struct {
	FS   *cowfs.FS
	Root cowfs.Ino
	Cfg  Config

	Duet    *core.Duet
	Adapter *core.CowAdapter

	Report tasks.Report
	// PagesWritten is the relocation writeback the task caused (all pages
	// of every defragmented file).
	PagesWritten int64
	// PagesAlreadyDirty counts write savings (§6.2).
	PagesAlreadyDirty int64

	session *core.Session
	tracker *duetlib.FileTracker
	pq      *duetlib.PrioQueue
	targets map[uint64]*cowfs.Inode
}

// New creates a baseline defragmenter.
func New(fs *cowfs.FS, root cowfs.Ino, cfg Config) *Defrag {
	if cfg.Threshold <= 0 {
		cfg.Threshold = cowfs.FragmentationThreshold
	}
	return &Defrag{FS: fs, Root: root, Cfg: cfg, Report: tasks.Report{Name: "defrag"}}
}

// NewOpportunistic creates a Duet-enabled defragmenter.
func NewOpportunistic(fs *cowfs.FS, root cowfs.Ino, cfg Config, d *core.Duet, ad *core.CowAdapter) *Defrag {
	df := New(fs, root, cfg)
	df.Duet, df.Adapter = d, ad
	df.Report.Opportunistic = true
	return df
}

// Run defragments every file that exceeds the threshold at start time.
func (df *Defrag) Run(p *sim.Proc) error {
	df.Report.Start = p.Now()
	defer df.Report.Settle(p)
	files := df.FS.FilesUnder(df.Root)
	df.targets = make(map[uint64]*cowfs.Inode)
	var order []*cowfs.Inode
	for _, f := range files {
		if len(f.Extents) > df.Cfg.Threshold {
			df.targets[uint64(f.Ino)] = f
			order = append(order, f)
			df.Report.WorkTotal += f.SizePg
		}
	}

	if df.Duet != nil {
		sess, err := df.Duet.RegisterFile(df.Adapter, uint64(df.Root), core.StExists)
		if err != nil {
			return fmt.Errorf("defrag: %w", err)
		}
		df.session = sess
		defer func() { _ = sess.Close() }()
		df.tracker = duetlib.NewFileTracker()
		df.pq = duetlib.NewPrioQueue()
	}

	for _, f := range order {
		if p.Engine().Stopping() {
			return nil
		}
		// Opportunistic pass first: drain the queue of well-cached files.
		df.handleQueued(p)
		if df.session != nil && df.session.CheckDone(uint64(f.Ino)) {
			continue
		}
		if err := df.defragOne(p, f); err != nil {
			return err
		}
		if df.session != nil {
			duetlib.SetDone(df.session, df.tracker, uint64(f.Ino))
		}
	}
	df.Report.Completed = true
	for _, f := range order {
		if df.FS.FragmentedExtents(f.Ino) > df.Cfg.Threshold {
			df.Report.Completed = false
		}
	}
	df.Report.End = p.Now()
	return nil
}

// prio orders candidates by the fraction of their pages in memory (§5.3);
// non-targets are excluded by marking them done when first seen.
func (df *Defrag) prio(ino uint64, t *duetlib.FileTracker) float64 {
	f, isTarget := df.targets[ino]
	if !isTarget {
		duetlib.SetDone(df.session, df.tracker, ino)
		return 0
	}
	cached := t.CachedPages(ino)
	if cached == 0 || f.SizePg == 0 {
		return 0
	}
	return float64(cached) / float64(f.SizePg)
}

func (df *Defrag) handleQueued(p *sim.Proc) {
	if df.session == nil {
		return
	}
	duetlib.HandleQueued(df.session, df.tracker, df.pq, df.prio, func(ino uint64) bool {
		f := df.targets[ino]
		if f == nil {
			return true
		}
		if err := df.defragOne(p, f); err != nil {
			return false
		}
		duetlib.SetDone(df.session, df.tracker, ino)
		return !p.Engine().Stopping()
	})
}

func (df *Defrag) defragOne(p *sim.Proc, f *cowfs.Inode) error {
	res, err := df.FS.DefragFile(p, f.Ino, class, Owner)
	if errors.Is(err, cowfs.ErrNotFound) {
		// The workload deleted the file while it was queued — "a
		// defragmentation task in a copy-on-write file system can simply
		// ignore an overwritten file that it was planning to defragment"
		// (§3.1). Its work disappears from the list.
		df.Report.WorkTotal -= f.SizePg
		delete(df.targets, uint64(f.Ino))
		return nil
	}
	if err != nil {
		return fmt.Errorf("defrag: inode %d: %w", f.Ino, err)
	}
	df.Report.WorkDone += res.PagesTotal
	df.Report.ReadBlocks += res.PagesRead
	df.Report.Saved += (res.PagesTotal - res.PagesRead) + res.AlreadyDirty
	df.PagesWritten += res.PagesTotal
	df.PagesAlreadyDirty += res.AlreadyDirty
	return nil
}
