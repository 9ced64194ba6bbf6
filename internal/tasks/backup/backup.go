// Package backup implements the snapshot-based backup tool of §5.2.
//
// The tool backs up a read-only snapshot of a directory: it processes
// files in inode-number order and reads each file's snapshot blocks in
// 64 KiB chunks, sending the data to backup storage (a byte-counting
// sink; the paper measures I/O on the source device).
//
// The opportunistic version is a block task registered for Exists state
// notifications. Copy-on-write sharing means a foreground read of an
// unmodified live page brings the snapshot's block into memory; the task
// copies it to a private buffer out of order — after locking the page,
// checking it is clean, and confirming via back-references (here: block
// identity between live file and snapshot) that it still belongs to the
// snapshot — and marks the block done.
package backup

import (
	"fmt"

	"duet/internal/bitmap"
	"duet/internal/core"
	"duet/internal/cowfs"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/tasks"
)

// Owner labels the backup tool's device I/O.
const Owner = "backup"

// class is the backup tool's I/O priority: idle, like every maintenance
// task.
const class = storage.ClassIdle

// Config tunes the backup tool.
type Config struct {
	// ChunkPages is the read granularity (16 pages = the paper's 64 KiB).
	ChunkPages int
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config { return Config{ChunkPages: 16} }

// Sink receives backed-up data. The default sink only counts.
type Sink interface {
	// Send delivers n pages of one file to backup storage.
	Send(ino uint64, pages int)
}

// CountingSink tallies what was sent.
type CountingSink struct {
	Pages int64
}

// Send implements Sink.
func (c *CountingSink) Send(_ uint64, pages int) { c.Pages += int64(pages) }

// Backup backs up one snapshot.
type Backup struct {
	FS   *cowfs.FS
	Snap *cowfs.Snapshot
	Cfg  Config
	Out  Sink

	Duet    *core.Duet
	Adapter *core.CowAdapter

	Report tasks.Report

	session    *core.Session
	snapBlocks *bitmap.Sparse // blocks the snapshot references
	fetch      []core.Item
}

// New creates a baseline backup of the snapshot.
func New(fs *cowfs.FS, snap *cowfs.Snapshot, cfg Config) *Backup {
	if cfg.ChunkPages <= 0 {
		cfg.ChunkPages = 16
	}
	return &Backup{FS: fs, Snap: snap, Cfg: cfg, Out: &CountingSink{}, Report: tasks.Report{Name: "backup"}}
}

// NewOpportunistic creates a Duet-enabled backup.
func NewOpportunistic(fs *cowfs.FS, snap *cowfs.Snapshot, cfg Config, d *core.Duet, ad *core.CowAdapter) *Backup {
	b := New(fs, snap, cfg)
	b.Duet, b.Adapter = d, ad
	b.Report.Opportunistic = true
	return b
}

// Run backs up every file of the snapshot.
func (b *Backup) Run(p *sim.Proc) error {
	b.Report.Start = p.Now()
	defer b.Report.Settle(p)
	files := b.FS.FilesUnder(b.Snap.Root)
	b.Report.WorkTotal = b.Snap.Blocks
	b.fetch = make([]core.Item, 512)

	if b.Duet != nil {
		// Record the snapshot's block set so events can be matched.
		b.snapBlocks = bitmap.New()
		for _, f := range files {
			for _, e := range f.Extents {
				b.snapBlocks.SetRange(uint64(e.Phys), uint64(e.Phys+e.Len))
			}
		}
		sess, err := b.Duet.RegisterBlock(b.Adapter, core.StExists)
		if err != nil {
			return fmt.Errorf("backup: %w", err)
		}
		b.session = sess
		defer func() { _ = sess.Close() }()
		// Harvest continuously so cached blocks are copied even while the
		// sequential pass is starved waiting for idle-priority I/O.
		stop := false
		defer func() { stop = true }()
		p.Go("backup-harvester", func(hp *sim.Proc) {
			for !stop && !hp.Engine().Stopping() {
				hp.Sleep(20 * sim.Millisecond)
				b.harvest()
			}
		})
	}

	readsBefore := b.FS.Disk().Stats().Owner(Owner).BlocksRead
	for _, f := range files {
		if p.Engine().Stopping() {
			break
		}
		if err := b.backupFile(p, f); err != nil {
			return err
		}
		// Keep the report current so interrupted runs still carry their
		// I/O and timing.
		b.Report.ReadBlocks = b.FS.Disk().Stats().Owner(Owner).BlocksRead - readsBefore
		b.Report.End = p.Now()
	}
	b.Report.ReadBlocks = b.FS.Disk().Stats().Owner(Owner).BlocksRead - readsBefore
	b.Report.Completed = b.Report.WorkDone >= b.Report.WorkTotal
	b.Report.End = p.Now()
	return nil
}

// harvest drains Exists notifications and opportunistically copies cached
// snapshot blocks.
func (b *Backup) harvest() {
	if b.session == nil {
		return
	}
	for {
		n := b.session.FetchInto(b.fetch)
		if n == 0 {
			return
		}
		for _, it := range b.fetch[:n] {
			if !it.Flags.Has(core.StExists) {
				continue
			}
			blk := it.ID
			if !b.snapBlocks.Test(blk) || b.session.CheckDone(blk) {
				continue
			}
			// "Lock the page, check that it is not dirty, copy it to a
			// private buffer" (§5.2). A dirty page maps to a fresh COW
			// block, so a clean check suffices; verify against the cache
			// because the hint may be stale.
			_, dirty, cached := b.FS.Cache().Peek(pagecache.PageKey{FS: b.FS.ID(), Ino: it.PageIno, Index: it.PageIdx})
			if !cached || dirty {
				continue
			}
			// Back-reference check: the page must still map to this
			// snapshot-owned block.
			if cur, ok := b.Adapter.Fibmap(it.PageIno, it.PageIdx); !ok || uint64(cur) != blk {
				continue
			}
			b.Out.Send(it.PageIno, 1)
			b.session.SetDone(blk)
			b.Report.Saved++
			b.Report.WorkDone++
		}
	}
}

// backupFile reads the file's snapshot blocks chunk by chunk, skipping
// blocks already copied opportunistically.
func (b *Backup) backupFile(p *sim.Proc, f *cowfs.Inode) error {
	chunk := int64(b.Cfg.ChunkPages)
	for off := int64(0); off < f.SizePg; off += chunk {
		if p.Engine().Stopping() {
			return nil
		}
		b.harvest()
		end := off + chunk
		if end > f.SizePg {
			end = f.SizePg
		}
		// Collect the pages still needing I/O. Each run's blocks are
		// claimed in the done bitmap before the read so the concurrent
		// harvester never copies them a second time.
		runStart := int64(-1)
		flush := func(runEnd int64) error {
			if runStart < 0 {
				return nil
			}
			if b.session != nil {
				for idx := runStart; idx < runEnd; idx++ {
					if blk, ok := b.FS.Fibmap(f.Ino, idx); ok {
						b.session.SetDone(uint64(blk))
					}
				}
			}
			if err := b.FS.Read(p, f.Ino, runStart, runEnd-runStart, class, Owner); err != nil {
				return fmt.Errorf("backup: inode %d: %w", f.Ino, err)
			}
			b.Out.Send(uint64(f.Ino), int(runEnd-runStart))
			b.Report.WorkDone += runEnd - runStart
			runStart = -1
			return nil
		}
		for idx := off; idx < end; idx++ {
			blk, ok := b.FS.Fibmap(f.Ino, idx)
			todo := ok && (b.session == nil || !b.session.CheckDone(uint64(blk)))
			if todo {
				if runStart < 0 {
					runStart = idx
				}
				continue
			}
			if err := flush(idx); err != nil {
				return err
			}
		}
		if err := flush(end); err != nil {
			return err
		}
	}
	return nil
}
