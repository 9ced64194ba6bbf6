package cowfs

import (
	"fmt"

	"duet/internal/sim"
	"duet/internal/storage"
)

// Snapshots. A snapshot clones a directory subtree into a new, read-only
// set of inodes whose extents share blocks with the live tree through
// reference counts. When the live tree overwrites a page, copy-on-write
// gives the live file new blocks and the snapshot keeps the old ones —
// the sharing break the backup experiments revolve around (§5.2, §6.2).

// Snapshot describes a created snapshot.
type Snapshot struct {
	Name    string
	Root    Ino    // root directory of the snapshot subtree
	Gen     uint64 // filesystem generation at creation
	FromIno Ino    // the live directory that was snapshotted
	// LiveToSnap maps live inode numbers to their snapshot counterparts
	// at creation time.
	LiveToSnap map[Ino]Ino
	// Blocks is the number of file-data blocks referenced by the snapshot.
	Blocks int64
}

// CreateSnapshot clones the subtree at srcPath to dstPath. Dirty pages of
// the source are written back first so the snapshot is consistent, as
// Btrfs commits before snapshotting. The returned Snapshot records the
// live-to-snapshot inode mapping used by the backup task.
func (fs *FS) CreateSnapshot(p *sim.Proc, srcPath, dstPath string) (*Snapshot, error) {
	src, err := fs.Lookup(srcPath)
	if err != nil {
		return nil, err
	}
	if !src.Dir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, srcPath)
	}
	// Commit: flush the subtree's dirty pages so the medium matches the
	// versions the snapshot captures.
	for _, f := range fs.FilesUnder(src.Ino) {
		if err := fs.cache.SyncFile(p, fs.id, uint64(f.Ino)); err != nil {
			return nil, fmt.Errorf("cowfs: snapshot commit: %w", err)
		}
	}

	dst, err := fs.create(dstPath, true)
	if err != nil {
		return nil, err
	}
	fs.gen++
	snap := &Snapshot{
		Name:       dstPath,
		Root:       dst.Ino,
		Gen:        fs.gen,
		FromIno:    src.Ino,
		LiveToSnap: make(map[Ino]Ino),
	}
	var clone func(liveDir, snapDir *Inode)
	clone = func(liveDir, snapDir *Inode) {
		for _, c := range fs.ChildrenSorted(liveDir) {
			n := fs.newInode(c.Name, snapDir.Ino, c.Dir)
			fs.dirAdd(snapDir, c.Name, n.Ino)
			snap.LiveToSnap[c.Ino] = n.Ino
			if c.Dir {
				clone(c, n)
				continue
			}
			n.SizePg = c.SizePg
			n.Gen = c.Gen
			n.Extents = append([]Extent(nil), c.Extents...)
			n.PageVers = append([]uint32(nil), c.PageVers...)
			for _, e := range c.Extents {
				for b := e.Phys; b < e.Phys+e.Len; b++ {
					fs.ref(b)
				}
				snap.Blocks += e.Len
			}
		}
	}
	clone(src, dst)
	return snap, nil
}

// DeleteSnapshot removes a snapshot subtree, dropping its block
// references.
func (fs *FS) DeleteSnapshot(s *Snapshot) error {
	path, err := fs.PathOf(s.Root)
	if err != nil {
		return err
	}
	return fs.DeleteTree(path)
}

// SharedWithSnapshot reports whether the live file page still maps to the
// same physical block the snapshot references — i.e. the page has not
// been modified since the snapshot. This is the back-reference check the
// opportunistic backup performs before copying a cached page (§5.2).
func (fs *FS) SharedWithSnapshot(s *Snapshot, liveIno Ino, idx int64) bool {
	snapIno, ok := s.LiveToSnap[liveIno]
	if !ok {
		return false
	}
	lb, lok := fs.Fibmap(liveIno, idx)
	sb, sok := fs.Fibmap(snapIno, idx)
	return lok && sok && lb == sb
}

// --- defragmentation support ---------------------------------------------

// FragmentedExtents returns the number of extents of a file; 1 means
// fully contiguous.
func (fs *FS) FragmentedExtents(ino Ino) int {
	i, ok := fs.inodes[ino]
	if !ok || i.Dir {
		return 0
	}
	return len(i.Extents)
}

// DefragResult reports the I/O composition of one file defragmentation.
type DefragResult struct {
	PagesTotal   int64 // file size: every page is rewritten
	PagesRead    int64 // pages that required device reads (cache misses)
	AlreadyDirty int64 // pages the workload had dirtied anyway (their
	// writeback would have happened regardless, so the paper counts them
	// as write savings, §6.2)
}

// DefragFile rewrites a file into (ideally) a single contiguous extent:
// all pages are brought into memory (device reads for the misses), a new
// contiguous region is allocated, and the pages are dirtied so writeback
// lands them sequentially, as the in-kernel Btrfs defragmenter does
// (§5.3). The total I/O is reads for non-cached pages plus one write per
// page.
func (fs *FS) DefragFile(p *sim.Proc, ino Ino, class storage.Class, owner string) (DefragResult, error) {
	var res DefragResult
	i, ok := fs.inodes[ino]
	if !ok {
		return res, fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	if i.Dir {
		return res, fmt.Errorf("%w: inode %d", ErrIsDir, ino)
	}
	if i.SizePg == 0 {
		return res, nil
	}
	res.PagesTotal = i.SizePg
	// Count pages the workload had already dirtied.
	for idx := int64(0); idx < i.SizePg; idx++ {
		if _, dirty, _ := fs.cache.Peek(fs.pageKey(ino, idx)); dirty {
			res.AlreadyDirty++
		}
	}
	// Phase 1: bring every page into memory, counting the misses.
	missed, err := fs.ReadCount(p, ino, 0, i.SizePg, class, owner)
	if err != nil {
		return res, err
	}
	res.PagesRead = missed

	// Phase 2: relocate. Allocate a fresh contiguous region, retarget the
	// extent map, and dirty the pages (same content version — defrag does
	// not change data) so the flusher writes them out sequentially.
	if !fs.fitsAfterSplice(i, 0, i.SizePg, i.SizePg) {
		return res, fmt.Errorf("cowfs: defragment inode %d: %w", ino, ErrNoSpace)
	}
	fs.gen++
	i.Gen = fs.gen
	fs.spliceOut(i, 0, i.SizePg)
	rb := fs.getRunBuf()
	defer fs.putRunBuf(rb)
	runs, err := fs.allocate(i.SizePg, 0, rb.runs)
	rb.runs = runs
	if err != nil {
		return res, err
	}
	logical := int64(0)
	for _, r := range runs {
		i.Extents = insertExtent(i.Extents, Extent{Logical: logical, Phys: r.phys, Len: r.len, Gen: fs.gen})
		for k := int64(0); k < r.len; k++ {
			fs.want[r.phys+k] = i.PageVers[logical+k]
			fs.rev[r.phys+k] = newRev(ino)
		}
		logical += r.len
	}
	fs.dirtyRuns(p, i, 0, runs)
	fs.SetWritebackTag(ino, class, owner)
	return res, nil
}
