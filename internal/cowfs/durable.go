package cowfs

import (
	"fmt"
	"maps"
	"slices"

	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// Crash-consistent durability. A checkpoint is the COW transaction
// boundary: Commit flushes dirty data, snapshots the metadata of every
// fully-clean file, and only then releases blocks freed since the
// previous checkpoint back to the allocator. Deferring those frees is
// what makes the checkpoint crash-consistent — a block the last
// checkpoint references can never be reallocated (and therefore never
// overwritten) before the next checkpoint lands, exactly the rule
// Btrfs's transaction machinery enforces. A power cut at any instant
// then loses only unacknowledged (post-commit) updates: Remount
// rebuilds the filesystem from the checkpoint plus the untouched
// medium, and must pass CheckInvariants and a full checksum scrub.
//
// Durability is opt-in (EnableDurability): without it derefRange frees
// runs immediately and behavior is bit-for-bit the historical one.
//
// A commit's host cost follows what changed, not what exists. Checkpoint
// entries and maps are recycled (retire), so a steady commit loop
// allocates nothing; the drain marks only the entries that can hold a
// deferred block (drainDeferred); and whether a file is clean is one
// counter lookup in the cache (pagecache.FileDirty), not a page walk.

// cpFile is one file's committed metadata. Entries are immutable once
// taken: a checkpoint whose file was dirty carries the previous
// checkpoint's entry over by pointer.
type cpFile struct {
	ino      Ino
	name     string
	parent   Ino
	dir      bool
	sizePg   int64
	gen      uint64
	extents  []Extent
	pageVers []uint32
	children map[string]Ino // directories; an empty map may linger in a file's recycled entry
}

// checkpoint is the durable metadata image.
type checkpoint struct {
	gen     uint64
	nextIno Ino
	nextVer uint32
	files   map[Ino]*cpFile
	// carried lists the entries taken over from the previous checkpoint,
	// and deferredAt is FS.deferredRuns at the snapshot: together they let
	// drainDeferred mark only what can reference a deferred run.
	carried    []*cpFile
	deferredAt uint64
}

// snapshotFile copies an inode's committed view into an entry from the
// recycling pool, reusing the entry's slices and map.
func (fs *FS) snapshotFile(i *Inode) *cpFile {
	var f *cpFile
	if n := len(fs.cpPool) - 1; n >= 0 {
		f, fs.cpPool[n] = fs.cpPool[n], nil
		fs.cpPool = fs.cpPool[:n]
	} else {
		f = &cpFile{}
	}
	f.ino, f.name, f.parent, f.dir, f.sizePg, f.gen = i.Ino, i.Name, i.Parent, i.Dir, i.SizePg, i.Gen
	f.extents = append(f.extents[:0], i.Extents...)
	f.pageVers = append(f.pageVers[:0], i.PageVers...)
	clear(f.children)
	if i.Children != nil {
		if f.children == nil {
			f.children = make(map[string]Ino, len(i.Children))
		}
		for n, c := range i.Children {
			f.children[n] = c
		}
	}
	return f
}

// EnableDurability arms checkpointing and deferred frees, taking the
// initial checkpoint from the current state (which the caller should
// have synced). Harness code (machine.Machine, the fault experiments)
// calls this before running faulty workloads; the fault-free
// experiments never do, so their allocation sequence is unchanged.
func (fs *FS) EnableDurability() {
	if fs.durable != nil {
		return
	}
	fs.durable = fs.takeCheckpoint()
}

// DurabilityEnabled reports whether the filesystem checkpoints.
func (fs *FS) DurabilityEnabled() bool { return fs.durable != nil }

// takeCheckpoint snapshots every file that is durably clean. Files with
// dirty (or quarantined) pages keep their previous committed entry:
// their old blocks are still intact on the medium because deferred
// frees have not released them. The checkpoint reuses a retired one's
// map when there is one.
func (fs *FS) takeCheckpoint() *checkpoint {
	cp := fs.cpSpare
	if cp != nil {
		fs.cpSpare = nil
	} else {
		cp = &checkpoint{files: make(map[Ino]*cpFile, len(fs.inodes))}
	}
	cp.gen, cp.nextIno, cp.nextVer = fs.gen, fs.nextIno, fs.nextVer
	cp.carried = cp.carried[:0]
	cp.deferredAt = fs.deferredRuns
	for ino, i := range fs.inodes {
		// Quarantined pages count as dirty: their data never reached the
		// medium.
		if !i.Dir && fs.cache.FileDirty(fs.id, uint64(ino)) {
			if fs.durable != nil {
				if old, ok := fs.durable.files[ino]; ok {
					cp.files[ino] = old // carry the last committed view
					cp.carried = append(cp.carried, old)
				}
			}
			continue
		}
		cp.files[ino] = fs.snapshotFile(i)
	}
	return cp
}

// retire recycles a checkpoint that is no longer the durable one: the
// one a successful commit replaced, or the one a failed superblock write
// left unused. Its entries that the durable checkpoint does not share go
// back to the pool, and its cleared map becomes the next checkpoint's.
// An entry can live on in the durable checkpoint or in a commit still
// waiting on its superblock write, which may have carried it from the
// checkpoint it snapshotted against — so nothing is recycled while
// another commit is in flight. (A crash image holds a copy of its own.)
func (fs *FS) retire(dead *checkpoint) {
	if fs.commitsInFlight > 0 {
		return
	}
	for ino, f := range dead.files {
		if fs.durable.files[ino] != f {
			fs.cpPool = append(fs.cpPool, f)
		}
	}
	clear(dead.files)
	fs.cpSpare = dead
}

// Commit is the durability barrier: flush everything, snapshot the
// metadata, release deferred frees that the new checkpoint no longer
// references, and charge the superblock write. Data is "acknowledged
// durable" if and only if a Commit returning nil happened after it was
// written. Commit fails (and acknowledges nothing new) while any of
// this filesystem's pages are quarantined — their data is in memory
// only, and checkpointing around them would acknowledge state the
// medium cannot reproduce.
func (fs *FS) Commit(p *sim.Proc) error {
	if fs.durable == nil {
		return fmt.Errorf("cowfs: Commit without EnableDurability")
	}
	var commitStart sim.Time
	if fs.obs != nil {
		commitStart = p.Now()
	}
	// The file list is held across blocking syncs, so the scratch slice is
	// taken out of the FS for the duration: a commit that overlaps this one
	// in virtual time finds none and allocates its own.
	inos := fs.fileInos(fs.commitInos[:0])
	fs.commitInos = nil
	var firstErr error
	for _, ino := range inos {
		if err := fs.cache.SyncFile(p, fs.id, uint64(ino)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	fs.commitInos = inos
	if n := fs.quarantinedPages(); n > 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("cowfs: %d pages quarantined", n)
		}
		return fmt.Errorf("cowfs: commit aborted: %w", firstErr)
	}
	// Transient failures leave pages dirty; the checkpoint below simply
	// keeps those files' previous committed entries, so a sync error is
	// not fatal to the commit — it only narrows what gets acknowledged.
	cp := fs.takeCheckpoint()
	// Superblock/checkpoint-region write: the durability barrier costs a
	// device write like any real commit record.
	fs.commitsInFlight++
	err := fs.disk.Write(p, 0, 1, storage.ClassNormal, "commit")
	fs.commitsInFlight--
	if err != nil {
		fs.retire(cp)
		return fmt.Errorf("cowfs: checkpoint write: %w", err)
	}
	old := fs.durable
	fs.durable = cp
	fs.drainDeferred()
	fs.retire(old)
	fs.stats.Commits++
	if st := fs.obs; st != nil {
		st.tr.Slice(st.tid, "cowfs", "commit", commitStart, p.Now())
	}
	return nil
}

// quarantinedPages counts quarantined pages belonging to this fs.
func (fs *FS) quarantinedPages() int {
	fs.quarScratch = fs.cache.Quarantined(fs.quarScratch[:0])
	n := 0
	for _, k := range fs.quarScratch {
		if k.FS == fs.id {
			n++
		}
	}
	return n
}

// drainDeferred releases the deferred runs (alloc.go's release parks
// them with their checksums, reverse map and corruption markers intact,
// because the last checkpoint may still reference them) that the new
// checkpoint does not reference. Each run is split where the checkpoint's
// coverage changes: pieces a carried-over (dirty-file) checkpoint entry
// still points at remain deferred for another round, the rest return to
// the allocator as runs.
//
// Only entries that can reference a deferred run are marked. A run
// deferred before the snapshot had no references when the snapshot was
// taken, so no freshly snapshotted entry covers it: only the carried
// entries can. A run deferred after the snapshot — a file overwritten or
// deleted while Commit waited on its superblock write — can be covered by
// any fresh entry, so then the whole checkpoint is marked. Both ways the
// marks on the deferred runs, and so the drain, are the same.
func (fs *FS) drainDeferred() {
	if len(fs.deferredFree) == 0 {
		return
	}
	if fs.cpMark == nil {
		fs.cpMark = make([]bool, fs.disk.Blocks())
	}
	marked := fs.markScratch[:0]
	if cp := fs.durable; fs.deferredRuns == cp.deferredAt {
		for _, f := range cp.carried {
			marked = fs.markExtents(marked, f.extents)
		}
	} else {
		for _, f := range cp.files {
			marked = fs.markExtents(marked, f.extents)
		}
	}
	// A run can split into more kept pieces than runs consumed so far, so
	// the kept list is built in a second buffer and the two are swapped.
	kept := fs.deferredKept[:0]
	for _, r := range fs.deferredFree {
		for b, end := r.phys, r.phys+r.n; b < end; {
			held := fs.cpMark[b]
			e := b + 1
			for e < end && fs.cpMark[e] == held {
				e++
			}
			if held {
				kept = append(kept, blkRange{phys: b, n: e - b})
			} else {
				fs.freeRun(b, e-b)
				fs.deferredBlocks -= e - b
			}
			b = e
		}
	}
	fs.deferredFree, fs.deferredKept = kept, fs.deferredFree[:0]
	for _, b := range marked {
		fs.cpMark[b] = false
	}
	fs.markScratch = marked[:0]
}

// markExtents sets cpMark on the blocks of exts, appending each block it
// newly marks to marked.
func (fs *FS) markExtents(marked []int64, exts []Extent) []int64 {
	for _, e := range exts {
		for b := e.Phys; b < e.Phys+e.Len; b++ {
			if !fs.cpMark[b] {
				fs.cpMark[b] = true
				marked = append(marked, b)
			}
		}
	}
	return marked
}

// CrashImage is what survives a power cut: the last checkpoint (the
// durable metadata) and the medium (per-block content versions, silent
// corruption, grown bad blocks). Capture it after the engine stops;
// everything in memory — cache pages, in-flight writes, post-commit
// metadata — is gone by construction.
type CrashImage struct {
	cp        *checkpoint
	diskVer   []uint32
	corrupt   []uint64
	badBlocks []int64
}

// CrashImage captures the filesystem's durable state. The engine must
// be stopped: the image aliases the medium arrays of the dead instance.
// The durable checkpoint is copied, since its entries are recycled by
// later commits.
func (fs *FS) CrashImage() *CrashImage {
	if fs.durable == nil {
		panic("cowfs: CrashImage without EnableDurability")
	}
	cp := *fs.durable
	cp.files = make(map[Ino]*cpFile, len(fs.durable.files))
	cp.carried = nil
	for ino, f := range fs.durable.files {
		c := *f
		c.extents = slices.Clone(f.extents)
		c.pageVers = slices.Clone(f.pageVers)
		c.children = maps.Clone(f.children)
		cp.files[ino] = &c
	}
	img := &CrashImage{
		cp:        &cp,
		diskVer:   fs.diskVer,
		badBlocks: fs.disk.BadBlocks(),
	}
	fs.corrupt.IterateSet(func(b uint64) bool {
		img.corrupt = append(img.corrupt, b)
		return true
	})
	return img
}

// Remount rebuilds a filesystem from a crash image on a fresh engine,
// disk, and cache — the recovery half of Crash()/Recover(). Refcounts,
// checksums, and the free index are reconstructed from the checkpoint's
// extent maps; the medium state is transplanted; injected bad blocks
// are re-injected on the new disk. The caller should then run
// CheckInvariants and a full checksum scrub (machine.Recover does).
func Remount(e sim.Host, id pagecache.FSID, disk *storage.Disk, cache *pagecache.Cache, img *CrashImage) (*FS, error) {
	nb := disk.Blocks()
	if int64(len(img.diskVer)) != nb {
		return nil, fmt.Errorf("cowfs: remount on %d-block device, image has %d", nb, len(img.diskVer))
	}
	fs := New(e, id, disk, cache)
	cp := img.cp
	fs.gen = cp.gen + 1 // remount starts a new generation
	fs.nextIno = cp.nextIno
	fs.nextVer = cp.nextVer

	inos := make([]Ino, 0, len(cp.files))
	for ino := range cp.files {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	for _, ino := range inos {
		f := cp.files[ino]
		i := &Inode{
			Ino:    f.ino,
			Name:   f.name,
			Parent: f.parent,
			Dir:    f.dir,
			SizePg: f.sizePg,
			Gen:    f.gen,
		}
		i.Extents = append(i.Extents, f.extents...)
		i.PageVers = append(i.PageVers, f.pageVers...)
		if f.dir {
			i.Children = make(map[string]Ino, len(f.children))
			for n, c := range f.children {
				i.Children[n] = c
			}
		}
		fs.inodes[ino] = i
	}
	// Drop checkpointed children entries whose inode is missing from the
	// checkpoint (created-then-never-committed files inside a committed
	// directory cannot resurrect).
	for _, i := range fs.inodes {
		for name, c := range i.Children {
			if _, ok := fs.inodes[c]; !ok {
				delete(i.Children, name)
				i.namesOK = false
			}
		}
	}

	// Rebuild refcounts, checksums, and the reverse map from the extent
	// walk; then the free index covers exactly the zero-ref remainder.
	for _, ino := range inos {
		i := fs.inodes[ino]
		for _, e := range i.Extents {
			for k := int64(0); k < e.Len; k++ {
				b := e.Phys + k
				fs.ref(b)
				fs.want[b] = i.PageVers[e.Logical+k]
				fs.rev[b] = newRev(ino)
			}
		}
	}
	fs.free = newFreeIndex()
	fs.freeBlocks = 0
	runStart := int64(-1)
	for b := int64(0); b <= nb; b++ {
		free := b < nb && fs.refs[b] == 0
		if free && runStart < 0 {
			runStart = b
		}
		if !free && runStart >= 0 {
			fs.free.add(runStart, b-runStart)
			fs.freeBlocks += b - runStart
			runStart = -1
		}
	}

	copy(fs.diskVer, img.diskVer)
	for _, b := range img.corrupt {
		fs.corrupt.Set(b)
	}
	for _, b := range img.badBlocks {
		disk.InjectBadBlock(b)
	}
	fs.durable = fs.takeCheckpoint()
	return fs, nil
}
