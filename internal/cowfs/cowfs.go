// Package cowfs simulates a copy-on-write filesystem in the style of
// Btrfs, providing the structural properties the paper's maintenance
// tasks depend on:
//
//   - every write allocates new blocks (copy-on-write), so random writes
//     fragment files and break sharing with snapshots;
//   - a checksum is stored for every block, updated on write and verified
//     on read, so a read doubles as a scrub of the block (§5.1); the
//     simulated checksum is the version the medium is expected to hold,
//     and verification compares it with the medium's version;
//   - snapshots share blocks with the live tree through per-block
//     reference counts, standing in for Btrfs back-references (§5.2);
//   - logical-to-physical mapping is exposed FIBMAP-style so block tasks
//     can be informed of file-level accesses (§4.2);
//   - files can be defragmented by rewriting them into one extent (§5.3).
//
// All I/O flows through the shared page cache (internal/pagecache), which
// is where Duet observes it. Sizes are in 4 KiB pages; one page maps to
// one device block.
package cowfs

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"duet/internal/bitmap"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// Ino is an inode number.
type Ino uint64

// RootIno is the inode number of the filesystem root directory.
const RootIno Ino = 1

// Sentinel errors.
var (
	ErrNotFound   = errors.New("cowfs: no such file or directory")
	ErrExists     = errors.New("cowfs: file exists")
	ErrNotDir     = errors.New("cowfs: not a directory")
	ErrIsDir      = errors.New("cowfs: is a directory")
	ErrNotEmpty   = errors.New("cowfs: directory not empty")
	ErrNoSpace    = errors.New("cowfs: no space left on device")
	ErrCorruption = errors.New("cowfs: checksum mismatch (silent corruption)")
)

// Extent maps a run of logical pages to physical blocks.
type Extent struct {
	Logical int64  // first page index
	Phys    int64  // first device block
	Len     int64  // pages
	Gen     uint64 // filesystem generation when written
}

// Inode is a file or directory.
type Inode struct {
	Ino      Ino
	Name     string
	Parent   Ino
	Dir      bool
	SizePg   int64 // size in pages (files)
	Extents  []Extent
	PageVers []uint32       // content version per page (see bumpVer)
	Children map[string]Ino // directories only
	Gen      uint64         // generation of last modification

	// sortedNames caches the children's names in sorted order; valid when
	// namesOK. Invalidated by dirAdd/dirRemove so repeated directory
	// listings do not re-sort an unchanged directory.
	sortedNames []string
	namesOK     bool
}

// VFSHook observes namespace changes; Duet registers one to track files
// moving into or out of a registered directory (§4.1).
type VFSHook interface {
	// Moved fires after ino is renamed from oldParent to newParent.
	Moved(ino Ino, isDir bool, oldParent, newParent Ino)
}

// Stats counts filesystem activity.
type Stats struct {
	ReadsPages      int64 // pages served to readers (hit or miss)
	MissPages       int64 // pages that required device reads
	WritesPages     int64
	WritebackPages  int64
	WritebackErrors int64 // writeback device errors (partial or total)
	Corruptions     int64 // checksum failures detected on read
	ScrubErrors     int64 // checksum failures detected by VerifyBlock
	CowReallocation int64 // blocks re-allocated due to snapshot sharing
	Commits         int64 // successful durability barriers (durable.go)
}

// FS is a simulated copy-on-write filesystem on one device.
type FS struct {
	eng   sim.Host
	id    pagecache.FSID
	disk  *storage.Disk
	cache *pagecache.Cache

	inodes    map[Ino]*Inode
	inodeMemo [8]*Inode // Fibmap's lookup memo, indexed by ino mod 8
	nextIno   Ino
	gen       uint64
	nextVer   uint32 // last content version handed out (see bumpVer)

	free       *freeIndex // two-level free-space index (freeindex.go)
	freeBlocks int64
	blocks                    // per-block state; nil slices once released
	corrupt    *bitmap.Sparse // blocks with injected silent corruption

	hooks  []VFSHook
	wbTags map[Ino]wbTag
	stats  Stats
	obs    *fsObs // nil unless observability is on (see obs.go)

	// Durability state (nil/empty until EnableDurability; see durable.go).
	durable         *checkpoint
	deferredFree    []blkRange // zero-ref runs held until the next commit
	deferredBlocks  int64      // total length of deferredFree
	deferredRuns    uint64     // runs ever deferred; checkpoint.deferredAt samples it
	deferredKept    []blkRange // drainDeferred's output buffer, swapped with deferredFree
	cpMark          []bool     // scratch: blocks referenced by the checkpoint
	markScratch     []int64
	quarScratch     []pagecache.PageKey
	commitInos      []Ino       // Commit's file list; taken while a commit is in flight
	commitsInFlight int         // commits waiting on their superblock write
	cpPool          []*cpFile   // retired checkpoint entries, slices kept for reuse
	cpSpare         *checkpoint // a retired checkpoint, map cleared for reuse

	// Scratch storage for the allocation-free hot paths. freed is safe as
	// a single buffer because spliceOut never blocks between filling and
	// draining it; the run/miss/writeback buffers are pooled because their
	// holders block on cache or device I/O, so several processes can be
	// mid-operation in virtual time.
	freed    []blkRange
	runBufs  *runBuf
	missBufs *missBuf
	wbBufs   *wbBuf
}

// wbTag routes writeback I/O for an inode's dirty pages to a specific
// class/owner (used so defragmentation writes are billed as maintenance).
type wbTag struct {
	class storage.Class
	owner string
}

// blocks is the filesystem's per-block state, one entry per device block
// in each slice: 20 bytes a block (TestPerBlockFootprint). It is the bulk
// of a filesystem's memory, so a finished filesystem hands it on
// (Release) to the next New of the same size.
type blocks struct {
	refs []int32 // reference count
	// want is the stored checksum: the content version the medium is
	// expected to hold, 0 when the block is free. A read or a scrub
	// verifies a block by comparing it with diskVer. Like Btrfs's crc32c
	// it is 32 bits wide; bumpVer keeps it from wrapping.
	want    []uint32
	diskVer []uint32 // content version on the medium
	rev     []revEntry
}

// blockPool holds the per-block state of released filesystems. It is
// process-wide because experiment cells build and drop filesystems on
// several goroutines.
var blockPool sync.Pool // of *blocks

// newBlocks returns zeroed per-block state for nb blocks: a released
// filesystem's when one of that size is pooled, otherwise fresh.
func newBlocks(nb int64) blocks {
	if b, ok := blockPool.Get().(*blocks); ok && int64(len(b.refs)) == nb {
		clear(b.refs)
		clear(b.want)
		clear(b.diskVer)
		clear(b.rev)
		return *b
	}
	return blocks{
		refs:    make([]int32, nb),
		want:    make([]uint32, nb),
		diskVer: make([]uint32, nb),
		rev:     make([]revEntry, nb),
	}
}

// Release hands the filesystem's per-block state to the next New of the
// same size. The filesystem must not be used afterwards: its per-block
// slices are nil, so a read, write or check that reaches them panics
// instead of reading another filesystem's blocks. A crash image aliases
// the medium state, so a filesystem whose image is still to be remounted
// must not be released.
func (fs *FS) Release() {
	if fs.refs == nil {
		return
	}
	b := fs.blocks
	fs.blocks = blocks{}
	blockPool.Put(&b)
}

// revEntry is the reverse map from a block to the file page that last
// wrote it. Entries can go stale when COW remaps the page; consumers
// validate against Fibmap. Both fields are 32 bits wide; newRev is the
// only constructor of a non-zero entry.
type revEntry struct {
	ino, idx uint32
}

// newRev returns the reverse entry for page idx of inode ino. It panics
// when either does not fit 32 bits: a truncated entry would name another
// file's page.
func newRev(ino Ino, idx int64) revEntry {
	if uint64(ino) > math.MaxUint32 || uint64(idx) > math.MaxUint32 {
		panic(fmt.Sprintf("cowfs: reverse entry for inode %d page %d does not fit 32 bits", ino, idx))
	}
	return revEntry{ino: uint32(ino), idx: uint32(idx)}
}

// bumpVer hands out the next content version. Versions are dense
// per-filesystem counters stored in 32 bits (the width of Btrfs's crc32c
// checksum), and running out panics rather than wrapping: a wrapped
// version could equal an old one, and a stale or corrupted block holding
// it would then pass verification.
func (fs *FS) bumpVer() uint32 {
	if fs.nextVer == math.MaxUint32 {
		panic("cowfs: content versions exhausted: the next would wrap past 2^32-1")
	}
	fs.nextVer++
	return fs.nextVer
}

// New creates an empty filesystem spanning the whole device, using the
// shared page cache for all file data.
func New(e sim.Host, id pagecache.FSID, disk *storage.Disk, cache *pagecache.Cache) *FS {
	nb := disk.Blocks()
	fs := &FS{
		eng:     e,
		id:      id,
		disk:    disk,
		cache:   cache,
		inodes:  make(map[Ino]*Inode),
		nextIno: RootIno + 1,
		free:    newFreeIndex(),
		blocks:  newBlocks(nb),
		corrupt: bitmap.New(),
		wbTags:  make(map[Ino]wbTag),
	}
	fs.free.add(0, nb)
	fs.freeBlocks = nb
	fs.inodes[RootIno] = &Inode{Ino: RootIno, Name: "/", Parent: RootIno, Dir: true, Children: map[string]Ino{}}
	cache.RegisterFS(id, fs)
	return fs
}

// ID returns the filesystem's page-cache identifier.
func (fs *FS) ID() pagecache.FSID { return fs.id }

// Disk returns the underlying device.
func (fs *FS) Disk() *storage.Disk { return fs.disk }

// Cache returns the page cache.
func (fs *FS) Cache() *pagecache.Cache { return fs.cache }

// Stats returns live statistics.
func (fs *FS) Stats() *Stats { return &fs.stats }

// Generation returns the current filesystem generation.
func (fs *FS) Generation() uint64 { return fs.gen }

// FreeBlocks returns the number of unallocated device blocks.
func (fs *FS) FreeBlocks() int64 { return fs.freeBlocks }

// AddVFSHook registers a namespace-change observer.
func (fs *FS) AddVFSHook(h VFSHook) { fs.hooks = append(fs.hooks, h) }

// Inode returns the inode by number.
func (fs *FS) Inode(ino Ino) (*Inode, bool) {
	i, ok := fs.inodes[ino]
	return i, ok
}

// --- namespace -----------------------------------------------------------

func splitPath(path string) []string {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, s := range parts {
		if s != "" && s != "." {
			out = append(out, s)
		}
	}
	return out
}

// Lookup resolves a path to an inode.
func (fs *FS) Lookup(path string) (*Inode, error) {
	cur := fs.inodes[RootIno]
	for _, name := range splitPath(path) {
		if !cur.Dir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, path)
		}
		next, ok := cur.Children[name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		cur = fs.inodes[next]
	}
	return cur, nil
}

// PathOf returns the absolute path of an inode.
func (fs *FS) PathOf(ino Ino) (string, error) {
	i, ok := fs.inodes[ino]
	if !ok {
		return "", fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	if i.Ino == RootIno {
		return "/", nil
	}
	var parts []string
	for i.Ino != RootIno {
		parts = append(parts, i.Name)
		p, ok := fs.inodes[i.Parent]
		if !ok {
			return "", fmt.Errorf("%w: orphan inode %d", ErrNotFound, ino)
		}
		i = p
	}
	for l, r := 0, len(parts)-1; l < r; l, r = l+1, r-1 {
		parts[l], parts[r] = parts[r], parts[l]
	}
	return "/" + strings.Join(parts, "/"), nil
}

// Within reports whether ino lies within (or is) the directory root, and
// if so returns its path relative to root ("" for root itself). It walks
// parent pointers, as Duet's relevance check does (§4.1).
func (fs *FS) Within(ino, root Ino) (string, bool) {
	i, ok := fs.inodes[ino]
	if !ok {
		return "", false
	}
	var parts []string
	for {
		if i.Ino == root {
			for l, r := 0, len(parts)-1; l < r; l, r = l+1, r-1 {
				parts[l], parts[r] = parts[r], parts[l]
			}
			return strings.Join(parts, "/"), true
		}
		if i.Ino == RootIno {
			return "", false
		}
		parts = append(parts, i.Name)
		p, ok := fs.inodes[i.Parent]
		if !ok {
			return "", false
		}
		i = p
	}
}

// dirAdd links a child into a directory, invalidating its cached name
// order. All namespace mutations go through dirAdd/dirRemove so the
// ChildrenSorted cache can never go stale.
func (fs *FS) dirAdd(dir *Inode, name string, child Ino) {
	dir.Children[name] = child
	dir.namesOK = false
}

// dirRemove unlinks a child from a directory, invalidating its cached
// name order.
func (fs *FS) dirRemove(dir *Inode, name string) {
	delete(dir.Children, name)
	dir.namesOK = false
}

func (fs *FS) newInode(name string, parent Ino, dir bool) *Inode {
	ino := fs.nextIno
	fs.nextIno++
	i := &Inode{Ino: ino, Name: name, Parent: parent, Dir: dir}
	if dir {
		i.Children = map[string]Ino{}
	}
	fs.inodes[ino] = i
	return i
}

// create makes a new entry under the parent of path.
func (fs *FS) create(path string, dir bool) (*Inode, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrExists, path)
	}
	parentPath := strings.Join(parts[:len(parts)-1], "/")
	parent, err := fs.Lookup(parentPath)
	if err != nil {
		return nil, err
	}
	if !parent.Dir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, parentPath)
	}
	name := parts[len(parts)-1]
	if _, ok := parent.Children[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	i := fs.newInode(name, parent.Ino, dir)
	fs.dirAdd(parent, name, i.Ino)
	fs.gen++
	i.Gen = fs.gen
	return i, nil
}

// Create makes an empty file.
func (fs *FS) Create(path string) (*Inode, error) { return fs.create(path, false) }

// MkdirAll makes a directory and any missing parents.
func (fs *FS) MkdirAll(path string) (*Inode, error) {
	parts := splitPath(path)
	cur := fs.inodes[RootIno]
	for _, name := range parts {
		next, ok := cur.Children[name]
		if !ok {
			i := fs.newInode(name, cur.Ino, true)
			fs.dirAdd(cur, name, i.Ino)
			cur = i
			continue
		}
		cur = fs.inodes[next]
		if !cur.Dir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, name)
		}
	}
	return cur, nil
}

// ChildrenSorted returns a directory's entries in name order
// (deterministic iteration for tasks that traverse the namespace). The
// sorted name order is cached on the directory inode and invalidated on
// create/delete/rename, so repeated listings of a stable directory skip
// the sort.
func (fs *FS) ChildrenSorted(dir *Inode) []*Inode {
	if !dir.namesOK {
		dir.sortedNames = dir.sortedNames[:0]
		for n := range dir.Children {
			dir.sortedNames = append(dir.sortedNames, n)
		}
		sort.Strings(dir.sortedNames)
		dir.namesOK = true
	}
	out := make([]*Inode, 0, len(dir.sortedNames))
	for _, n := range dir.sortedNames {
		out = append(out, fs.inodes[dir.Children[n]])
	}
	return out
}

// FilesUnder returns all regular files in the subtree rooted at dir,
// sorted by inode number (the processing order of the paper's backup and
// defragmentation tasks, Table 3).
func (fs *FS) FilesUnder(dir Ino) []*Inode {
	d, ok := fs.inodes[dir]
	if !ok || !d.Dir {
		return nil
	}
	var files []*Inode
	var walk func(i *Inode)
	walk = func(i *Inode) {
		for _, c := range fs.ChildrenSorted(i) {
			if c.Dir {
				walk(c)
			} else {
				files = append(files, c)
			}
		}
	}
	walk(d)
	sort.Slice(files, func(a, b int) bool { return files[a].Ino < files[b].Ino })
	return files
}

// Rename moves oldPath to newPath (which must not exist; its parent must).
// VFS hooks observe the move so Duet can track registered-directory
// membership.
func (fs *FS) Rename(oldPath, newPath string) error {
	src, err := fs.Lookup(oldPath)
	if err != nil {
		return err
	}
	if src.Ino == RootIno {
		return fmt.Errorf("%w: cannot move root", ErrIsDir)
	}
	parts := splitPath(newPath)
	if len(parts) == 0 {
		return fmt.Errorf("%w: %q", ErrExists, newPath)
	}
	dstParent, err := fs.Lookup(strings.Join(parts[:len(parts)-1], "/"))
	if err != nil {
		return err
	}
	if !dstParent.Dir {
		return fmt.Errorf("%w: %s", ErrNotDir, newPath)
	}
	newName := parts[len(parts)-1]
	if _, ok := dstParent.Children[newName]; ok {
		return fmt.Errorf("%w: %s", ErrExists, newPath)
	}
	// Prevent moving a directory into its own subtree.
	if src.Dir {
		for a := dstParent; ; {
			if a.Ino == src.Ino {
				return fmt.Errorf("%w: move into own subtree", ErrExists)
			}
			if a.Ino == RootIno {
				break
			}
			a = fs.inodes[a.Parent]
		}
	}
	oldParent := src.Parent
	fs.dirRemove(fs.inodes[oldParent], src.Name)
	src.Name = newName
	src.Parent = dstParent.Ino
	fs.dirAdd(dstParent, newName, src.Ino)
	fs.gen++
	src.Gen = fs.gen
	for _, h := range fs.hooks {
		h.Moved(src.Ino, src.Dir, oldParent, dstParent.Ino)
	}
	return nil
}

// Delete removes a file or an empty directory, releasing blocks and
// dropping cached pages.
func (fs *FS) Delete(path string) error {
	i, err := fs.Lookup(path)
	if err != nil {
		return err
	}
	return fs.deleteInode(i)
}

func (fs *FS) deleteInode(i *Inode) error {
	if i.Ino == RootIno {
		return fmt.Errorf("%w: cannot delete root", ErrIsDir)
	}
	if i.Dir && len(i.Children) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, i.Name)
	}
	for _, ext := range i.Extents {
		fs.derefRange(ext.Phys, ext.Len)
	}
	fs.cache.RemoveFile(fs.id, uint64(i.Ino))
	fs.dirRemove(fs.inodes[i.Parent], i.Name)
	delete(fs.inodes, i.Ino)
	fs.inodeMemo[i.Ino%Ino(len(fs.inodeMemo))] = nil
	delete(fs.wbTags, i.Ino)
	fs.gen++
	i.Gen = fs.gen // a reader holding i learns that its mapping is gone
	return nil
}

// DeleteTree removes a whole subtree.
func (fs *FS) DeleteTree(path string) error {
	i, err := fs.Lookup(path)
	if err != nil {
		return err
	}
	var walk func(n *Inode) error
	walk = func(n *Inode) error {
		if n.Dir {
			for _, c := range fs.ChildrenSorted(n) {
				if err := walk(c); err != nil {
					return err
				}
			}
		}
		return fs.deleteInode(n)
	}
	return walk(i)
}
