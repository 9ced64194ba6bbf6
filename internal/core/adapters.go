package core

import (
	"duet/internal/cowfs"
	"duet/internal/lfs"
	"duet/internal/pagecache"
)

// Adapters binding the simulated filesystems to Duet's FSAdapter
// interface, including the VFS bridge that forwards rename events (§4.1).

// CowAdapter adapts a cowfs filesystem.
type CowAdapter struct {
	FS *cowfs.FS
}

// AttachCow wires a cowfs filesystem into Duet: it registers the adapter
// and hooks the VFS layer so renames reach FileMoved.
func AttachCow(d *Duet, fs *cowfs.FS) *CowAdapter {
	a := &CowAdapter{FS: fs}
	d.AttachFS(a)
	fs.AddVFSHook(&cowVFSBridge{d: d, fsid: fs.ID()})
	return a
}

// FSID implements FSAdapter.
func (a *CowAdapter) FSID() pagecache.FSID { return a.FS.ID() }

// Fibmap implements FSAdapter.
func (a *CowAdapter) Fibmap(ino, idx uint64) (int64, bool) {
	return a.FS.Fibmap(cowfs.Ino(ino), int64(idx))
}

// FibmapRun implements FSAdapter.
func (a *CowAdapter) FibmapRun(ino, idx, n uint64) (int64, uint64) {
	blk, m := a.FS.FibmapRun(cowfs.Ino(ino), int64(idx), int64(n))
	return blk, uint64(m)
}

// Within implements FSAdapter.
func (a *CowAdapter) Within(ino, root uint64) (string, bool) {
	return a.FS.Within(cowfs.Ino(ino), cowfs.Ino(root))
}

// IsDir implements FSAdapter.
func (a *CowAdapter) IsDir(ino uint64) bool {
	i, ok := a.FS.Inode(cowfs.Ino(ino))
	return ok && i.Dir
}

// DeviceBlocks implements FSAdapter.
func (a *CowAdapter) DeviceBlocks() int64 { return a.FS.Disk().Blocks() }

type cowVFSBridge struct {
	d    *Duet
	fsid pagecache.FSID
}

func (b *cowVFSBridge) Moved(ino cowfs.Ino, isDir bool, oldParent, newParent cowfs.Ino) {
	b.d.FileMoved(b.fsid, uint64(ino), isDir, uint64(oldParent), uint64(newParent))
}

// LFSAdapter adapts an lfs filesystem. The namespace is flat, so the
// whole filesystem acts as one registered directory (inode 0 stands for
// the root).
type LFSAdapter struct {
	FS *lfs.FS
}

// AttachLFS wires an lfs filesystem into Duet.
func AttachLFS(d *Duet, fs *lfs.FS) *LFSAdapter {
	a := &LFSAdapter{FS: fs}
	d.AttachFS(a)
	return a
}

// LFSRoot is the pseudo-inode representing the flat namespace root.
const LFSRoot uint64 = 0

// FSID implements FSAdapter.
func (a *LFSAdapter) FSID() pagecache.FSID { return a.FS.ID() }

// Fibmap implements FSAdapter.
func (a *LFSAdapter) Fibmap(ino, idx uint64) (int64, bool) {
	return a.FS.Fibmap(lfs.Ino(ino), int64(idx))
}

// FibmapRun implements FSAdapter.
func (a *LFSAdapter) FibmapRun(ino, idx, n uint64) (int64, uint64) {
	blk, m := a.FS.FibmapRun(lfs.Ino(ino), int64(idx), int64(n))
	return blk, uint64(m)
}

// Within implements FSAdapter: every file is under the flat root.
func (a *LFSAdapter) Within(ino, root uint64) (string, bool) {
	if root != LFSRoot {
		return "", false
	}
	if ino == LFSRoot {
		return "", true
	}
	i, ok := a.FS.Inode(lfs.Ino(ino))
	if !ok {
		return "", false
	}
	return i.Name, true
}

// IsDir implements FSAdapter: only the pseudo-root is a directory.
func (a *LFSAdapter) IsDir(ino uint64) bool { return ino == LFSRoot }

// DeviceBlocks implements FSAdapter.
func (a *LFSAdapter) DeviceBlocks() int64 { return a.FS.Disk().Blocks() }
