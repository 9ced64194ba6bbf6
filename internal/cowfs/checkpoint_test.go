package cowfs

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"duet/internal/iosched"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// The checkpoint path is checked against the one it replaced, which is
// kept here as the reference: a fresh map and a deep copy of every clean
// file on each commit, cleanliness decided by walking the file's pages,
// and a drain that marks every block of every checkpoint entry. The
// lifecycle runs of deref_test.go apply the same operation stream to a
// filesystem that commits through refCommit and to one that commits
// through the product path; after every operation the two must hold equal
// checkpoint entries, equal deferred run lists and byte-equal remounts.

// refSnapshotFile deep-copies an inode's committed view.
func refSnapshotFile(i *Inode) *cpFile {
	f := &cpFile{ino: i.Ino, name: i.Name, parent: i.Parent, dir: i.Dir, sizePg: i.SizePg, gen: i.Gen}
	f.extents = append(f.extents, i.Extents...)
	f.pageVers = append(f.pageVers, i.PageVers...)
	if i.Children != nil {
		f.children = maps.Clone(i.Children)
	}
	return f
}

// refFileDirty walks the file's pages for a dirty one.
func refFileDirty(fs *FS, ino Ino) bool {
	dirty := false
	fs.cache.IterateFile(fs.id, uint64(ino), func(_ pagecache.PageKey, d bool) bool {
		dirty = d
		return !dirty
	})
	return dirty
}

// refTakeCheckpoint snapshots every clean file into a new checkpoint and
// carries the dirty files' previous entries over.
func refTakeCheckpoint(fs *FS) *checkpoint {
	cp := &checkpoint{gen: fs.gen, nextIno: fs.nextIno, nextVer: fs.nextVer, files: make(map[Ino]*cpFile, len(fs.inodes))}
	for ino, i := range fs.inodes {
		if !i.Dir && refFileDirty(fs, ino) {
			if old, ok := fs.durable.files[ino]; ok {
				cp.files[ino] = old
			}
			continue
		}
		cp.files[ino] = refSnapshotFile(i)
	}
	return cp
}

// refDrainDeferred marks every block the durable checkpoint references,
// then frees the unmarked pieces of each deferred run and keeps the rest.
func refDrainDeferred(fs *FS) {
	if len(fs.deferredFree) == 0 {
		return
	}
	mark := make([]bool, fs.disk.Blocks())
	for _, f := range fs.durable.files {
		for _, e := range f.extents {
			for b := e.Phys; b < e.Phys+e.Len; b++ {
				mark[b] = true
			}
		}
	}
	var kept []blkRange
	for _, r := range fs.deferredFree {
		for b, end := r.phys, r.phys+r.n; b < end; {
			held := mark[b]
			e := b + 1
			for e < end && mark[e] == held {
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
	fs.deferredFree = kept
}

// refCommit is Commit through the reference checkpoint and drain. It
// counts itself in flight across the superblock write as Commit does, so
// a racing process finds the same window on both sides.
func refCommit(fs *FS, p *sim.Proc) error {
	var firstErr error
	for _, ino := range fs.fileInos(nil) {
		if err := fs.cache.SyncFile(p, fs.id, uint64(ino)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if n := fs.quarantinedPages(); n > 0 {
		return fmt.Errorf("cowfs: commit aborted: %d pages quarantined (%v)", n, firstErr)
	}
	cp := refTakeCheckpoint(fs)
	fs.commitsInFlight++
	err := fs.disk.Write(p, 0, 1, storage.ClassNormal, "commit")
	fs.commitsInFlight--
	if err != nil {
		return fmt.Errorf("cowfs: checkpoint write: %w", err)
	}
	fs.durable = cp
	refDrainDeferred(fs)
	fs.stats.Commits++
	return nil
}

// cpEntry is a checkpoint entry or an inode in comparable form: empty
// slices and maps are nil, and a file has no children.
type cpEntry struct {
	Ino      Ino
	Name     string
	Parent   Ino
	Dir      bool
	SizePg   int64
	Gen      uint64
	Extents  []Extent
	PageVers []uint32
	Children map[string]Ino
}

func newCPEntry(ino Ino, name string, parent Ino, dir bool, sizePg int64, gen uint64, exts []Extent, vers []uint32, children map[string]Ino) cpEntry {
	e := cpEntry{Ino: ino, Name: name, Parent: parent, Dir: dir, SizePg: sizePg, Gen: gen}
	if len(exts) > 0 {
		e.Extents = slices.Clone(exts)
	}
	if len(vers) > 0 {
		e.PageVers = slices.Clone(vers)
	}
	if dir {
		e.Children = maps.Clone(children)
	}
	return e
}

// sortedInos returns a map's inode numbers in ascending order.
func sortedInos[V any](m map[Ino]V) []Ino {
	inos := make([]Ino, 0, len(m))
	for ino := range m {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	return inos
}

// cpState is the durable checkpoint and the deferred run list.
type cpState struct {
	Gen      uint64
	NextIno  Ino
	NextVer  uint32
	Files    []cpEntry // ascending inode number
	Deferred []blkRange
}

func captureCheckpoint(fs *FS) cpState {
	cp := fs.durable
	st := cpState{Gen: cp.gen, NextIno: cp.nextIno, NextVer: cp.nextVer}
	if len(fs.deferredFree) > 0 {
		st.Deferred = slices.Clone(fs.deferredFree)
	}
	for _, ino := range sortedInos(cp.files) {
		f := cp.files[ino]
		st.Files = append(st.Files, newCPEntry(f.ino, f.name, f.parent, f.dir, f.sizePg, f.gen, f.extents, f.pageVers, f.children))
	}
	return st
}

// remountState is everything a remount rebuilds.
type remountState struct {
	Gen     uint64
	NextIno Ino
	NextVer uint32
	Inodes  []cpEntry // ascending inode number
	DiskVer []uint32
	Life    lifecycleState
}

// equal is reflect.DeepEqual with the per-block arrays compared directly,
// as lifecycleState.equal does.
func (a remountState) equal(b remountState) bool {
	return a.Gen == b.Gen && a.NextIno == b.NextIno && a.NextVer == b.NextVer &&
		slices.Equal(a.DiskVer, b.DiskVer) && a.Life.equal(b.Life) && reflect.DeepEqual(a.Inodes, b.Inodes)
}

// remountImage remounts img on a fresh machine whose engine never runs
// (stopped first, so the new cache starts no flusher goroutine) and
// captures the result.
func remountImage(t *testing.T, img *CrashImage) remountState {
	t.Helper()
	e := sim.New(1)
	e.Stop()
	disk := storage.NewDisk(e, "sda", storage.DefaultHDD(int64(len(img.diskVer))), iosched.NewCFQ())
	fs, err := Remount(e, 1, disk, pagecache.New(e, pagecache.DefaultConfig(256)), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatalf("after remount: %v", err)
	}
	st := remountState{Gen: fs.gen, NextIno: fs.nextIno, NextVer: fs.nextVer, DiskVer: slices.Clone(fs.diskVer), Life: captureLifecycle(fs)}
	for _, ino := range sortedInos(fs.inodes) {
		i := fs.inodes[ino]
		st.Inodes = append(st.Inodes, newCPEntry(i.Ino, i.Name, i.Parent, i.Dir, i.SizePg, i.Gen, i.Extents, i.PageVers, i.Children))
	}
	return st
}

// diffFields names the first exported field in which two structs differ.
func diffFields(a, b any) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for k := 0; k < va.NumField(); k++ {
		if !reflect.DeepEqual(va.Field(k).Interface(), vb.Field(k).Interface()) {
			name := va.Type().Field(k).Name
			if f := va.Field(k); f.Kind() == reflect.Slice && f.Len() > 64 {
				return name
			}
			return fmt.Sprintf("%s: %+v vs %+v", name, va.Field(k).Interface(), vb.Field(k).Interface())
		}
	}
	return ""
}
