package cowfs

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"duet/internal/sim"
	"duet/internal/storage"
)

// Content versions and reverse entries are 32 bits wide. These tests pin
// the width, the two checked points every narrowed value goes through
// (bumpVer and newRev), and that verification still sees corruption and
// repair at that width.

// panicsWith runs fn and reports whether it panicked with a message
// containing want.
func panicsWith(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", what)
			return
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %v, want a message containing %q", what, r, want)
		}
	}()
	fn()
}

const versExhausted = "content versions exhausted"

// TestVersionOverflowPanics: a stamp that would take the version counter
// past 2^32-1 panics and leaves the counter where it was, on every path
// that hands out versions — a write, a populate, and a write after a
// remount that restored the counter from the checkpoint.
func TestVersionOverflowPanics(t *testing.T) {
	t.Run("write", func(t *testing.T) {
		v := newEnv(1024)
		f, _ := v.fs.Create("/f")
		v.fs.nextVer = math.MaxUint32
		v.in(t, func(p *sim.Proc) {
			panicsWith(t, "Write", versExhausted, func() { _ = v.fs.Write(p, f.Ino, 0, 1) })
		})
		if v.fs.nextVer != math.MaxUint32 {
			t.Errorf("nextVer = %d after the refused stamp, want %d", v.fs.nextVer, uint32(math.MaxUint32))
		}
	})
	t.Run("populate", func(t *testing.T) {
		v := newEnv(1024)
		v.fs.nextVer = math.MaxUint32 - 1
		panicsWith(t, "PopulateFile", versExhausted, func() {
			_, _ = v.fs.PopulateFile("/f", 4, 1, rand.New(rand.NewSource(1)))
		})
		f, err := v.fs.Lookup("/f")
		if err != nil {
			t.Fatal(err)
		}
		if v.fs.nextVer != math.MaxUint32 || f.PageVers[0] != math.MaxUint32 || f.PageVers[1] != 0 {
			t.Errorf("nextVer %d, page versions %v: want the last version stamped once and no wrap", v.fs.nextVer, f.PageVers)
		}
	})
	t.Run("remount", func(t *testing.T) {
		v := newEnv(1024)
		f, err := v.fs.PopulateFile("/f", 4, 1, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		v.fs.nextVer = math.MaxUint32
		v.fs.EnableDurability()
		img := v.fs.CrashImage()
		w := newEnv(1024)
		fs, err := Remount(w.e, 1, w.disk, w.cache, img)
		if err != nil {
			t.Fatal(err)
		}
		if fs.nextVer != math.MaxUint32 {
			t.Fatalf("remount restored nextVer %d, want %d", fs.nextVer, uint32(math.MaxUint32))
		}
		w.fs = fs
		w.in(t, func(p *sim.Proc) {
			panicsWith(t, "Write after remount", versExhausted, func() { _ = fs.Write(p, f.Ino, 0, 1) })
		})
		if fs.nextVer != math.MaxUint32 {
			t.Errorf("nextVer = %d after the refused stamp, want %d", fs.nextVer, uint32(math.MaxUint32))
		}
	})
}

// TestRevEntryOverflowPanics: a reverse entry whose inode number or page
// index does not fit 32 bits panics instead of naming another page, both
// at the constructor and on the populate path.
func TestRevEntryOverflowPanics(t *testing.T) {
	const want = "does not fit 32 bits"
	if r := newRev(math.MaxUint32, math.MaxUint32); r.ino != math.MaxUint32 || r.idx != math.MaxUint32 {
		t.Errorf("newRev at the limit = %+v", r)
	}
	panicsWith(t, "newRev(2^32, 0)", want, func() { newRev(1<<32, 0) })
	panicsWith(t, "newRev(1, 2^32)", want, func() { newRev(1, 1<<32) })
	panicsWith(t, "newRev(1, -1)", want, func() { newRev(1, -1) })

	v := newEnv(1024)
	v.fs.nextIno = 1 << 32
	panicsWith(t, "PopulateFile of inode 2^32", want, func() {
		_, _ = v.fs.PopulateFile("/f", 1, 1, rand.New(rand.NewSource(1)))
	})
}

// TestPerBlockFootprint pins the per-block state at 20 bytes per device
// block (a reference count, the stored checksum, the medium's version and
// a reverse entry) and a file's page versions at 4 bytes per page. Every
// slice of blocks is counted, so a new or widened per-block array fails
// here by name rather than as a drift in peak RSS.
func TestPerBlockFootprint(t *testing.T) {
	v := newEnv(1024)
	nb := v.disk.Blocks()
	var perBlock uintptr
	bv := reflect.ValueOf(v.fs.blocks)
	for k := 0; k < bv.NumField(); k++ {
		f := bv.Field(k)
		if f.Kind() != reflect.Slice {
			t.Fatalf("blocks.%s is a %s, not a per-block slice", bv.Type().Field(k).Name, f.Kind())
		}
		if int64(f.Len()) != nb || int64(f.Cap()) != nb {
			t.Errorf("blocks.%s has len %d cap %d, want %d", bv.Type().Field(k).Name, f.Len(), f.Cap(), nb)
		}
		size := f.Type().Elem().Size() // unsafe.Sizeof of the element type
		t.Logf("blocks.%s: %d bytes a block", bv.Type().Field(k).Name, size)
		perBlock += size
	}
	t.Logf("per-block state: %d bytes a device block", perBlock)
	if perBlock > 20 {
		t.Errorf("per-block state costs %d bytes a device block, want at most 20", perBlock)
	}

	f, err := v.fs.PopulateFile("/f", 100, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := uintptr(cap(f.PageVers)) * unsafe.Sizeof(f.PageVers[0]); got != 4*100 {
		t.Errorf("a 100-page file's versions cost %d bytes, want 4 a page", got)
	}
	if got := unsafe.Sizeof(cpFile{}.pageVers[0]); got != 4 {
		t.Errorf("a checkpointed page version costs %d bytes, want 4", got)
	}
}

// TestCorruptionSurvivesRemount: a corrupted block keeps its medium
// version through the crash image and the remount, and the remounted
// filesystem reports it on every verification path.
func TestCorruptionSurvivesRemount(t *testing.T) {
	v := newEnv(1024)
	f, err := v.fs.PopulateFile("/f", 8, 1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	v.fs.EnableDurability()
	b, _ := v.fs.Fibmap(f.Ino, 5)
	v.fs.CorruptBlock(b)
	bad := v.fs.diskVer[b]
	if bad == v.fs.want[b] {
		t.Fatal("CorruptBlock left the medium version equal to the checksum")
	}
	img := v.fs.CrashImage()
	if img.diskVer[b] != bad {
		t.Fatalf("crash image holds version %d for the corrupted block, want %d", img.diskVer[b], bad)
	}

	w := newEnv(1024)
	fs, err := Remount(w.e, 1, w.disk, w.cache, img)
	if err != nil {
		t.Fatal(err)
	}
	w.fs = fs
	if fs.diskVer[b] != bad || fs.want[b] != f.PageVers[5] {
		t.Fatalf("remounted block %d: medium %d checksum %d, want %d and %d", b, fs.diskVer[b], fs.want[b], bad, f.PageVers[5])
	}
	if err := fs.CheckBlock(b); !errors.Is(err, ErrCorruption) {
		t.Errorf("CheckBlock after remount: %v", err)
	}
	w.in(t, func(p *sim.Proc) {
		if did, err := fs.VerifyBlock(p, b, storage.ClassIdle, "scrub"); !did || !errors.Is(err, ErrCorruption) {
			t.Errorf("VerifyBlock after remount = %v, %v", did, err)
		}
		if _, err := fs.ReadCount(p, f.Ino, 0, 8, storage.ClassNormal, "t"); !errors.Is(err, ErrCorruption) {
			t.Errorf("ReadCount after remount: %v", err)
		}
	})
}

// TestRepairFromStoredChecksum: RepairBlock restores a block from its
// stored checksum. A block a snapshot shares with the live file and a
// page rewritten onto the block it was freed from both verify clean
// afterwards, through a scrub and through reads of every file that maps
// them.
func TestRepairFromStoredChecksum(t *testing.T) {
	v := newEnv(1024)
	rng := rand.New(rand.NewSource(9))
	if _, err := v.fs.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	shared, err := v.fs.PopulateFile("/data/shared", 8, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, err := v.fs.PopulateFile("/data/rewritten", 8, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	repair := func(p *sim.Proc, b int64, inos ...Ino) {
		t.Helper()
		v.fs.CorruptBlock(b)
		if did, err := v.fs.VerifyBlock(p, b, storage.ClassIdle, "scrub"); !did || !errors.Is(err, ErrCorruption) {
			t.Errorf("block %d: VerifyBlock of the corrupted block = %v, %v", b, did, err)
		}
		if err := v.fs.RepairBlock(p, b, storage.ClassIdle, "scrub"); err != nil {
			t.Fatalf("block %d: repair: %v", b, err)
		}
		if did, err := v.fs.VerifyBlock(p, b, storage.ClassIdle, "scrub"); !did || err != nil {
			t.Errorf("block %d: VerifyBlock after repair = %v, %v", b, did, err)
		}
		for _, ino := range inos {
			v.cache.RemoveFile(v.fs.ID(), uint64(ino))
			if err := v.fs.ReadFile(p, ino, storage.ClassNormal, "t"); err != nil {
				t.Errorf("block %d: read of inode %d after repair: %v", b, ino, err)
			}
		}
	}
	v.in(t, func(p *sim.Proc) {
		snap, err := v.fs.CreateSnapshot(p, "/data", "/snap")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := v.fs.Fibmap(shared.Ino, 2)
		if v.fs.refs[b] != 2 {
			t.Fatalf("block %d has %d references, want 2 (live and snapshot)", b, v.fs.refs[b])
		}
		repair(p, b, shared.Ino, snap.LiveToSnap[shared.Ino])

		// Overwriting the last page of a one-extent file frees its block
		// and allocates at the end of the remaining extent: the same block.
		last := rewritten.SizePg - 1
		old, _ := v.fs.Fibmap(rewritten.Ino, last)
		oldVer := rewritten.PageVers[last]
		if err := v.fs.Delete("/snap/rewritten"); err != nil {
			t.Fatal(err)
		}
		if err := v.fs.Write(p, rewritten.Ino, last, 1); err != nil {
			t.Fatal(err)
		}
		b, _ = v.fs.Fibmap(rewritten.Ino, last)
		if b != old || rewritten.PageVers[last] == oldVer {
			t.Fatalf("page %d moved from block %d to %d (version %d -> %d); want a new version on the same block",
				last, old, b, oldVer, rewritten.PageVers[last])
		}
		v.fs.Sync(p)
		repair(p, b, rewritten.Ino)
	})
}
