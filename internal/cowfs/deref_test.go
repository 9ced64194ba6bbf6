package cowfs

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"duet/internal/sim"
	"duet/internal/storage"
)

// The run-wise block lifecycle is checked against the block-at-a-time one
// it replaced. The same operation sequence — populate, overwrite, append,
// snapshot, delete, injected corruption, and under durability commits
// that some files miss — is applied to two filesystems on identical
// machines. One goes through the product path untouched. On the other,
// every operation that releases blocks first has its extents spliced out
// by the test and released through derefPerBlock, so the product
// operation that follows finds nothing left to release. After every
// operation the two must hold the same free index (ordered run list and
// every size-class bitmap), the same counters and per-block metadata and
// the same set of deferred blocks, and both must pass CheckInvariants.

// derefPerBlock is the reference: it drops one reference from block b and
// disposes of it alone when the count reaches zero.
func derefPerBlock(fs *FS, b int64) {
	if fs.refs[b] == 0 {
		panic("cowfs: block dereferenced with no references")
	}
	fs.refs[b]--
	if fs.refs[b] > 0 {
		return
	}
	if fs.durable != nil {
		fs.deferredFree = append(fs.deferredFree, blkRange{phys: b, n: 1})
		fs.deferredBlocks++
		fs.deferredRuns++
		return
	}
	fs.want[b] = 0
	fs.rev[b] = 0
	fs.corrupt.Unset(uint64(b))
	fs.insertFree(b, 1)
	fs.freeBlocks++
}

// preRelease splices [lo, hi) out of the inode and releases the blocks
// one at a time. It returns how many were shared, and whether some
// released range held shared and unshared blocks together (the case in
// which derefRange has to cut a range into sub-runs).
func preRelease(fs *FS, i *Inode, lo, hi int64) (shared int64, island bool) {
	var freed []blkRange
	i.Extents, freed = spliceExtents(i.Extents, lo, hi, nil)
	for _, r := range freed {
		before := shared
		for b := r.phys; b < r.phys+r.n; b++ {
			if fs.refs[b] > 1 {
				shared++
			}
			derefPerBlock(fs, b)
		}
		if n := shared - before; n > 0 && n < r.n {
			island = true
		}
	}
	return shared, island
}

// lifecycleState is everything the block lifecycle owns.
type lifecycleState struct {
	Runs            []run
	Buckets         [64][]uint64
	FreeBlocks      int64
	Deferred        []int64 // deferred blocks, ascending
	DeferredBlocks  int64
	Refs            []uint16
	Want            []uint32
	Rev             []uint32
	Corrupt         []uint64
	CowReallocation int64
}

func captureLifecycle(fs *FS) lifecycleState {
	st := lifecycleState{
		FreeBlocks:      fs.freeBlocks,
		DeferredBlocks:  fs.deferredBlocks,
		Refs:            slices.Clone(fs.refs),
		Want:            slices.Clone(fs.want),
		Rev:             slices.Clone(fs.rev),
		CowReallocation: fs.stats.CowReallocation,
	}
	fs.free.runs.Ascend(nil, func(s, l int64) bool {
		st.Runs = append(st.Runs, run{phys: s, len: l})
		return true
	})
	for c, b := range fs.free.buckets {
		b.IterateSet(func(s uint64) bool {
			st.Buckets[c] = append(st.Buckets[c], s)
			return true
		})
	}
	for _, r := range fs.deferredFree {
		for b := r.phys; b < r.phys+r.n; b++ {
			st.Deferred = append(st.Deferred, b)
		}
	}
	slices.Sort(st.Deferred)
	fs.corrupt.IterateSet(func(b uint64) bool {
		st.Corrupt = append(st.Corrupt, b)
		return true
	})
	return st
}

// equal is reflect.DeepEqual without reflection over the per-block
// arrays, which would otherwise dominate the differential tests' time;
// diffFields explains a mismatch.
func (a lifecycleState) equal(b lifecycleState) bool {
	for c := range a.Buckets {
		if !slices.Equal(a.Buckets[c], b.Buckets[c]) {
			return false
		}
	}
	return a.FreeBlocks == b.FreeBlocks && a.DeferredBlocks == b.DeferredBlocks && a.CowReallocation == b.CowReallocation &&
		slices.Equal(a.Runs, b.Runs) && slices.Equal(a.Deferred, b.Deferred) && slices.Equal(a.Refs, b.Refs) &&
		slices.Equal(a.Want, b.Want) && slices.Equal(a.Rev, b.Rev) && slices.Equal(a.Corrupt, b.Corrupt)
}

// lifeOp is one decoded operation; a, b and c select files, offsets and
// lengths modulo whatever exists when the operation runs.
type lifeOp struct{ kind, a, b, c byte }

const (
	lifePopulate = iota
	lifeOverwrite
	lifeOverwriteWhole
	lifeAppend
	lifeDelete
	lifeSnapshot
	lifeDeleteSnapshot
	lifeCorrupt
	lifeCommit
	lifeCommitMissed // a commit during which data writeback fails
	lifeCommitRaced  // a commit during whose superblock write a second process overwrites or deletes a file
	lifeCrashImage   // a CrashImage, remounted at once and again at the end, after later commits
	lifeKinds
)

// lifeSide selects how one run releases blocks and commits.
type lifeSide int

const (
	sideProduct   lifeSide = iota
	sidePerBlock           // releases through derefPerBlock, the block-lifecycle reference
	sideRefCommit          // commits through refCommit, the checkpoint reference
)

func (s lifeSide) String() string {
	return [...]string{"product", "per-block", "reference commit"}[s]
}

// failWriteback makes every data writeback fail transiently while armed;
// the commit record (owner "commit") still reaches the device. A commit
// taken meanwhile finds the written files still dirty, carries their old
// checkpoint entries over, and so has to keep the blocks those entries
// reference deferred.
type failWriteback struct{ armed bool }

func (f *failWriteback) Evaluate(now sim.Time, r *storage.Request, attempt int) storage.FaultOutcome {
	if f.armed && r.Write && r.Owner == "writeback" {
		return storage.FaultOutcome{Err: storage.ErrTransient}
	}
	return storage.FaultOutcome{}
}

const (
	lifeBlocks   = 2048
	lifeMaxFiles = 12
)

// lifeResult is one side's record of a sequence.
type lifeResult struct {
	states    []lifecycleState // after each operation
	cps       []cpState        // durable runs: the checkpoint after each operation
	remounts  []remountState   // durable runs: a remount after each operation
	remounted lifecycleState   // durable runs: after CrashImage + Remount
	lifeCoverage
}

// lifeCoverage counts the cases the sequences are there to reach.
type lifeCoverage struct {
	islands int // releases of a range part shared, part not (reference side)
	kept    int // commits that left blocks deferred
	split   int // commits that freed one part of a deferred run and kept another
	raced   int // overwrites or deletes that landed while Commit waited on its superblock write
	imaged  int // crash images remounted again after a later commit
}

// heldImage is a crash image taken mid-stream and what it remounted to.
type heldImage struct {
	img     *CrashImage
	commits int64 // Stats.Commits when it was taken
	at      remountState
}

// racePoll is how often the racing process looks for a commit in flight;
// a superblock write takes milliseconds.
const racePoll = 50 * sim.Microsecond

// runLifecycle applies ops to a fresh filesystem on the given side.
func runLifecycle(t *testing.T, ops []lifeOp, durable bool, side lifeSide) lifeResult {
	t.Helper()
	v := newEnvBlocks(256, lifeBlocks)
	fs := v.fs
	rng := rand.New(rand.NewSource(1)) // extent placement, the same on every side
	inj := &failWriteback{}
	var res lifeResult
	var files []Ino
	var snaps []*Snapshot
	var images []heldImage
	names := 0
	commit := fs.Commit
	if side == sideRefCommit {
		commit = func(p *sim.Proc) error { return refCommit(fs, p) }
	}

	release := func(i *Inode, lo, hi int64) int64 {
		if side != sidePerBlock {
			return 0
		}
		shared, island := preRelease(fs, i, lo, hi)
		if island {
			res.islands++
		}
		return shared
	}
	write := func(p *sim.Proc, ino Ino, off, n int64) {
		i := fs.inodes[ino]
		// The reference may only release what the write will replace.
		if fs.fitsAfterSplice(i, off, off+n, n) {
			fs.stats.CowReallocation += release(i, off, off+n)
		}
		if err := fs.Write(p, ino, off, n); err != nil && !errors.Is(err, ErrNoSpace) {
			t.Fatalf("write: %v", err)
		}
	}
	overwrite := func(p *sim.Proc, op lifeOp) {
		i := fs.inodes[files[int(op.a)%len(files)]]
		off := int64(op.b) % i.SizePg
		write(p, i.Ino, off, min64(int64(op.c)%16+1, i.SizePg-off))
	}
	del := func(op lifeOp) {
		at := int(op.a) % len(files)
		i := fs.inodes[files[at]]
		release(i, 0, i.SizePg)
		if err := fs.deleteInode(i); err != nil {
			t.Fatalf("delete: %v", err)
		}
		files = slices.Delete(files, at, at+1)
	}
	// raceCommit commits while a second process waits for the commit to
	// reach its superblock write and then overwrites or deletes a file —
	// one the checkpoint has just snapshotted, so blocks a fresh entry
	// references are deferred after the snapshot.
	raceCommit := func(p *sim.Proc, op lifeOp) error {
		committed, racing := false, true
		v.e.Go("racer", func(p *sim.Proc) {
			defer func() { racing = false }()
			for fs.commitsInFlight == 0 && !committed {
				p.Sleep(racePoll)
			}
			if committed || len(files) == 0 {
				return
			}
			res.raced++
			if op.b%3 == 0 {
				del(op)
			} else {
				overwrite(p, op)
			}
		})
		err := commit(p)
		committed = true
		for racing {
			p.Sleep(racePoll)
		}
		return err
	}
	v.in(t, func(p *sim.Proc) {
		if _, err := fs.MkdirAll("/data"); err != nil {
			t.Fatal(err)
		}
		if durable {
			fs.EnableDurability()
			v.disk.SetFaultInjector(inj)
		}
		for k, op := range ops {
			switch kind := op.kind % lifeKinds; {
			case kind == lifePopulate || len(files) == 0:
				size := int64(op.a)%48 + 1
				if len(files) >= lifeMaxFiles || size > fs.freeBlocks {
					break
				}
				names++
				f, err := fs.PopulateFile(fmt.Sprintf("/data/f%d", names), size, int(op.b)%4+1, rng)
				if err != nil {
					t.Fatalf("op %d populate: %v", k, err)
				}
				files = append(files, f.Ino)
			case kind == lifeOverwrite:
				overwrite(p, op)
			case kind == lifeOverwriteWhole:
				i := fs.inodes[files[int(op.a)%len(files)]]
				write(p, i.Ino, 0, i.SizePg)
			case kind == lifeAppend:
				i := fs.inodes[files[int(op.a)%len(files)]]
				write(p, i.Ino, i.SizePg, int64(op.b)%8+1)
			case kind == lifeDelete:
				del(op)
			case kind == lifeSnapshot:
				if len(snaps) >= 3 {
					break
				}
				names++
				s, err := fs.CreateSnapshot(p, "/data", fmt.Sprintf("/snap%d", names))
				if err != nil {
					t.Fatalf("op %d snapshot: %v", k, err)
				}
				snaps = append(snaps, s)
			case kind == lifeDeleteSnapshot:
				if len(snaps) == 0 {
					break
				}
				at := int(op.a) % len(snaps)
				for _, f := range fs.FilesUnder(snaps[at].Root) {
					release(f, 0, f.SizePg)
				}
				if err := fs.DeleteSnapshot(snaps[at]); err != nil {
					t.Fatalf("op %d delete snapshot: %v", k, err)
				}
				snaps = slices.Delete(snaps, at, at+1)
			case kind == lifeCorrupt:
				if b, ok := fs.NextAllocated(int64(op.a) * (int64(op.b) + 1) % lifeBlocks); ok {
					fs.CorruptBlock(b)
				}
			case !durable: // the remaining kinds need a checkpoint
			case kind == lifeCrashImage:
				// The image aliases the live medium, which keeps changing;
				// freeze it, so what is left to check is that later
				// commits do not reach the image's checkpoint.
				img := fs.CrashImage()
				img.diskVer = slices.Clone(img.diskVer)
				images = append(images, heldImage{img: img, commits: fs.stats.Commits, at: remountImage(t, img)})
			default: // lifeCommit, lifeCommitMissed, lifeCommitRaced
				before := slices.Clone(fs.deferredFree)
				inj.armed = kind == lifeCommitMissed
				var err error
				if kind == lifeCommitRaced {
					err = raceCommit(p, op)
				} else {
					err = commit(p)
				}
				if err != nil {
					t.Fatalf("op %d commit: %v", k, err)
				}
				inj.armed = false
				if fs.deferredBlocks > 0 {
					res.kept++
				}
				for _, r := range before {
					freed := int64(0)
					for b := r.phys; b < r.phys+r.n; b++ {
						if s, l, ok := fs.free.runs.Floor(b); ok && b < s+l {
							freed++
						}
					}
					if freed > 0 && freed < r.n {
						res.split++
					}
				}
			}
			if err := fs.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%+v, %v side): %v", k, op, side, err)
			}
			res.states = append(res.states, captureLifecycle(fs))
			if durable && side != sidePerBlock {
				res.cps = append(res.cps, captureCheckpoint(fs))
				res.remounts = append(res.remounts, remountImage(t, fs.CrashImage()))
			}
		}
	})
	if durable {
		// A crash image must remount as it did when it was taken, however
		// many commits (and recycled checkpoints) came after it.
		for _, h := range images {
			if d := diffFields(remountImage(t, h.img), h.at); d != "" {
				t.Fatalf("%v side: a crash image remounts differently after later commits: %s", side, d)
			}
			if fs.stats.Commits > h.commits {
				res.imaged++
			}
		}
		res.remounted = remountImage(t, fs.CrashImage()).Life
	}
	return res
}

// compareLifecycles runs ops on every side and requires agreement after
// every operation: the product and per-block release on the block
// lifecycle, and under durability the product and reference commit on
// the checkpoint, the deferred runs and the remounted filesystem too.
func compareLifecycles(t *testing.T, ops []lifeOp, durable bool) lifeCoverage {
	t.Helper()
	byRun := runLifecycle(t, ops, durable, sideProduct)
	byBlock := runLifecycle(t, ops, durable, sidePerBlock)
	for k := range byRun.states {
		if !byRun.states[k].equal(byBlock.states[k]) {
			t.Fatalf("after op %d (%+v) run-wise and per-block release disagree on %s", k, ops[k], diffFields(byRun.states[k], byBlock.states[k]))
		}
	}
	if d := diffFields(byRun.remounted, byBlock.remounted); d != "" {
		t.Fatalf("remounted filesystems disagree on %s", d)
	}
	if durable {
		ref := runLifecycle(t, ops, durable, sideRefCommit)
		for k := range byRun.states {
			if !byRun.states[k].equal(ref.states[k]) {
				t.Fatalf("after op %d (%+v) the product and reference commits disagree on %s", k, ops[k], diffFields(byRun.states[k], ref.states[k]))
			}
			if d := diffFields(byRun.cps[k], ref.cps[k]); d != "" {
				t.Fatalf("after op %d (%+v) the checkpoint differs from the reference's on %s", k, ops[k], d)
			}
			if !byRun.remounts[k].equal(ref.remounts[k]) {
				t.Fatalf("after op %d (%+v) a remount differs from the reference's on %s", k, ops[k], diffFields(byRun.remounts[k], ref.remounts[k]))
			}
		}
	}
	return lifeCoverage{islands: byBlock.islands, kept: byRun.kept, split: byRun.split, raced: byRun.raced, imaged: byRun.imaged}
}

// splitRunOps ends in a missed commit that must cut a deferred run in
// two. A 32-page file is committed and snapshotted; its first 8 pages
// are overwritten and committed, the next 8 overwritten and left dirty.
// Deleting the snapshot then defers the 16 old blocks as one run, of
// which the carried-over checkpoint entry still references the second
// half only.
var splitRunOps = []lifeOp{
	{kind: lifePopulate, a: 31},
	{kind: lifeCommit},
	{kind: lifeSnapshot},
	{kind: lifeOverwrite, b: 0, c: 7},
	{kind: lifeCommit},
	{kind: lifeOverwrite, b: 8, c: 7},
	{kind: lifeDeleteSnapshot},
	{kind: lifeCommitMissed},
	{kind: lifeCommit},
}

// racedCommitOps defers blocks that fresh checkpoint entries reference
// after the snapshot: a file is overwritten, then deleted, while a commit
// waits on its superblock write. A drain that marked only the carried
// entries would free those blocks. A crash image taken before the races
// must remount unchanged after them.
var racedCommitOps = []lifeOp{
	{kind: lifePopulate, a: 15},
	{kind: lifePopulate, a: 23, b: 2},
	{kind: lifeCommit},
	{kind: lifeCrashImage},
	{kind: lifeCommitRaced, a: 0, b: 1, c: 3},
	{kind: lifeCommit},
	{kind: lifeCommitRaced, a: 1, b: 0},
	{kind: lifeCommit},
}

func TestDerefRangeAgainstPerBlock(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			var got lifeCoverage
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ops := make([]lifeOp, 300)
				for k := range ops {
					ops[k] = lifeOp{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
				}
				c := compareLifecycles(t, ops, durable)
				got.islands += c.islands
				got.kept += c.kept
				got.raced += c.raced
				got.imaged += c.imaged
			}
			if got.islands == 0 {
				t.Error("no released range was part shared with a snapshot, part not")
			}
			if !durable {
				return
			}
			if got.kept == 0 {
				t.Error("no commit left blocks deferred: carried-over checkpoint entries never exercised")
			}
			if got.raced == 0 || got.imaged == 0 {
				t.Errorf("%d writes raced a superblock write and %d crash images outlived a commit; want both > 0", got.raced, got.imaged)
			}
			if c := compareLifecycles(t, splitRunOps, true); c.split == 0 {
				t.Error("the split-run sequence cut no deferred run at a checkpoint boundary")
			}
			if c := compareLifecycles(t, racedCommitOps, true); c.raced != 2 || c.imaged != 1 {
				t.Errorf("the raced-commit sequence raced %d commits (want 2) and held %d crash images over a commit (want 1)", c.raced, c.imaged)
			}
		})
	}
}

func FuzzDerefRange(f *testing.F) {
	f.Add([]byte{0, 0, 40, 2, 0, 0, 0, 30, 1, 0, 5, 0, 0, 0, 1, 0, 3, 9, 2, 0, 0, 0, 4, 0, 0, 0, 6, 0, 0, 0})
	f.Add([]byte{1, 0, 47, 3, 0, 7, 9, 1, 0, 1, 0, 5, 4, 9, 0, 0, 0, 2, 0, 0, 0, 8, 0, 0, 0, 1, 0, 0, 15, 4, 0, 0, 0})
	for _, seq := range [][]lifeOp{splitRunOps, racedCommitOps} {
		data := []byte{1} // durable
		for _, op := range seq {
			data = append(data, op.kind, op.a, op.b, op.c)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		durable := data[0]&1 == 1
		var ops []lifeOp
		for k := 1; k+4 <= len(data) && len(ops) < 200; k += 4 {
			ops = append(ops, lifeOp{data[k], data[k+1], data[k+2], data[k+3]})
		}
		compareLifecycles(t, ops, durable)
	})
}
