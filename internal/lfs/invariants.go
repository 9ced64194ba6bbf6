package lfs

import "fmt"

// CheckInvariants is a debug walk over the filesystem's accounting
// structures. It cross-checks the inode block maps against the segment
// slot tables, valid counts, state machine, valid-count buckets, and the
// free/partial bitmaps, so a leaked slot, stale bucket entry, or
// double-claimed block cannot hide. Tests and audits call it; it is
// O(blocks) and allocates, so it must never run on a simulation hot
// path.
func (fs *FS) CheckInvariants() error {
	nb := fs.disk.Blocks()

	// Pass 1: every mapped file page must own exactly one valid slot that
	// points back at it.
	type ownerRec struct {
		ino Ino
		idx int64
	}
	owner := make(map[int64]ownerRec, 64)
	for ino, i := range fs.inodes {
		if int64(len(i.blocks)) != i.SizePg || int64(len(i.vers)) != i.SizePg {
			return fmt.Errorf("lfs: inode %d maps %d blocks / %d vers for size %d", ino, len(i.blocks), len(i.vers), i.SizePg)
		}
		for idx, b := range i.blocks {
			if b == NoBlock {
				continue
			}
			if b < 0 || b >= nb {
				return fmt.Errorf("lfs: inode %d page %d outside device: block %d", ino, idx, b)
			}
			if prev, ok := owner[b]; ok {
				return fmt.Errorf("lfs: block %d claimed by inode %d page %d and inode %d page %d",
					b, prev.ino, prev.idx, ino, idx)
			}
			owner[b] = ownerRec{ino: ino, idx: int64(idx)}
			seg := fs.segs[fs.SegOf(b)]
			s := seg.slots[int(b)%fs.cfg.SegBlocks]
			if !s.valid || s.ino != ino || s.idx != int64(idx) {
				return fmt.Errorf("lfs: block %d slot %+v does not match owner inode %d page %d", b, s, ino, idx)
			}
		}
	}

	// Pass 2: per-segment — valid counts match the slot tables, no valid
	// slot is orphaned, and each state agrees with the bitmaps.
	for si, seg := range fs.segs {
		valid := 0
		for k, s := range seg.slots {
			if !s.valid {
				continue
			}
			valid++
			b := int64(si*fs.cfg.SegBlocks + k)
			o, ok := owner[b]
			if !ok || o.ino != s.ino || o.idx != s.idx {
				return fmt.Errorf("lfs: segment %d slot %d valid for inode %d page %d, but no file maps it", si, k, s.ino, s.idx)
			}
		}
		if valid != seg.Valid {
			return fmt.Errorf("lfs: segment %d Valid=%d but %d valid slots", si, seg.Valid, valid)
		}
		free := fs.freeSegs.Test(uint64(si))
		switch seg.State {
		case SegFree:
			if seg.Valid != 0 || !free {
				return fmt.Errorf("lfs: free segment %d has Valid=%d, freeSegs=%v", si, seg.Valid, free)
			}
			if fs.partial.Test(uint64(si)) {
				return fmt.Errorf("lfs: free segment %d marked partial", si)
			}
		case SegOpen:
			if si != fs.curSeg {
				return fmt.Errorf("lfs: segment %d open but curSeg=%d", si, fs.curSeg)
			}
			if free || fs.partial.Test(uint64(si)) {
				return fmt.Errorf("lfs: open segment %d in free/partial sets", si)
			}
		case SegFull:
			if free {
				return fmt.Errorf("lfs: full segment %d in free set", si)
			}
			if seg.Valid == 0 {
				return fmt.Errorf("lfs: full segment %d has no valid blocks", si)
			}
			wantPartial := seg.Valid < fs.cfg.SegBlocks
			if fs.partial.Test(uint64(si)) != wantPartial {
				return fmt.Errorf("lfs: segment %d (Valid=%d) partial bit %v", si, seg.Valid, !wantPartial)
			}
		}
	}
	if fs.curSeg >= 0 && fs.segs[fs.curSeg].State != SegOpen {
		return fmt.Errorf("lfs: curSeg=%d but its state is %d", fs.curSeg, fs.segs[fs.curSeg].State)
	}

	// Pass 3: bucket lists — every linked segment is SegFull with
	// matching Valid; every such segment is linked exactly once.
	linked := make(map[int]bool, len(fs.segs))
	for v, head := range fs.validBkt {
		for si := head; si >= 0; si = fs.segs[si].bktNext {
			seg := fs.segs[si]
			if linked[int(si)] {
				return fmt.Errorf("lfs: segment %d linked into buckets twice", si)
			}
			linked[int(si)] = true
			if seg.State != SegFull || seg.Valid != v {
				return fmt.Errorf("lfs: bucket %d holds segment %d (state %d, Valid=%d)",
					v, si, seg.State, seg.Valid)
			}
		}
	}
	for si, seg := range fs.segs {
		if seg.State == SegFull && !linked[si] {
			return fmt.Errorf("lfs: full segment %d (Valid=%d) missing from buckets", si, seg.Valid)
		}
	}
	return nil
}
