package cowfs

import (
	"fmt"
	"math/rand"
)

// Fast population. Experiments start from a pre-populated filesystem
// (the paper fills 50 GB before each run). Simulating those writes
// through the cache and device would burn hours of virtual time for no
// experimental value, so PopulateFile builds files directly: extents are
// allocated, checksums and medium content are set, and no pages enter the
// cache — exactly the state after a populate-and-reboot.

// PopulateFile creates a file of sizePg pages split into wantExtents
// physically scattered extents (1 = contiguous). The rng determines
// extent placement; pass a seeded source for reproducible layouts.
func (fs *FS) PopulateFile(path string, sizePg int64, wantExtents int, rng *rand.Rand) (*Inode, error) {
	i, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	if sizePg == 0 {
		return i, nil
	}
	if wantExtents < 1 {
		wantExtents = 1
	}
	if int64(wantExtents) > sizePg {
		wantExtents = int(sizePg)
	}
	fs.gen++
	i.Gen = fs.gen
	i.SizePg = sizePg
	i.PageVers = make([]uint32, sizePg)

	// Split the size into wantExtents pieces and allocate each at a
	// random hint so the pieces scatter across the device. PopulateFile
	// never blocks, so one run buffer serves every piece.
	rb := fs.getRunBuf()
	defer fs.putRunBuf(rb)
	per := sizePg / int64(wantExtents)
	logical := int64(0)
	for part := 0; part < wantExtents; part++ {
		n := per
		if part == wantExtents-1 {
			n = sizePg - logical
		}
		if n == 0 {
			continue
		}
		hint := int64(0)
		if wantExtents > 1 {
			hint = rng.Int63n(fs.disk.Blocks())
		}
		runs, err := fs.allocate(n, hint, rb.runs[:0])
		rb.runs = runs
		if err != nil {
			return nil, fmt.Errorf("cowfs: populate %s: %w", path, err)
		}
		for _, r := range runs {
			i.Extents = insertExtent(i.Extents, Extent{Logical: logical, Phys: r.phys, Len: r.len, Gen: fs.gen})
			for k := int64(0); k < r.len; k++ {
				idx := logical + k
				ver := fs.bumpVer()
				i.PageVers[idx] = ver
				b := r.phys + k
				fs.want[b] = ver
				fs.diskVer[b] = ver
				fs.rev[b] = newRev(i.Ino)
			}
			logical += r.len
		}
	}
	return i, nil
}

// FragmentationThreshold is the extent count above which a file is
// considered fragmented and worth defragmenting.
const FragmentationThreshold = 4

// FragmentedFiles returns the inodes under dir with more than
// FragmentationThreshold extents, sorted by inode number.
func (fs *FS) FragmentedFiles(dir Ino) []*Inode {
	var out []*Inode
	for _, f := range fs.FilesUnder(dir) {
		if len(f.Extents) > FragmentationThreshold {
			out = append(out, f)
		}
	}
	return out
}
