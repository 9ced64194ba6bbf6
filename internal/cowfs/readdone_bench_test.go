package cowfs_test

import (
	"math/rand"
	"testing"

	"duet/internal/core"
	"duet/internal/cowfs"
	"duet/internal/iosched"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
)

// BenchmarkReadMissRunDone measures cold whole-file reads, per page,
// with Duet attached and every block done: the shape of a cache turned
// over by the workload after maintenance has finished. Two files of
// readMissPages (256) pages each, in four extents, take turns in a
// cache that holds one of them, so every page read evicts a page of the
// other file. A scrub-like block session (Added and Dirtied events) and
// a backup-like one (Exists state) have marked every block of both
// files done, so every event of the read is suppressed.
func BenchmarkReadMissRunDone(b *testing.B) {
	const pages = 256
	e := sim.New(1)
	disk := storage.NewDisk(e, "sda", storage.DefaultHDD(1<<16), iosched.NewCFQ())
	cache := pagecache.New(e, pagecache.DefaultConfig(pages))
	fs := cowfs.New(e, 1, disk, cache)
	d := core.New(cache)
	ad := core.AttachCow(d, fs)
	rng := rand.New(rand.NewSource(1))
	var files [2]*cowfs.Inode
	for k, path := range []string{"/a", "/b"} {
		f, err := fs.PopulateFile(path, pages, 4, rng)
		if err != nil {
			b.Fatal(err)
		}
		files[k] = f
	}
	for _, mask := range []core.Mask{core.EvtAdded | core.EvtDirtied, core.StExists} {
		s, err := d.RegisterBlock(ad, mask)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range files {
			for _, ext := range f.Extents {
				for blk := ext.Phys; blk < ext.Phys+ext.Len; blk++ {
					s.SetDone(uint64(blk))
				}
			}
		}
	}
	read := func(p *sim.Proc, f *cowfs.Inode) {
		missed, err := fs.ReadCount(p, f.Ino, 0, f.SizePg, storage.ClassNormal, "bench")
		if err != nil || missed != f.SizePg {
			b.Fatalf("read missed %d of %d pages: %v", missed, f.SizePg, err)
		}
	}
	e.Go("bench", func(p *sim.Proc) {
		defer e.Stop()
		for i := 0; i < 64; i++ {
			read(p, files[i%2])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(p, files[i%2])
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if got := d.Stats().ItemsFetched; got != 0 {
		b.Fatalf("%d items fetched", got)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
}
