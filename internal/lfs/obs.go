package lfs

import (
	"duet/internal/obs"
)

// Observability (internal/obs). The cleaner is the interesting actor in
// a log-structured filesystem: each completed GC pass becomes one
// virtual-time slice tagged with the blocks it migrated, and abandoned
// passes (device read failures) are marked with an instant event.
// Cumulative Stats are absorbed by PublishMetrics.

// lfsObs holds the pre-resolved instruments; nil on fs.obs disables
// everything.
type lfsObs struct {
	tr  *obs.Tracer
	tid int32
}

// EnableObs attaches observability to the filesystem. Call once at
// machine assembly, before the simulation runs.
func (fs *FS) EnableObs(o *obs.Obs) {
	if o == nil || o.Trace == nil {
		return
	}
	fs.obs = &lfsObs{tr: o.Trace, tid: o.Trace.Track("lfs")}
}

// PublishMetrics absorbs the filesystem's cumulative counters into the
// registry under "lfs.*". Safe to call repeatedly; values are absolute
// so re-absorption cannot double-count.
func (fs *FS) PublishMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	s := &fs.stats
	r.SetCounter("lfs.writes_pages", s.WritesPages)
	r.SetCounter("lfs.reads_pages", s.ReadsPages)
	r.SetCounter("lfs.miss_pages", s.MissPages)
	r.SetCounter("lfs.writeback_pages", s.WritebackPages)
	r.SetCounter("lfs.writeback_errors", s.WritebackErrors)
	r.SetCounter("lfs.invalidations", s.Invalidations)
	r.SetCounter("lfs.segs_freed", s.SegsFreed)
	r.SetCounter("lfs.segs_cleaned", s.SegsCleaned)
	r.SetCounter("lfs.gc_blocks_moved", s.GCBlocksMoved)
	r.SetCounter("lfs.gc_blocks_read", s.GCBlocksRead)
	r.SetCounter("lfs.gc_blocks_cached", s.GCBlocksCached)
	r.SetCounter("lfs.in_place_writes", s.InPlaceWrites)
	r.SetCounter("lfs.gc_sync_errors", s.GCSyncErrors)
	r.SetCounter("lfs.gc_read_errors", s.GCReadErrors)
	r.Gauge("lfs.free_segments").Set(int64(fs.FreeSegments()))
}
