package pagecache

import (
	"duet/internal/obs"
	"duet/internal/sim"
)

// Observability (internal/obs). The cache's hot paths — Lookup, Insert,
// emit — are deliberately left uninstrumented: the allocation gates
// cover them and a per-access probe would be all overhead. Instead the
// cache traces its writeback activity (the flusher's virtual-time
// slices, with the batch size as an argument) and the quarantine state
// transitions, which is exactly what matters when debugging maintenance
// interference. Cumulative Stats are absorbed post-hoc by
// PublishMetrics.

// cacheObs holds the pre-resolved instruments; nil on c.obs disables
// everything.
type cacheObs struct {
	tr      *obs.Tracer
	tid     int32
	wbPages *obs.Histogram // pages staged per flush pass
}

// wbBatchBounds buckets flush-pass sizes (pages).
var wbBatchBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// EnableObs attaches observability to the cache. Call once at machine
// assembly, before the simulation runs.
func (c *Cache) EnableObs(o *obs.Obs) {
	if o == nil || (o.Trace == nil && o.Metrics == nil) {
		return
	}
	st := &cacheObs{tr: o.Trace}
	if o.Trace != nil {
		st.tid = o.Trace.Track("pagecache")
	}
	if o.Metrics != nil {
		st.wbPages = o.Metrics.Histogram("pagecache.wb_batch_pages", wbBatchBounds)
	}
	c.obs = st
}

// observeFlush records one flush pass: a slice covering the blocking
// writeback interval, tagged with the number of pages staged.
func (c *Cache) observeFlush(start, end sim.Time, pages int) {
	st := c.obs
	st.wbPages.Observe(int64(pages))
	if st.tr != nil && pages > 0 {
		st.tr.SliceArg(st.tid, "pagecache", "writeback", start, end, "pages", int64(pages))
	}
}

// PublishMetrics absorbs the cache's cumulative counters into the
// registry under "pagecache.*". Safe to call repeatedly; values are
// absolute so re-absorption cannot double-count.
func (c *Cache) PublishMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	s := &c.stats
	r.SetCounter("pagecache.hits", s.Hits)
	r.SetCounter("pagecache.misses", s.Misses)
	r.SetCounter("pagecache.inserts", s.Inserts)
	r.SetCounter("pagecache.evictions", s.Evictions)
	r.SetCounter("pagecache.dirty_evictions", s.DirtyEvictions)
	r.SetCounter("pagecache.writeback_pages", s.WritebackPages)
	r.SetCounter("pagecache.removed_by_delete", s.RemovedByDelete)
	r.SetCounter("pagecache.events_dispatched", s.EventsDispatched)
	r.SetCounter("pagecache.events_filtered", s.EventsFiltered)
	r.SetCounter("pagecache.writeback_errors", s.WritebackErrors)
	r.SetCounter("pagecache.quarantine_events", s.QuarantineEvents)
	r.SetCounter("pagecache.requeued_pages", s.RequeuedPages)
	r.SetCounter("pagecache.lost_pages", s.LostPages)
	r.Gauge("pagecache.resident_pages").SetMax(int64(c.n))
	r.Gauge("pagecache.dirty_pages").SetMax(int64(c.dirtyN))
	r.Gauge("pagecache.quarantined_pages").SetMax(int64(len(c.quar)))
}
