// Package tasks holds the shared reporting types for the maintenance
// tasks of the paper's §5 (scrubbing, backup, defragmentation, garbage
// collection, rsync). Each task lives in its own subpackage and comes in
// two flavours: the baseline behaviour of the original tool and the
// Duet-enabled opportunistic version.
package tasks

import "duet/internal/sim"

// Report summarises one maintenance task run. Work units are pages
// (blocks) unless noted.
type Report struct {
	// Name identifies the task ("scrub", "backup", ...).
	Name string
	// Opportunistic is true for Duet-enabled runs.
	Opportunistic bool
	// WorkTotal is the work the task had to do (e.g. allocated blocks for
	// the scrubber, snapshot blocks for backup).
	WorkTotal int64
	// WorkDone is how much was completed before the run ended.
	WorkDone int64
	// Saved counts work units satisfied without maintenance device I/O —
	// blocks skipped because the workload or another task had already
	// brought them into memory.
	Saved int64
	// ReadBlocks / WrittenBlocks count the device I/O the task issued
	// itself (writeback attributed to the task included where tagged).
	ReadBlocks    int64
	WrittenBlocks int64
	// Errors counts recoverable errors (e.g. corruptions found and fixed).
	Errors int64
	// Degraded counts times the task's Duet session overflowed and the
	// task fell back to re-scanning a range it had trusted events for.
	Degraded int64
	// RescanBlocks counts work units returned to the scan queue by those
	// degraded-mode fallbacks.
	RescanBlocks int64
	// Completed reports whether the task finished its full work list.
	Completed bool
	// Start and End bound the run in virtual time (End is the completion
	// or interruption instant).
	Start, End sim.Time
}

// SavedFraction returns Saved/WorkTotal in [0,1].
func (r Report) SavedFraction() float64 {
	if r.WorkTotal == 0 {
		return 0
	}
	return float64(r.Saved) / float64(r.WorkTotal)
}

// Duration returns the task's runtime.
func (r Report) Duration() sim.Time { return r.End - r.Start }

// Settle is deferred by every task's Run, right after it sets Start, so
// that it runs when Run returns and when the engine stops and unwinds the
// task. A run stopped before it recorded any progress (a task starved of
// I/O in its first chunk) has no End yet, and Settle gives it the stop
// instant; End ≥ Start then holds for every report read after the engine
// stops. A run that recorded an End keeps it.
func (r *Report) Settle(p *sim.Proc) {
	if r.End == 0 {
		r.End = p.Now()
	}
}
