// Package storage simulates block devices: a hard disk with seek and
// transfer costs, and a solid-state drive with flat per-operation latency.
//
// A Disk couples a device Model with an I/O Scheduler (see
// internal/iosched) and an executor callback that services one request
// at a time over virtual time, tracking the busy-time statistics the
// paper's evaluation relies on (device utilization is the %util
// statistic of iostat, §6.1.2).
package storage

import (
	"errors"
	"fmt"
	"math"

	"duet/internal/sim"
)

// BlockSize is the size of one device block in bytes. It equals the page
// size so that one page maps to one block, as in the paper's Linux setup.
const BlockSize = 4096

// Class is an I/O priority class, mirroring CFQ's classes. The paper runs
// maintenance I/O at Idle priority (§6.1.3).
type Class int

const (
	// ClassNormal is foreground (workload) I/O.
	ClassNormal Class = iota
	// ClassIdle is maintenance I/O, serviced only when the device has
	// been idle for a grace period under the CFQ-like scheduler.
	ClassIdle
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassNormal:
		return "normal"
	case ClassIdle:
		return "idle"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ErrBadBlock is returned when a request touches an injected bad block.
var ErrBadBlock = errors.New("storage: uncorrectable read error")

// ErrOutOfRange is returned when a request falls outside the device.
var ErrOutOfRange = errors.New("storage: request out of device range")

// Request is a block I/O request. Block and Count are in device blocks.
type Request struct {
	Block int64
	Count int
	Write bool
	Class Class
	Owner string // accounting label: "workload", "scrub", "backup", ...

	submitted sim.Time
	done      *sim.Future[struct{}]
	nextFree  *Request // free-list link while recycled (see Disk.getRequest)
}

// Model describes the performance characteristics of a device.
type Model interface {
	// Name identifies the model ("hdd", "ssd").
	Name() string
	// Blocks is the device capacity in blocks.
	Blocks() int64
	// ServiceTime is how long the request occupies the device, given the
	// head position left by the previous request (first block after it).
	ServiceTime(r *Request, headPos int64) sim.Time
}

// Scheduler orders pending requests. Implementations live in
// internal/iosched.
type Scheduler interface {
	// Name identifies the scheduler ("cfq", "deadline", "noop").
	Name() string
	// Add enqueues a request.
	Add(r *Request)
	// Dispatch returns the next request to service. If no request is
	// currently eligible it returns nil and either a positive wait hint
	// (call again after that much time) or zero (wait for new arrivals).
	Dispatch(now, lastNormal sim.Time) (*Request, sim.Time)
	// Pending returns the number of queued requests.
	Pending() int
}

// OwnerStats aggregates per-owner I/O accounting.
type OwnerStats struct {
	Reads, Writes             int64 // requests
	BlocksRead, BlocksWritten int64
	BusyTime                  sim.Time
	TotalLatency              sim.Time // submit-to-complete, summed
}

// AvgLatency returns the mean request latency for this owner.
func (o OwnerStats) AvgLatency() sim.Time {
	n := o.Reads + o.Writes
	if n == 0 {
		return 0
	}
	return o.TotalLatency / sim.Time(n)
}

// Stats aggregates device accounting.
type Stats struct {
	BusyTime     sim.Time
	Requests     int64
	ByOwner      map[string]*OwnerStats
	ByClassBusy  [numClasses]sim.Time
	BadBlockHits int64

	// Fault and recovery accounting. All zero unless a FaultInjector is
	// attached (see faults.go).
	TransientFaults int64    // injected transient errors observed
	PermanentFaults int64    // injected permanent errors propagated
	TornWrites      int64    // permanent errors that were torn writes
	Stalls          int64    // attempts delayed by an injected stall
	Retries         int64    // retry attempts issued by the executor
	Timeouts        int64    // requests failed on the deadline
	BackoffTime     sim.Time // virtual time spent backing off
}

// Owner returns (allocating if needed) the stats bucket for an owner.
func (s *Stats) Owner(name string) *OwnerStats {
	if s.ByOwner == nil {
		s.ByOwner = make(map[string]*OwnerStats)
	}
	o := s.ByOwner[name]
	if o == nil {
		o = &OwnerStats{}
		s.ByOwner[name] = o
	}
	return o
}

// Disk is a simulated block device: model + scheduler + executor callback.
type Disk struct {
	Name string

	eng        sim.Host
	model      Model
	sched      Scheduler
	stats      Stats
	headPos    int64
	lastNormal sim.Time // completion time of the last normal-class request
	kick       *sim.WaitQueue
	badBlocks  map[int64]bool
	reqFree    *Request // recycled requests for the blocking Read/Write wrappers

	// Executor state (see step). The executor is a sim.Callback: every
	// service step runs inline on the scheduler with no goroutine
	// handoff. inFlight is the request occupying the device for
	// inFlightST; graceCB is the single reusable grace-wait timer.
	cb         *sim.Callback
	graceCB    *sim.Callback
	inFlight   *Request
	inFlightST sim.Time

	// Fault injection (nil/zero on the fault-free path; see faults.go),
	// then the retry state of the request being serviced: attempt
	// number, next backoff, whether the injector evaluated the in-flight
	// attempt (and its outcome), the request while it waits out a backoff.
	injector  FaultInjector
	retry     RetryPolicy
	attempt   int
	backoff   sim.Time
	evaluated bool
	outcome   FaultOutcome
	retrying  *Request

	// Observability (nil when disabled; see obs.go).
	obs *diskObs
}

// Wait reasons are static strings: they name the disk's subscribed
// intervals in DumpWaiters output and trace slices.
const (
	reasonDiskIdle  = "disk idle"
	reasonDiskGrace = "disk grace wait"
)

// NewDisk creates a disk and registers its executor callback on e.
func NewDisk(e sim.Host, name string, model Model, sched Scheduler) *Disk {
	d := &Disk{
		Name:  name,
		eng:   e,
		model: model,
		sched: sched,
		kick:  sim.NewWaitQueue(e),
	}
	d.cb = sim.NewCallback(e, "disk:"+name, d.step)
	d.graceCB = sim.NewCallback(e, "disk-timer:"+name, func(sim.Time) sim.Time {
		d.kick.WakeAll()
		return 0
	})
	d.kick.Subscribe(d.cb, reasonDiskIdle)
	return d
}

// Model returns the device model.
func (d *Disk) Model() Model { return d.model }

// Blocks returns the device capacity in blocks.
func (d *Disk) Blocks() int64 { return d.model.Blocks() }

// Stats returns a pointer to the live statistics. Callers must not modify
// it; snapshot with Snapshot for deltas.
func (d *Disk) Stats() *Stats { return &d.stats }

// Snapshot copies the cumulative busy time and timestamp; subtract two
// snapshots to compute utilization over a window.
type Snapshot struct {
	At       sim.Time
	BusyTime sim.Time
	ByClass  [numClasses]sim.Time
}

// Snapshot captures the current accounting state.
func (d *Disk) Snapshot() Snapshot {
	return Snapshot{At: d.eng.Now(), BusyTime: d.stats.BusyTime, ByClass: d.stats.ByClassBusy}
}

// UtilBetween returns the fraction of time the device was busy between two
// snapshots, like iostat's %util.
func UtilBetween(a, b Snapshot) float64 {
	if b.At <= a.At {
		return 0
	}
	return float64(b.BusyTime-a.BusyTime) / float64(b.At-a.At)
}

// UtilClassBetween returns busy fraction attributable to one class.
func UtilClassBetween(a, b Snapshot, c Class) float64 {
	if b.At <= a.At {
		return 0
	}
	return float64(b.ByClass[c]-a.ByClass[c]) / float64(b.At-a.At)
}

// LastNormalCompletion returns when the last normal-class request
// finished; background tasks use it for idle detection.
func (d *Disk) LastNormalCompletion() sim.Time { return d.lastNormal }

// QueueDepth returns the number of requests waiting in the scheduler.
func (d *Disk) QueueDepth() int { return d.sched.Pending() }

// InjectBadBlock marks a block as unreadable: reads covering it fail with
// ErrBadBlock (used for scrubber failure-injection tests).
func (d *Disk) InjectBadBlock(block int64) {
	if d.badBlocks == nil {
		d.badBlocks = make(map[int64]bool)
	}
	d.badBlocks[block] = true
}

// RepairBlock clears an injected bad block (a scrubber "repair").
func (d *Disk) RepairBlock(block int64) { delete(d.badBlocks, block) }

// SubmitAsync enqueues a request and returns a future that completes when
// it is serviced. The future's error is non-nil on read failures.
func (d *Disk) SubmitAsync(r *Request) *sim.Future[struct{}] {
	// A recycled request carries its (reset) future; a caller-built one
	// gets a fresh future here.
	if r.done == nil {
		r.done = sim.NewFuture[struct{}](d.eng)
	}
	if r.Count <= 0 || r.Block < 0 || r.Block+int64(r.Count) > d.model.Blocks() {
		r.done.Complete(struct{}{}, fmt.Errorf("%w: block %d count %d on %q (%d blocks)",
			ErrOutOfRange, r.Block, r.Count, d.Name, d.model.Blocks()))
		return r.done
	}
	r.submitted = d.eng.Now()
	d.sched.Add(r)
	d.kick.WakeOne()
	return r.done
}

// Submit enqueues a request and blocks the calling process until it is
// serviced, returning any device error.
func (d *Disk) Submit(p *sim.Proc, r *Request) error {
	f := d.SubmitAsync(r)
	_, err := f.Wait(p)
	return err
}

// getRequest takes a request (with an attached, reset future) from the
// free list. The blocking wrappers below are the only users: once Submit
// returns, nothing else references the request, so it can be recycled.
// Requests built by SubmitAsync callers are never pooled.
func (d *Disk) getRequest() *Request {
	r := d.reqFree
	if r == nil {
		return &Request{}
	}
	d.reqFree = r.nextFree
	r.nextFree = nil
	r.done.Reset()
	return r
}

func (d *Disk) putRequest(r *Request) {
	r.nextFree = d.reqFree
	d.reqFree = r
}

// Read issues a blocking read of count blocks at block.
func (d *Disk) Read(p *sim.Proc, block int64, count int, class Class, owner string) error {
	r := d.getRequest()
	r.Block, r.Count, r.Write, r.Class, r.Owner = block, count, false, class, owner
	err := d.Submit(p, r)
	d.putRequest(r)
	return err
}

// Write issues a blocking write of count blocks at block.
func (d *Disk) Write(p *sim.Proc, block int64, count int, class Class, owner string) error {
	r := d.getRequest()
	r.Block, r.Count, r.Write, r.Class, r.Owner = block, count, true, class, owner
	err := d.Submit(p, r)
	d.putRequest(r)
	return err
}

// step is the executor, a state machine over the callback's wakeups:
// the in-flight attempt's service time elapsed (complete it, or re-arm
// for a retry backoff), a retry backoff elapsed (start the request's
// next attempt), or a request arrived or the grace timer fired while
// idle (dispatch). Returning a service time or a backoff re-arms the
// callback, drawing the timer's seq at that point; returning 0 leaves
// it subscribed to kick. It runs inline on the domain scheduler — no
// goroutine exists for the disk, with or without a fault plan.
func (d *Disk) step(now sim.Time) sim.Time {
	r := d.retrying
	d.retrying = nil
	if done := d.inFlight; done != nil {
		d.inFlight = nil
		if backoff := d.complete(done, now); backoff > 0 {
			d.retrying = done
			return backoff
		}
	}
	if r == nil {
		var wait sim.Time
		r, wait = d.sched.Dispatch(now, d.lastNormal)
		if r == nil {
			if wait > 0 {
				// An idle-class request is waiting out the grace period. Arm
				// the grace timer through the run queue and listen for new
				// arrivals; the earlier of the two re-invokes the step.
				d.graceCB.ArmDeferred(wait)
				d.kick.Subscribe(d.cb, reasonDiskGrace)
			} else {
				d.kick.Subscribe(d.cb, reasonDiskIdle)
			}
			return 0
		}
		if d.obs != nil {
			d.observeDispatch()
		}
		d.attempt, d.backoff = 0, d.retry.BaseBackoff
	}
	// Start one service attempt. The injector, when attached, decides
	// its outcome now and may stall it; complete applies the decision.
	st := d.model.ServiceTime(r, d.headPos)
	if d.evaluated = d.injector != nil; d.evaluated {
		d.outcome = d.injector.Evaluate(now, r, d.attempt)
		if d.outcome.ExtraLatency > 0 {
			d.stats.Stalls++
			st += d.outcome.ExtraLatency
		}
	}
	d.inFlight, d.inFlightST = r, st
	return st
}

// complete applies the accounting for the service attempt of r that
// ends at now. It returns a positive backoff when the attempt failed
// transiently and the retry policy grants another (see retryOrFail);
// otherwise the request is finished and its future resolves.
func (d *Disk) complete(r *Request, now sim.Time) sim.Time {
	st := d.inFlightST
	d.headPos = r.Block + int64(r.Count)
	d.stats.BusyTime += st
	d.stats.ByClassBusy[r.Class] += st
	if r.Class == ClassNormal {
		d.lastNormal = now
	}
	o := d.stats.Owner(r.Owner)
	o.BusyTime += st

	var err error
	if d.evaluated {
		err = d.outcome.Err
	}
	if err == nil && !r.Write && d.badBlocks != nil {
		for b := r.Block; b < r.Block+int64(r.Count); b++ {
			if d.badBlocks[b] {
				d.stats.BadBlockHits++
				err = fmt.Errorf("%w at block %d", ErrBadBlock, b)
				break
			}
		}
	}
	if d.evaluated {
		var backoff sim.Time
		if backoff, err = d.retryOrFail(r, err, now); backoff > 0 {
			return backoff
		}
	}

	d.stats.Requests++
	o.TotalLatency += now - r.submitted
	if r.Write {
		o.Writes++
		o.BlocksWritten += int64(r.Count)
	} else {
		o.Reads++
		o.BlocksRead += int64(r.Count)
	}
	if d.obs != nil {
		d.observeComplete(r, now-st, now)
		if err != nil && d.evaluated && d.obs.tr != nil {
			d.obs.tr.Instant(d.obs.tid, "storage", "io-error", now)
		}
	}
	r.done.Complete(struct{}{}, err)
	return 0
}

// HDD models a 10K RPM enterprise hard drive. Positioning cost grows with
// seek distance; sequential access pays transfer time only.
type HDD struct {
	Capacity    int64    // blocks
	SeekBase    sim.Time // minimum positioning cost for a non-adjacent seek
	SeekMax     sim.Time // additional cost at full-stroke distance
	NearSeek    sim.Time // positioning cost within NearBlocks of the head
	NearBlocks  int64
	PerBlock    sim.Time // media transfer time per block
	PerBlockWr  sim.Time // write transfer time per block (0 = same as read)
	ReqOverhead sim.Time // fixed controller/command overhead per request
}

// DefaultHDD returns parameters approximating the paper's 300 GB 10K RPM
// SAS drive (~150 MB/s sequential, ~21 MB/s 64 KB random reads), scaled to
// the given capacity in blocks.
func DefaultHDD(blocks int64) *HDD {
	return &HDD{
		Capacity:    blocks,
		SeekBase:    800 * sim.Microsecond,
		SeekMax:     3500 * sim.Microsecond,
		NearSeek:    500 * sim.Microsecond,
		NearBlocks:  256,
		PerBlock:    26 * sim.Microsecond, // 4 KiB / 150 MB/s
		ReqOverhead: 50 * sim.Microsecond,
	}
}

// Name implements Model.
func (h *HDD) Name() string { return "hdd" }

// Blocks implements Model.
func (h *HDD) Blocks() int64 { return h.Capacity }

// ServiceTime implements Model.
func (h *HDD) ServiceTime(r *Request, headPos int64) sim.Time {
	perBlock := h.PerBlock
	if r.Write && h.PerBlockWr > 0 {
		perBlock = h.PerBlockWr
	}
	t := h.ReqOverhead + sim.Time(int64(perBlock)*int64(r.Count))
	dist := r.Block - headPos
	if dist < 0 {
		dist = -dist
	}
	switch {
	case dist == 0:
		// sequential: no positioning
	case dist <= h.NearBlocks:
		t += h.NearSeek
	default:
		frac := float64(dist) / float64(h.Capacity)
		if frac > 1 {
			frac = 1
		}
		t += h.SeekBase + h.SeekMax.Scale(math.Sqrt(frac))
	}
	return t
}

// Slowed returns a copy of the HDD with every latency multiplied by f.
// The experiment harness uses this to keep the paper's ratio of
// maintenance-work time to experiment window at reduced data scales: a
// device f× slower makes a dataset f× smaller take the same fraction of
// the (also scaled) window.
func (h *HDD) Slowed(f float64) *HDD {
	c := *h
	c.SeekBase = c.SeekBase.Scale(f)
	c.SeekMax = c.SeekMax.Scale(f)
	c.NearSeek = c.NearSeek.Scale(f)
	c.PerBlock = c.PerBlock.Scale(f)
	c.PerBlockWr = c.PerBlockWr.Scale(f)
	c.ReqOverhead = c.ReqOverhead.Scale(f)
	return &c
}

// Slowed returns a copy of the SSD with every latency multiplied by f.
func (s *SSD) Slowed(f float64) *SSD {
	c := *s
	c.ReadOp = c.ReadOp.Scale(f)
	c.WriteOp = c.WriteOp.Scale(f)
	c.PerBlockRd = c.PerBlockRd.Scale(f)
	c.PerBlockWr = c.PerBlockWr.Scale(f)
	return &c
}

// SSD models a consumer SATA solid-state drive (the paper's Intel 510):
// flat per-request latency plus per-block transfer, no positional cost.
type SSD struct {
	Capacity   int64
	ReadOp     sim.Time // fixed cost per read request
	WriteOp    sim.Time // fixed cost per write request
	PerBlockRd sim.Time
	PerBlockWr sim.Time
}

// DefaultSSD returns parameters approximating the Intel 510 (~25 MB/s 4 KB
// random reads, ~300+ MB/s large sequential reads, ~210 MB/s writes).
func DefaultSSD(blocks int64) *SSD {
	return &SSD{
		Capacity:   blocks,
		ReadOp:     150 * sim.Microsecond,
		WriteOp:    170 * sim.Microsecond,
		PerBlockRd: 10 * sim.Microsecond, // 4 KiB / ~400 MB/s
		PerBlockWr: 19 * sim.Microsecond, // 4 KiB / ~210 MB/s
	}
}

// Name implements Model.
func (s *SSD) Name() string { return "ssd" }

// Blocks implements Model.
func (s *SSD) Blocks() int64 { return s.Capacity }

// ServiceTime implements Model.
func (s *SSD) ServiceTime(r *Request, _ int64) sim.Time {
	if r.Write {
		return s.WriteOp + sim.Time(int64(s.PerBlockWr)*int64(r.Count))
	}
	return s.ReadOp + sim.Time(int64(s.PerBlockRd)*int64(r.Count))
}
