package experiments

import (
	"fmt"
	"io"

	"duet/internal/faults"
	"duet/internal/machine"
	"duet/internal/obs"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/tasks/scrub"
)

// The robustness sweep: deterministic fault plans against the cowfs
// stack, proving the end-to-end claim that no acknowledged-durable block
// is ever lost. Each row runs a mixed read/write workload with periodic
// durability commits while the device misbehaves per the plan, then
// heals the device (or crashes and recovers), scrubs to completion with
// repair enabled, and finally sweeps every allocated block's checksum.
// A nonzero lost column — or a failed recovery — fails the experiment.

// faultRow is one line of the sweep table.
type faultRow struct {
	name     string
	latent   int // latent sector errors scheduled over the first half window
	plan     faults.Plan
	crash    bool // power-cut at half window, then recover
	maxQueue int  // force the scrubber session into degraded mode
}

// faultCell aggregates one cell's outcome.
type faultCell struct {
	detected int64 // corruptions/bad sectors the scrub found
	repaired int64
	lost     int64 // allocated blocks unrecoverable at the end
	aborts   int64 // commits refused (quarantined pages)
	degraded int64 // degraded-mode fallbacks taken by the scrubber
	rescans  int64 // blocks returned to the scan by those fallbacks
	rob      machine.Robustness
}

func (c *faultCell) add(o faultCell) {
	c.detected += o.detected
	c.repaired += o.repaired
	c.lost += o.lost
	c.aborts += o.aborts
	c.degraded += o.degraded
	c.rescans += o.rescans
	c.rob.Add(o.rob)
}

func runFaultsSweep(c *RunConfig, w io.Writer) error {
	s := c.Scale
	window := s.Window / 2 // the fault phase; scrub-to-completion follows
	rows := []faultRow{
		{name: "latent-sectors", latent: 8},
		{name: "transient-io", plan: faults.Plan{
			TransientReadRate:  0.02,
			TransientWriteRate: 0.02,
			StallRate:          0.01,
			StallDelay:         5 * sim.Millisecond,
		}},
		{name: "torn+permanent", plan: faults.Plan{
			PermanentWriteRate: 0.01,
			TornWriteRate:      0.05,
		}},
		{name: "crash+recover", crash: true, plan: faults.Plan{
			TransientWriteRate: 0.01,
			CrashAt:            window / 2,
		}},
		{name: "degraded-duet", maxQueue: 16},
	}

	fmt.Fprintf(w, "%-16s %9s %9s %9s %6s %7s %9s %9s %8s\n",
		"plan", "faults", "detected", "repaired", "lost", "aborts", "degraded", "rescans", "commits")
	for _, row := range rows {
		var agg faultCell
		for _, seed := range seeds(s) {
			cell, err := runFaultCell(c, seed, row, window)
			if err != nil {
				return fmt.Errorf("faults %s seed %d: %w", row.name, seed, err)
			}
			agg.add(cell)
		}
		injected := agg.rob.TransientFaults + agg.rob.PermanentFaults + agg.rob.TornWrites + int64(row.latent*len(seeds(s)))
		fmt.Fprintf(w, "%-16s %9d %9d %9d %6d %7d %9d %9d %8d\n",
			row.name, injected, agg.detected, agg.repaired, agg.lost,
			agg.aborts, agg.degraded, agg.rescans, agg.rob.Commits)
		if agg.lost != 0 {
			return fmt.Errorf("faults %s: %d blocks lost (want 0)", row.name, agg.lost)
		}
	}
	return nil
}

// buildFaultMachine assembles the cell's machine with a populated tree
// and durability armed (an initial checkpoint of the populated state).
func buildFaultMachine(s Scale, seed int64, o *obs.Obs) (*machine.Machine, error) {
	m, err := machine.New(machine.Config{
		Seed:         seed,
		DeviceBlocks: s.DeviceBlocks,
		Model:        storage.DefaultHDD(s.DeviceBlocks).Slowed(s.DeviceSlow),
		CachePages:   s.CachePages,
		IdleGrace:    sim.Time(2.5 * s.DeviceSlow * float64(sim.Millisecond)),
		Obs:          o,
	})
	if err != nil {
		return nil, err
	}
	// A quarter of the scale's data keeps the robustness cells cheap:
	// the sweep exercises failure paths, not steady-state throughput.
	if _, err := m.Populate(machine.DefaultPopulateSpec("/data", s.DataPages/4)); err != nil {
		return nil, err
	}
	m.EnableDurability()
	return m, nil
}

// planFor finalizes the row's plan for one seed: per-seed decision
// stream, latent errors spread over allocated blocks and the first half
// of the fault window.
func planFor(m *machine.Machine, row faultRow, seed int64, window sim.Time) faults.Plan {
	plan := row.plan
	plan.Seed = uint64(seed)*0x9e3779b97f4a7c15 + 1
	if row.latent > 0 {
		nb := m.Disk.Blocks()
		stride := nb / int64(row.latent+1)
		for k := 1; k <= row.latent; k++ {
			b, ok := m.FS.NextAllocated(int64(k) * stride)
			if !ok {
				b, ok = m.FS.NextAllocated(0)
			}
			if !ok {
				break
			}
			plan.LatentErrors = append(plan.LatentErrors, faults.LatentError{
				Block: b,
				At:    window * sim.Time(k) / sim.Time(2*row.latent),
			})
		}
	}
	return plan
}

// faultWorkload drives a deterministic read/write mix over the populated
// files until the deadline. Read errors are expected while the device
// is faulty (latent sectors, exhausted retries) and are absorbed here;
// data-integrity accounting happens in the final sweep, not per op.
func faultWorkload(m *machine.Machine, deadline sim.Time) func(*sim.Proc) {
	return func(p *sim.Proc) {
		root, err := m.FS.Lookup("/data")
		if err != nil {
			return
		}
		files := m.FS.FilesUnder(root.Ino)
		if len(files) == 0 {
			return
		}
		for step := 0; p.Now() < deadline && !p.Engine().Stopping(); step++ {
			f := files[step%len(files)]
			if f.SizePg == 0 {
				p.Sleep(2 * sim.Millisecond)
				continue
			}
			off := int64(step*7) % f.SizePg
			n := int64(4)
			if off+n > f.SizePg {
				n = f.SizePg - off
			}
			if step%3 == 0 {
				_ = m.FS.Read(p, f.Ino, off, n, storage.ClassNormal, "workload")
			} else {
				_ = m.FS.Write(p, f.Ino, off, n)
			}
			p.Sleep(2 * sim.Millisecond)
		}
	}
}

// faultCommitter runs the durability barrier periodically, counting
// refusals (quarantined pages make Commit abort rather than acknowledge
// memory-only data).
func faultCommitter(m *machine.Machine, deadline sim.Time, aborts *int64) func(*sim.Proc) {
	return func(p *sim.Proc) {
		period := deadline / 6
		if period <= 0 {
			period = sim.Second
		}
		for p.Now() < deadline && !p.Engine().Stopping() {
			p.Sleep(period)
			if err := m.FS.Commit(p); err != nil {
				*aborts++
			}
		}
	}
}

// healAndScrub sleeps through the fault window (delay), then clears the
// device faults (the "replaced controller"), requeues quarantined pages,
// scrubs the filesystem to completion with repair on, and lands a final
// commit. It drives the engine's single Run: the fault-phase procs share
// it and exit at their deadline.
func healAndScrub(m *machine.Machine, row faultRow, delay sim.Time, cell *faultCell) error {
	var runErr error
	m.Eng.Go("heal-scrub", func(p *sim.Proc) {
		defer m.Eng.Stop()
		if delay > 0 {
			p.Sleep(delay)
		}
		m.Disk.SetFaultInjector(nil)
		for _, key := range m.Cache.Quarantined(nil) {
			m.Cache.Requeue(key)
		}
		cfg := scrub.DefaultConfig()
		cfg.MaxQueue = row.maxQueue
		var sc *scrub.Scrubber
		if row.maxQueue > 0 {
			sc = scrub.NewOpportunistic(m.FS, cfg, m.Duet, m.Adapter)
		} else {
			sc = scrub.New(m.FS, cfg)
		}
		if err := sc.Run(p); err != nil {
			runErr = fmt.Errorf("scrub: %w", err)
			return
		}
		if !sc.Report.Completed {
			runErr = fmt.Errorf("scrub did not complete")
			return
		}
		cell.detected += sc.Report.Errors
		cell.repaired += sc.Report.Errors
		cell.degraded += sc.Report.Degraded
		cell.rescans += sc.Report.RescanBlocks
		if err := m.FS.Commit(p); err != nil {
			runErr = fmt.Errorf("final commit: %w", err)
		}
	})
	if err := m.Eng.Run(); err != nil {
		return err
	}
	return runErr
}

// lostBlocks sweeps every allocated block without I/O: a block whose
// medium content no longer matches its checksum (and is not dirty in
// cache), or that is still marked bad, is lost. After heal + scrub +
// recovery this must be zero.
func lostBlocks(m *machine.Machine) int64 {
	var lost int64
	for b, ok := m.FS.NextAllocated(0); ok; b, ok = m.FS.NextAllocated(b + 1) {
		if m.FS.CheckBlock(b) != nil {
			lost++
		}
	}
	for _, b := range m.Disk.BadBlocks() {
		if m.FS.Allocated(b) {
			lost++
		}
	}
	return lost
}

func runFaultCell(c *RunConfig, seed int64, row faultRow, window sim.Time) (faultCell, error) {
	var cell faultCell
	o := c.newObs()
	m, err := buildFaultMachine(c.Scale, seed, o)
	if err != nil {
		return cell, err
	}
	plan := planFor(m, row, seed, window)
	if !plan.Zero() {
		m.AttachFaults(plan)
	}

	deadline := m.Eng.Now() + window
	m.Eng.Go("fault-workload", faultWorkload(m, deadline))
	m.Eng.Go("fault-committer", faultCommitter(m, deadline, &cell.aborts))

	heal := window // the heal phase starts when the fault window closes
	if row.maxQueue > 0 {
		// Degraded-mode row: the scrubber must run concurrently with the
		// workload so its shrunken fetch queue actually overflows.
		heal = 0
	}
	if row.crash {
		// Power cut: run to the crash instant — RunFor unwinds every
		// process, the simulated memory state dies with them — then
		// remount from the durable image on a fresh machine. The heal
		// phase runs there, from virtual time zero.
		if err := m.Eng.RunFor(plan.CrashAt); err != nil {
			return cell, err
		}
		rm, err := m.Recover()
		if err != nil {
			return cell, err
		}
		cell.rob.Add(m.Robustness())
		m = rm
		heal = 0
	}

	if err := healAndScrub(m, row, heal, &cell); err != nil {
		return cell, err
	}
	if err := m.FS.CheckInvariants(); err != nil {
		return cell, fmt.Errorf("invariants after heal: %w", err)
	}
	cell.lost = lostBlocks(m)
	cell.rob.Add(m.Robustness())
	c.fold(observe(o, m, cellTrace(o, fmt.Sprintf("faults %s seed%d", row.name, seed))))
	return cell, nil
}

func init() {
	register(Experiment{
		ID:    "faults",
		Title: "Fault injection: detection, repair, degraded Duet, crash recovery",
		Exec:  runFaultsSweep,
	})
}
