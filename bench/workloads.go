package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"duet/internal/cluster"
	"duet/internal/cowfs"
	"duet/internal/experiments"
	"duet/internal/faults"
	"duet/internal/lfs"
	"duet/internal/machine"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/tasks"
	"duet/internal/tasks/backup"
	"duet/internal/tasks/defrag"
	"duet/internal/tasks/gcduet"
	"duet/internal/tasks/scrub"
	"duet/internal/workload"
)

// A workload assembles one deterministic simulation from the product's
// public constructors, exactly as examples/ do, and drives it through a
// *run. All five are closed loops by construction: one simulation, one
// engine thread, and the load generator is the simulated workload.
type workloadDef struct {
	name string
	fn   func(*run) error
}

// BENCHMARK.json and README.md record why each one exists.
var workloads = []workloadDef{
	{"hdd-maint", hddMaint},
	{"ssd-churn", ssdChurn},
	{"lfs-gc", lfsGC},
	{"cluster-repair", clusterRepair},
	{"paper-tab5", paperTab5},
}

func lookupWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- hdd-maint and ssd-churn -------------------------------------------------

func hddMaint(r *run) error {
	s := experiments.ScaleMedium
	return cowMaint(r, cowMaintSpec{
		scale:     s,
		model:     storage.DefaultHDD(s.DeviceBlocks).Slowed(4),
		opsPerSec: 100,
		window:    600 * sim.Second,
		defrag:    true,
		// The one paper-derived check (§6.3): concurrent Duet tasks
		// save at least half of the combined maintenance I/O.
		minIOSaved: 0.5,
	})
}

func ssdChurn(r *run) error {
	s := experiments.ScaleSmall
	// ScaleSmall's 196608 data pages sit exactly on a growth threshold of
	// Duet's descriptor table (0.75 x 2^18 slots): whether the table
	// doubles, and peak RSS goes from 60 to 77 MB, then depends on the
	// seed. 11/16 of 2^18 keeps every seed on the same side.
	s.DataPages = 180224
	return cowMaint(r, cowMaintSpec{
		scale:     s,
		model:     storage.DefaultSSD(s.DeviceBlocks).Slowed(4),
		opsPerSec: 0, // unthrottled
		window:    360 * sim.Second,
	})
}

type cowMaintSpec struct {
	scale      experiments.Scale // geometry only: data, device and cache sizes
	model      storage.Model
	opsPerSec  float64
	window     sim.Time
	defrag     bool
	minIOSaved float64 // checked at full size when positive
}

// cowMaint is the paper's concurrent-maintenance scenario on a cowfs
// machine: a webserver in the foreground, a snapshot, then the
// opportunistic tasks at idle priority until the window closes.
func cowMaint(r *run, spec cowMaintSpec) error {
	var m *machine.Machine
	err := r.spans.in("machine.build", func() (err error) {
		m, err = machine.New(machine.Config{
			Seed:         r.opts.Seed,
			DeviceBlocks: spec.scale.DeviceBlocks,
			Model:        spec.model,
			Scheduler:    "cfq",
			CachePages:   spec.scale.CachePages,
			IdleGrace:    10 * sim.Millisecond,
		})
		return err
	})
	if err != nil {
		return err
	}
	var files []*cowfs.Inode
	err = r.spans.in("machine.populate", func() (err error) {
		ps := machine.DefaultPopulateSpec("/data", spec.scale.DataPages)
		ps.MeanFilePages = 128
		ps.Files = int(spec.scale.DataPages / 128)
		ps.FragmentedFrac = 0.1
		files, err = m.Populate(ps)
		return err
	})
	if err != nil {
		return err
	}

	gen, err := workload.New(m.Eng, m.FS, files, workload.Config{
		Personality: workload.Webserver,
		Dir:         "/data",
		OpsPerSec:   spec.opsPerSec,
	})
	if err != nil {
		return err
	}
	dataRoot, err := m.FS.Lookup("/data")
	if err != nil {
		return err
	}

	var (
		sc      *scrub.Scrubber
		bk      *backup.Backup
		df      *defrag.Defrag
		taskErr error
	)
	note := func(err error) {
		if err != nil && taskErr == nil {
			taskErr = err
		}
	}
	r.beginPrepare()
	m.Eng.Go("bench-main", func(p *sim.Proc) {
		// The snapshot needs simulated I/O, so it runs inside the
		// engine; it is still set-up, and the timed phase starts after it.
		snap, err := m.FS.CreateSnapshot(p, "/data", "/snap")
		if err != nil {
			note(err)
			m.Eng.Stop()
			return
		}
		r.beginTimed()
		gen.Start(m.Eng)
		sc = scrub.NewOpportunistic(m.FS, scrub.DefaultConfig(), m.Duet, m.Adapter)
		m.Eng.Go("task:scrub", func(tp *sim.Proc) { note(sc.Run(tp)) })
		bk = backup.NewOpportunistic(m.FS, snap, backup.DefaultConfig(), m.Duet, m.Adapter)
		m.Eng.Go("task:backup", func(tp *sim.Proc) { note(bk.Run(tp)) })
		if spec.defrag {
			df = defrag.NewOpportunistic(m.FS, dataRoot.Ino, defrag.DefaultConfig(), m.Duet, m.Adapter)
			m.Eng.Go("task:defrag", func(tp *sim.Proc) { note(df.Run(tp)) })
		}
	})
	err = m.Eng.RunFor(r.window(spec.window))
	r.endTimed()
	if err != nil {
		return err
	}
	if taskErr != nil {
		return taskErr
	}

	r.spans.in("machine.collect", func() error {
		m.CollectMetrics(r.reg)
		return nil
	})
	reports := []tasks.Report{sc.Report, bk.Report}
	if df != nil {
		reports = append(reports, df.Report)
	}
	r.spans.in("audit.check", func() error {
		err := m.FS.CheckInvariants()
		r.check(err == nil, "cowfs invariants: %v", err)
		for _, rep := range reports {
			r.check(rep.Errors == 0, "task %s: %d errors", rep.Name, rep.Errors)
			if spec.opsPerSec > 0 && !r.opts.Quick {
				// Only a throttled foreground leaves the idle class
				// enough device time to finish inside the window.
				r.check(rep.Completed, "task %s did not complete (%d/%d)", rep.Name, rep.WorkDone, rep.WorkTotal)
			}
		}
		return nil
	})
	r.taskMetrics(reports)
	r.foreground(gen.Stats())
	if spec.minIOSaved > 0 && !r.opts.Quick {
		r.check(r.sim["io_saved_frac"] >= spec.minIOSaved, "io_saved_frac %.3f < %.2f", r.sim["io_saved_frac"], spec.minIOSaved)
	}
	return nil
}

// taskMetrics derives the paper's two maintenance outcomes from the
// task reports: Table 4's I/O saved (defrag pays reads and writes, so
// its total counts twice) and Fig 6/8's work completed in the window.
func (r *run) taskMetrics(reports []tasks.Report) {
	var saved, done, total, total2x, read float64
	for _, rep := range reports {
		fmt.Fprintf(&r.reports, "%+v\n", rep)
		saved += float64(rep.Saved)
		done += float64(min(rep.WorkDone, rep.WorkTotal))
		total += float64(rep.WorkTotal)
		total2x += float64(rep.WorkTotal)
		if rep.Name == "defrag" {
			total2x += float64(rep.WorkTotal)
		}
		read += float64(rep.ReadBlocks)
	}
	r.sim["io_saved_frac"] = ratio(saved, total2x)
	r.sim["maint_done_frac"] = ratio(done, total)
	r.layer["tasks.work_done"] = done
	r.layer["tasks.saved"] = saved
	r.layer["tasks.read_blocks"] = read
}

// foreground records the generator's outcome: ops are the attempts the
// run's failures are counted against.
func (r *run) foreground(ws *workload.Stats) {
	fmt.Fprintf(&r.reports, "%+v\n", *ws)
	r.sim["fg_lat_mean_ms"] = ws.MeanLatency().Seconds() * 1e3
	r.layer["workload.ops"] = float64(ws.Ops)
	r.layer["workload.errors"] = float64(ws.Errors)
	r.attempted += ws.Ops
	r.failed += ws.Errors
	if ws.Errors > 0 {
		r.failures = append(r.failures, fmt.Sprintf("workload: %d of %d ops failed", ws.Errors, ws.Ops))
	}
}

// --- lfs-gc --------------------------------------------------------------------

func lfsGC(r *run) error {
	const (
		deviceBlocks = 131072
		filePages    = 384
		numFiles     = 238 // ~70% fill
	)
	var m *machine.LFSMachine
	err := r.spans.in("machine.build", func() (err error) {
		m, err = machine.NewLFS(machine.Config{
			Seed:         r.opts.Seed,
			DeviceBlocks: deviceBlocks,
			Model:        storage.DefaultHDD(deviceBlocks).Slowed(4),
			CachePages:   4096,
		}, lfs.Config{SegBlocks: 512, ReservedSegs: 8})
		return err
	})
	if err != nil {
		return err
	}

	var (
		gen     *workload.Generator
		mainErr error
	)
	window := r.window(900 * sim.Second)
	r.beginPrepare()
	m.Eng.Go("bench-main", func(p *sim.Proc) {
		fail := func(err error) {
			mainErr = err
			m.Eng.Stop()
		}
		// Fill the log, then age it with random overwrites so segments
		// hold a mix of valid and invalid blocks. Both need simulated
		// I/O, so they run inside the engine; they are set-up.
		var files []*lfs.Inode
		for i := 0; i < numFiles; i++ {
			f, err := m.FS.Create(fmt.Sprintf("f%03d", i))
			if err != nil {
				fail(err)
				return
			}
			if err := m.FS.Write(p, f.Ino, 0, filePages); err != nil {
				fail(err)
				return
			}
			files = append(files, f)
			if i%8 == 7 {
				m.FS.Sync(p)
			}
		}
		m.FS.Sync(p)
		rng := m.Eng.DeriveRand("age")
		for i := 0; i < 2*numFiles; i++ {
			f := files[rng.Intn(len(files))]
			if err := m.FS.Write(p, f.Ino, rng.Int63n(filePages-8), 8); err != nil {
				fail(err)
				return
			}
			if i%16 == 15 {
				m.FS.Sync(p)
			}
		}
		m.FS.Sync(p)
		for _, f := range files {
			m.Cache.RemoveFile(m.FS.ID(), uint64(f.Ino))
		}
		var err error
		gen, err = workload.NewLFS(m.Eng, m.FS, files, workload.Config{
			Personality: workload.Fileserver,
			OpsPerSec:   25,
		})
		if err != nil {
			fail(err)
			return
		}

		r.beginTimed()
		gen.Start(m.Eng)
		_, _, err = gcduet.StartGC(m.Eng, m.Duet, m.Adapter, m.FS, lfs.GCConfig{
			Interval:       100 * sim.Millisecond,
			IdleAfter:      20 * sim.Millisecond,
			UrgentFreeSegs: 4,
			WindowSegs:     4096,
			MaxValidFrac:   0.95,
		})
		if err != nil {
			fail(err)
			return
		}
		p.Sleep(window)
		m.Eng.Stop()
	})
	err = m.Eng.Run()
	r.endTimed()
	if err != nil {
		return err
	}
	if mainErr != nil {
		return mainErr
	}

	r.spans.in("machine.collect", func() error {
		m.CollectMetrics(r.reg)
		return nil
	})
	st := m.FS.Stats()
	r.spans.in("audit.check", func() error {
		err := m.FS.CheckInvariants()
		r.check(err == nil, "lfs invariants: %v", err)
		r.check(st.GCSyncErrors+st.GCReadErrors+st.WritebackErrors == 0,
			"cleaner errors: sync %d read %d writeback %d", st.GCSyncErrors, st.GCReadErrors, st.WritebackErrors)
		return nil
	})
	fmt.Fprintf(&r.reports, "%+v\n", *st)
	cached, read := float64(st.GCBlocksCached), float64(st.GCBlocksRead)
	r.sim["io_saved_frac"] = ratio(cached, cached+read)
	r.sim["maint_done_frac"] = notApplicable
	r.layer["tasks.work_done"] = float64(st.GCBlocksMoved)
	r.layer["tasks.saved"] = cached
	r.layer["tasks.read_blocks"] = read
	r.foreground(gen.Stats())
	return nil
}

// --- cluster-repair ----------------------------------------------------------

func clusterRepair(r *run) error {
	w := r.window(900 * sim.Second)
	var c *cluster.Cluster
	err := r.spans.in("machine.build", func() (err error) {
		// cluster.New builds the four stacks, the port mesh and the
		// populated shard files in one call; there is no separate
		// populate step to time.
		c, err = cluster.New(cluster.Config{
			Config: machine.Config{
				Seed:         r.opts.Seed,
				DeviceBlocks: 16384,
				CachePages:   256,
			},
			Nodes:      4,
			Replicas:   3,
			Shards:     4,
			ShardPages: 256,
			Window:     w,
			Mode:       cluster.RepairDuet,
			Plan: faults.ClusterPlan{
				Seed:  uint64(r.opts.Seed)*0x9e3779b97f4a7c15 + 0xb5,
				Kills: []faults.KillEvent{{Node: 1, At: w / 5, RecoverAt: w/5 + w/4}},
				// A device plan on every node puts every disk on the
				// fault/retry executor (ROADMAP item 2's slow path).
				Disk: faults.Plan{
					TransientReadRate:  0.01,
					TransientWriteRate: 0.01,
					StallRate:          0.005,
					StallDelay:         2 * sim.Millisecond,
				},
			},
		})
		return err
	})
	if err != nil {
		return err
	}
	c.Eng.SetWorkers(r.opts.Workers)

	r.beginPrepare()
	r.beginTimed()
	err = c.Eng.RunFor(w)
	r.endTimed()
	if err != nil {
		return err
	}

	r.spans.in("machine.collect", func() error {
		c.CollectMetrics(r.reg)
		return nil
	})
	st := c.Stats()
	var audit cluster.AuditReport
	r.spans.in("audit.check", func() error {
		audit = c.Audit()
		return nil
	})
	fmt.Fprintf(&r.reports, "%+v\n%+v\n", st, audit)
	r.check(len(audit.NodeErrors) == 0, "node errors: %v", audit.NodeErrors)
	bad := audit.LostBlocks + audit.DivergentPages + audit.UnsyncedReplicas + audit.DeadNodes + audit.MediumErrors
	r.check(bad == 0, "audit not clean: %+v", audit)
	r.check(st.ConsistencyViolations == 0, "%d stale primary reads", st.ConsistencyViolations)
	r.check(st.KillsDetected == 1, "kills detected %d, want 1", st.KillsDetected)
	r.check(st.ShardRepairs == st.RepairsStarted, "repairs finished %d of %d", st.ShardRepairs, st.RepairsStarted)

	r.attempted += st.WritesIssued + st.ReadsIssued
	opFailures := st.WriteFailures + st.ReadFailures + st.UnavailOps + st.ConsistencyViolations + audit.LostBlocks
	r.failed += opFailures
	if opFailures > 0 {
		r.failures = append(r.failures, fmt.Sprintf("cluster: %d failed client ops or lost blocks", opFailures))
	}

	hits, reads := float64(st.RepairCacheHits), float64(st.RepairDiskReads)
	r.sim["io_saved_frac"] = ratio(hits, hits+reads)
	r.sim["maint_done_frac"] = ratio(float64(st.ShardRepairs), float64(st.RepairsStarted))
	r.sim["fg_lat_mean_ms"] = notApplicable
	r.layer["tasks.work_done"] = float64(st.PagesShipped)
	r.layer["tasks.saved"] = hits
	r.layer["tasks.read_blocks"] = reads
	r.layer["workload.ops"] = float64(st.WritesIssued + st.ReadsIssued)
	r.layer["cluster.degraded_vs"] = float64(st.DegradedUs) / 1e6
	var injected int64
	for _, n := range c.Nodes {
		rob := n.Stack().Robustness()
		injected += rob.TransientFaults + rob.PermanentFaults + rob.TornWrites + rob.Stalls
	}
	r.layer["faults.injected"] = float64(injected + st.Kills)
	return nil
}

// --- paper-tab5 ----------------------------------------------------------------

// tab5Cells is the number of result cells in Table 5: 9 rows by 6
// task columns.
const tab5Cells = 54

func paperTab5(r *run) error {
	exp, ok := experiments.Lookup("tab5")
	if !ok {
		return fmt.Errorf("experiment tab5 is not registered")
	}
	scale := experiments.ScaleTiny
	scale.Window = r.window(scale.Window)
	var golden string
	if !r.opts.Quick {
		root, err := repoRoot()
		if err != nil {
			return err
		}
		all, err := os.ReadFile(filepath.Join(root, "cmd", "duetbench", "testdata", "golden_tiny_stdout.txt"))
		if err != nil {
			return err
		}
		if golden, err = goldenSection(string(all), "tab5"); err != nil {
			return err
		}
	}
	experiments.Workers = 1

	var buf bytes.Buffer
	cells0 := experiments.CellsRun()
	r.beginPrepare()
	r.beginTimed()
	err := exp.Run(scale, &buf)
	r.endTimed()
	if err != nil {
		return err
	}
	r.layer["experiments.cells"] = float64(experiments.CellsRun() - cells0)
	r.reports.Write(buf.Bytes())

	r.attempted += tab5Cells
	if !r.opts.Quick {
		// The product's output is the simulated result here: it must
		// match the committed golden byte for byte.
		r.spans.in("audit.check", func() error {
			diff := diffCells(golden, buf.String())
			r.failed += int64(diff)
			r.check(diff == 0 && golden == buf.String(), "tab5 differs from golden in %d cells:\n%s", diff, buf.String())
			return nil
		})
	}
	// Table 5 reports neither I/O saved nor foreground latency, and the
	// grid's machines are not reachable from outside.
	r.sim["io_saved_frac"] = notApplicable
	r.sim["maint_done_frac"] = notApplicable
	r.sim["fg_lat_mean_ms"] = notApplicable
	return nil
}

// goldenSection extracts one experiment's body from duetbench's golden
// stdout: the lines after its "==> id:" header up to the next header,
// without the blank separator line.
func goldenSection(all, id string) (string, error) {
	start := strings.Index(all, "==> "+id+":")
	if start < 0 {
		return "", fmt.Errorf("golden has no section %q", id)
	}
	body := all[start:]
	body = body[strings.Index(body, "\n")+1:]
	if end := strings.Index(body, "\n==> "); end >= 0 {
		body = body[:end+1]
	}
	return strings.TrimRight(body, "\n") + "\n", nil
}

// diffCells counts whitespace-separated fields that differ between two
// renderings of the same table (all of them if the shapes differ).
func diffCells(want, got string) int {
	w, g := strings.Fields(want), strings.Fields(got)
	if len(w) != len(g) {
		return tab5Cells
	}
	n := 0
	for i := range w {
		if w[i] != g[i] {
			n++
		}
	}
	return min(n, tab5Cells)
}

// repoRoot finds the checkout root: the nearest parent directory whose
// go.mod declares module duet.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module duet\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod declaring module duet above the working directory")
		}
		dir = parent
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
