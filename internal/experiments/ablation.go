package experiments

import (
	"fmt"
	"io"

	"duet/internal/core"
	"duet/internal/metrics"
	"duet/internal/sim"
	"duet/internal/tasks/defrag"
	"duet/internal/workload"
)

// Ablations for the design choices DESIGN.md calls out. These are not
// paper figures; they quantify why Duet is built the way it is.

// runAbSched compares the CFQ-with-idle-class configuration against the
// Deadline scheduler that cannot prioritize (§6.5 "I/O prioritization"):
// without prioritization, maintenance finishes faster but slows the
// workload, which then generates fewer events, reducing I/O saved.
func runAbSched(c *RunConfig, w io.Writer) error {
	fmt.Fprintln(w, "# Ablation: I/O prioritization (§6.5) — scrubbing + webserver at 50% target util")
	headers := []string{"Scheduler", "I/O saved", "Workload mean latency", "Workload ops", "Scrub done"}
	scheds := []string{"cfq", "deadline"}
	var cells []RunSpec
	for _, sched := range scheds {
		cells = append(cells, RunSpec{
			Env: EnvSpec{Scale: c.Scale, Seed: 1, Personality: workload.Webserver,
				TargetUtil: 0.5, Sched: sched},
			Tasks: []TaskName{TaskScrub},
			Duet:  true,
		})
	}
	results := c.RunGrid(cells)
	if err := FirstErr(results); err != nil {
		return err
	}
	var rows [][]string
	for i, sched := range scheds {
		out := results[i].Outcome
		rows = append(rows, []string{
			sched,
			fmt.Sprintf("%.3f", out.IOSaved()),
			fmt.Sprintf("%.2f ms", out.Workload.MeanLatency().Milliseconds()),
			fmt.Sprint(out.Workload.Ops),
			metrics.Pct(out.WorkCompleted()),
		})
	}
	metrics.RenderTable(w, headers, rows)
	return nil
}

// runAbFetch shows why tasks must poll regularly (§4.2): with infrequent
// fetches, descriptors back up and — once the per-session limit is hit —
// events are dropped.
func runAbFetch(c *RunConfig, w io.Writer) error {
	fmt.Fprintln(w, "# Ablation: fetch frequency vs descriptor backlog (per-session limit 4096)")
	headers := []string{"Fetch interval", "Peak queue", "Dropped events", "Items fetched"}
	var rows [][]string
	for _, intervalMS := range []int{5, 50, 500, 5000} {
		spec := EnvSpec{Scale: c.Scale, Seed: 1, Personality: workload.Webserver, TargetUtil: 1}
		e, err := build(spec, 0, c.newObs())
		if err != nil {
			return err
		}
		root, err := e.m.FS.Lookup("/data")
		if err != nil {
			return err
		}
		sess, err := e.m.Duet.RegisterFile(e.m.Adapter, uint64(root.Ino), core.EventBits)
		if err != nil {
			return err
		}
		sess.MaxItems = 4096
		e.gen.Start(e.m.Eng)
		peak := 0
		fetched := int64(0)
		interval := sim.Time(intervalMS) * sim.Millisecond
		e.m.Eng.Go("fetcher", func(p *sim.Proc) {
			buf := make([]core.Item, 256)
			for {
				p.Sleep(interval)
				if q := sess.QueueLen(); q > peak {
					peak = q
				}
				for {
					n := sess.FetchInto(buf)
					fetched += int64(n)
					if n < len(buf) {
						break
					}
				}
			}
		})
		if err := e.m.Eng.RunFor(20 * sim.Second); err != nil {
			return err
		}
		c.fold(observe(e.obs, e.m, cellTrace(e.obs, fmt.Sprintf("ab-fetch %dms", intervalMS))))
		rows = append(rows, []string{
			fmt.Sprintf("%d ms", intervalMS),
			fmt.Sprint(peak),
			fmt.Sprint(sess.Dropped),
			fmt.Sprint(fetched),
		})
	}
	metrics.RenderTable(w, headers, rows)
	return nil
}

// runAbPolicy compares the paper's most-cached-first priority queue with
// plain event-order processing for the defragmenter.
func runAbPolicy(c *RunConfig, w io.Writer) error {
	fmt.Fprintln(w, "# Ablation: defragmenter queue policy (most-cached-fraction vs event order)")
	headers := []string{"Policy", "I/O saved", "Pages read", "Completed"}
	var rows [][]string
	for _, fifo := range []bool{false, true} {
		spec := EnvSpec{Scale: c.Scale, Seed: 1, Personality: workload.Webserver, TargetUtil: 0.6}
		rate, err := calibrateRate(spec)
		if err != nil {
			return err
		}
		e, err := build(spec, rate, c.newObs())
		if err != nil {
			return err
		}
		root, err := e.m.FS.Lookup("/data")
		if err != nil {
			return err
		}
		cfg := defrag.DefaultConfig()
		cfg.FIFOQueue = fifo
		d := defrag.NewOpportunistic(e.m.FS, root.Ino, cfg, e.m.Duet, e.m.Adapter)
		e.gen.Start(e.m.Eng)
		e.m.Eng.Go("task:defrag", func(p *sim.Proc) {
			if err := d.Run(p); err == nil {
				e.m.Eng.Stop()
			}
		})
		if err := e.m.Eng.RunFor(c.Scale.Window); err != nil {
			return err
		}
		name := "most-cached-first"
		if fifo {
			name = "event order"
		}
		c.fold(observe(e.obs, e.m, cellTrace(e.obs, "ab-policy "+name)))
		saved := 0.0
		if d.Report.WorkTotal > 0 {
			saved = float64(d.Report.Saved) / float64(2*d.Report.WorkTotal)
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.3f", saved),
			fmt.Sprint(d.Report.ReadBlocks),
			fmt.Sprint(d.Report.Completed),
		})
	}
	metrics.RenderTable(w, headers, rows)
	return nil
}

// runAbDone quantifies the framework-side done filtering of §4.1: marking
// items done inside Duet suppresses event processing for completed work,
// which a task-side-only design would keep paying for.
func runAbDone(c *RunConfig, w io.Writer) error {
	fmt.Fprintln(w, "# Ablation: framework-side done filtering (events suppressed for done items)")
	out, err := runTasks(c, RunSpec{
		Env: EnvSpec{Scale: c.Scale, Seed: 1, Personality: workload.Webserver,
			TargetUtil: 0.7},
		Tasks: []TaskName{TaskScrub},
		Duet:  true,
	})
	if err != nil {
		return err
	}
	c.fold(out.obs)
	// The scrubber's session is closed after the run; its counters were
	// accumulated in the Duet stats. Re-derive from a live observer run.
	spec := EnvSpec{Scale: c.Scale, Seed: 1, Personality: workload.Webserver, TargetUtil: 0.7}
	rate, err := calibrateRate(spec)
	if err != nil {
		return err
	}
	e, err := build(spec, rate, c.newObs())
	if err != nil {
		return err
	}
	sess, err := e.m.Duet.RegisterBlock(e.m.Adapter, core.EvtAdded|core.EvtDirtied)
	if err != nil {
		return err
	}
	e.gen.Start(e.m.Eng)
	e.m.Eng.Go("marker", func(p *sim.Proc) {
		// Consume events and mark everything done, as the scrubber does.
		buf := make([]core.Item, 256)
		for {
			p.Sleep(20 * sim.Millisecond)
			for {
				n := sess.FetchInto(buf)
				for _, it := range buf[:n] {
					sess.SetDone(it.ID)
				}
				if n < len(buf) {
					break
				}
			}
		}
	})
	if err := e.m.Eng.RunFor(30 * sim.Second); err != nil {
		return err
	}
	c.fold(observe(e.obs, e.m, cellTrace(e.obs, "ab-done observer")))
	rows := [][]string{
		{"events delivered", fmt.Sprint(sess.EventsSeen)},
		{"events suppressed by done bitmap", fmt.Sprint(sess.SuppressedDone)},
		{"suppression ratio", fmt.Sprintf("%.2f", float64(sess.SuppressedDone)/float64(sess.EventsSeen+sess.SuppressedDone+1))},
		{"scrub I/O saved (reference run)", fmt.Sprintf("%.3f", out.IOSaved())},
	}
	metrics.RenderTable(w, []string{"quantity", "value"}, rows)
	return nil
}

func init() {
	register(Experiment{ID: "ab-sched", Title: "Ablation: I/O prioritization", Exec: runAbSched})
	register(Experiment{ID: "ab-fetch", Title: "Ablation: fetch frequency vs backlog", Exec: runAbFetch})
	register(Experiment{ID: "ab-policy", Title: "Ablation: defrag queue policy", Exec: runAbPolicy})
	register(Experiment{ID: "ab-done", Title: "Ablation: done-bitmap filtering", Exec: runAbDone})
}

// runAbEvict measures the informed-cache-replacement extension (the
// PACMan-inspired future work of §2): reclaim defers evicting pages whose
// Duet hints no task has consumed yet. Compared at a cache-thrashing
// utilization with scrubbing + backup running concurrently.
func runAbEvict(c *RunConfig, w io.Writer) error {
	s := c.Scale
	fmt.Fprintln(w, "# Ablation: informed cache replacement (keep pages with unconsumed hints)")
	headers := []string{"Eviction policy", "I/O saved", "Work completed", "Reclaim deferrals"}
	var rows [][]string
	for _, informed := range []bool{false, true} {
		rate, err := calibrateRate(EnvSpec{Scale: s, Personality: workload.Webserver, TargetUtil: 0.6})
		if err != nil {
			return err
		}
		e, err := build(EnvSpec{Scale: s, Seed: 1, Personality: workload.Webserver, TargetUtil: 0.6}, rate, c.newObs())
		if err != nil {
			return err
		}
		if informed {
			e.m.Cache.SetAdvisor(e.m.Duet)
		}
		out, err := runTasksOn(e, []TaskName{TaskScrub, TaskBackup}, true, s.Window)
		if err != nil {
			return err
		}
		c.fold(out.obs)
		name := "LRU"
		if informed {
			name = "LRU + Duet advice"
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.3f", out.IOSaved()),
			metrics.Pct(out.WorkCompleted()),
			fmt.Sprint(e.m.Cache.Stats().AdvisorDeferrals),
		})
	}
	metrics.RenderTable(w, headers, rows)
	return nil
}

func init() {
	register(Experiment{ID: "ab-evict", Title: "Ablation: informed cache replacement", Exec: runAbEvict})
}
