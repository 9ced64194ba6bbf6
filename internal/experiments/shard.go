package experiments

import (
	"fmt"
	"io"

	"duet/internal/machine"
	"duet/internal/metrics"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/tasks/scrub"
	"duet/internal/trace"
	"duet/internal/workload"
)

// The sharded-machine experiment: N independent device stacks (device +
// cache + filesystem + Duet) on N event domains, coordinated from the
// default domain over Ports.

// shardCount is the number of independent stacks per sharded cell; the
// cell's footprint is ≈ 4 ordinary cells.
const shardCount = 4

// shardWorkloadRate is a fixed foreground rate per shard (ops/s). The
// sharded cell skips utilization calibration — the point is engine
// behavior, not a paper figure — so the rate is pinned rather than
// bisected, keeping the cell cheap and the cross-shard load identical.
const shardWorkloadRate = 24

func runShardExp(c *RunConfig, w io.Writer) error {
	s := c.Scale
	fmt.Fprintf(w, "# Sharded machine: %d device stacks on %d event domains, scrubbing + webserver per shard\n",
		shardCount, shardCount+1)
	headers := []string{"Mode", "I/O saved", "Work completed", "Shards finished", "Reports"}
	var rows [][]string
	for _, duet := range []bool{false, true} {
		var ioSaved, workDone []float64
		finished, reports := 0, int64(0)
		for _, seed := range seeds(s) {
			r, err := runShardCell(c, seed, duet)
			if err != nil {
				return err
			}
			ioSaved = append(ioSaved, r.ioSaved)
			workDone = append(workDone, r.workCompleted)
			finished += r.finished
			reports += r.reports
		}
		mode := "baseline"
		if duet {
			mode = "duet"
		}
		mIO, _ := metrics.CI95(ioSaved)
		mWk, _ := metrics.CI95(workDone)
		rows = append(rows, []string{
			mode,
			fmt.Sprintf("%.3f", mIO),
			metrics.Pct(mWk),
			fmt.Sprintf("%d/%d", finished, shardCount*len(seeds(s))),
			fmt.Sprint(reports),
		})
	}
	metrics.RenderTable(w, headers, rows)
	return nil
}

type shardCellResult struct {
	ioSaved       float64
	workCompleted float64
	finished      int   // shards whose scrubber completed in the window
	reports       int64 // cross-domain report messages the coordinator saw
}

// runShardCell runs one sharded simulation: every shard waits for a
// start command from the coordinator, then runs a webserver workload
// plus a scrubber; shards stream progress reports back, and the
// coordinator stops the run early once every shard reports done.
func runShardCell(c *RunConfig, seed int64, duet bool) (*shardCellResult, error) {
	s := c.Scale
	o := c.newObs()
	m, err := machine.NewSharded(machine.ShardedConfig{
		Config: machine.Config{
			Seed:         seed,
			DeviceBlocks: s.DeviceBlocks,
			Model:        storage.DefaultHDD(s.DeviceBlocks).Slowed(s.DeviceSlow),
			CachePages:   s.CachePages,
			IdleGrace:    sim.Time(2.5 * s.DeviceSlow * float64(sim.Millisecond)),
			Obs:          o,
		},
		Shards:      shardCount,
		PortLatency: sim.Millisecond,
	})
	if err != nil {
		return nil, err
	}

	ps := machine.DefaultPopulateSpec("/data", s.DataPages)
	ps.MeanFilePages = 128
	ps.Files = int(s.DataPages / 128)
	files, err := m.Populate(ps)
	if err != nil {
		return nil, err
	}

	scrubbers := make([]*scrub.Scrubber, shardCount)
	// One error slot per shard: shard procs never write state shared
	// with another domain.
	scrubErrs := make([]error, shardCount)
	for i, sh := range m.Shards {
		i, sh := i, sh
		gen, err := workload.New(sh.Host, sh.FS, files[i], workload.Config{
			Personality: workload.Webserver,
			Dir:         "/data",
			Coverage:    1,
			Dist:        trace.ByName("uniform"),
			OpsPerSec:   shardWorkloadRate,
		})
		if err != nil {
			return nil, err
		}
		var sc *scrub.Scrubber
		if duet {
			sc = scrub.NewOpportunistic(sh.FS, scrub.DefaultConfig(), sh.Duet, sh.Adapter)
		} else {
			sc = scrub.New(sh.FS, scrub.DefaultConfig())
		}
		scrubbers[i] = sc
		sh.Host.Go("shard-main", func(p *sim.Proc) {
			if cmd := sh.Ctl.Recv(p); cmd.Kind != "start" {
				return
			}
			gen.Start(sh.Host)
			// Progress heartbeats keep the coordinator ports busy for the
			// whole window, so the cross-domain path is exercised under
			// sustained load rather than just at the endpoints.
			sh.Host.Go("shard-progress", func(hp *sim.Proc) {
				for !hp.Engine().Stopping() {
					hp.Sleep(sim.Second)
					sh.Report.Send(hp, machine.ShardReport{
						Shard: i, Kind: "progress",
						Value: sc.Report.WorkDone, At: hp.Now(),
					})
				}
			})
			if err := sc.Run(p); err != nil {
				scrubErrs[i] = err
			}
			sh.Report.Send(p, machine.ShardReport{
				Shard: i, Kind: "done", Value: sc.Report.WorkDone, At: p.Now(),
			})
		})
	}

	res := &shardCellResult{}
	wg := sim.NewWaitGroup(m.Eng)
	for _, sh := range m.Shards {
		sh := sh
		wg.Add(1)
		// One collector per shard on the coordinator domain: drain the
		// shard's report stream until it says done.
		m.Eng.Go("coord-collect", func(p *sim.Proc) {
			defer wg.Done()
			for {
				r := sh.Report.Recv(p)
				res.reports++
				if r.Kind == "done" {
					return
				}
			}
		})
	}
	m.Eng.Go("coordinator", func(p *sim.Proc) {
		for _, sh := range m.Shards {
			sh.Ctl.Send(p, machine.ShardCommand{Kind: "start"})
		}
		wg.Wait(p)
		m.Eng.Stop() // every shard finished before the window closed
	})

	if err := m.Eng.RunFor(s.Window); err != nil {
		return nil, err
	}
	for i, err := range scrubErrs {
		if err != nil {
			return nil, fmt.Errorf("shard %d scrub: %w", i, err)
		}
	}

	var saved, total, done float64
	for _, sc := range scrubbers {
		saved += float64(sc.Report.Saved)
		total += float64(sc.Report.WorkTotal)
		done += float64(sc.Report.WorkDone)
		if sc.Report.Completed {
			res.finished++
		}
	}
	if total > 0 {
		res.ioSaved = saved / total
		res.workCompleted = done / total
		if res.workCompleted > 1 {
			res.workCompleted = 1
		}
	}
	mode := "base"
	if duet {
		mode = "duet"
	}
	c.fold(observe(o, m, m.TraceProcesses(fmt.Sprintf("shard-cell %s seed%d", mode, seed))...))
	return res, nil
}

func init() {
	register(Experiment{ID: "shard", Title: "Sharded multi-device machine (domain-parallel engine)", Exec: runShardExp})
}
