// Command duetsim runs one ad-hoc maintenance scenario from flags and
// prints the task reports: which tasks ran, how much work they did, how
// much I/O Duet saved, and how the workload fared.
//
// Example:
//
//	duetsim -tasks scrub,backup -duet -personality webserver -rate 50 \
//	        -data-mb 256 -cache-mb 16 -window 60s
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"duet/internal/cowfs"
	"duet/internal/machine"
	"duet/internal/metrics"
	"duet/internal/obs"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/tasks"
	"duet/internal/tasks/avscan"
	"duet/internal/tasks/backup"
	"duet/internal/tasks/defrag"
	"duet/internal/tasks/scrub"
	"duet/internal/trace"
	"duet/internal/workload"
)

func main() {
	var (
		taskList    = flag.String("tasks", "scrub", "comma-separated: scrub, backup, defrag, avscan")
		duet        = flag.Bool("duet", true, "use the Duet-enabled (opportunistic) task versions")
		personality = flag.String("personality", "webserver", "workload: webserver, webproxy, fileserver, none")
		dist        = flag.String("dist", "uniform", "file access distribution: uniform, ms-dev0/1/2")
		coverage    = flag.Float64("coverage", 1.0, "fraction of files the workload touches (data overlap)")
		rate        = flag.Float64("rate", 50, "workload operations per second (0 = unthrottled)")
		dataMB      = flag.Int64("data-mb", 256, "populated data size")
		deviceMB    = flag.Int64("device-mb", 1024, "device size")
		cacheMB     = flag.Int64("cache-mb", 16, "page cache size")
		device      = flag.String("device", "hdd", "device model: hdd or ssd")
		sched       = flag.String("sched", "cfq", "I/O scheduler: cfq, deadline, noop")
		window      = flag.Duration("window", 60*time.Second, "experiment window (virtual)")
		seed        = flag.Int64("seed", 1, "simulation seed")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
		metricsOut  = flag.String("metrics", "", "write the metrics registry to this file (.json for JSON, otherwise text)")
	)
	flag.Parse()

	var o *obs.Obs
	if *traceOut != "" || *metricsOut != "" {
		o = &obs.Obs{Metrics: obs.NewRegistry()}
		if *traceOut != "" {
			o.Trace = obs.NewTracer(obs.DefaultTraceEvents)
		}
	}
	m, err := machine.New(machine.Config{
		Seed:         *seed,
		DeviceBlocks: *deviceMB * 256, // MB -> 4 KiB blocks
		Device:       machine.DeviceKind(*device),
		Scheduler:    *sched,
		CachePages:   int(*cacheMB * 256),
		Obs:          o,
	})
	fatal(err)
	files, err := m.Populate(machine.DefaultPopulateSpec("/data", *dataMB*256))
	fatal(err)
	dataRoot, err := m.FS.Lookup("/data")
	fatal(err)

	var gen *workload.Generator
	if *personality != "none" {
		gen, err = workload.New(m.Eng, m.FS, files, workload.Config{
			Personality: workload.Personality(*personality),
			Dir:         "/data",
			Coverage:    *coverage,
			Dist:        trace.ByName(*dist),
			OpsPerSec:   *rate,
		})
		fatal(err)
	}

	reports := map[string]*tasks.Report{}
	wg := sim.NewWaitGroup(m.Eng)
	var taskErr error

	m.Eng.Go("main", func(p *sim.Proc) {
		var snap *cowfs.Snapshot
		for _, t := range strings.Split(*taskList, ",") {
			if strings.TrimSpace(t) == "backup" {
				snap, err = m.FS.CreateSnapshot(p, "/data", "/snap")
				if err != nil {
					taskErr = err
					m.Eng.Stop()
					return
				}
			}
		}
		if gen != nil {
			gen.Start(m.Eng)
		}
		for _, t := range strings.Split(*taskList, ",") {
			t := strings.TrimSpace(t)
			wg.Add(1)
			switch t {
			case "scrub":
				var s *scrub.Scrubber
				if *duet {
					s = scrub.NewOpportunistic(m.FS, scrub.DefaultConfig(), m.Duet, m.Adapter)
				} else {
					s = scrub.New(m.FS, scrub.DefaultConfig())
				}
				reports[t] = &s.Report
				m.Eng.Go("scrub", func(tp *sim.Proc) { defer wg.Done(); check(&taskErr, s.Run(tp)) })
			case "backup":
				var b *backup.Backup
				if *duet {
					b = backup.NewOpportunistic(m.FS, snap, backup.DefaultConfig(), m.Duet, m.Adapter)
				} else {
					b = backup.New(m.FS, snap, backup.DefaultConfig())
				}
				reports[t] = &b.Report
				m.Eng.Go("backup", func(tp *sim.Proc) { defer wg.Done(); check(&taskErr, b.Run(tp)) })
			case "defrag":
				var d *defrag.Defrag
				if *duet {
					d = defrag.NewOpportunistic(m.FS, dataRoot.Ino, defrag.DefaultConfig(), m.Duet, m.Adapter)
				} else {
					d = defrag.New(m.FS, dataRoot.Ino, defrag.DefaultConfig())
				}
				reports[t] = &d.Report
				m.Eng.Go("defrag", func(tp *sim.Proc) { defer wg.Done(); check(&taskErr, d.Run(tp)) })
			case "avscan":
				var a *avscan.Scanner
				if *duet {
					a = avscan.NewOpportunistic(m.FS, dataRoot.Ino, avscan.DefaultConfig(), m.Duet, m.Adapter)
				} else {
					a = avscan.New(m.FS, dataRoot.Ino, avscan.DefaultConfig())
				}
				reports[t] = &a.Report
				m.Eng.Go("avscan", func(tp *sim.Proc) { defer wg.Done(); check(&taskErr, a.Run(tp)) })
			default:
				fmt.Fprintf(os.Stderr, "duetsim: unknown task %q\n", t)
				os.Exit(2)
			}
		}
		wg.Wait(p)
		m.Eng.Stop()
	})

	before := m.Disk.Snapshot()
	fatal(m.Eng.RunFor(sim.FromDuration(*window)))
	fatal(taskErr)
	after := m.Disk.Snapshot()

	fmt.Printf("virtual time: %v, device util: %.1f%% (workload %.1f%%)\n\n",
		m.Eng.Now(), 100*storage.UtilBetween(before, after),
		100*storage.UtilClassBetween(before, after, storage.ClassNormal))

	headers := []string{"task", "mode", "done/total", "saved", "reads", "completed", "duration"}
	var rows [][]string
	for _, name := range []string{"scrub", "backup", "defrag", "avscan"} {
		r := reports[name]
		if r == nil {
			continue
		}
		mode := "baseline"
		if r.Opportunistic {
			mode = "duet"
		}
		rows = append(rows, []string{
			r.Name, mode,
			fmt.Sprintf("%d/%d", r.WorkDone, r.WorkTotal),
			fmt.Sprintf("%d (%.1f%%)", r.Saved, 100*r.SavedFraction()),
			fmt.Sprint(r.ReadBlocks),
			fmt.Sprint(r.Completed),
			r.Duration().String(),
		})
	}
	metrics.RenderTable(os.Stdout, headers, rows)

	if gen != nil {
		s := gen.Stats()
		fmt.Printf("\nworkload: %d ops (%d reads, %d writes), mean latency %.2f ms, errors %d\n",
			s.Ops, s.Reads, s.Writes, s.MeanLatency().Milliseconds(), s.Errors)
	}
	ds := m.Duet.Stats()
	fmt.Printf("duet: %d hook calls, %d items fetched, %d descriptors peak, %d dropped\n",
		ds.HookCalls, ds.ItemsFetched, ds.PeakDescs, ds.EventsDropped)

	if o != nil {
		for _, name := range []string{"scrub", "backup", "defrag", "avscan"} {
			if r := reports[name]; r != nil {
				tasks.ObserveRun(o, *r)
			}
		}
		m.CollectMetrics(o.Metrics)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			fatal(err)
			fatal(obs.WriteTrace(f, "duetsim", o.Trace))
			fatal(f.Close())
			fmt.Fprintf(os.Stderr, "duetsim: wrote %s\n", *traceOut)
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			fatal(err)
			if strings.HasSuffix(*metricsOut, ".json") {
				fatal(obs.WriteMetricsJSON(f, o.Metrics))
			} else {
				fatal(obs.WriteMetricsText(f, o.Metrics))
			}
			fatal(f.Close())
			fmt.Fprintf(os.Stderr, "duetsim: wrote %s\n", *metricsOut)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "duetsim:", err)
		os.Exit(1)
	}
}

func check(dst *error, err error) {
	if err != nil && *dst == nil {
		*dst = err
	}
}
