package experiments

import (
	"fmt"
	"io"
	"os"

	"duet/internal/core"
	"duet/internal/metrics"
	"duet/internal/sim"
	"duet/internal/workload"
)

// Overhead experiments (§6.4): CPU cost of the Duet hooks and fetch path
// (Figure 9) and memory cost of descriptors and bitmaps.

// runFig9 measures Duet's CPU overhead: a simple file task registers the
// data directory and fetches at fixed intervals while an unthrottled
// webserver workload generates page events (the paper's ~12 events/ms
// setup) — the closest analogue of the paper's "CPU available to
// applications" measurement.
//
// The rendered figure uses a fixed per-operation cost model over the
// (deterministic) simulated operation counts, so duetbench stdout stays
// byte-identical across runs and -j values; the live real-CPU
// measurement (Duet.MeasureCPU) still runs and is reported on stderr,
// where run-to-run jitter is harmless. The model constants below were
// calibrated against that measurement on the reference machine
// (see EXPERIMENTS.md).
const (
	fig9HookCost  = 250 // ns per page-event hook call
	fig9ItemCost  = 120 // ns per item delivered through Fetch
	fig9FetchCost = 900 // ns per duet_fetch invocation
)

func runFig9(c *RunConfig, w io.Writer) error {
	fig := &metrics.Figure{
		Title:  "Figure 9: CPU overhead of Duet (unthrottled webserver generating events)",
		XLabel: "fetch-ms",
		YLabel: "Duet CPU overhead (%)",
	}
	const runFor = 30 * sim.Second
	masks := []struct {
		name string
		mask core.Mask
	}{
		{"events", core.EventBits},
		{"state", core.StExists | core.StModified},
	}
	for _, mk := range masks {
		series := metrics.Series{Name: mk.name}
		for _, fetchMS := range []int{10, 20, 40} {
			e, err := c.cell(EnvSpec{Scale: c.Scale, Seed: 1, Personality: workload.Webserver, TargetUtil: 1})
			if err != nil {
				return err
			}
			e.m.Duet.MeasureCPU = true
			sess, err := e.m.Duet.RegisterFile(e.m.Adapter, uint64(e.root.Ino), mk.mask)
			if err != nil {
				return err
			}
			e.gen.Start(e.m.Eng)
			interval := sim.Time(fetchMS) * sim.Millisecond
			e.m.Eng.Go("fetcher", func(p *sim.Proc) {
				buf := make([]core.Item, 256)
				for {
					p.Sleep(interval)
					for sess.FetchInto(buf) == len(buf) {
					}
				}
			})
			if err := e.m.Eng.RunFor(runFor); err != nil {
				return err
			}
			c.fold(e.finish(fmt.Sprintf("fig9 %s fetch%dms", mk.name, fetchMS)))
			st := e.m.Duet.Stats()
			modelNanos := st.HookCalls*fig9HookCost + st.ItemsFetched*fig9ItemCost + st.FetchCalls*fig9FetchCost
			overhead := float64(modelNanos) / float64(runFor) * 100
			measured := float64(st.HookNanos+st.FetchNanos) / float64(runFor) * 100
			fmt.Fprintf(os.Stderr, "fig9: %s fetch=%dms modeled %.3f%%, measured %.3f%% CPU overhead\n",
				mk.name, fetchMS, overhead, measured)
			series.Points = append(series.Points, metrics.Point{X: float64(fetchMS), Y: overhead})
			if fetchMS == 10 && mk.name == "events" {
				fmt.Fprintf(w, "# event rate: %.1f events/ms (paper setup: ~12/ms), items fetched: %d, dropped: %d\n",
					float64(st.HookCalls)/runFor.Milliseconds(), st.ItemsFetched, st.EventsDropped)
			}
			_ = sess.Close()
		}
		fig.Series = append(fig.Series, series)
	}
	fig.Render(w)
	return nil
}

// runMem reports Duet's memory overhead while scrubbing with 100% overlap
// (§6.4's worst-case measurement: item descriptors bounded by 2× cache
// pages, bitmaps ~1 bit/block).
func runMem(c *RunConfig, w io.Writer) error {
	// A dedicated state session plays the scrubber's role so the sampler
	// can observe live descriptor and bitmap sizes mid-run (runTasks
	// closes its sessions on completion).
	e, err := c.cell(EnvSpec{Scale: c.Scale, Seed: 1, Personality: workload.Webserver, TargetUtil: 0.5})
	if err != nil {
		return err
	}
	sess, err := e.m.Duet.RegisterBlock(e.m.Adapter, core.StExists|core.StModified)
	if err != nil {
		return err
	}
	e.gen.Start(e.m.Eng)
	var peakMem, peakQueue int
	e.m.Eng.Go("sampler", func(p *sim.Proc) {
		buf := make([]core.Item, 256)
		for {
			p.Sleep(20 * sim.Millisecond)
			// Drain the queue without marking anything done: the done
			// bitmap stays empty and a block session has no relevance
			// bitmap, so the sampled memory is item descriptors only
			// (EXPERIMENTS.md, "Known deviations").
			for sess.FetchInto(buf) == len(buf) {
			}
			if m := e.m.Duet.MemBytes(); m > peakMem {
				peakMem = m
			}
			if q := sess.QueueLen(); q > peakQueue {
				peakQueue = q
			}
		}
	})
	if err := e.m.Eng.RunFor(30 * sim.Second); err != nil {
		return err
	}
	c.fold(e.finish("mem sampler"))
	st := e.m.Duet.Stats()
	descBound := 2 * c.Scale.CachePages
	fmt.Fprintln(w, "# Memory overhead (§6.4)")
	rows := [][]string{
		{"peak item descriptors", fmt.Sprint(st.PeakDescs), fmt.Sprintf("bound 2×cache = %d", descBound)},
		{"peak Duet memory (B)", fmt.Sprint(peakMem), "descriptors + bitmaps"},
		{"peak fetch queue", fmt.Sprint(peakQueue), fmt.Sprintf("limit %d", core.DefaultMaxItems)},
		{"events dropped", fmt.Sprint(st.EventsDropped), "0 expected with frequent fetches"},
	}
	metrics.RenderTable(w, []string{"quantity", "value", "note"}, rows)
	if int(st.PeakDescs) > descBound {
		return fmt.Errorf("mem: descriptor bound violated: %d > %d", st.PeakDescs, descBound)
	}
	return nil
}

// runLat verifies the §6.1.3 claim that idle-priority maintenance has an
// insignificant impact on workload latency (webserver at 50% util; the
// paper saw 11.67 ms alone, 11.60 with scrubbing, 11.82 with backup).
func runLat(c *RunConfig, w io.Writer) error {
	type cfg struct {
		name  string
		tasks []TaskName
	}
	cases := []cfg{
		{"no maintenance", nil},
		{"with scrubbing", []TaskName{TaskScrub}},
		{"with backup", []TaskName{TaskBackup}},
	}
	fmt.Fprintln(w, "# Workload latency at 50% utilization with idle-priority maintenance (§6.1.3)")
	var rows [][]string
	var baseLat sim.Time
	for _, cs := range cases {
		var lat sim.Time
		if cs.tasks == nil {
			e, err := c.cell(EnvSpec{Scale: c.Scale, Seed: 1, Personality: workload.Webserver, TargetUtil: 0.5})
			if err != nil {
				return err
			}
			e.gen.Start(e.m.Eng)
			if err := e.m.Eng.RunFor(c.Scale.Window); err != nil {
				return err
			}
			c.fold(e.finish("latency baseline"))
			lat = e.gen.Stats().MeanLatency()
		} else {
			out, err := runTasks(c, RunSpec{
				Env: EnvSpec{Scale: c.Scale, Seed: 1, Personality: workload.Webserver,
					TargetUtil: 0.5},
				Tasks: cs.tasks,
				Duet:  true,
			})
			if err != nil {
				return err
			}
			c.fold(out.obs)
			lat = out.Workload.MeanLatency()
		}
		if cs.tasks == nil {
			baseLat = lat
		}
		delta := ""
		if baseLat > 0 {
			delta = fmt.Sprintf("%+.1f%%", (float64(lat)/float64(baseLat)-1)*100)
		}
		rows = append(rows, []string{cs.name, fmt.Sprintf("%.2f ms", lat.Milliseconds()), delta})
	}
	metrics.RenderTable(w, []string{"configuration", "mean latency", "vs alone"}, rows)
	return nil
}

func init() {
	register(Experiment{ID: "fig9", Title: "CPU overhead of Duet", Exec: runFig9})
	register(Experiment{ID: "mem", Title: "Memory overhead of Duet", Exec: runMem})
	register(Experiment{ID: "lat", Title: "Workload latency impact", Exec: runLat})
}
