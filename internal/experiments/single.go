package experiments

import (
	"fmt"
	"io"

	"duet/internal/machine"
	"duet/internal/metrics"
	"duet/internal/sim"
	"duet/internal/tasks/rsync"
	"duet/internal/trace"
	"duet/internal/workload"
)

// --- Figure 1: file access distributions -----------------------------------

func runFig1(c *RunConfig, w io.Writer) error {
	fig := &metrics.Figure{
		Title:  "Figure 1: file access distributions (CDF of accesses over file ranks)",
		XLabel: "frac-files",
		YLabel: "fraction of accesses to the top frac-files most popular files",
	}
	n := int(c.Scale.DataPages / 32) // population size at this scale
	dists := append([]trace.Distribution{}, trace.MSDevices()...)
	dists = append(dists, trace.Uniform{})
	for _, d := range dists {
		series := metrics.Series{Name: d.Name()}
		for f := 0.05; f <= 1.0+1e-9; f += 0.05 {
			series.Points = append(series.Points, metrics.Point{
				X: round2(f), Y: d.AccessShare(n, f),
			})
		}
		fig.Series = append(fig.Series, series)
	}
	fig.Render(w)
	return nil
}

// --- I/O-saved sweeps (Figures 2, 3, 5, 7, 10) ------------------------------

// ioSavedSweep runs the task set with Duet across utilizations for each
// data overlap (webserver workload, uniform distribution) and renders one
// series per overlap; the baseline saves nothing by definition of the
// metric. The overlap × util × seed grid runs on the worker pool, and
// results are consumed in cell order, so rendering is independent of the
// worker count.
func ioSavedSweep(c *RunConfig, w io.Writer, title, yLabel string, taskSet []TaskName,
	device machine.DeviceKind) error {
	fig := &metrics.Figure{Title: title, XLabel: "util", YLabel: yLabel}
	overlaps := []float64{0.25, 0.50, 0.75, 1.00}
	utils := c.Scale.Utils()
	sds := seeds(c.Scale)
	var cells []RunSpec
	for _, ov := range overlaps {
		for _, util := range utils {
			for _, seed := range sds {
				cells = append(cells, RunSpec{
					Env: EnvSpec{
						Scale: c.Scale, Seed: seed, Personality: workload.Webserver,
						Coverage: ov, TargetUtil: util, Device: device,
					},
					Tasks: taskSet,
					Duet:  true,
				})
			}
		}
	}
	results := c.RunGrid(cells)
	if err := FirstErr(results); err != nil {
		return err
	}
	i := 0
	for _, ov := range overlaps {
		series := metrics.Series{Name: fmt.Sprintf("overlap=%s", metrics.Pct(ov))}
		for _, util := range utils {
			var vals []float64
			for range sds {
				vals = append(vals, results[i].Outcome.IOSaved())
				i++
			}
			mean, ci := metrics.CI95(vals)
			series.Points = append(series.Points, metrics.Point{X: util, Y: mean, CI: ci})
		}
		fig.Series = append(fig.Series, series)
	}
	fig.Render(w)
	return nil
}

// ioSavedLabel is the y-axis of the single-task I/O-saved figures.
const ioSavedLabel = "fraction of maintenance I/O saved"

func runFig2(c *RunConfig, w io.Writer) error {
	return ioSavedSweep(c, w, "Figure 2: I/O saved, scrubbing + webserver workload",
		ioSavedLabel, []TaskName{TaskScrub}, machine.HDD)
}

func runFig3(c *RunConfig, w io.Writer) error {
	return ioSavedSweep(c, w, "Figure 3: I/O saved, backup + webserver workload",
		ioSavedLabel, []TaskName{TaskBackup}, machine.HDD)
}

func runFig10(c *RunConfig, w io.Writer) error {
	return ioSavedSweep(c, w, "Figure 10: I/O saved on a solid-state drive (scrubbing + webserver)",
		ioSavedLabel, []TaskName{TaskScrub}, machine.SSD)
}

// --- Figure 4: rsync speedup -------------------------------------------------

func runFig4(c *RunConfig, w io.Writer) error {
	fig := &metrics.Figure{
		Title:  "Figure 4: rsync runtime speedup vs data overlap (unthrottled webserver)",
		XLabel: "overlap",
		YLabel: "baseline runtime / Duet runtime",
	}
	series := metrics.Series{Name: "speedup"}
	saved := metrics.Series{Name: "io-saved"}
	for _, ov := range []float64{0.25, 0.50, 0.75, 1.00} {
		var speedups, savs []float64
		for _, seed := range seeds(c.Scale) {
			base, _, err := runRsync(c, seed, ov, false)
			if err != nil {
				return err
			}
			duet, sv, err := runRsync(c, seed, ov, true)
			if err != nil {
				return err
			}
			if duet > 0 {
				speedups = append(speedups, float64(base)/float64(duet))
			}
			savs = append(savs, sv)
		}
		mean, ci := metrics.CI95(speedups)
		series.Points = append(series.Points, metrics.Point{X: ov, Y: mean, CI: ci})
		ms, cs := metrics.CI95(savs)
		saved.Points = append(saved.Points, metrics.Point{X: ov, Y: ms, CI: cs})
	}
	fig.Series = []metrics.Series{series, saved}
	fig.Render(w)
	return nil
}

// runRsync copies the populated tree to a second device while an
// unthrottled webserver workload runs on the source, returning the
// transfer duration and the fraction of read I/O saved.
func runRsync(c *RunConfig, seed int64, overlap float64, duet bool) (sim.Time, float64, error) {
	s := c.Scale
	spec := EnvSpec{
		Scale: s, Seed: seed, Personality: workload.Webserver,
		Coverage: overlap, TargetUtil: 1, // unthrottled (§6.2 rsync setup)
	}
	e, err := build(spec, 0, c.newObs())
	if err != nil {
		return 0, 0, err
	}
	// Rsync copies to a second disk, as the paper does (local rsync
	// between two devices).
	dst, _, err := e.m.AddCowFS("sdb", s.DeviceBlocks, machine.HDD)
	if err != nil {
		return 0, 0, err
	}
	if _, err := dst.MkdirAll("/backup"); err != nil {
		return 0, 0, err
	}
	root, err := e.m.FS.Lookup("/data")
	if err != nil {
		return 0, 0, err
	}
	var r *rsync.Rsync
	if duet {
		r = rsync.NewOpportunistic(e.m.FS, root.Ino, dst, "/backup", rsync.DefaultConfig(), e.m.Duet, e.m.Adapter)
	} else {
		r = rsync.New(e.m.FS, root.Ino, dst, "/backup", rsync.DefaultConfig())
	}
	var runErr error
	e.gen.Start(e.m.Eng)
	e.m.Eng.Go("task:rsync", func(p *sim.Proc) {
		runErr = r.Run(p)
		e.m.Eng.Stop()
	})
	// Generous cap: rsync at normal priority against an unthrottled
	// workload needs a multiple of the window.
	if err := e.m.Eng.RunFor(20 * s.Window); err != nil {
		return 0, 0, err
	}
	if runErr != nil {
		return 0, 0, runErr
	}
	mode := "base"
	if duet {
		mode = "duet"
	}
	c.fold(observe(e.obs, e.m, cellTrace(e.obs, fmt.Sprintf("rsync %s ov%.2f seed%d", mode, overlap, seed))))
	savedFrac := 0.0
	if r.Report.WorkTotal > 0 {
		savedFrac = float64(r.Report.Saved) / float64(r.Report.WorkTotal)
	}
	return r.Report.Duration(), savedFrac, nil
}

// --- Table 5: maximum utilization ---------------------------------------------

// tab5Row is one line of Table 5.
type tab5Row struct {
	personality workload.Personality
	overlap     float64
	dist        string
}

func tab5Rows() []tab5Row {
	return []tab5Row{
		{workload.Webserver, 0.25, "uniform"},
		{workload.Webserver, 0.50, "uniform"},
		{workload.Webserver, 0.75, "uniform"},
		{workload.Webserver, 1.00, "uniform"},
		{workload.Webserver, 1.00, "ms-dev0"},
		{workload.Webproxy, 1.00, "uniform"},
		{workload.Webproxy, 1.00, "ms-dev0"},
		{workload.Fileserver, 1.00, "uniform"},
		{workload.Fileserver, 1.00, "ms-dev0"},
	}
}

// maxUtilization finds the highest utilization (in UtilStep steps) at
// which the task still completes within the window for every seed,
// scanning from high to low (Table 5's metric) and stopping at the first
// passing level. It returns -1 when the task fails even on an idle
// device, and every cell it ran, in run order, for the caller to fold.
func maxUtilization(c *RunConfig, row tab5Row, task TaskName, duet bool) (float64, []cellObs, error) {
	var ran []cellObs
	utils := c.Scale.Utils()
	for i := len(utils) - 1; i >= 0; i-- {
		completedAll := true
		for _, seed := range seeds(c.Scale) {
			out, err := runTasks(c, RunSpec{
				Env: EnvSpec{
					Scale: c.Scale, Seed: seed, Personality: row.personality,
					Dist: row.dist, Coverage: row.overlap, TargetUtil: utils[i],
				},
				Tasks: []TaskName{task},
				Duet:  duet,
			})
			if err != nil {
				return 0, ran, err
			}
			ran = append(ran, out.obs)
			completedAll = completedAll && out.Completed()
		}
		if completedAll {
			return utils[i], ran, nil
		}
	}
	return -1, ran, nil
}

func runTab5(c *RunConfig, w io.Writer) error {
	headers := []string{"Workload", "Overlap", "Distribution",
		"Scrub base", "Scrub Duet", "Backup base", "Backup Duet", "Defrag base", "Defrag Duet"}
	// Every (row, task, duet) scan is independent, so the scans fan out
	// across the workers; each runs its seed cells serially. Folding in
	// scan order, then level order, then seed order makes the run's
	// observations independent of the worker count.
	type scan struct {
		row  tab5Row
		task TaskName
		duet bool
	}
	var scans []scan
	for _, row := range tab5Rows() {
		for _, task := range []TaskName{TaskScrub, TaskBackup, TaskDefrag} {
			for _, duet := range []bool{false, true} {
				scans = append(scans, scan{row, task, duet})
			}
		}
	}
	utils := make([]float64, len(scans))
	ran := make([][]cellObs, len(scans))
	errs := make([]error, len(scans))
	c.gridEach(len(scans), func(i int) {
		utils[i], ran[i], errs[i] = maxUtilization(c, scans[i].row, scans[i].task, scans[i].duet)
	})
	for _, cells := range ran {
		for _, co := range cells {
			c.fold(co)
		}
	}
	var rows [][]string
	i := 0
	for _, row := range tab5Rows() {
		cells := []string{string(row.personality), metrics.Pct(row.overlap), row.dist}
		for range [3]struct{}{} { // tasks
			for range [2]struct{}{} { // baseline, duet
				if errs[i] != nil {
					return errs[i]
				}
				if utils[i] < 0 {
					cells = append(cells, "never")
				} else {
					cells = append(cells, metrics.Pct(utils[i]))
				}
				i++
			}
		}
		rows = append(rows, cells)
	}
	fmt.Fprintln(w, "# Table 5: maximum utilization at which each task completes in the window")
	metrics.RenderTable(w, headers, rows)
	return nil
}

func init() {
	register(Experiment{ID: "fig1", Title: "File access distributions", Exec: runFig1})
	register(Experiment{ID: "fig2", Title: "I/O saved: scrubbing + webserver", Exec: runFig2})
	register(Experiment{ID: "fig3", Title: "I/O saved: backup + webserver", Exec: runFig3})
	register(Experiment{ID: "fig4", Title: "Rsync speedup vs overlap", Exec: runFig4})
	register(Experiment{ID: "tab5", Title: "Maximum utilization (scrub/backup/defrag)", Exec: runTab5})
	register(Experiment{ID: "fig10", Title: "I/O saved on SSD", Exec: runFig10})
}
