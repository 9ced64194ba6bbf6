package experiments

import (
	"io"

	"duet/internal/machine"
	"duet/internal/metrics"
	"duet/internal/workload"
)

// Multi-task experiments (§6.3): when maintenance tasks run concurrently,
// Duet lets them share one pass over the common data, so savings appear
// even with no foreground workload at all.

// workSweep renders the fraction of maintenance work completed in the
// window by a task set across utilizations (100% overlap), once with
// Duet and once baseline. The util × {duet, baseline} × seed grid runs
// on the worker pool; results are consumed in cell order, so the
// rendered series are identical at any worker count.
func workSweep(c *RunConfig, w io.Writer, title string, taskSet []TaskName) error {
	duet := metrics.Series{Name: "duet"}
	base := metrics.Series{Name: "baseline"}
	utils := c.Scale.Utils()
	sds := seeds(c.Scale)
	var cells []RunSpec
	for _, util := range utils {
		for _, isDuet := range []bool{true, false} {
			for _, seed := range sds {
				cells = append(cells, RunSpec{
					Env: EnvSpec{
						Scale: c.Scale, Seed: seed, Personality: workload.Webserver,
						Coverage: 1, TargetUtil: util, Device: machine.HDD,
					},
					Tasks: taskSet,
					Duet:  isDuet,
				})
			}
		}
	}
	results := c.RunGrid(cells)
	if err := FirstErr(results); err != nil {
		return err
	}
	i := 0
	for _, util := range utils {
		for _, isDuet := range []bool{true, false} {
			var vals []float64
			for range sds {
				vals = append(vals, results[i].Outcome.WorkCompleted())
				i++
			}
			mean, ci := metrics.CI95(vals)
			pt := metrics.Point{X: util, Y: mean, CI: ci}
			if isDuet {
				duet.Points = append(duet.Points, pt)
			} else {
				base.Points = append(base.Points, pt)
			}
		}
	}
	fig := &metrics.Figure{
		Title:  title,
		XLabel: "util",
		YLabel: "fraction of maintenance work completed in the window",
		Series: []metrics.Series{duet, base},
	}
	fig.Render(w)
	return nil
}

// combinedLabel is the y-axis of the concurrent-task I/O-saved figures.
const combinedLabel = "fraction of combined maintenance I/O saved"

func runFig5(c *RunConfig, w io.Writer) error {
	return ioSavedSweep(c, w,
		"Figure 5: I/O saved, scrubbing + backup running together (webserver workload)",
		combinedLabel, []TaskName{TaskScrub, TaskBackup}, machine.HDD)
}

func runFig6(c *RunConfig, w io.Writer) error {
	return workSweep(c, w,
		"Figure 6: maintenance work completed, scrubbing + backup (webserver workload)",
		[]TaskName{TaskScrub, TaskBackup})
}

func runFig7(c *RunConfig, w io.Writer) error {
	return ioSavedSweep(c, w,
		"Figure 7: I/O saved, scrubbing + backup + defragmentation (webserver workload)",
		combinedLabel, []TaskName{TaskScrub, TaskBackup, TaskDefrag}, machine.HDD)
}

func runFig8(c *RunConfig, w io.Writer) error {
	return workSweep(c, w,
		"Figure 8: maintenance work completed, scrub + backup + defrag (webserver workload)",
		[]TaskName{TaskScrub, TaskBackup, TaskDefrag})
}

func init() {
	register(Experiment{ID: "fig5", Title: "I/O saved: scrub + backup together", Exec: runFig5})
	register(Experiment{ID: "fig6", Title: "Work completed: scrub + backup", Exec: runFig6})
	register(Experiment{ID: "fig7", Title: "I/O saved: scrub + backup + defrag", Exec: runFig7})
	register(Experiment{ID: "fig8", Title: "Work completed: three tasks", Exec: runFig8})
}
