package duet_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, as indexed in DESIGN.md. Each benchmark runs the
// corresponding experiment at a reduced sweep (ScaleSmall geometry, a
// coarser utilization step, one seed) and logs the rows/series it
// produced; `go run ./cmd/duetbench` regenerates them at the full small
// or paper scale.
//
// The reported ns/op is the real compute cost of reproducing the item —
// a regression canary for the simulator, not a claim about storage
// hardware.

import (
	"bytes"
	"testing"

	"duet/internal/experiments"
)

// benchScale trims the sweep so the whole suite stays in CI territory.
func benchScale() experiments.Scale {
	s := experiments.ScaleSmall
	s.Seeds = 1
	s.UtilStep = 0.25 // sweep 0, 25, 50, 75, 100%
	return s
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := &experiments.RunConfig{Scale: benchScale()}
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := e.Exec(cfg, &buf); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", buf.String())
		}
	}
}

func BenchmarkFig1AccessDistributions(b *testing.B)   { runExperiment(b, "fig1") }
func BenchmarkFig2ScrubIOSaved(b *testing.B)          { runExperiment(b, "fig2") }
func BenchmarkFig3BackupIOSaved(b *testing.B)         { runExperiment(b, "fig3") }
func BenchmarkFig4RsyncSpeedup(b *testing.B)          { runExperiment(b, "fig4") }
func BenchmarkFig5ScrubBackupIOSaved(b *testing.B)    { runExperiment(b, "fig5") }
func BenchmarkFig6ScrubBackupCompletion(b *testing.B) { runExperiment(b, "fig6") }
func BenchmarkFig7ThreeTasksIOSaved(b *testing.B)     { runExperiment(b, "fig7") }
func BenchmarkFig8ThreeTasksCompletion(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFig9CPUOverhead(b *testing.B)           { runExperiment(b, "fig9") }
func BenchmarkFig10SSDIOSaved(b *testing.B)           { runExperiment(b, "fig10") }
func BenchmarkTab5MaxUtilization(b *testing.B)        { runExperiment(b, "tab5") }
func BenchmarkTab6GCCleaningTime(b *testing.B)        { runExperiment(b, "tab6") }
func BenchmarkLatencyImpact(b *testing.B)             { runExperiment(b, "lat") }
func BenchmarkMemOverhead(b *testing.B)               { runExperiment(b, "mem") }

// Ablation benches for the design choices DESIGN.md calls out.
func BenchmarkAblationScheduler(b *testing.B)  { runExperiment(b, "ab-sched") }
func BenchmarkAblationFetchRate(b *testing.B)  { runExperiment(b, "ab-fetch") }
func BenchmarkAblationDoneFilter(b *testing.B) { runExperiment(b, "ab-done") }
