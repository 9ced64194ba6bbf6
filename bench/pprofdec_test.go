package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var spinSink uint64

// spinForProfile burns CPU in a frame the decoder must find by name.
//
//go:noinline
func spinForProfile(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := 0; i < 1<<16; i++ {
			spinSink = spinSink*6364136223846793005 + 1442695040888963407
		}
	}
}

func TestDecodeProfileFindsSpinFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(500 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.Nanos
		for _, fn := range s.Stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				inSpin += s.Nanos
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("profile has no samples")
	}
	if share := float64(inSpin) / float64(total); share < 0.9 {
		t.Errorf("spinForProfile got %.0f%% of %d ns, want >= 90%%", 100*share, total)
	}
	// The spin runs in the benchmark's own package, not in a product layer.
	if cpu := layerCPU(samples); cpu[layerOther] < 0.9*float64(total)/1e9 {
		t.Errorf("ledger = %v, want nearly everything under %q", cpu, layerOther)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted bytes that are not gzip")
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"helper time lands on the calling layer",
			[]string{"duet/internal/rbtree.(*Tree).Get", "duet/internal/core.(*descTab).get", "duet/internal/pagecache.(*Cache).dispatch"},
			"core"},
		{"futex under a parked proc is the engine's",
			[]string{"runtime.futex", "runtime.chansend", "duet/internal/sim.(*Proc).park", "duet/internal/workload.(*Generator).run"},
			"sim"},
		{"task subpackages fold into tasks",
			[]string{"runtime.memmove", "duet/internal/tasks/scrub.(*Scrubber).Run", "duet/internal/sim.(*Domain).Go.func1"},
			"tasks"},
		{"generic receivers parse",
			[]string{"duet/internal/sim.(*Port[go.shape.struct {}]).Send", "duet/internal/cluster.(*Node).run"},
			"sim"},
		{"GC workers",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"},
			layerGC},
		{"no duet frame at all is scheduling",
			[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"},
			layerSched},
		{"the benchmark's own closure is not a layer",
			[]string{"runtime.nanotime", "main.lfsGC.func2", "duet/internal/sim.(*Domain).Go.func1"},
			layerOther},
		{"the task-side library is the calling task's",
			[]string{"runtime.mapassign_fast64", "duet/internal/duetlib.(*FileTracker).Apply", "duet/internal/tasks/defrag.(*Defrag).Run", "main.cowMaint.func4.3", "duet/internal/sim.runProc"},
			"tasks"},
		{"a duet package the ledger does not know",
			[]string{"duet/internal/newpkg.Work", "duet/internal/sim.(*Domain).Go.func1"},
			layerOther},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("%s: layerOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}
