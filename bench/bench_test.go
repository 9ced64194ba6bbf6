package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables the
// benchmark reports from in step.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, m.Workloads[i].Name, w.name)
		}
		if m.Workloads[i].Why == "" {
			t.Errorf("workload %s: BENCHMARK.json gives no reason", w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

// TestWorkloadsQuick drives every workload and the trace machinery
// in-process at the -quick size: the same functions a child process
// runs, one traced run each.
func TestWorkloadsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five simulations")
	}
	m := readManifest(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(runOpts{Workload: w.name, Seed: 1, Quick: true, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || len(res.Failures) != 0 {
				t.Errorf("failed %d of %d: %v", res.Failed, res.Attempted, res.Failures)
			}
			checkSpans(t, res.Spans)
			checkLedger(t, res)

			// The driver's line must carry every metric BENCHMARK.json
			// names, with its unit.
			sum := summarize(&workloadRuns{Name: w.name, Untraced: []*runResult{res}, Traced: res})
			var line struct {
				Correct   bool
				Attempted int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(driverLine(sum, 2)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 {
				t.Errorf("driver line: correct=%v attempted=%d", line.Correct, line.Attempted)
			}
			for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
				got, ok := line.Metrics[d.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("metric %s missing from the output", d.Name)
				case got.Unit != d.Unit:
					t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, got.Unit, d.Unit)
				}
			}
			for _, d := range m.EndToEnd {
				// In-process runs have no child rusage.
				if d.Name == "cpu_s" || d.Name == "rss_peak_mb" {
					continue
				}
				if v := line.Metrics[d.Name].Value; v != nil && *v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, *v)
				}
			}
		})
	}
}

// checkSpans renders the spans as a Chrome trace and checks the file
// parses, with every span closed and parented under bench.workload.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, "test", spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	names := map[string]bool{}
	ids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			ids[e.Args.ID] = true
			names[e.Name] = true
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Dur <= 0 {
			t.Errorf("span %s (%d) has duration %v: not closed", e.Name, e.Args.ID, e.Dur)
		}
		if e.Name == "bench.workload" {
			if e.Args.Parent != 0 {
				t.Errorf("root span has parent %d", e.Args.Parent)
			}
		} else if !ids[e.Args.Parent] {
			t.Errorf("span %s (%d) has unknown parent %d", e.Name, e.Args.ID, e.Args.Parent)
		}
	}
	for _, want := range []string{"bench.workload", "scenario.prepare", "sim.run"} {
		if !names[want] {
			t.Errorf("no %s span in %v", want, names)
		}
	}
}

// checkLedger checks that the profile ledger is complete: the layers'
// CPU seconds add up to the CPU the process spent inside sim.run, and
// little of it is left in the unattributed bucket.
func checkLedger(t *testing.T, res *runResult) {
	t.Helper()
	var sum float64
	for name, v := range res.Layer {
		if strings.HasSuffix(name, "cpu_s") {
			sum += v
		}
	}
	spanCPU := findSpan(res.Spans, "sim.run").CPU
	// 2% and 5%, but never tighter than six ticks of the 100 Hz
	// profiler: a quick run is only a few dozen ticks long, the first
	// ticks after StartCPUProfile are lost (full-size runs agree with
	// rusage to 0.5%), and starting the profile costs a tick or two in
	// the benchmark's own frames.
	const ticks = 0.06
	if tol := math.Max(0.02*spanCPU, ticks); math.Abs(sum-spanCPU) > tol {
		t.Errorf("layer cpu_s sum to %.3fs, sim.run used %.3fs of CPU (tolerance %.3fs)", sum, spanCPU, tol)
	}
	if other := res.Layer["other.cpu_s"]; other > math.Max(0.05*sum, ticks) {
		t.Errorf("other.cpu_s = %.3fs of %.3fs: more than 5%% unattributed", other, sum)
	}
}
