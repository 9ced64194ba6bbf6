package obs

import (
	"bytes"
	"strings"
	"testing"

	"duet/internal/sim"
)

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	tid := tr.Track("t")
	for i := 0; i < 7; i++ {
		tr.Instant(tid, "c", "e", sim.Time(i))
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
	var got []sim.Time
	tr.Events(func(e *Event) { got = append(got, e.Ts) })
	want := []sim.Time{3, 4, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ts = %v, want %v (oldest-first order)", i, got[i], want[i])
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	// None of these may panic; Track must return the reserved tid 0.
	if id := tr.Track("x"); id != 0 {
		t.Fatalf("nil Track = %d, want 0", id)
	}
	tr.Slice(0, "c", "n", 0, 1)
	tr.SliceArg(0, "c", "n", 0, 1, "k", 2)
	tr.Instant(0, "c", "n", 0)
	tr.Counter(0, "n", 0, 1)
	tr.Events(func(*Event) { t.Fatal("nil tracer has no events") })
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Tracks() != nil || tr.Enabled() {
		t.Fatal("nil tracer accessors must report empty/disabled")
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").SetMax(3)
	r.Histogram("c", []int64{1}).Observe(1)
	r.SetCounter("d", 5)
	r.Merge(NewRegistry())
	if rows := r.Rows(); rows != nil {
		t.Fatalf("nil registry Rows = %v, want nil", rows)
	}
	var buf bytes.Buffer
	if err := WriteMetricsText(&buf, r); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry text dump = %q, want empty", buf.String())
	}
}

func TestSetCounterIdempotentAbsorption(t *testing.T) {
	r := NewRegistry()
	r.SetCounter("x", 10)
	r.SetCounter("x", 10) // re-absorbing the same snapshot
	r.SetCounter("x", 7)  // stale snapshot must not regress
	if v := r.Counter("x").Value(); v != 10 {
		t.Fatalf("x = %d, want 10", v)
	}
	r.SetCounter("x", 12)
	if v := r.Counter("x").Value(); v != 12 {
		t.Fatalf("x = %d, want 12", v)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewRegistry().Histogram("h", []int64{10, 20})
	h.Observe(10) // on the bound: le10
	h.Observe(11) // le20
	h.Observe(21) // overflow
	if h.counts[0] != 1 || h.counts[1] != 1 || h.counts[2] != 1 {
		t.Fatalf("bucket counts = %v, want [1 1 1]", h.counts)
	}
	if h.Count() != 3 || h.Sum() != 42 || h.min != 10 || h.max != 21 {
		t.Fatalf("count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.min, h.max)
	}
}

// fillRegistry populates a registry the way subsystem absorption does.
func fillRegistry(r *Registry, scale int64) {
	r.Counter("c.events").Add(3 * scale)
	r.SetCounter("c.abs", 100*scale)
	r.Gauge("g.depth").Set(7 * scale)
	h := r.Histogram("h.lat", []int64{10, 100, 1000})
	for i := int64(0); i < 5; i++ {
		h.Observe(i * scale)
	}
}

func TestMergeCommutative(t *testing.T) {
	a1, b1 := NewRegistry(), NewRegistry()
	fillRegistry(a1, 1)
	fillRegistry(b1, 50)
	a2, b2 := NewRegistry(), NewRegistry()
	fillRegistry(a2, 1)
	fillRegistry(b2, 50)

	ab, ba := NewRegistry(), NewRegistry()
	ab.Merge(a1)
	ab.Merge(b1)
	ba.Merge(b2)
	ba.Merge(a2)

	var w1, w2 bytes.Buffer
	if err := WriteMetricsText(&w1, ab); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetricsText(&w2, ba); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w2.String() {
		t.Fatalf("merge order changed the registry:\nA,B:\n%s\nB,A:\n%s", w1.String(), w2.String())
	}
	if !strings.Contains(w1.String(), "counter c.events 153") {
		t.Fatalf("counters did not sum:\n%s", w1.String())
	}
	if !strings.Contains(w1.String(), "gauge g.depth 350 max 350") {
		t.Fatalf("gauges did not take max:\n%s", w1.String())
	}
}

func TestTraceExportDeterministicAndValid(t *testing.T) {
	mk := func() *Tracer {
		tr := NewTracer(128)
		a := tr.Track("alpha")
		b := tr.Track("beta")
		tr.Slice(a, "sim", "run", 1000, 2500)
		tr.SliceArg(b, "storage", "workload", 2000, 2600, "blocks", 8)
		tr.Instant(a, "duet", "degraded", 123456)
		tr.Counter(b, "qdepth", 3000, 5)
		return tr
	}
	var w1, w2 bytes.Buffer
	if err := WriteTrace(&w1, "cell", mk()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&w2, "cell", mk()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("identical event streams produced different trace bytes")
	}
	// Timestamps are µs with exactly three decimals: 1000ns -> 1.000.
	if !strings.Contains(w1.String(), `"ts":1.000`) || !strings.Contains(w1.String(), `"dur":1.500`) {
		t.Fatalf("timestamp rendering wrong:\n%s", w1.String())
	}
	sum, err := ValidateTrace(bytes.NewReader(w1.Bytes()))
	if err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	if sum.Events != 4 {
		t.Fatalf("summary events = %d, want 4", sum.Events)
	}
	if sum.Metadata != 4 { // process_name + 3 thread_names (engine, alpha, beta)
		t.Fatalf("summary metadata = %d, want 4", sum.Metadata)
	}
}

func TestValidateTraceRejectsBadPhase(t *testing.T) {
	bad := `{"traceEvents":[{"ph":"Z","pid":1,"tid":0,"name":"x","ts":0}]}`
	if _, err := ValidateTrace(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown phase accepted")
	}
	negDur := `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"x","ts":0,"dur":-1}]}`
	if _, err := ValidateTrace(strings.NewReader(negDur)); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestWriteMetricsJSONShape(t *testing.T) {
	r := NewRegistry()
	fillRegistry(r, 2)
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"counters"`, `"gauges"`, `"histograms"`, `"c.events": 6`, `"le": "inf"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("metrics JSON missing %s:\n%s", want, s)
		}
	}
}

func TestObsHandleNilTolerant(t *testing.T) {
	var o *Obs
	if o.TraceOf() != nil || o.MetricsOf() != nil {
		t.Fatal("nil Obs must expose nil instruments")
	}
	o = &Obs{}
	if o.TraceOf() != nil || o.MetricsOf() != nil {
		t.Fatal("empty Obs must expose nil instruments")
	}
}
