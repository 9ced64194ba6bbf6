package machine

import (
	"reflect"
	"testing"

	"duet/internal/faults"
	"duet/internal/obs"
	"duet/internal/sim"
)

// TestRobustnessFieldsAreRegistryCounters pins that every Robustness
// field is also exported by Stack.CollectMetrics under a registry
// counter with the same value, so the registry dump carries everything
// the record does. A new field without a counter fails the coverage
// check.
func TestRobustnessFieldsAreRegistryCounters(t *testing.T) {
	m := buildCrashable(t, nil)
	m.AttachFaults(faults.Plan{
		Seed:               3,
		TransientReadRate:  0.05,
		TransientWriteRate: 0.05,
		TornWriteRate:      0.05,
		StallRate:          0.02,
		StallDelay:         2 * sim.Millisecond,
	})
	startChurn(t, m)
	if err := m.Eng.RunFor(2 * sim.Second); err != nil {
		t.Fatal(err)
	}

	disk := "storage." + m.Disk.Name + "."
	counter := map[string]string{
		"TransientFaults": disk + "faults_transient",
		"PermanentFaults": disk + "faults_permanent",
		"TornWrites":      disk + "torn_writes",
		"Stalls":          disk + "stalls",
		"Retries":         disk + "retries",
		"Timeouts":        disk + "timeouts",
		"WritebackErrors": "pagecache.writeback_errors",
		"Quarantined":     "pagecache.quarantine_events",
		"Requeued":        "pagecache.requeued_pages",
		"LostPages":       "pagecache.lost_pages",
		"DegradedSess":    "duet.degraded_sessions",
		"Commits":         "cowfs.commits",
	}
	rt := reflect.TypeOf(Robustness{})
	if len(counter) != rt.NumField() {
		t.Errorf("map covers %d fields, Robustness has %d", len(counter), rt.NumField())
	}

	reg := obs.NewRegistry()
	m.Stack.CollectMetrics(reg)
	rob := reflect.ValueOf(m.Robustness())
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, ok := counter[f.Name]
		if !ok {
			t.Errorf("Robustness.%s has no registry counter", f.Name)
			continue
		}
		if got, want := reg.Counter(name).Value(), rob.Field(i).Int(); got != want {
			t.Errorf("%s = %d, Robustness.%s = %d", name, got, f.Name, want)
		}
	}
	if r := m.Robustness(); r.TransientFaults == 0 || r.TornWrites == 0 || r.Commits == 0 {
		t.Errorf("fault plan did not exercise the stack: %+v", r)
	}
}
