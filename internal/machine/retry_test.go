package machine

import (
	"fmt"
	"testing"

	"duet/internal/faults"
	"duet/internal/sim"
	"duet/internal/storage"
)

// retryStream runs a fixed fault-injected workload under the given
// machine config and digests everything the retry executor decided:
// the per-op error sequence, the disk's fault/retry/backoff counters
// and the virtual time the run ended at. Two configs with the same
// digest made identical decisions.
func retryStream(t *testing.T, cfg Config) string {
	t.Helper()
	cfg.Seed = 7
	cfg.DeviceBlocks = 1 << 12
	cfg.CachePages = 128
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultPopulateSpec("/data", 256)
	files, err := m.Populate(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachFaults(faults.Plan{
		Seed:               99,
		TransientReadRate:  0.25,
		TransientWriteRate: 0.25,
		StallRate:          0.05,
		StallDelay:         2 * sim.Millisecond,
	})
	var digest string
	m.Eng.Go("workload", func(p *sim.Proc) {
		defer m.Eng.Stop()
		for i := 0; i < 150; i++ {
			f := files[i%len(files)]
			if f.SizePg == 0 {
				continue
			}
			off := int64(i) % f.SizePg
			var err error
			if i%2 == 0 {
				err = m.FS.Read(p, f.Ino, off, 1, storage.ClassNormal, "w")
			} else {
				err = m.FS.Write(p, f.Ino, off, 1)
			}
			switch {
			case err == nil:
				digest += "."
			case storage.IsTransient(err):
				digest += "t"
			default:
				digest += "X"
			}
			p.Sleep(sim.Millisecond)
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Disk.Stats()
	return fmt.Sprintf("%s|tf=%d rt=%d to=%d st=%d bo=%d req=%d end=%d",
		digest, st.TransientFaults, st.Retries, st.Timeouts, st.Stalls,
		st.BackoffTime, st.Requests, m.Eng.Now())
}

// goldenRetryStream is retryStream(t, Config{}) as the goroutine disk
// executor's blocking retry loop produced it, captured on the last
// commit that had one. The callback state machine that replaced it must
// make the same decisions at the same virtual times.
const goldenRetryStream = "......................................................................................................................................................|tf=34 rt=34 to=0 st=4 bo=52000000 req=74 end=240899372"

// TestRetryPolicyConfig is the satellite table test: leaving
// Config.Retry zero must reproduce the exact decision stream of the
// historical hardcoded DefaultRetryPolicy, while a genuinely different
// policy must change it (proving the knob is actually wired through).
func TestRetryPolicyConfig(t *testing.T) {
	rows := []struct {
		name        string
		retry       storage.RetryPolicy
		sameAsolder bool
	}{
		{name: "zero-keeps-default", retry: storage.RetryPolicy{}, sameAsolder: true},
		{name: "explicit-default", retry: storage.DefaultRetryPolicy(), sameAsolder: true},
		{name: "no-retries", retry: storage.RetryPolicy{
			MaxRetries: 0, BaseBackoff: sim.Millisecond,
			MaxBackoff: sim.Millisecond, Deadline: 2 * sim.Second,
		}},
		{name: "long-backoff", retry: storage.RetryPolicy{
			MaxRetries: 8, BaseBackoff: 20 * sim.Millisecond,
			MaxBackoff: 200 * sim.Millisecond, Deadline: 4 * sim.Second,
		}},
	}
	baseline := retryStream(t, Config{})
	if baseline != goldenRetryStream {
		t.Errorf("default decision stream moved:\n got %s\nwant %s", baseline, goldenRetryStream)
	}
	for _, row := range rows {
		got := retryStream(t, Config{Retry: row.retry})
		if row.sameAsolder && got != baseline {
			t.Errorf("%s: decision stream changed:\n got %s\nwant %s", row.name, got, baseline)
		}
		if !row.sameAsolder && got == baseline {
			t.Errorf("%s: decision stream identical to default; policy not wired through", row.name)
		}
	}
}

// TestRetryPolicyPreArmed checks the assembly-order contract: a policy
// set via Config must survive SetFaultInjector's "arm the default if
// none is set" branch.
func TestRetryPolicyPreArmed(t *testing.T) {
	e := sim.New(1)
	d := storage.NewDisk(e, "sda", storage.DefaultHDD(1024), nil)
	p := storage.RetryPolicy{MaxRetries: 1, BaseBackoff: sim.Millisecond,
		MaxBackoff: sim.Millisecond, Deadline: sim.Second}
	d.SetRetryPolicy(p)
	d.SetFaultInjector(faults.NewInjector(faults.Plan{TransientReadRate: 0.5, Seed: 1}))
	if got := d.RetryPolicy(); got != p {
		t.Fatalf("SetFaultInjector clobbered the configured policy: %+v", got)
	}
}
