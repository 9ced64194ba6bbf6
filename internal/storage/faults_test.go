package storage_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"duet/internal/sim"
	"duet/internal/storage"
)

// scriptInjector returns a fixed outcome per service attempt, in order;
// attempts beyond the script succeed.
type scriptInjector struct {
	outcomes []storage.FaultOutcome
	calls    int
}

func (s *scriptInjector) Evaluate(now sim.Time, r *storage.Request, attempt int) storage.FaultOutcome {
	i := s.calls
	s.calls++
	if i < len(s.outcomes) {
		return s.outcomes[i]
	}
	return storage.FaultOutcome{}
}

// ioResult runs one I/O against a scripted disk and returns its error.
func ioResult(t *testing.T, inj storage.FaultInjector, policy *storage.RetryPolicy,
	fn func(p *sim.Proc, d *storage.Disk) error) (*storage.Disk, error) {
	t.Helper()
	e := sim.New(1)
	d := newDisk(e)
	d.SetFaultInjector(inj)
	if policy != nil {
		d.SetRetryPolicy(*policy)
	}
	var got error
	e.Go("io", func(p *sim.Proc) {
		defer e.Stop()
		got = fn(p, d)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return d, got
}

func TestTransientReadRetriesThenSucceeds(t *testing.T) {
	inj := &scriptInjector{outcomes: []storage.FaultOutcome{
		{Err: storage.ErrTransient},
		{Err: storage.ErrTransient},
	}}
	d, err := ioResult(t, inj, nil, func(p *sim.Proc, d *storage.Disk) error {
		return d.Read(p, 0, 4, storage.ClassNormal, "t")
	})
	if err != nil {
		t.Fatalf("read should succeed on third attempt: %v", err)
	}
	st := d.Stats()
	if st.TransientFaults != 2 || st.Retries != 2 {
		t.Errorf("TransientFaults=%d Retries=%d, want 2/2", st.TransientFaults, st.Retries)
	}
	if st.BackoffTime <= 0 {
		t.Error("no backoff time accounted")
	}
	if inj.calls != 3 {
		t.Errorf("injector evaluated %d times, want 3", inj.calls)
	}
}

func TestTransientRetriesExhausted(t *testing.T) {
	// More transient faults than MaxRetries allows: the error propagates
	// and callers can classify it as retryable at a higher level.
	outs := make([]storage.FaultOutcome, 10)
	for i := range outs {
		outs[i] = storage.FaultOutcome{Err: storage.ErrTransient}
	}
	policy := storage.DefaultRetryPolicy()
	policy.MaxRetries = 2
	d, err := ioResult(t, &scriptInjector{outcomes: outs}, &policy,
		func(p *sim.Proc, d *storage.Disk) error {
			return d.Write(p, 0, 4, storage.ClassNormal, "t")
		})
	if !storage.IsTransient(err) {
		t.Fatalf("want transient-class error, got %v", err)
	}
	if st := d.Stats(); st.Retries != 2 {
		t.Errorf("Retries = %d, want 2", st.Retries)
	}
}

func TestPermanentWriteFaultNoRetry(t *testing.T) {
	inj := &scriptInjector{outcomes: []storage.FaultOutcome{{Err: storage.ErrWriteFault}}}
	d, err := ioResult(t, inj, nil, func(p *sim.Proc, d *storage.Disk) error {
		return d.Write(p, 0, 4, storage.ClassNormal, "t")
	})
	if !errors.Is(err, storage.ErrWriteFault) {
		t.Fatalf("want ErrWriteFault, got %v", err)
	}
	if inj.calls != 1 {
		t.Errorf("permanent fault retried: %d attempts", inj.calls)
	}
	if st := d.Stats(); st.PermanentFaults != 1 || st.Retries != 0 {
		t.Errorf("PermanentFaults=%d Retries=%d, want 1/0", st.PermanentFaults, st.Retries)
	}
}

func TestTornWritePropagates(t *testing.T) {
	inj := &scriptInjector{outcomes: []storage.FaultOutcome{
		{Err: &storage.TornWriteError{Persisted: 3}},
	}}
	d, err := ioResult(t, inj, nil, func(p *sim.Proc, d *storage.Disk) error {
		return d.Write(p, 100, 8, storage.ClassNormal, "t")
	})
	n, ok := storage.TornBlocks(err)
	if !ok || n != 3 {
		t.Fatalf("TornBlocks = (%d,%v), want (3,true); err=%v", n, ok, err)
	}
	if st := d.Stats(); st.TornWrites != 1 {
		t.Errorf("TornWrites = %d, want 1", st.TornWrites)
	}
}

// TornBlocks finds a torn write however it is wrapped, as errors.As
// would, and answers without allocating.
func TestTornBlocksUnwraps(t *testing.T) {
	torn := &storage.TornWriteError{Persisted: 5}
	wrapped := fmt.Errorf("writeback: %w", torn)
	for _, err := range []error{torn, wrapped, errors.Join(storage.ErrTransient, wrapped)} {
		if n, ok := storage.TornBlocks(err); !ok || n != 5 {
			t.Errorf("TornBlocks(%v) = (%d, %v), want (5, true)", err, n, ok)
		}
	}
	for _, err := range []error{nil, storage.ErrTransient, fmt.Errorf("x: %w", storage.ErrWriteFault)} {
		if _, ok := storage.TornBlocks(err); ok {
			t.Errorf("TornBlocks(%v) reports a torn write", err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { storage.TornBlocks(wrapped) }); avg != 0 {
		t.Errorf("TornBlocks allocates %.1f times per call, want 0", avg)
	}
}

func TestStallBlowsDeadline(t *testing.T) {
	policy := storage.RetryPolicy{
		MaxRetries:  4,
		BaseBackoff: sim.Millisecond,
		MaxBackoff:  10 * sim.Millisecond,
		Deadline:    20 * sim.Millisecond,
	}
	inj := &scriptInjector{outcomes: []storage.FaultOutcome{
		{ExtraLatency: 100 * sim.Millisecond},
	}}
	d, err := ioResult(t, inj, &policy, func(p *sim.Proc, d *storage.Disk) error {
		return d.Read(p, 0, 1, storage.ClassNormal, "t")
	})
	if !errors.Is(err, storage.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	st := d.Stats()
	if st.Stalls != 1 || st.Timeouts != 1 {
		t.Errorf("Stalls=%d Timeouts=%d, want 1/1", st.Stalls, st.Timeouts)
	}
	// A timeout is transient from the caller's perspective: the data is
	// still in memory and a retry may succeed.
	if !storage.IsTransient(err) {
		t.Error("timeout should classify as transient")
	}
}

func TestDetachRestoresCleanPath(t *testing.T) {
	e := sim.New(1)
	d := newDisk(e)
	inj := &scriptInjector{outcomes: []storage.FaultOutcome{{Err: storage.ErrTransient}}}
	d.SetFaultInjector(inj)
	d.SetFaultInjector(nil)
	var got error
	e.Go("io", func(p *sim.Proc) {
		defer e.Stop()
		got = d.Read(p, 0, 4, storage.ClassNormal, "t")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("detached disk still faulty: %v", got)
	}
	if inj.calls != 0 {
		t.Error("detached injector was consulted")
	}
}

// TestDetachDuringBackoff: detaching the injector while a request waits
// out a retry backoff must not strand it — the retry proceeds as a
// clean attempt.
func TestDetachDuringBackoff(t *testing.T) {
	e := sim.New(1)
	d := newDisk(e)
	inj := &scriptInjector{outcomes: []storage.FaultOutcome{{Err: storage.ErrTransient}}}
	d.SetFaultInjector(inj)
	var got error
	e.Go("io", func(p *sim.Proc) {
		defer e.Stop()
		got = d.Read(p, 0, 4, storage.ClassNormal, "t")
	})
	e.Go("detach", func(p *sim.Proc) {
		for d.Stats().Retries < 1 {
			p.Sleep(100 * sim.Microsecond)
		}
		d.SetFaultInjector(nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("read after detach: %v", got)
	}
	if st := d.Stats(); st.Retries != 1 || st.Requests != 1 {
		t.Errorf("Retries=%d Requests=%d, want 1/1", st.Retries, st.Requests)
	}
	if inj.calls != 1 {
		t.Errorf("injector evaluated %d times, want 1 (the retry ran detached)", inj.calls)
	}
}

// TestAttachInjectorMidRun: attaching with a request in flight leaves
// that attempt alone and takes effect from the next one dispatched.
func TestAttachInjectorMidRun(t *testing.T) {
	e := sim.New(1)
	d := newDisk(e)
	inj := &scriptInjector{outcomes: []storage.FaultOutcome{{Err: storage.ErrWriteFault}}}
	var first, second error
	e.Go("io", func(p *sim.Proc) {
		defer e.Stop()
		first = d.Write(p, 0, 4, storage.ClassNormal, "t")
		if inj.calls != 0 {
			t.Errorf("in-flight attempt was evaluated (%d calls)", inj.calls)
		}
		second = d.Write(p, 8, 4, storage.ClassNormal, "t")
	})
	e.Go("attach", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond) // shorter than any service time
		d.SetFaultInjector(inj)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if first != nil {
		t.Errorf("write in flight at attach: %v", first)
	}
	if !errors.Is(second, storage.ErrWriteFault) {
		t.Errorf("write after attach: %v, want ErrWriteFault", second)
	}
}

// TestFaultPathZeroProcs is the fault path's twin of sim's
// TestCallbackZeroGoroutines: retries, stalls and a deadline timeout
// are all served on the disk's callback, so the only proc (and the only
// goroutine) the run creates is the submitter.
func TestFaultPathZeroProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	policy := storage.RetryPolicy{
		MaxRetries:  4,
		BaseBackoff: sim.Millisecond,
		MaxBackoff:  10 * sim.Millisecond,
		Deadline:    50 * sim.Millisecond,
	}
	inj := &scriptInjector{outcomes: []storage.FaultOutcome{
		{Err: storage.ErrTransient}, // read 1: two retries, then clean
		{Err: storage.ErrTransient},
		{},
		{ExtraLatency: 5 * sim.Millisecond},   // read 2: stalled, in time
		{ExtraLatency: 100 * sim.Millisecond}, // read 3: stalled past the deadline
	}}
	mid := -1
	var errs [3]error
	d, _ := ioResult(t, inj, &policy, func(p *sim.Proc, d *storage.Disk) error {
		for i := range errs {
			errs[i] = d.Read(p, int64(i)*64, 4, storage.ClassNormal, "t")
		}
		mid = runtime.NumGoroutine()
		if n := p.Engine().ProcsCreated(); n != 1 {
			t.Errorf("ProcsCreated = %d, want 1 (the submitter)", n)
		}
		return nil
	})
	if errs[0] != nil || errs[1] != nil || !errors.Is(errs[2], storage.ErrTimeout) {
		t.Errorf("errors = %v, want [nil nil timeout]", errs)
	}
	if st := d.Stats(); st.Retries != 2 || st.Stalls != 2 || st.Timeouts != 1 {
		t.Errorf("Retries=%d Stalls=%d Timeouts=%d, want 2/2/1", st.Retries, st.Stalls, st.Timeouts)
	}
	if mid > before+1 {
		t.Errorf("goroutines grew mid-run: %d before, %d with the submitter live", before, mid)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}
