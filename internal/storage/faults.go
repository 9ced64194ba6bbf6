package storage

import (
	"errors"
	"fmt"

	"duet/internal/sim"
)

// This file holds the device-level fault surface: the error taxonomy the
// rest of the stack programs against, the FaultInjector interface that
// internal/faults implements, and the retry/backoff/timeout policy the
// executor applies when an injector is attached. With no injector the
// executor (Disk.step) never consults any of this, which keeps the
// fault-free path byte-identical.

// ErrTransient is a recoverable device error: the same request may
// succeed if retried. The executor retries it under the RetryPolicy; if
// retries are exhausted the error propagates to the submitter.
var ErrTransient = errors.New("storage: transient device error")

// ErrWriteFault is an unrecoverable write error: the target blocks did
// not reach the medium and retrying cannot help (e.g. a failed remap).
// Writeback must keep the data and quarantine it, not drop it.
var ErrWriteFault = errors.New("storage: unrecoverable write error")

// ErrTimeout is returned when a request exceeds the retry policy's
// deadline — either stalled on the device or stuck in a retry loop.
var ErrTimeout = errors.New("storage: request deadline exceeded")

// TornWriteError reports a partially persisted write: the first
// Persisted blocks of the request reached the medium, the rest did not.
// Writeback applies the persisted prefix and retries the remainder.
type TornWriteError struct {
	Persisted int
}

// Error implements error.
func (e *TornWriteError) Error() string {
	return fmt.Sprintf("storage: torn write (persisted %d blocks)", e.Persisted)
}

// TornBlocks extracts the persisted prefix length from a torn-write
// error, if err is one. It walks the wrap chain as errors.As does, but
// without the allocation errors.As costs: writeback asks this of every
// failed device write.
func TornBlocks(err error) (int, bool) {
	switch e := err.(type) {
	case *TornWriteError:
		return e.Persisted, true
	case interface{ Unwrap() error }:
		return TornBlocks(e.Unwrap())
	case interface{ Unwrap() []error }:
		for _, err := range e.Unwrap() {
			if n, ok := TornBlocks(err); ok {
				return n, true
			}
		}
	}
	return 0, false
}

// IsTransient reports whether err is worth retrying at a higher level:
// the data is intact in memory and a later attempt may succeed.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrTimeout)
}

// FaultOutcome is the injector's decision for one service attempt.
type FaultOutcome struct {
	// Err is the injected failure; nil means the attempt succeeds (reads
	// may still hit an injected bad block). Use ErrTransient, ErrWriteFault,
	// a *TornWriteError, or ErrBadBlock-wrapping errors.
	Err error
	// ExtraLatency stalls the attempt: it is added to the model's service
	// time and counts as device busy time.
	ExtraLatency sim.Time
}

// FaultInjector decides, deterministically, whether a service attempt
// fails. Evaluate is called once per attempt (so a retried request is
// re-evaluated); attempt is 0 for the first try. Implementations may
// also materialize time-triggered faults (latent sector errors) by
// calling InjectBadBlock on the disk.
type FaultInjector interface {
	Evaluate(now sim.Time, r *Request, attempt int) FaultOutcome
}

// RetryPolicy bounds the executor's recovery from transient faults.
// Backoff is exponential in virtual time: BaseBackoff, doubled per
// retry, capped at MaxBackoff. A request whose total latency would
// exceed Deadline fails with ErrTimeout instead of retrying further.
type RetryPolicy struct {
	MaxRetries  int      // retries after the first attempt
	BaseBackoff sim.Time // first retry delay
	MaxBackoff  sim.Time // backoff cap
	Deadline    sim.Time // total submit-to-complete budget; 0 = none
}

// DefaultRetryPolicy mirrors a conservative SCSI mid-layer: a handful
// of retries, millisecond-scale backoff, a two-second deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries:  4,
		BaseBackoff: sim.Millisecond,
		MaxBackoff:  50 * sim.Millisecond,
		Deadline:    2 * sim.Second,
	}
}

// SetFaultInjector attaches an injector and arms the retry policy (the
// default if none was set). Passing nil detaches and restores the exact
// pre-attach service path. Either may happen mid-run: the executor
// consults the injector once per service attempt, as it starts, so an
// attempt in flight completes as it began and a request in retry
// backoff when the injector detaches retries as a clean attempt.
func (d *Disk) SetFaultInjector(in FaultInjector) {
	d.injector = in
	if in != nil && d.retry == (RetryPolicy{}) {
		d.retry = DefaultRetryPolicy()
	}
}

// SetRetryPolicy overrides the retry policy used when an injector is
// attached.
func (d *Disk) SetRetryPolicy(p RetryPolicy) { d.retry = p }

// RetryPolicy returns the currently armed retry policy (the zero value
// until an injector attaches or SetRetryPolicy is called).
func (d *Disk) RetryPolicy() RetryPolicy { return d.retry }

// BadBlocks returns the currently injected bad blocks in ascending
// order. Recovery uses it to transplant medium state onto the disk of a
// remounted machine.
func (d *Disk) BadBlocks() []int64 {
	if len(d.badBlocks) == 0 {
		return nil
	}
	out := make([]int64, 0, len(d.badBlocks))
	for b := range d.badBlocks {
		out = append(out, b)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// retryOrFail is complete's fault path, for an attempt the injector
// evaluated and that ended in err: retry transient errors with bounded
// exponential backoff in virtual time (a positive return: retry after
// that long), convert stalls and retry loops that blow the deadline
// into ErrTimeout, and propagate permanent errors.
func (d *Disk) retryOrFail(r *Request, err error, now sim.Time) (sim.Time, error) {
	elapsed := now - r.submitted
	switch {
	case err == nil:
		if d.retry.Deadline > 0 && elapsed > d.retry.Deadline {
			// The attempt finished, but only after the initiator would
			// have aborted it: a stalled request is a timeout even if the
			// medium eventually responded.
			d.stats.Timeouts++
			err = fmt.Errorf("%w (%v elapsed)", ErrTimeout, elapsed)
		}
	case errors.Is(err, ErrTransient):
		d.stats.TransientFaults++
		backoff := d.backoff
		over := d.retry.Deadline > 0 && elapsed+backoff > d.retry.Deadline
		if d.attempt < d.retry.MaxRetries && !over {
			d.stats.Retries++
			d.stats.BackoffTime += backoff
			d.attempt++
			d.backoff = min(2*backoff, d.retry.MaxBackoff)
			return backoff, nil
		}
		if over {
			d.stats.Timeouts++
			err = fmt.Errorf("%w (retries exhausted deadline)", ErrTimeout)
		}
	default:
		d.stats.PermanentFaults++
		if _, torn := TornBlocks(err); torn {
			d.stats.TornWrites++
		}
	}
	return 0, err
}
