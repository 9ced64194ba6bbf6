// Package sim implements a deterministic discrete-event simulation kernel.
//
// All higher layers of the repository (devices, schedulers, page cache,
// filesystems, maintenance tasks, workload generators) run as sim processes
// over a virtual clock. The kernel guarantees that exactly one process
// executes at any moment, so code built on top of it needs no locking, and
// that runs with the same seed are bit-for-bit reproducible.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, or a duration between two such points,
// measured in nanoseconds. The simulation starts at Time(0).
type Time int64

// Common durations, mirroring package time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// FromDuration converts a real time.Duration into virtual Time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Duration converts virtual Time into a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with the same notation as time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// Scale multiplies the time by a dimensionless factor, rounding toward zero.
func (t Time) Scale(f float64) Time { return Time(float64(t) * f) }

// GoString implements fmt.GoStringer for readable test failures.
func (t Time) GoString() string { return fmt.Sprintf("sim.Time(%s)", t) }
