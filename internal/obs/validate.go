package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceSummary describes a validated trace file.
type TraceSummary struct {
	Events    int // non-metadata events
	Metadata  int
	Processes map[int]bool
	Tracks    int // thread_name metadata records
}

// ValidateTrace parses a Chrome trace-event JSON stream and checks the
// invariants the exporter promises. Schema: a top-level traceEvents
// array whose entries carry a known phase, a name, pid/tid, and
// non-negative virtual timestamps (durations too, for slices). It is
// the check behind cmd/traceck and the CI trace-artifact gate.
func ValidateTrace(r io.Reader) (*TraceSummary, error) {
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return nil, fmt.Errorf("trace: missing traceEvents array")
	}
	sum := &TraceSummary{Processes: map[int]bool{}}
	for i, raw := range doc.TraceEvents {
		var e struct {
			Ph   string   `json:"ph"`
			Name *string  `json:"name"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if e.Name == nil || *e.Name == "" {
			return nil, fmt.Errorf("trace: event %d: missing name", i)
		}
		if e.Pid == nil || e.Tid == nil {
			return nil, fmt.Errorf("trace: event %d (%s): missing pid/tid", i, *e.Name)
		}
		sum.Processes[*e.Pid] = true
		switch e.Ph {
		case "M":
			sum.Metadata++
			if *e.Name == "thread_name" {
				sum.Tracks++
			}
			continue
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				return nil, fmt.Errorf("trace: event %d (%s): slice without non-negative dur", i, *e.Name)
			}
		case "i", "C":
		default:
			return nil, fmt.Errorf("trace: event %d (%s): unknown phase %q", i, *e.Name, e.Ph)
		}
		if e.Ts == nil || *e.Ts < 0 {
			return nil, fmt.Errorf("trace: event %d (%s): missing or negative ts", i, *e.Name)
		}
		sum.Events++
	}
	return sum, nil
}
