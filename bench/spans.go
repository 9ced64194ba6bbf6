package main

import (
	"bufio"
	"fmt"
	"io"
	"syscall"
	"time"
)

// A span is one host-clock interval recorded by the benchmark around
// its own call into a layer. Spans nest: Parent is the id of the span
// that was open when this one began (0 for the root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the run began
	End    float64 `json:"end_s"`   // 0 while open
	CPU    float64 `json:"cpu_s"`   // process user+sys CPU consumed inside the span
}

func (s *span) dur() float64 { return s.End - s.Start }

// spanLog keeps spans in memory; they are written out only when the
// benchmark ends, so recording costs two clock reads per boundary.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (l *spanLog) begin(name string) int {
	id := len(l.spans) + 1
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: time.Since(l.t0).Seconds(), CPU: -selfCPU(),
	})
	l.open = append(l.open, id)
	return id
}

// end closes the span, which must be the innermost open one.
func (l *spanLog) end(id int) {
	n := len(l.open)
	if n == 0 || l.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order (open %v)", id, l.open))
	}
	l.open = l.open[:n-1]
	s := &l.spans[id-1]
	s.End = time.Since(l.t0).Seconds()
	s.CPU += selfCPU()
}

// in runs fn inside a span.
func (l *spanLog) in(name string, fn func() error) error {
	id := l.begin(name)
	defer l.end(id)
	return fn()
}

// findSpan returns the first span with the name, or nil.
func findSpan(spans []span, name string) *span {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

// selfCPU is the process's user+system CPU time so far, in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// writeChromeTrace renders spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps) for chrome://tracing or Perfetto.
// Nesting is implied by containment; the id/parent pair rides in args.
func writeChromeTrace(w io.Writer, process string, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"displayTimeUnit":"ms","traceEvents":[`+"\n")
	fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":1,"tid":1,"args":{"name":%q}}`, process)
	for _, s := range spans {
		fmt.Fprintf(bw, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"cpu_s":%.6f}}`,
			s.Name, s.Start*1e6, s.dur()*1e6, s.ID, s.Parent, s.CPU)
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}
