package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A standard-library-only decoder for the CPU profiles runtime/pprof
// writes (gzip-compressed profile.proto), reduced to what the layer
// ledger needs: each sample's CPU nanoseconds and its call stack as
// function names, leaf first.

// stackSample is one profile sample.
type stackSample struct {
	Count int64 // profiling ticks aggregated into this stack
	Nanos int64
	Stack []string // function names, leaf first, inlined frames expanded
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("pprof: truncated message")

// protoField is one decoded field: a varint (wire type 0) or a
// length-delimited payload (wire type 2).
type protoField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// walkFields calls fn for every field of one message.
func walkFields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.value, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil {
				return err
			}
			if uint64(len(rest)) < n {
				return errTruncated
			}
			f.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints appends a repeated integer field's values, which
// arrive either packed (one length-delimited run) or one per field.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// decodeProfile parses a gzip-compressed CPU profile into samples. A CPU
// profile's sample values are samples/count first and cpu/nanoseconds
// last.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs         []uint64
		count, nanos int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = walkFields(raw, func(f protoField) error {
		switch f.num {
		case profStringTable:
			strs = append(strs, string(f.data))
		case profSample:
			var s rawSample
			var vals []uint64
			err := walkFields(f.data, func(sf protoField) (err error) {
				switch sf.num {
				case sampleLocationID:
					s.locs, err = repeatedVarints(s.locs, sf)
				case sampleValue:
					vals, err = repeatedVarints(vals, sf)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count, s.nanos = int64(vals[0]), int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := walkFields(f.data, func(lf protoField) error {
				switch lf.num {
				case locationID:
					id = lf.value
				case locationLine:
					return walkFields(lf.data, func(ln protoField) error {
						if ln.num == lineFunctionID {
							fns = append(fns, ln.value)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case profFunction:
			var id, name uint64
			err := walkFields(f.data, func(ff protoField) error {
				switch ff.num {
				case functionID:
					id = ff.value
				case functionName:
					name = ff.value
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{Count: s.count, Nanos: s.nanos}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ss.Stack = append(ss.Stack, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// Ledger buckets that are not product layers.
const (
	layerGC    = "runtime.gc"
	layerSched = "runtime.sched"
	layerOther = "other"
)

// ledgerLayers are the product packages the ledger reports, by module
// name. Samples in any other duet package count as layerOther.
var ledgerLayers = []string{
	"sim", "storage", "iosched", "pagecache", "core", "cowfs", "lfs",
	"tasks", "workload", "cluster", "faults", "machine", "experiments",
}

// helperPkgs are data-structure, bookkeeping and client-library
// packages whose time belongs to whichever layer called them (duetlib is
// the task-side library, so its time is the calling task's).
var helperPkgs = map[string]bool{
	"rbtree": true, "bitmap": true, "metrics": true, "obs": true, "trace": true, "duetlib": true,
}

const internalPrefix = "duet/internal/"

// framePkg returns the duet/internal package a function belongs to
// ("tasks" for duet/internal/tasks/scrub.(*Scrubber).Run), or "".
func framePkg(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		return rest[:i]
	}
	return rest
}

// layerOf charges one stack (leaf first) to a layer: the first
// duet/internal frame walking towards the root, skipping helper
// packages; a benchmark frame reached first makes it layerOther.
// Stacks that never enter the product are the Go runtime's own:
// garbage-collector workers, or else scheduling (idle spinning, futex
// wake-ups, goroutine switches between simulated processes).
func layerOf(stack []string) string {
	for _, fn := range stack {
		if benchFrame(fn) {
			return layerOther
		}
		pkg := framePkg(fn)
		if pkg == "" || helperPkgs[pkg] {
			continue
		}
		for _, l := range ledgerLayers {
			if l == pkg {
				return pkg
			}
		}
		return layerOther
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") ||
			strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") {
			return layerGC
		}
	}
	return layerSched
}

// benchFrame reports whether fn is the benchmark's own code (package
// main under go run, duet/bench under go test).
func benchFrame(fn string) bool {
	return strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "duet/bench.")
}

// layerCPU sums sample CPU seconds per layer.
func layerCPU(samples []stackSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.Stack)] += float64(s.Nanos) / 1e9
	}
	return out
}
