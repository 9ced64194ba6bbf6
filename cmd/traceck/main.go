// Command traceck validates a Chrome trace-event JSON file produced by
// the observability subsystem (duetbench -trace / duetsim -trace): it
// checks the schema (required fields, known phases, non-negative
// timestamps and durations), then prints a one-line summary. A
// violation exits non-zero, which is how CI gates the trace artifact.
//
// Usage:
//
//	traceck file.json
package main

import (
	"fmt"
	"os"

	"duet/internal/obs"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: traceck file.json")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceck:", err)
		os.Exit(1)
	}
	defer f.Close()
	sum, err := obs.ValidateTrace(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceck:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: ok (%d events, %d metadata, %d processes, %d tracks)\n",
		os.Args[1], sum.Events, sum.Metadata, len(sum.Processes), sum.Tracks)
}
