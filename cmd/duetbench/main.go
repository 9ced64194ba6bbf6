// Command duetbench regenerates the tables and figures of the paper's
// evaluation (§6). Each experiment prints the same rows/series the paper
// reports, as aligned text.
//
// Usage:
//
//	duetbench [-scale tiny|small|medium|full] [-seeds N] [-j N] [-experiment id[,id...]]
//	          [-list] [-cpuprofile file] [-memprofile file] [-trace file] [-metrics file]
//
// The default small scale reproduces the paper's ratios at laptop cost
// (see internal/experiments); -scale full approximates the paper's
// absolute setup and takes hours.
//
// -j sets the worker count for the experiment grid (default: all CPUs).
// Output — stdout, traces, and metrics alike — is byte-identical at any
// -j: each cell is one serial simulation, cells are reassembled in input
// order and trace slots are reserved in input order, so parallelism
// only changes wall-clock time. Each experiment's wall-clock time goes
// to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"duet/internal/experiments"
	"duet/internal/obs"
)

func main() {
	scaleName := flag.String("scale", "small", "experiment scale: tiny, small, medium, or full")
	seeds := flag.Int("seeds", 0, "override the number of repetitions (0 = scale default)")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "grid worker count (output is identical at any value)")
	expFlag := flag.String("experiment", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	quiet := flag.Bool("q", false, "suppress the progress line on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of every cell to this file")
	metricsOut := flag.String("metrics", "", "write the merged metrics registry to this file (.json for JSON, otherwise text)")
	flag.Parse()

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	scale, ok := experiments.ByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "duetbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *seeds > 0 {
		scale.Seeds = *seeds
	}
	experiments.Workers = *workers
	if !*quiet {
		experiments.Progress = os.Stderr
	}
	if *traceOut != "" || *metricsOut != "" {
		experiments.EnableObs(*traceOut != "")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "duetbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "duetbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "duetbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "duetbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	var ids []string
	if *expFlag == "" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*expFlag, ",")
	}

	for _, id := range ids {
		e, ok := experiments.Lookup(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "duetbench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("==> %s: %s (scale %s, %d seed(s))\n", e.ID, e.Title, scale.Name, scale.Seeds)
		start := time.Now()
		if err := e.Run(scale, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "duetbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		// Timing goes to stderr: stdout must be byte-identical across
		// runs and worker counts.
		fmt.Fprintf(os.Stderr, "duetbench: %s done in %s\n", e.ID, time.Since(start).Round(time.Millisecond))
		fmt.Println()
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = obs.WriteTraceMulti(f, experiments.CellTraces())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "duetbench: -trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "duetbench: wrote %s (%d cells)\n", *traceOut, len(experiments.CellTraces()))
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err == nil {
			reg := experiments.ObsRegistry()
			if strings.HasSuffix(*metricsOut, ".json") {
				err = obs.WriteMetricsJSON(f, reg)
			} else {
				err = obs.WriteMetricsText(f, reg)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "duetbench: -metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "duetbench: wrote %s\n", *metricsOut)
	}
}
