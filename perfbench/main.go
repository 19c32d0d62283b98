// Command perfbench is the repository's benchmark: it drives the public
// acyclicjoin API (NewQuery, Instance.Add, Run) as a single closed-loop
// caller on one of a few seeded workloads, checks every Run against an
// independent hash-join reference, and prints end-to-end metrics (untraced)
// or per-layer metrics (traced, --trace 1). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload tree4-emit --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --steady 10 --workload all --seconds 20
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload name (with --steady: a comma list or \"all\")")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measurement time of one run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for file-backend arenas and trace files")
	steady := fs.Int("steady", 0, "steadiness mode: run each workload this many times (seeds seed..seed+N-1) and summarise")
	benchJSON := fs.String("bench", "BENCHMARK.json", "benchmark contract whose bounds the steadiness summary checks")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *steady > 0 {
		return steadiness(*wname, *seed, *steady, *seconds, *trace, *workdir, *benchJSON)
	}
	w, err := workloadByName(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cleared := clearEnv()
	runtime.GOMAXPROCS(procs)
	dataDir := filepath.Join(*workdir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dataDir)

	start := time.Now()
	s, err := newSession(w, *seed, dataDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	var ms map[string]metric
	var r *runner
	var traceFile string
	if *trace == 1 {
		var tr *tracer
		ms, r, tr, err = s.traced(deadline)
		if tr != nil {
			self := tr.selfSeconds()
			names := make([]string, 0, len(self))
			for name := range self {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Printf("self_s %-28s %12.6g s\n", name, self[name])
			}
			traceFile = filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
			if werr := tr.write(traceFile); werr != nil {
				fmt.Fprintln(os.Stderr, "perfbench: write trace:", werr)
				traceFile = ""
			}
		}
	} else {
		ms, r, err = s.endToEnd(deadline)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if r == nil {
			return 1
		}
		r.failed++
		r.failures = append(r.failures, err.Error())
	}

	st := newStamp(w.name, *seed, *trace, cleared)
	st.Seconds = time.Since(start).Seconds()
	st.InputTuples = tupleCount(s.data)
	st.ReferenceRows = s.ref.count
	st.TraceFile = traceFile
	if s.calibration > 0 {
		st.CalibrationS = s.calibration
		st.TimeScale = calibRef / s.calibration
	}
	printReport(os.Stdout, st, ms, r)
	if r.failed > 0 {
		return 1
	}
	return 0
}

// procs is the GOMAXPROCS every measurement runs at. One P keeps a Run on
// one CPU at a time: on a small shared host, a Run spread over two CPUs was
// both slower and far less steady, because each CPU's availability varies
// independently. Shard servers and the device pipeline's workers still run
// as goroutines, interleaved on the one P.
const procs = 1

// envPrefix marks the variables Run falls back to when an Options field is
// unset (backend, data directory, shards, device faults, sync device).
const envPrefix = "ACYCLICJOIN_"

// clearEnv unsets every ACYCLICJOIN_* variable in this process, so that the
// environment of whoever starts the benchmark cannot change the program it
// measures, and returns the names it cleared.
func clearEnv() []string {
	var cleared []string
	for _, kv := range os.Environ() {
		name, _, _ := strings.Cut(kv, "=")
		if strings.HasPrefix(name, envPrefix) {
			os.Unsetenv(name)
			cleared = append(cleared, name)
		}
	}
	sort.Strings(cleared)
	return cleared
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printReport prints the stamp, a table of every metric with its unit and
// sample count, any failures, and finally the result line.
func printReport(out io.Writer, st stamp, ms map[string]metric, r *runner) {
	b, _ := json.Marshal(st)
	fmt.Fprintf(out, "stamp %s\n", b)
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(out, "%-30s %16.6g %-8s n=%-5d %s\n", name, m.Value, m.Unit, m.n, m.note)
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "FAILED: %s\n", f)
	}
	if ms == nil {
		ms = map[string]metric{}
	}
	attempted := r.attempted
	if attempted < r.failed {
		attempted = r.failed
	}
	if attempted < 1 {
		attempted = 1
	}
	b, _ = json.Marshal(result{Correct: r.failed == 0, Attempted: attempted, Failed: r.failed, Metrics: ms})
	fmt.Fprintf(out, "%s\n", b)
}
