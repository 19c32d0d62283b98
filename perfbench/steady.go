package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// contract is the part of BENCHMARK.json the steadiness summary reads.
type contract struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs every named workload n times in child processes, one seed
// each (seed, seed+1, ...), and prints per metric the median, quartiles,
// min-max and the quartile spread as a share of the median, against the
// metric's bound from the contract file when it has one. It fails when any
// child fails.
func steadiness(names string, seed int64, n int, seconds float64, trace int, workdir, benchJSON string) int {
	bounds := map[string]float64{}
	if b, err := os.ReadFile(benchJSON); err == nil {
		var c contract
		if err := json.Unmarshal(b, &c); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: read contract:", err)
			return 1
		}
		for _, m := range c.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	var ws []*workload
	if names == "all" || names == "" {
		ws = workloads
	} else {
		for _, name := range strings.Split(names, ",") {
			w, err := workloadByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 2
			}
			ws = append(ws, w)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	status := 0
	for _, w := range ws {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			res, err := runChild(self, w.name, s, seconds, trace, workdir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, s, err)
				status = 1
				continue
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: attempted %d failed %d", w.name, s, res.Attempted, res.Failed)
			for _, name := range []string{"run_s", "cpu_s", "setup_s"} {
				if m, ok := res.Metrics[name]; ok {
					fmt.Fprintf(os.Stderr, " %s %.6g", name, m.Value)
				}
			}
			fmt.Fprintln(os.Stderr)
		}
		printSpread(w.name, values, units, bounds)
	}
	return status
}

// runChild runs one measurement as a child process and parses its result
// line.
func runChild(self, workload string, seed int64, seconds float64, trace int, workdir string) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--workdir", workdir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	if runErr != nil || !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run failed (%v): %d of %d failed", runErr, res.Failed, res.Attempted)
	}
	return &res, nil
}

func printSpread(workload string, values map[string][]float64, units map[string]string, bounds map[string]float64) {
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("== %s\n", workload)
	fmt.Printf("%-30s %6s %14s %14s %14s %14s %14s %9s %7s\n", "metric", "runs", "median", "q1", "q3", "min", "max", "iqr/med", "bound")
	for _, name := range names {
		xs := values[name]
		med := median(xs)
		q1, q3 := quartiles(xs)
		s := sorted(xs)
		spread := math.NaN()
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		bound := "-"
		if b, ok := bounds[name]; ok {
			bound = strconv.FormatFloat(b, 'g', -1, 64)
		}
		fmt.Printf("%-30s %6d %14.6g %14.6g %14.6g %14.6g %14.6g %9.4f %7s %s\n",
			name, len(xs), med, q1, q3, s[0], s[len(s)-1], spread, bound, units[name])
	}
}
