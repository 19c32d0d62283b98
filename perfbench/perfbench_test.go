package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.generate(7), w.generate(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		c := w.generate(8)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
		for i := range a {
			if len(a[i]) != len(c[i]) {
				t.Errorf("%s: relation %d has %d tuples at seed 7, %d at seed 8; the shape must not depend on the seed",
					w.name, i, len(a[i]), len(c[i]))
			}
			if reflect.DeepEqual(a[i], c[i]) {
				t.Errorf("%s: relation %d is the same at seeds 7 and 8", w.name, i)
			}
		}
	}
}

// bruteCount joins tiny relations by trying every combination of tuples.
func bruteCount(w *workload, data [][][]int64) (int64, uint64) {
	names := w.attrNames()
	var count int64
	var sum uint64
	pick := make([][]int64, len(data))
	var rec func(i int)
	rec = func(i int) {
		if i == len(data) {
			vals := map[string]int64{}
			for r, tup := range pick {
				for j, a := range w.rels[r].attrs {
					if v, ok := vals[a]; ok && v != tup[j] {
						return
					}
					vals[a] = tup[j]
				}
			}
			row := make([]int64, len(names))
			for k, a := range names {
				row[k] = vals[a]
			}
			count++
			sum += rowHash(row)
			return
		}
		for _, tup := range data[i] {
			pick[i] = tup
			rec(i + 1)
		}
	}
	rec(0)
	return count, sum
}

// TestReferenceMatchesBruteForce checks the hash-join reference on small
// random instances of every workload's query shape.
func TestReferenceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range workloads {
		for trial := 0; trial < 20; trial++ {
			data := make([][][]int64, len(w.rels))
			for i := range data {
				seen := map[[2]int64]bool{}
				for k := 0; k < 1+rng.Intn(6); k++ {
					tup := [2]int64{rng.Int63n(3), rng.Int63n(3)}
					if !seen[tup] {
						seen[tup] = true
						data[i] = append(data[i], []int64{tup[0], tup[1]})
					}
				}
			}
			ref, err := reference(w, data, true)
			if err != nil {
				t.Fatal(err)
			}
			count, sum := bruteCount(w, data)
			if ref.count != count || ref.checksum != sum {
				t.Fatalf("%s trial %d: reference (%d, %x), brute force (%d, %x)", w.name, trial, ref.count, ref.checksum, count, sum)
			}
		}
	}
}

// TestReferenceAgreesWithRun runs every workload once through the public API
// and checks it against the reference.
func TestReferenceAgreesWithRun(t *testing.T) {
	clearEnv()
	for _, w := range workloads {
		s, err := newSession(w, 3, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if s.ref.count == 0 {
			t.Fatalf("%s: the reference expects no rows", w.name)
		}
		q, inst, err := w.setup(s.data)
		if err != nil {
			t.Fatal(err)
		}
		r := newRunner(w, q, inst, s.opts, s.ref)
		res, err := r.run(s.opts)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Backend != s.opts.Backend {
			t.Errorf("%s: ran on %q, want %q", w.name, res.Backend, s.opts.Backend)
		}
		if s.opts.Shards > 1 && (res.Shards == nil || res.Shards.Bypass) {
			t.Errorf("%s: Run did not shard", w.name)
		}
	}
}

// TestTracedFold runs the traced measurement of every workload at its
// minimum length and checks that the per-layer I/O folds into the
// end-to-end counters exactly.
func TestTracedFold(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs take several seconds")
	}
	clearEnv()
	for _, w := range workloads {
		s, err := newSession(w, 5, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ms, r, tr, err := s.traced(time.Now())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.failed != 0 {
			t.Fatalf("%s: %d of %d operations failed: %v", w.name, r.failed, r.attempted, r.failures)
		}
		v := func(name string) int64 { return int64(ms[name].Value) }
		if got := v("reducer.ios") + v("core.exec_ios"); got != r.ios {
			t.Errorf("%s: reducer.ios + core.exec_ios = %d, ios = %d", w.name, got, r.ios)
		}
		if got := v("reducer.ios") + v("core.exec_ios") + v("core.plan_ios"); got != r.planning {
			t.Errorf("%s: reducer.ios + core.exec_ios + core.plan_ios = %d, planning_ios = %d", w.name, got, r.planning)
		}
		if got := v("extmem.sort_phase_ios") + v("extmem.reduce_phase_ios") + v("extmem.other_phase_ios"); got != r.planning {
			t.Errorf("%s: phase I/Os sum to %d, planning_ios = %d", w.name, got, r.planning)
		}
		if got := v("extmem.performed_ios") + v("extmem.replayed_ios"); got != r.planning {
			t.Errorf("%s: performed + replayed transfers = %d, planning_ios = %d", w.name, got, r.planning)
		}
		for _, m := range perLayerMetrics {
			if _, ok := ms[m.name]; !ok {
				t.Errorf("%s: traced run lacks %s", w.name, m.name)
			}
		}
		if len(ms) != len(perLayerMetrics) {
			t.Errorf("%s: traced run reports %d metrics, want %d", w.name, len(ms), len(perLayerMetrics))
		}
		runs := map[int]bool{}
		for _, sp := range tr.spans {
			runs[sp.Run] = true
			if sp.End < sp.Start {
				t.Errorf("%s: span %s ends before it starts", w.name, sp.Name)
			}
		}
		if len(runs) < minTraced {
			t.Errorf("%s: spans cover %d traced iterations, want at least %d", w.name, len(runs), minTraced)
		}
	}
}

// TestContractMatchesProgram checks BENCHMARK.json against what the program
// reports: workload names and reasons, and every metric with its unit.
func TestContractMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract lists %d workloads, program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("contract workload %d is %+v, program has %s: %s", i, c.Workloads[i], w.name, w.why)
		}
	}
	want := map[string]string{}
	for _, m := range endToEndMetrics {
		want[m.name] = m.unit
	}
	if len(c.EndToEnd) != len(want) {
		t.Errorf("contract lists %d end-to-end metrics, program reports %d", len(c.EndToEnd), len(want))
	}
	for _, m := range c.EndToEnd {
		if want[m.Name] != m.Unit || m.Better != "lower" {
			t.Errorf("end-to-end %s (%s, %s): program reports unit %q", m.Name, m.Unit, m.Better, want[m.Name])
		}
	}
	if len(c.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("contract lists %d per-layer metrics, program reports %d", len(c.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		got := c.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d is %+v, program has %+v", i, got, m)
		}
	}
}

func TestClearEnv(t *testing.T) {
	t.Setenv("ACYCLICJOIN_BACKEND", "bogus")
	t.Setenv("ACYCLICJOIN_SHARDS", "x")
	got := clearEnv()
	if want := []string{"ACYCLICJOIN_BACKEND", "ACYCLICJOIN_SHARDS"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cleared %v, want %v", got, want)
	}
	for _, name := range got {
		if _, set := os.LookupEnv(name); set {
			t.Errorf("%s still set", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}

func TestResultIsLastLine(t *testing.T) {
	var out bytes.Buffer
	r := &runner{attempted: 4, failed: 1, failures: []string{"count 1, reference 2"}}
	printReport(&out, newStamp("tree4-emit", 1, 0, nil), map[string]metric{"run_s": {Value: 0.5, Unit: "s", n: 3}}, r)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	keys := []string{}
	for k := range res {
		keys = append(keys, k)
	}
	if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys %v", keys)
	}
	if string(res["correct"]) != "false" {
		t.Errorf("correct = %s with a failed operation", res["correct"])
	}
}
