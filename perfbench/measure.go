package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"acyclicjoin"
)

// minRuns is the fewest timed set-ups and Runs a measurement takes, however
// short --seconds is.
const minRuns = 5

// runner drives the public Run as a single closed-loop caller, one Run at a
// time, and checks every Result against the reference.
type runner struct {
	w     *workload
	q     *acyclicjoin.Query
	inst  *acyclicjoin.Instance
	opts  acyclicjoin.Options
	ref   refResult
	attrs []string

	// Sink state of the Run in progress.
	rows, badValues int64
	sum             uint64
	vals            []int64

	// The deterministic counters of the first Run; every later Run must
	// repeat them exactly.
	pinned            bool
	ios, planning     int64
	hiwater           int
	attempted, failed int
	failures          []string
}

func newRunner(w *workload, q *acyclicjoin.Query, inst *acyclicjoin.Instance, opts acyclicjoin.Options, ref refResult) *runner {
	attrs := w.attrNames()
	return &runner{w: w, q: q, inst: inst, opts: opts, ref: ref, attrs: attrs, vals: make([]int64, len(attrs))}
}

// sink reads every value of a Row and folds the row into the checksum.
func (r *runner) sink(row acyclicjoin.Row) {
	for i, a := range r.attrs {
		v, ok := row[a].(int64)
		if !ok {
			r.badValues++
		}
		r.vals[i] = v
	}
	r.sum += rowHash(r.vals)
	r.rows++
}

// run executes one Run and verifies it; a failed Run is counted and
// recorded, and its error returned.
func (r *runner) run(opts acyclicjoin.Options) (*acyclicjoin.Result, error) {
	r.rows, r.badValues, r.sum = 0, 0, 0
	var emit func(acyclicjoin.Row)
	if r.w.emit {
		emit = r.sink
	}
	res, err := acyclicjoin.Run(r.q, r.inst, opts, emit)
	r.attempted++
	if err == nil {
		err = r.check(res, opts)
	}
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
	return res, err
}

func (r *runner) check(res *acyclicjoin.Result, opts acyclicjoin.Options) error {
	if res.Count != r.ref.count {
		return fmt.Errorf("count %d, reference %d", res.Count, r.ref.count)
	}
	if r.w.emit {
		switch {
		case r.rows != r.ref.count:
			return fmt.Errorf("sink saw %d rows, reference %d", r.rows, r.ref.count)
		case r.badValues != 0:
			return fmt.Errorf("%d row values were not int64", r.badValues)
		case r.sum != r.ref.checksum:
			return fmt.Errorf("row checksum %x, reference %x", r.sum, r.ref.checksum)
		}
	}
	if opts.Backend != r.opts.Backend {
		return nil // a comparison run on another backend is checked for rows only
	}
	if res.Backend != opts.Backend {
		return fmt.Errorf("ran on backend %q, asked for %q", res.Backend, opts.Backend)
	}
	if !r.pinned {
		r.pinned = true
		r.ios, r.planning, r.hiwater = res.Stats.IOs, res.PlanningStats.IOs, res.Stats.MemHiWater
		return nil
	}
	if res.Stats.IOs != r.ios || res.PlanningStats.IOs != r.planning || res.Stats.MemHiWater != r.hiwater {
		return fmt.Errorf("counters moved between repetitions: ios %d/%d planning_ios %d/%d mem_hiwater %d/%d",
			res.Stats.IOs, r.ios, res.PlanningStats.IOs, r.planning, res.Stats.MemHiWater, r.hiwater)
	}
	return nil
}

// hostSample is the host cost of one Run.
type hostSample struct {
	wall, cpu, allocBytes, allocs float64
}

// timedRun runs once after a runtime.GC, timing wall clock, process CPU and
// heap allocation around the Run alone.
func (r *runner) timedRun(opts acyclicjoin.Options) (hostSample, *acyclicjoin.Result, error) {
	runtime.GC()
	a0 := readAllocs()
	c0 := cpuSeconds()
	t0 := time.Now()
	res, err := r.run(opts)
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	a1 := readAllocs()
	return hostSample{wall: wall, cpu: c1 - c0, allocBytes: a1.bytes - a0.bytes, allocs: a1.objects - a0.objects}, res, err
}

type allocCounts struct{ bytes, objects float64 }

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}

// readAllocs reads the cumulative heap allocation counters.
func readAllocs() allocCounts {
	s := make([]metrics.Sample, len(allocSamples))
	copy(s, allocSamples)
	metrics.Read(s)
	return allocCounts{bytes: float64(s[0].Value.Uint64()), objects: float64(s[1].Value.Uint64())}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the number of samples the value summarises (1 for a count).
	n int
	// note is printed beside the value in the report: for a scaled timing,
	// the measured median and the highest percentile with at least ten
	// samples above it.
	note string
}

// scaledMedian summarises timing samples as their median times scale (see
// calibRef); the note keeps the measured figures.
func scaledMedian(xs []float64, scale float64) metric {
	m := metric{Value: median(xs) * scale, n: len(xs)}
	m.note = fmt.Sprintf("measured median=%.6g", median(xs))
	if v, p, ok := tailPercentile(xs); ok {
		m.note += fmt.Sprintf(" p%d=%.6g", p, v)
	}
	return m
}

// session holds one workload's generated inputs and reference answer.
type session struct {
	w    *workload
	data [][][]int64
	ref  refResult
	opts acyclicjoin.Options
	// calibration is the median calibration-kernel time of the end-to-end
	// run (0 for a traced run).
	calibration float64
}

func newSession(w *workload, seed int64, dataDir string) (*session, error) {
	data := w.generate(seed)
	ref, err := reference(w, data, w.emit)
	if err != nil {
		return nil, err
	}
	return &session{w: w, data: data, ref: ref, opts: w.options(dataDir)}, nil
}

// endToEnd measures the untraced end-to-end metrics. After one untimed
// set-up and Run (the warm-up) it repeats, until the deadline and at least
// minRuns times: the calibration kernel, a timed set-up, the kernel again,
// then a timed Run on the instance just built, each after a runtime.GC.
// Interleaving spreads every set of samples over the whole window, so all
// medians see the same host conditions; timings are reported scaled by the
// kernel (see calibRef).
func (s *session) endToEnd(deadline time.Time) (map[string]metric, *runner, error) {
	q, inst, err := s.w.setup(s.data)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	r := newRunner(s.w, q, inst, s.opts, s.ref)
	res, _ := r.run(s.opts)
	var setups, kernel []float64
	var host []hostSample
	for len(host) < minRuns || time.Now().Before(deadline) {
		r.q, r.inst = nil, nil
		runtime.GC()
		kernel = append(kernel, calibrate())
		runtime.GC()
		t0 := time.Now()
		q, inst, err := s.w.setup(s.data)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, r, fmt.Errorf("setup: %w", err)
		}
		r.q, r.inst = q, inst
		runtime.GC()
		kernel = append(kernel, calibrate())
		h, rres, _ := r.timedRun(s.opts)
		host = append(host, h)
		if rres != nil {
			res = rres
		}
	}
	if res == nil {
		return nil, r, fmt.Errorf("no Run returned a result")
	}
	var wall, cpu, allocBytes, allocs []float64
	for _, h := range host {
		wall = append(wall, h.wall)
		cpu = append(cpu, h.cpu)
		allocBytes = append(allocBytes, h.allocBytes)
		allocs = append(allocs, h.allocs)
	}
	scale := calibRef / median(kernel)
	ms := map[string]metric{
		"run_s":        scaledMedian(wall, scale),
		"setup_s":      scaledMedian(setups, scale),
		"cpu_s":        scaledMedian(cpu, scale),
		"ios":          {Value: float64(res.Stats.IOs), n: 1},
		"planning_ios": {Value: float64(res.PlanningStats.IOs), n: 1},
		"mem_hiwater":  {Value: float64(res.Stats.MemHiWater), n: 1},
		"alloc_bytes":  {Value: median(allocBytes), n: len(allocBytes)},
		"allocs":       {Value: median(allocs), n: len(allocs)},
	}
	for _, m := range endToEndMetrics {
		v := ms[m.name]
		v.Unit = m.unit
		ms[m.name] = v
	}
	s.calibration = median(kernel)
	return ms, r, nil
}

// endToEndMetrics lists the untraced run's metrics in BENCHMARK.json order.
var endToEndMetrics = []layerMetric{
	{"run_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"ios", "blocks", "lower"},
	{"planning_ios", "blocks", "lower"},
	{"mem_hiwater", "tuples", "lower"},
	{"alloc_bytes", "bytes", "lower"},
	{"allocs", "count", "lower"},
}
