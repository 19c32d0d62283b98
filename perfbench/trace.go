package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"acyclicjoin"
	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/extmem/diskfile"
	"acyclicjoin/internal/extsort"
	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/opcache"
	"acyclicjoin/internal/reducer"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/shard"
	"acyclicjoin/internal/tuple"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one traced iteration share Run.
type span struct {
	Run    int              `json:"run"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory; write stores them when the benchmark ends.
type tracer struct {
	epoch time.Time
	run   int
	spans []span
	open  []int // indexes of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{Run: t.run, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span, and returns it.
func (t *tracer) end(i int, counts map[string]int64) span {
	if n := len(t.open); n == 0 || t.open[n-1] != i {
		panic("tracer: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.epoch).Nanoseconds()
	t.spans[i].Counts = counts
	return t.spans[i]
}

// abandon closes every open span, after an iteration failed part-way.
func (t *tracer) abandon() {
	for len(t.open) > 0 {
		t.end(t.open[len(t.open)-1], nil)
	}
}

// selfSeconds returns, per span name, the median self time: a span's
// duration minus the part its child spans cover.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string][]float64{}
	for _, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start-child[s.ID])/1e9)
	}
	out := map[string]float64{}
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans       []span             `json:"spans"`
		SelfSeconds map[string]float64 `json:"self_s"`
	}{t.spans, t.selfSeconds()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerPlan is the benchmark's own copy of what the public Query builds: the
// hypergraph with edge i for relation i and attribute ids in first-appearance
// order, and each relation's schema in declared column order.
type layerPlan struct {
	g       *hypergraph.Graph
	schemas []tuple.Schema
	links   []layerLink
}

// layerLink is one join-tree edge: child shares attr with parent.
type layerLink struct {
	child, parent int
	attr          tuple.Attr
}

func newLayerPlan(w *workload) (*layerPlan, error) {
	ids := map[string]int{}
	p := &layerPlan{}
	edges := make([]*hypergraph.Edge, len(w.rels))
	for i, r := range w.rels {
		e := &hypergraph.Edge{ID: i, Name: r.name}
		var schema tuple.Schema
		for _, a := range r.attrs {
			id, ok := ids[a]
			if !ok {
				id = len(ids)
				ids[a] = id
			}
			e.Attrs = append(e.Attrs, id)
			schema = append(schema, id)
		}
		edges[i] = e
		p.schemas = append(p.schemas, schema)
	}
	g, err := hypergraph.New(edges)
	if err != nil {
		return nil, err
	}
	if _, line := g.AsLine(); line {
		return nil, fmt.Errorf("%s: line queries take the Section 6 dispatcher, which the decomposition pass does not replay", w.name)
	}
	p.g = g
	jt, err := buildJoinTree(w.rels)
	if err != nil {
		return nil, err
	}
	for _, c := range jt.order[1:] {
		p.links = append(p.links, layerLink{child: c, parent: jt.parent[c], attr: ids[jt.link[c]]})
	}
	return p, nil
}

// newDisk builds a disk on the backend the options name, the way Run does.
func newDisk(opts acyclicjoin.Options) (*extmem.Disk, func(), error) {
	cfg := extmem.Config{M: opts.Memory, B: opts.Block}
	switch opts.Backend {
	case "sim":
		return extmem.NewDisk(cfg), func() {}, nil
	case "file":
		open := diskfile.Open
		if opts.SyncDevice {
			open = diskfile.OpenSync
		}
		eng, err := open(opts.DataDir, cfg)
		if err != nil {
			return nil, nil, err
		}
		return extmem.NewDiskWithBackend(cfg, eng), func() { eng.Close() }, nil
	}
	return nil, nil, fmt.Errorf("unknown backend %q", opts.Backend)
}

// load puts the generated tuples on the disk without charging, as Run does.
func (p *layerPlan) load(d *extmem.Disk, data [][][]int64) relation.Instance {
	restore := d.Suspend()
	in := relation.Instance{}
	for i, rows := range data {
		in[i] = relation.FromTuples(d, p.schemas[i], rows)
	}
	restore()
	d.ResetStats()
	return in
}

func coreOptions(opts acyclicjoin.Options, strategy core.Strategy) core.Options {
	return core.Options{
		Strategy:      strategy,
		AssumeReduced: !opts.SkipReduce,
		Parallelism:   opts.Parallelism,
		NoPrune:       opts.NoPrune,
		Memo:          opts.Memo,
		MemoLimits:    opcache.Limits{MaxEntries: opts.MemoMaxEntries, MaxTuples: opts.MemoMaxTuples},
		SortCache:     opts.SortCache,
	}
}

// decomposition is what one replay of Run's steps measured.
type decomposition struct {
	reduce, exec                span
	reduceIOs, planIOs, execIOs int64
	// allocs counts the heap objects the reduction and executor calls
	// allocated.
	allocs  float64
	phases  map[string]extmem.Stats
	emitted int64
}

// decompose replays Run's steps on a disk of the workload's backend, M and B,
// with a span around each layer call: memo attach, uncharged load, full
// reduction, then core.Run (unsharded) or shard.Run. The charged I/O it sees
// must equal the public Run's exactly.
func (s *session) decompose(t *tracer, p *layerPlan) (*decomposition, error) {
	d, closeDisk, err := newDisk(s.opts)
	if err != nil {
		return nil, err
	}
	defer closeDisk()
	if s.opts.Memo != acyclicjoin.MemoOff && s.opts.SortCache != acyclicjoin.SortCacheOff {
		opcache.EnableLimited(d, opcache.Limits{MaxEntries: s.opts.MemoMaxEntries, MaxTuples: s.opts.MemoMaxTuples})
	}
	root := t.begin("decompose")
	ld := t.begin("relation.FromTuples")
	in := p.load(d, s.data)
	t.end(ld, nil)
	d.EnablePhases()

	out := &decomposition{}
	work := in
	if !s.opts.SkipReduce {
		a0 := readRuntime()
		sp := t.begin("reducer.FullReduce")
		red, err := reducer.FullReduce(p.g, in)
		out.reduceIOs = d.Stats().IOs()
		out.reduce = t.end(sp, map[string]int64{"ios": out.reduceIOs})
		out.allocs += readRuntime().sub(a0).allocs
		if err != nil {
			return nil, err
		}
		work = red
	}
	emit := func(tuple.Assignment) { out.emitted++ }
	copts := coreOptions(s.opts, s.opts.Strategy)
	before := d.Stats().IOs()
	a0 := readRuntime()
	var total, exec extmem.Stats
	if s.opts.Shards > 1 {
		sp := t.begin("shard.Run")
		r, err := shard.Run(p.g, work, emit, shard.Options{Shards: s.opts.Shards, Core: copts})
		if err != nil {
			return nil, err
		}
		total, exec = r.TotalStats, r.ExecStats
		out.exec = t.end(sp, map[string]int64{"ios": d.Stats().IOs() - before})
	} else {
		sp := t.begin("core.Run")
		r, err := core.Run(p.g, work, emit, copts)
		if err != nil {
			return nil, err
		}
		total, exec = r.TotalStats, r.ExecStats
		out.exec = t.end(sp, map[string]int64{"ios": d.Stats().IOs() - before})
	}
	out.allocs += readRuntime().sub(a0).allocs
	out.planIOs = total.Sub(exec).IOs()
	out.execIOs = d.Stats().IOs() - before - out.planIOs
	out.phases = d.PhaseStats()
	t.end(root, nil)
	return out, nil
}

// singleBranch times core.Run under StrategyFirst on the reduced input, on a
// fresh disk with a fresh memo: the no-planning floor.
func (s *session) singleBranch(t *tracer, p *layerPlan) (span, error) {
	d, closeDisk, err := newDisk(s.opts)
	if err != nil {
		return span{}, err
	}
	defer closeDisk()
	opcache.EnableLimited(d, opcache.Limits{})
	in := p.load(d, s.data)
	red, err := reducer.FullReduce(p.g, in)
	if err != nil {
		return span{}, err
	}
	sp := t.begin("core.Run.first")
	_, err = core.Run(p.g, red, func(tuple.Assignment) {}, coreOptions(s.opts, core.StrategyFirst))
	return t.end(sp, nil), err
}

// kernels times extsort.SortCols of every relation on its join column and
// relation.Semijoin over every join-tree edge, on a fresh disk with the
// workload's backend, M and B and no memo. It returns the summed sort time,
// the tuples sorted and the summed semijoin time.
func (s *session) kernels(t *tracer, p *layerPlan) (sortS float64, sorted int64, semiS float64, err error) {
	d, closeDisk, err := newDisk(s.opts)
	if err != nil {
		return 0, 0, 0, err
	}
	defer closeDisk()
	in := p.load(d, s.data)
	joinAttr := map[int]tuple.Attr{}
	for _, l := range p.links {
		joinAttr[l.child], joinAttr[l.parent] = l.attr, l.attr
	}
	for i := range s.data {
		r := in[i]
		sp := t.begin("extsort.SortCols")
		_, err := extsort.SortCols(r.File(), []int{r.Col(joinAttr[i])})
		sortS += t.end(sp, map[string]int64{"tuples": int64(r.Len())}).seconds()
		sorted += int64(r.Len())
		if err != nil {
			return 0, 0, 0, err
		}
	}
	for _, l := range p.links {
		c, err := in[l.child].SortBy(l.attr)
		if err != nil {
			return 0, 0, 0, err
		}
		pr, err := in[l.parent].SortBy(l.attr)
		if err != nil {
			return 0, 0, 0, err
		}
		sp := t.begin("relation.Semijoin")
		_, err = relation.Semijoin(c, pr, l.attr)
		semiS += t.end(sp, nil).seconds()
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return sortS, sorted, semiS, nil
}

// runtimeSamples are the runtime/metrics counters read around a traced Run.
var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

type runtimeCounts struct{ allocBytes, allocs, gcCycles, gcCPU float64 }

func readRuntime() runtimeCounts {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return runtimeCounts{
		allocBytes: float64(s[0].Value.Uint64()),
		allocs:     float64(s[1].Value.Uint64()),
		gcCycles:   float64(s[2].Value.Uint64()),
		gcCPU:      s[3].Value.Float64(),
	}
}

func (a runtimeCounts) sub(b runtimeCounts) runtimeCounts {
	return runtimeCounts{a.allocBytes - b.allocBytes, a.allocs - b.allocs, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

// peakHeap samples the heap's object bytes every millisecond on one goroutine until
// stop is called, which waits for the goroutine and returns the peak.
func peakHeap() (stop func() uint64) {
	quit := make(chan struct{})
	done := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-quit:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(quit)
		return <-done
	}
}

// traced measures the per-layer metrics. After a warm-up Run it repeats
// traced iterations until the deadline, at least minTraced of them. Each
// iteration spans the ingest, one public Run, a decomposition pass replaying
// Run's layers, the StrategyFirst floor, the sort and semijoin kernels and,
// on the file backend, the same Run on the simulator; it also times one
// untraced Run, the baseline of the tracing overhead. Every metric is the
// median over iterations.
func (s *session) traced(deadline time.Time) (map[string]metric, *runner, *tracer, error) {
	p, err := newLayerPlan(s.w)
	if err != nil {
		return nil, nil, nil, err
	}
	q, inst, err := s.w.setup(s.data)
	if err != nil {
		return nil, nil, nil, err
	}
	r := newRunner(s.w, q, inst, s.opts, s.ref)
	r.run(s.opts) // warm-up

	t := newTracer()
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	for t.run = 1; t.run <= minTraced || time.Now().Before(deadline); t.run++ {
		failed := r.failed
		if err := s.tracedIteration(t, p, r, add); err != nil {
			t.abandon()
			if r.failed == failed { // not a Run the runner already counted
				r.attempted++
				r.failed++
				r.failures = append(r.failures, err.Error())
			}
			if r.failed >= 3 {
				break
			}
		}
	}
	add("trace.overhead_ratio", median(vals["acyclicjoin.run_s"])/median(vals[untracedRun]))
	ms := map[string]metric{}
	for _, m := range perLayerMetrics {
		xs := vals[m.name]
		ms[m.name] = metric{Value: median(xs), Unit: m.unit, n: len(xs)}
	}
	return ms, r, t, nil
}

// minTraced is the fewest traced iterations.
const minTraced = 3

// untracedRun names the untraced Run times among the traced run's values.
const untracedRun = "untraced_run_s"

// tracedIteration runs one traced iteration and adds every per-layer value.
func (s *session) tracedIteration(t *tracer, p *layerPlan, r *runner, add func(string, float64)) error {
	// Ingest: the Instance.Add loop on a freshly built query.
	q, err := s.w.query()
	if err != nil {
		return err
	}
	inst := q.NewInstance()
	runtime.GC()
	a0 := readRuntime()
	sp := t.begin("acyclicjoin.Instance.Add")
	err = s.w.ingest(inst, s.data)
	ing := t.end(sp, nil)
	a1 := readRuntime().sub(a0)
	if err != nil {
		return err
	}
	add("acyclicjoin.ingest_s", ing.seconds())
	add("acyclicjoin.ingest_allocs", a1.allocs)

	// The public Run, with runtime counters and the peak-heap sampler.
	r.q, r.inst = q, inst
	runtime.GC()
	stopPeak := peakHeap()
	b0 := readRuntime()
	sp = t.begin("acyclicjoin.Run")
	res, err := r.run(s.opts)
	var ios, planning int64
	if res != nil {
		ios, planning = res.Stats.IOs, res.PlanningStats.IOs
	}
	run := t.end(sp, map[string]int64{"ios": ios, "planning_ios": planning})
	rc := readRuntime().sub(b0)
	peak := stopPeak()
	if err != nil {
		return fmt.Errorf("traced Run: %w", err)
	}
	add("acyclicjoin.run_s", run.seconds())
	add("acyclicjoin.rows", float64(res.Count))
	h, _, err := r.timedRun(s.opts)
	if err != nil {
		return fmt.Errorf("untraced Run: %w", err)
	}
	add(untracedRun, h.wall)
	add("runtime.gc_cpu_s", rc.gcCPU)
	add("runtime.gc_cycles", rc.gcCycles)
	add("runtime.peak_heap_bytes", float64(peak))
	resultMetrics(res, add)

	// Decomposition pass: the layers under Run.
	runtime.GC()
	dec, err := s.decompose(t, p)
	if err != nil {
		return fmt.Errorf("decomposition: %w", err)
	}
	if err := s.checkFold(dec, res); err != nil {
		return err
	}
	add("acyclicjoin.self_s", run.seconds()-dec.reduce.seconds()-dec.exec.seconds())
	add("acyclicjoin.self_allocs", rc.allocs-dec.allocs)
	add("reducer.full_reduce_s", dec.reduce.seconds())
	add("reducer.ios", float64(dec.reduceIOs))
	add("core.plan_ios", float64(dec.planIOs))
	add("core.exec_ios", float64(dec.execIOs))
	if s.opts.Shards > 1 {
		add("shard.run_s", dec.exec.seconds())
		add("core.run_s", 0)
	} else {
		add("shard.run_s", 0)
		add("core.run_s", dec.exec.seconds())
	}
	var other int64
	for name, st := range dec.phases {
		if name != "sort" && name != "reduce" {
			other += st.IOs()
		}
	}
	add("extmem.sort_phase_ios", float64(dec.phases["sort"].IOs()))
	add("extmem.reduce_phase_ios", float64(dec.phases["reduce"].IOs()))
	add("extmem.other_phase_ios", float64(other))

	first, err := s.singleBranch(t, p)
	if err != nil {
		return fmt.Errorf("single branch: %w", err)
	}
	add("core.single_branch_s", first.seconds())

	sortS, sorted, semiS, err := s.kernels(t, p)
	if err != nil {
		return fmt.Errorf("kernels: %w", err)
	}
	add("extsort.sort_cols_s", sortS)
	add("extsort.tuples_per_s", float64(sorted)/sortS)
	add("relation.semijoin_s", semiS)

	overhead := 0.0
	if s.opts.Backend == "file" {
		simOpts := s.opts
		simOpts.Backend = "sim"
		runtime.GC()
		sp = t.begin("acyclicjoin.Run.sim")
		_, err := r.run(simOpts)
		sim := t.end(sp, nil)
		if err != nil {
			return fmt.Errorf("sim comparison Run: %w", err)
		}
		overhead = run.seconds() - sim.seconds()
	}
	add("diskfile.overhead_s", overhead)
	return nil
}

// checkFold checks that the decomposition's per-layer I/O adds up to the
// public Run's end-to-end counters exactly.
func (s *session) checkFold(dec *decomposition, res *acyclicjoin.Result) error {
	if dec.emitted != s.ref.count {
		return fmt.Errorf("decomposition emitted %d rows, reference %d", dec.emitted, s.ref.count)
	}
	if got := dec.reduceIOs + dec.execIOs; got != res.Stats.IOs {
		return fmt.Errorf("fold: reducer.ios+core.exec_ios = %d, ios = %d", got, res.Stats.IOs)
	}
	if got := dec.reduceIOs + dec.execIOs + dec.planIOs; got != res.PlanningStats.IOs {
		return fmt.Errorf("fold: reducer.ios+core.exec_ios+core.plan_ios = %d, planning_ios = %d", got, res.PlanningStats.IOs)
	}
	var phases int64
	for _, st := range dec.phases {
		phases += st.IOs()
	}
	if phases != res.PlanningStats.IOs {
		return fmt.Errorf("fold: phase I/Os sum to %d, planning_ios = %d", phases, res.PlanningStats.IOs)
	}
	return nil
}

// resultMetrics adds the per-layer figures the public Result carries.
func resultMetrics(res *acyclicjoin.Result, add func(string, float64)) {
	add("core.branches_started", float64(res.Prune.Started))
	add("core.branches_pruned", float64(res.Prune.Pruned))
	add("core.prune_ratio", ratio(float64(res.Prune.Pruned), float64(res.Prune.Started)))
	m := res.Memo
	add("opcache.hits", float64(m.Hits))
	add("opcache.misses", float64(m.Misses))
	add("opcache.hit_ratio", ratio(float64(m.Hits), float64(m.Hits+m.Misses)))
	add("opcache.bytes_replayed", float64(m.BytesReplayed))
	x := res.Transfers
	add("extmem.performed_ios", float64(x.Reads+x.Writes))
	add("extmem.replayed_ios", float64(x.ReplayedReads+x.ReplayedWrites))
	dv := res.Device
	add("diskfile.read_calls", float64(dv.ReadCalls))
	add("diskfile.write_calls", float64(dv.WriteCalls))
	add("diskfile.block_reads", float64(dv.BlockReads))
	add("diskfile.block_writes", float64(dv.BlockWrites))
	add("diskfile.evictions", float64(dv.Evictions))
	add("diskfile.cache_hit_ratio", ratio(float64(dv.CacheHits), float64(dv.BilledReads)))
	add("diskfile.prefetch_yield", ratio(float64(dv.PrefetchHits), float64(dv.Prefetched)))
	add("diskfile.demand_waits", float64(dv.DemandWaits))
	var maxLoad, replication, heavy float64
	if ls := res.Shards; ls != nil && !ls.Bypass {
		for _, rd := range ls.Rounds {
			if rd.Name == "compute" {
				maxLoad = rd.Ratio()
			}
		}
		replication, heavy = ls.Replication, float64(ls.HeavyValues)
	}
	add("shard.max_load_ratio", maxLoad)
	add("shard.replication", replication)
	add("shard.heavy_values", heavy)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetric is one metric as BENCHMARK.json lists it.
type layerMetric struct {
	name, unit, better string
}

// perLayerMetrics lists every metric the traced run reports, in
// BENCHMARK.json order.
var perLayerMetrics = []layerMetric{
	{"acyclicjoin.ingest_s", "s", "lower"},
	{"acyclicjoin.ingest_allocs", "count", "lower"},
	{"acyclicjoin.run_s", "s", "lower"},
	{"acyclicjoin.self_s", "s", "lower"},
	{"acyclicjoin.self_allocs", "count", "lower"},
	{"acyclicjoin.rows", "rows", "higher"},
	{"reducer.full_reduce_s", "s", "lower"},
	{"reducer.ios", "blocks", "lower"},
	{"core.run_s", "s", "lower"},
	{"core.single_branch_s", "s", "lower"},
	{"core.plan_ios", "blocks", "lower"},
	{"core.exec_ios", "blocks", "lower"},
	{"core.branches_started", "count", "lower"},
	{"core.branches_pruned", "count", "higher"},
	{"core.prune_ratio", "ratio", "higher"},
	{"opcache.hits", "count", "higher"},
	{"opcache.misses", "count", "lower"},
	{"opcache.hit_ratio", "ratio", "higher"},
	{"opcache.bytes_replayed", "bytes", "higher"},
	{"extmem.performed_ios", "blocks", "lower"},
	{"extmem.replayed_ios", "blocks", "higher"},
	{"extmem.sort_phase_ios", "blocks", "lower"},
	{"extmem.reduce_phase_ios", "blocks", "lower"},
	{"extmem.other_phase_ios", "blocks", "lower"},
	{"extsort.sort_cols_s", "s", "lower"},
	{"extsort.tuples_per_s", "1/s", "higher"},
	{"relation.semijoin_s", "s", "lower"},
	{"diskfile.overhead_s", "s", "lower"},
	{"diskfile.read_calls", "count", "lower"},
	{"diskfile.write_calls", "count", "lower"},
	{"diskfile.block_reads", "blocks", "lower"},
	{"diskfile.block_writes", "blocks", "lower"},
	{"diskfile.evictions", "count", "lower"},
	{"diskfile.cache_hit_ratio", "ratio", "higher"},
	{"diskfile.prefetch_yield", "ratio", "higher"},
	{"diskfile.demand_waits", "count", "lower"},
	{"shard.run_s", "s", "lower"},
	{"shard.max_load_ratio", "ratio", "lower"},
	{"shard.replication", "ratio", "lower"},
	{"shard.heavy_values", "count", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.peak_heap_bytes", "bytes", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}
