package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"acyclicjoin"
)

// relSpec declares one relation of a workload query: its name and its
// attribute names in column order.
type relSpec struct {
	name  string
	attrs []string
}

// workload is one benchmark input family: a query, a generator that draws its
// tuples from a seed, and the Options every Run of it uses.
type workload struct {
	name string
	why  string
	rels []relSpec
	// emit makes the sink read every value of every Row; otherwise Run is
	// count-only (emit == nil).
	emit bool
	// options returns the Run options, every field set. dataDir is where the
	// file backend keeps its arena file.
	options func(dataDir string) acyclicjoin.Options
	// gen returns the tuples of each relation, in rels order. Every relation
	// is duplicate-free, so Instance.Add keeps every generated tuple in order.
	gen func(g *drawer) [][][]int64
}

// baseOptions is the default configuration with every field written out, so
// no environment fallback or default can change what a Run does.
func baseOptions(dataDir string) acyclicjoin.Options {
	return acyclicjoin.Options{
		Memory:               1024,
		Block:                64,
		Strategy:             acyclicjoin.StrategyExhaustive,
		SkipReduce:           false,
		NoLineSpecialization: false,
		Parallelism:          0,
		NoPrune:              false,
		Memo:                 acyclicjoin.MemoOn,
		MemoMaxEntries:       0,
		MemoMaxTuples:        0,
		SortCache:            acyclicjoin.SortCacheOn,
		Backend:              "sim",
		DataDir:              dataDir,
		SyncDevice:           false,
		Shards:               1,
		Faults:               nil,
		// An explicit empty plan shadows the device-fault environment
		// fallback.
		DeviceFaults: &acyclicjoin.DeviceFaultPlan{},
	}
}

// workloads lists the benchmark's workloads in a fixed order.
var workloads = []*workload{tree4Emit, tree6Plan, zipfFileShard2}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// tree4Emit is a 4-relation tree R1(a,b) R2(b,c) R3(b,d) R4(d,e) whose Rows are
// all read by the sink: enumeration and the public emit adapter dominate.
var tree4Emit = &workload{
	name: "tree4-emit",
	why:  "4-relation tree whose sink reads every Row: Algorithm 2 enumeration and the public emit adapter dominate",
	rels: []relSpec{{"R1", []string{"a", "b"}}, {"R2", []string{"b", "c"}}, {"R3", []string{"b", "d"}}, {"R4", []string{"d", "e"}}},
	emit: true,
	options: func(dataDir string) acyclicjoin.Options {
		return baseOptions(dataDir)
	},
	gen: func(g *drawer) [][][]int64 {
		const nb, nd = 1000, 1000
		b := g.domain(nb + nb/10) // the last nb/10 b keys dangle in R1
		d := g.domain(nd + nd/10) // the last nd/10 d keys dangle in R4
		a := g.domain(2 * len(b))
		c := g.domain(nb)
		e := g.domain(6 * len(d))
		return g.shuffled([][][]int64{
			swap(regular(b, 2, a)),
			regular(b[:nb], 6, c),
			regular(b[:nb], 2, d[:nd]),
			regular(d, 6, e),
		})
	},
}

// tree6Plan is a 6-relation tree evaluated count-only at a small M and B:
// the exhaustive planner's dry-run branches, pruning and memo replay dominate.
var tree6Plan = &workload{
	name: "tree6-plan",
	why:  "6-relation tree, count-only, small M and B: exhaustive planning (dry runs, pruning, memo replay, sorts) dominates",
	rels: []relSpec{
		{"R1", []string{"a", "b"}}, {"R2", []string{"b", "c"}}, {"R3", []string{"b", "d"}},
		{"R4", []string{"d", "e"}}, {"R5", []string{"d", "f"}}, {"R6", []string{"f", "g"}},
	},
	options: func(dataDir string) acyclicjoin.Options {
		o := baseOptions(dataDir)
		o.Memory, o.Block = 128, 8
		return o
	},
	gen: func(g *drawer) [][][]int64 {
		const nb, nd, nf = 240, 360, 180
		b := g.domain(nb + nb/4) // b keys past nb dangle in R1
		d := g.domain(nd + nd/4) // d keys past nd dangle in R3
		f := g.domain(nf + nf/4)
		a := g.domain(len(b))
		c := g.domain(2 * nb)
		e := g.domain(len(d))
		gv := g.domain(3 * nf)
		return g.shuffled([][][]int64{
			swap(regular(b, 1, a)),
			regular(b[:nb], 2, c),
			regular(b[:nb], 3, d),
			regular(d[:nd], 1, e),
			regular(d[:nd], 1, f),
			regular(f, 3, gv),
		})
	},
}

// zipfFileShard2 is a 3-relation star on k whose R1 side is Zipf-skewed,
// evaluated count-only on the file backend across two shard servers.
var zipfFileShard2 = &workload{
	name: "zipf-file-shard2",
	why:  "Zipf-skewed 3-relation star, count-only, file backend, 2 shards: device pipeline, sharding and full reduction dominate",
	rels: []relSpec{{"R1", []string{"k", "x"}}, {"R2", []string{"k", "y"}}, {"R3", []string{"k", "z"}}},
	options: func(dataDir string) acyclicjoin.Options {
		o := baseOptions(dataDir)
		o.Memory, o.Block = 512, 16
		o.Backend = "file"
		o.Shards = 2
		return o
	},
	gen: func(g *drawer) [][][]int64 {
		const nk = 6000
		// Hash partitioning sends each k value to a server, so the k values
		// are part of the shape: every seed splits the work the same way.
		k := g.shapeDomain(nk + nk/5) // the last nk/5 keys dangle in R2 and R3
		r1 := zipf(k[:nk], 1.2, 20000)
		x := g.domain(len(r1))
		for i := range r1 {
			r1[i][1] = x[i]
		}
		y := g.domain(len(k))
		z := g.domain(2 * len(k))
		return g.shuffled([][][]int64{
			r1,
			regular(k, 1, y),
			regular(k, 2, z),
		})
	},
}

// shapeSeed seeds the shape of every workload: which keys pair with which
// and how the keys are ordered. It is the same for every run seed, so every
// seed asks the program for the same amount of work.
const shapeSeed = 20160626

// drawer draws a workload instance. The shape generator fixes the join
// structure; the value generator, seeded by the run seed, draws the key
// values (preserving the shape's key order) and the order tuples arrive in.
type drawer struct {
	shape, vals *rand.Rand
}

func newDrawer(seed int64) *drawer {
	return &drawer{shape: rand.New(rand.NewSource(shapeSeed)), vals: rand.New(rand.NewSource(seed))}
}

// domain returns n distinct key values: key i takes the value of rank
// perm[i] among n increasing values with random gaps, where perm comes from
// the shape generator and the gaps from the value generator.
func (g *drawer) domain(n int) []int64 {
	perm := g.shape.Perm(n)
	ranked := make([]int64, n)
	v := int64(0)
	for i := range ranked {
		v += 1 + g.vals.Int63n(8)
		ranked[i] = v
	}
	out := make([]int64, n)
	for i, r := range perm {
		out[i] = ranked[r]
	}
	return out
}

// shapeDomain returns n distinct key values drawn from the shape generator
// alone: the same for every seed.
func (g *drawer) shapeDomain(n int) []int64 {
	perm := g.shape.Perm(4 * n)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(perm[i])
	}
	return out
}

// regular returns the pairs (l, r) in which every left key has exactly deg
// distinct right partners, dealt round-robin over the right keys; each right
// key then has len(left)*deg/len(right) partners when that divides.
func regular(left []int64, deg int, right []int64) [][]int64 {
	if deg > len(right) {
		panic(fmt.Sprintf("regular: degree %d exceeds %d right keys", deg, len(right)))
	}
	out := make([][]int64, 0, len(left)*deg)
	for i, l := range left {
		for j := 0; j < deg; j++ {
			out = append(out, []int64{l, right[(i*deg+j)%len(right)]})
		}
	}
	return out
}

// swap exchanges the two columns of every pair, for relations whose
// degree-fixing key is declared second.
func swap(pairs [][]int64) [][]int64 {
	for _, p := range pairs {
		p[0], p[1] = p[1], p[0]
	}
	return pairs
}

// zipf returns about total pairs (key, 0) whose key frequencies follow a Zipf
// law with exponent s over keys in rank order: key i occurs
// max(1, round(c/(i+1)^s)) times. The second column is left for the caller.
func zipf(keys []int64, s float64, total int) [][]int64 {
	var h float64
	for i := range keys {
		h += math.Pow(float64(i+1), -s)
	}
	c := float64(total) / h
	var out [][]int64
	for i, key := range keys {
		f := int(math.Round(c * math.Pow(float64(i+1), -s)))
		if f < 1 {
			f = 1
		}
		for j := 0; j < f; j++ {
			out = append(out, []int64{key, 0})
		}
	}
	return out
}

// shuffled puts each relation's tuples in an order drawn by the value
// generator, so no input arrives sorted.
func (g *drawer) shuffled(rels [][][]int64) [][][]int64 {
	for _, r := range rels {
		g.vals.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
	}
	return rels
}

// generate draws a workload's tuples from seed.
func (w *workload) generate(seed int64) [][][]int64 {
	return w.gen(newDrawer(seed))
}

// attrNames returns the query's attribute names, sorted: the column order of
// the row checksum.
func (w *workload) attrNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range w.rels {
		for _, a := range r.attrs {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	sort.Strings(out)
	return out
}

// tupleCount is the number of generated input tuples.
func tupleCount(data [][][]int64) int {
	n := 0
	for _, r := range data {
		n += len(r)
	}
	return n
}

// setup builds the query and ingests every generated tuple through the public
// API: the work setup_s times.
func (w *workload) setup(data [][][]int64) (*acyclicjoin.Query, *acyclicjoin.Instance, error) {
	q, err := w.query()
	if err != nil {
		return nil, nil, err
	}
	inst := q.NewInstance()
	if err := w.ingest(inst, data); err != nil {
		return nil, nil, err
	}
	return q, inst, nil
}

// query builds the workload's query through the public API.
func (w *workload) query() (*acyclicjoin.Query, error) {
	qb := acyclicjoin.NewQuery()
	for _, r := range w.rels {
		qb.Relation(r.name, r.attrs...)
	}
	return qb.Build()
}

// ingest is the Instance.Add loop over every generated tuple.
func (w *workload) ingest(inst *acyclicjoin.Instance, data [][][]int64) error {
	for i, r := range w.rels {
		vals := make([]acyclicjoin.Value, len(r.attrs))
		for _, t := range data[i] {
			for j, v := range t {
				vals[j] = v
			}
			if err := inst.Add(r.name, vals...); err != nil {
				return err
			}
		}
		if got := inst.Size(r.name); got != len(data[i]) {
			return fmt.Errorf("relation %s holds %d tuples, generated %d (duplicates)", r.name, got, len(data[i]))
		}
	}
	return nil
}
