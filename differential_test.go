package acyclicjoin

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"acyclicjoin/internal/baseline"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/relation"
	"acyclicjoin/internal/tuple"
)

// randomTreeQuery builds a random Berge-acyclic query through the public
// builder: relation i>0 attaches to a random earlier relation by sharing
// exactly one of its attributes, and all other attributes are fresh, so the
// incidence graph is a tree by construction.
func randomTreeQuery(rng *rand.Rand) *Query {
	nRel := 2 + rng.Intn(4)
	qb := NewQuery()
	nextAttr := 0
	fresh := func() string { nextAttr++; return fmt.Sprintf("a%d", nextAttr-1) }
	attrsOf := make([][]string, nRel)
	for i := 0; i < nRel; i++ {
		arity := 1 + rng.Intn(3)
		var attrs []string
		if i > 0 {
			parent := attrsOf[rng.Intn(i)]
			attrs = append(attrs, parent[rng.Intn(len(parent))])
		}
		for len(attrs) < arity {
			attrs = append(attrs, fresh())
		}
		rng.Shuffle(len(attrs), func(x, y int) { attrs[x], attrs[y] = attrs[y], attrs[x] })
		attrsOf[i] = attrs
		qb.Relation(fmt.Sprintf("R%d", i), attrs...)
	}
	q, err := qb.Build()
	if err != nil {
		panic(err) // tree construction guarantees acyclicity
	}
	return q
}

// fillRandom populates the instance with small random tuples; a few trials
// make some attributes string-valued and the rest negative-or-positive
// integers, exercising the dictionary encoding end to end (string codes are
// negative too, so decoding must go by the attribute's kind).
func fillRandom(rng *rand.Rand, q *Query, inst *Instance, useStrings bool) {
	words := []string{"ant", "bee", "cat", "dog", "elk"}
	strAttr := map[string]bool{}
	low := 0
	if useStrings {
		for _, a := range q.Attributes() {
			strAttr[a] = rng.Intn(3) == 0
		}
		low = -3
	}
	for _, name := range q.Relations() {
		attrs := q.AttributesOf(name)
		rows := 3 + rng.Intn(25)
		for r := 0; r < rows; r++ {
			vals := make([]Value, len(attrs))
			for j, a := range attrs {
				if strAttr[a] {
					vals[j] = words[rng.Intn(len(words))]
				} else {
					vals[j] = low + rng.Intn(6)
				}
			}
			inst.MustAdd(name, vals...)
		}
	}
}

// oracleRows runs the internal-memory GenericJoin oracle on the same data
// and renders each result in the canonical attr=value form used below.
func oracleRows(t *testing.T, q *Query, inst *Instance) []string {
	t.Helper()
	disk := extmem.NewDisk(extmem.Config{M: 1024, B: 64})
	restore := disk.Suspend()
	in := relation.Instance{}
	for i, schema := range q.relSchema {
		in[i] = relation.FromTuples(disk, schema, inst.rows[i])
	}
	restore()
	var out []string
	_, err := baseline.GenericJoin(q.graph, in, func(a tuple.Assignment) {
		row := Row{}
		for name, id := range q.attrIDs {
			if a.Has(id) {
				row[name] = inst.decode(id, a.Get(id))
			}
		}
		out = append(out, canonRow(q, row))
	})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	sort.Strings(out)
	return out
}

func canonRow(q *Query, row Row) string {
	parts := make([]string, 0, len(row))
	for _, a := range q.Attributes() {
		if v, ok := row[a]; ok {
			parts = append(parts, fmt.Sprintf("%s=%v", a, v))
		}
	}
	return fmt.Sprint(parts)
}

// TestDifferentialAgainstGenericJoin cross-checks the public Run — every
// strategy, plus the concurrent exhaustive path — against the independent
// GenericJoin oracle on ~100 random acyclic queries and instances. Counts
// and the emitted row multisets must agree exactly; Run's own invariant
// checks (ledger parity, Count == rows emitted, no chooser clamps) turn any
// violation into an error.
func TestDifferentialAgainstGenericJoin(t *testing.T) {
	const trials = 100
	configs := []struct {
		name string
		opts Options
	}{
		{"first", Options{Strategy: StrategyFirst}},
		{"smallest", Options{Strategy: StrategySmallest}},
		{"greedy", Options{Strategy: StrategyGreedy}},
		{"exhaustive", Options{Strategy: StrategyExhaustive}},
		{"exhaustive-noprune", Options{Strategy: StrategyExhaustive, NoPrune: true}},
		{"exhaustive-par4", Options{Strategy: StrategyExhaustive, Parallelism: 4}},
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		q := randomTreeQuery(rng)
		inst := q.NewInstance()
		fillRandom(rng, q, inst, trial%5 == 0)
		want := oracleRows(t, q, inst)
		for _, cfg := range configs {
			opts := cfg.opts
			opts.Memory = 64
			opts.Block = 8
			var got []string
			res, err := Run(q, inst, envOptions(t, opts), func(row Row) {
				got = append(got, canonRow(q, row))
			})
			if err != nil {
				t.Fatalf("trial %d %s on %v: %v", trial, cfg.name, q.Relations(), err)
			}
			if res.Count != int64(len(want)) {
				t.Fatalf("trial %d %s: Count = %d, oracle = %d (relations %v)",
					trial, cfg.name, res.Count, len(want), q.Relations())
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: emitted %d rows, oracle %d", trial, cfg.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: row %d = %q, oracle %q", trial, cfg.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCrossStrategyGreedyDifferential grades the greedy planner against the
// exhaustive oracle on a randomized corpus, across exhaustive worker counts
// and both storage backends: the emitted row multiset and Count must match
// exactly, greedy must report a single branch (Run itself fails with
// ErrInternal on a chooser clamp), and on every workload where the oracle
// actually explored alternatives its planning overhead (PlanningStats
// beyond Stats) must be strictly above greedy's bounded probes.
func TestCrossStrategyGreedyDifferential(t *testing.T) {
	const trials = 12
	for _, backend := range []string{"sim", "file"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(9000 + trial)))
				q := randomTreeQuery(rng)
				inst := q.NewInstance()
				fillRandom(rng, q, inst, trial%4 == 0)
				var gotG []string
				// Pinned unsharded: the branch counts and planning-I/O
				// comparisons below are per-planner figures that a sharded
				// run aggregates across servers.
				gr, err := Run(q, inst, envOptions(t, Options{Memory: 64, Block: 8, Strategy: StrategyGreedy,
					Backend: backend, Shards: 1}), func(row Row) {
					gotG = append(gotG, canonRow(q, row))
				})
				if err != nil {
					t.Fatalf("trial %d greedy: %v", trial, err)
				}
				if gr.Branches != 1 {
					t.Fatalf("trial %d: greedy explored %d branches", trial, gr.Branches)
				}
				sort.Strings(gotG)
				for _, workers := range []int{0, 2, 4} {
					var gotE []string
					ex, err := Run(q, inst, envOptions(t, Options{Memory: 64, Block: 8, Strategy: StrategyExhaustive,
						Parallelism: workers, Backend: backend, Shards: 1}), func(row Row) {
						gotE = append(gotE, canonRow(q, row))
					})
					if err != nil {
						t.Fatalf("trial %d exhaustive P=%d: %v", trial, workers, err)
					}
					if gr.Count != ex.Count {
						t.Fatalf("trial %d P=%d: greedy Count %d, exhaustive %d",
							trial, workers, gr.Count, ex.Count)
					}
					sort.Strings(gotE)
					if len(gotG) != len(gotE) {
						t.Fatalf("trial %d P=%d: greedy %d rows, exhaustive %d",
							trial, workers, len(gotG), len(gotE))
					}
					for i := range gotE {
						if gotG[i] != gotE[i] {
							t.Fatalf("trial %d P=%d: row %d = %q, exhaustive %q",
								trial, workers, i, gotG[i], gotE[i])
						}
					}
					if ex.Branches > 1 {
						planG := gr.PlanningStats.IOs - gr.Stats.IOs
						planE := ex.PlanningStats.IOs - ex.Stats.IOs
						if planG >= planE {
							t.Fatalf("trial %d P=%d: greedy planning %d I/Os not below exhaustive %d (%d branches)",
								trial, workers, planG, planE, ex.Branches)
						}
					}
				}
			}
		})
	}
}

// Counting-only runs (emit == nil) must report the same Count as emitting
// runs for every strategy; the exhaustive path takes a different code route
// for it (Result.Emitted from the winning branch).
func TestDifferentialCountOnly(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		q := randomTreeQuery(rng)
		inst := q.NewInstance()
		fillRandom(rng, q, inst, false)
		want := oracleRows(t, q, inst)
		for _, p := range []int{0, 4} {
			res, err := Count(q, inst, envOptions(t, Options{Memory: 64, Block: 8, Parallelism: p}))
			if err != nil {
				t.Fatalf("trial %d P=%d: %v", trial, p, err)
			}
			if res.Count != int64(len(want)) {
				t.Fatalf("trial %d P=%d: Count = %d, oracle = %d", trial, p, res.Count, len(want))
			}
		}
	}
}
