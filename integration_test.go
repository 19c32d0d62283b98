package acyclicjoin

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteForce computes the expected result set at the public-API level by
// naive backtracking over the instance's rows.
func bruteForce(q *Query, rows map[string][][]Value) []string {
	rels := q.Relations()
	asg := map[string]Value{}
	var out []string
	var rec func(i int)
	rec = func(i int) {
		if i == len(rels) {
			keys := make([]string, 0, len(asg))
			for k := range asg {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			s := ""
			for _, k := range keys {
				s += fmt.Sprintf("%s=%#v;", k, asg[k])
			}
			out = append(out, s)
			return
		}
		attrs := q.AttributesOf(rels[i])
	next:
		for _, row := range rows[rels[i]] {
			var bound []string
			for j, a := range attrs {
				if v, ok := asg[a]; ok {
					if v != row[j] {
						for _, b := range bound {
							delete(asg, b)
						}
						continue next
					}
				} else {
					asg[a] = row[j]
					bound = append(bound, a)
				}
			}
			rec(i + 1)
			for _, b := range bound {
				delete(asg, b)
			}
		}
	}
	rec(0)
	sort.Strings(out)
	// Dedup (set semantics).
	var dedup []string
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			dedup = append(dedup, s)
		}
	}
	return dedup
}

func rowKey(r Row) string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%#v;", k, r[k])
	}
	return s
}

// randomPublicQuery builds a random acyclic query over string attribute
// names through the public builder.
func randomPublicQuery(rng *rand.Rand, nRel int) (*Query, error) {
	qb := NewQuery()
	attr := 0
	attrName := func(i int) string { return fmt.Sprintf("a%d", i) }
	type edge struct{ attrs []string }
	edges := make([]edge, nRel)
	for i := 1; i < nRel; i++ {
		p := rng.Intn(i)
		shared := attrName(attr)
		attr++
		edges[i].attrs = append(edges[i].attrs, shared)
		edges[p].attrs = append(edges[p].attrs, shared)
	}
	for i := range edges {
		for k := rng.Intn(2); k > 0; k-- {
			edges[i].attrs = append(edges[i].attrs, attrName(attr))
			attr++
		}
		if len(edges[i].attrs) == 0 {
			edges[i].attrs = append(edges[i].attrs, attrName(attr))
			attr++
		}
		qb.Relation(fmt.Sprintf("R%d", i), edges[i].attrs...)
	}
	return qb.Build()
}

// valueDomains are the value pools of TestPublicAPIRandomQueriesMatchBruteForce.
// "small" is a dense int range, so joins fan out. "extreme" places ints at
// both ends of int64 and beside the reserved -1<<62, plus the small
// negatives the string dictionary uses as codes, and makes about a third of
// the attributes string-valued, so most relations hold ints beside strings
// (one string, "-2", even spells a colliding code).
var valueDomains = []struct {
	name   string
	seed   int64
	ints   []int64
	strs   []string
	strPct int // share of attributes that hold strings
}{
	{name: "small", seed: 777, ints: []int64{0, 1, 2, 3}},
	{name: "extreme", seed: 778,
		ints: []int64{math.MinInt64, math.MaxInt64, -1<<62 - 1, -1<<62 + 1, -2, -1},
		strs: []string{"x", "-2", ""}, strPct: 33},
}

// TestPublicAPIRandomQueriesMatchBruteForce is the end-to-end correctness
// property at the public level: random acyclic queries, random small
// instances over each value domain, all strategies and machine shapes,
// graded against a nested-loop join. Values print with %#v, so a string
// never matches the int it spells.
func TestPublicAPIRandomQueriesMatchBruteForce(t *testing.T) {
	for _, dom := range valueDomains {
		dom := dom
		t.Run(dom.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(dom.seed))
			for trial := 0; trial < 25; trial++ {
				q, err := randomPublicQuery(rng, 2+rng.Intn(4))
				if err != nil {
					t.Fatal(err)
				}
				strAttr := map[string]bool{}
				for _, a := range q.Attributes() {
					strAttr[a] = rng.Intn(100) < dom.strPct
				}
				inst := q.NewInstance()
				raw := map[string][][]Value{}
				for _, rel := range q.Relations() {
					attrs := q.AttributesOf(rel)
					seen := map[string]bool{}
					for k := 0; k < 5+rng.Intn(25); k++ {
						vals := make([]Value, len(attrs))
						for j, a := range attrs {
							if strAttr[a] {
								vals[j] = dom.strs[rng.Intn(len(dom.strs))]
							} else {
								vals[j] = dom.ints[rng.Intn(len(dom.ints))]
							}
						}
						key := fmt.Sprintf("%#v", vals)
						if seen[key] {
							continue
						}
						seen[key] = true
						raw[rel] = append(raw[rel], vals)
						if err := inst.Add(rel, vals...); err != nil {
							t.Fatal(err)
						}
					}
				}
				want := bruteForce(q, raw)
				opts := Options{
					Memory:   []int{24, 64}[rng.Intn(2)],
					Block:    []int{4, 8}[rng.Intn(2)],
					Strategy: []Strategy{StrategyExhaustive, StrategyFirst, StrategySmallest, StrategyGreedy}[rng.Intn(4)],
				}
				var got []string
				res, err := Run(q, inst, envOptions(t, opts), func(r Row) { got = append(got, rowKey(r)) })
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				sort.Strings(got)
				if len(got) != len(want) {
					t.Fatalf("trial %d (%v, opts %+v): %d results, want %d",
						trial, q.Relations(), opts, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d: result %d = %q, want %q", trial, i, got[i], want[i])
					}
				}
				if res.Count != int64(len(want)) {
					t.Fatalf("trial %d: Count = %d, want %d", trial, res.Count, len(want))
				}
			}
		})
	}
}

// Different machine shapes must never change the result set.
func TestMachineShapeInvariance(t *testing.T) {
	q, err := NewQuery().
		Relation("R1", "a", "b").
		Relation("R2", "b", "c").
		Relation("R3", "c", "d").
		Relation("R4", "d", "e").
		Relation("R5", "e", "f").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	inst := q.NewInstance()
	for i := 0; i < 150; i++ {
		for r := 1; r <= 5; r++ {
			inst.MustAdd(fmt.Sprintf("R%d", r), rng.Intn(6), rng.Intn(6))
		}
	}
	var baseline int64 = -1
	for _, mb := range [][2]int{{16, 4}, {64, 8}, {1024, 64}, {4096, 256}} {
		res, err := Count(q, inst, envOptions(t, Options{Memory: mb[0], Block: mb[1]}))
		if err != nil {
			t.Fatalf("M=%d B=%d: %v", mb[0], mb[1], err)
		}
		if baseline < 0 {
			baseline = res.Count
		} else if res.Count != baseline {
			t.Fatalf("M=%d B=%d: count %d != %d", mb[0], mb[1], res.Count, baseline)
		}
	}
	if baseline <= 0 {
		t.Fatal("degenerate instance (no results)")
	}
}

// Larger memory must not increase execution I/O on the same line-join
// workload (monotonicity of the bounds in M).
func TestMemoryMonotonicity(t *testing.T) {
	q, err := NewQuery().
		Relation("R1", "a", "b").
		Relation("R2", "b", "c").
		Relation("R3", "c", "d").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	inst := q.NewInstance()
	for i := 0; i < 2000; i++ {
		inst.MustAdd("R1", rng.Intn(50), rng.Intn(50))
		inst.MustAdd("R2", rng.Intn(50), rng.Intn(50))
		inst.MustAdd("R3", rng.Intn(50), rng.Intn(50))
	}
	var prev int64 = -1
	for _, m := range []int{64, 256, 1024} {
		res, err := Count(q, inst, envOptions(t, Options{Memory: m, Block: 16}))
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.Stats.IOs > prev+prev/4 {
			// Allow 25% slack for chunk-boundary effects.
			t.Errorf("M=%d: IOs %d noticeably above smaller-memory run %d", m, res.Stats.IOs, prev)
		}
		prev = res.Stats.IOs
	}
}

// The lollipop and dumbbell shapes work through the public API.
func TestPublicAPISection7Shapes(t *testing.T) {
	// Lollipop: core(X,Y) with petals P1(X,U1), P2(Y,U2), bridge B(X,Z),
	// tail T(Z,U3).
	q, err := NewQuery().
		Relation("Core", "X", "Y").
		Relation("P1", "Y", "U1").
		Relation("Bridge", "X", "Z").
		Relation("Tail", "Z", "U3").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	inst := q.NewInstance()
	raw := map[string][][]Value{}
	add := func(rel string, a, b int64) {
		vals := []Value{a, b}
		raw[rel] = append(raw[rel], vals)
		inst.MustAdd(rel, a, b)
	}
	for i := 0; i < 30; i++ {
		add("Core", int64(rng.Intn(4)), int64(rng.Intn(4)))
		add("P1", int64(rng.Intn(4)), int64(rng.Intn(10)))
		add("Bridge", int64(rng.Intn(4)), int64(rng.Intn(4)))
		add("Tail", int64(rng.Intn(4)), int64(rng.Intn(10)))
	}
	// Dedup raw the same way the instance does.
	for rel := range raw {
		seen := map[string]bool{}
		var ded [][]Value
		for _, vals := range raw[rel] {
			k := fmt.Sprint(vals)
			if !seen[k] {
				seen[k] = true
				ded = append(ded, vals)
			}
		}
		raw[rel] = ded
	}
	want := bruteForce(q, raw)
	var got []string
	if _, err := Run(q, inst, envOptions(t, Options{Memory: 16, Block: 4}), func(r Row) {
		got = append(got, rowKey(r))
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}
