package acyclicjoin

import (
	"testing"
)

// buildStar3 returns a 3-petal star with enough shared-hub rows that the
// exhaustive strategy explores several branches and the operator memo gets
// replay hits.
func buildStar3(t *testing.T) (*Query, *Instance) {
	t.Helper()
	q, err := NewQuery().
		Relation("R1", "H", "A").
		Relation("R2", "H", "B").
		Relation("R3", "H", "C").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := q.NewInstance()
	for h := 0; h < 8; h++ {
		for v := 0; v < 6; v++ {
			if err := in.Add("R1", h, 10*h+v); err != nil {
				t.Fatal(err)
			}
			if err := in.Add("R2", h, 20*h+v); err != nil {
				t.Fatal(err)
			}
			if err := in.Add("R3", h, 30*h+v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return q, in
}

// The deprecated SortCache option aliases Memo at the public API too: the
// memo is active if and only if BOTH fields are on, and no combination
// changes the answer or its cost.
func TestPublicSortCacheAliasMatrix(t *testing.T) {
	q, in := buildStar3(t)
	run := func(m MemoMode, s SortCacheMode) *Result {
		r, err := Count(q, in, envOptions(t, Options{Strategy: StrategyExhaustive, Memo: m, SortCache: s}))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ref := run(MemoOff, SortCacheOn)
	if ref.Branches < 2 {
		t.Fatalf("want a multi-branch subject, got %d branches", ref.Branches)
	}
	cases := []struct {
		name string
		memo MemoMode
		sc   SortCacheMode
		want bool // memo active
	}{
		{"memo-on/cache-on", MemoOn, SortCacheOn, true},
		{"memo-on/cache-off", MemoOn, SortCacheOff, false},
		{"memo-off/cache-on", MemoOff, SortCacheOn, false},
		{"memo-off/cache-off", MemoOff, SortCacheOff, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := run(c.memo, c.sc)
			if active := r.Memo != (MemoStats{}); active != c.want {
				t.Fatalf("memo active = %v (%+v), want %v", active, r.Memo, c.want)
			}
			if r.Count != ref.Count || r.Stats != ref.Stats || r.Branches != ref.Branches {
				t.Fatalf("alias combination changed the run: count %d/%d stats %+v/%+v branches %d/%d",
					r.Count, ref.Count, r.Stats, ref.Stats, r.Branches, ref.Branches)
			}
		})
	}
}
