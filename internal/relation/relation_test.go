package relation

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/tuple"
)

func disk(m, b int) *extmem.Disk { return extmem.NewDisk(extmem.Config{M: m, B: b}) }

func TestBuilderAndScan(t *testing.T) {
	d := disk(16, 4)
	b := NewBuilder(d, tuple.Schema{0, 1})
	b.Add(tuple.Tuple{1, 2})
	b.Add(tuple.Tuple{3, 4})
	r := b.Finish()
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	got := Contents(r)
	if got[0][0] != 1 || got[1][1] != 4 {
		t.Fatalf("contents = %v", got)
	}
}

func TestSortByAndSortedness(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{5, 7}, []tuple.Tuple{
		{3, 1}, {1, 9}, {2, 2}, {1, 1},
	})
	s, err := r.SortBy(7)
	if err != nil {
		t.Fatal(err)
	}
	if !s.SortedByAttr(7) || s.SortedByAttr(5) {
		t.Fatal("sortedness flags wrong")
	}
	got := Contents(s)
	want := []int64{1, 1, 2, 9}
	for i, tp := range got {
		if tp[1] != want[i] {
			t.Fatalf("col 7 order = %v", got)
		}
	}
	// Re-sorting by the same attr returns the same view (no extra I/O).
	before := d.Stats().IOs()
	s2, err := s.SortBy(7)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s || d.Stats().IOs() != before {
		t.Fatal("redundant sort not elided")
	}
}

func TestSortDedup(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{
		{1, 1}, {1, 1}, {2, 2}, {2, 2}, {2, 3},
	})
	s, err := r.SortDedupBy(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("dedup len = %d, want 3", s.Len())
	}
}

func TestGroups(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{
		{1, 1}, {1, 2}, {2, 1}, {3, 1}, {3, 2}, {3, 3},
	})
	s, err := r.SortBy(0)
	if err != nil {
		t.Fatal(err)
	}
	var vals []int64
	var lens []int
	err = s.Groups(0, func(g Group) error {
		vals = append(vals, g.Value)
		lens = append(lens, g.Rel.Len())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 3 {
		t.Fatalf("vals = %v", vals)
	}
	if lens[0] != 2 || lens[1] != 1 || lens[2] != 3 {
		t.Fatalf("lens = %v", lens)
	}
}

func TestGroupsRequiresSorted(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{2}, {1}})
	if err := r.Groups(0, func(Group) error { return nil }); err == nil {
		t.Fatal("Groups on unsorted view accepted")
	}
}

func TestFindRange(t *testing.T) {
	d := disk(64, 4)
	var rows []tuple.Tuple
	for i := 0; i < 100; i++ {
		rows = append(rows, tuple.Tuple{int64(i / 10), int64(i)})
	}
	r := FromTuples(d, tuple.Schema{0, 1}, rows)
	s, err := r.SortBy(0)
	if err != nil {
		t.Fatal(err)
	}
	g := s.FindRange(0, 3)
	if g.Len() != 10 {
		t.Fatalf("range len = %d, want 10", g.Len())
	}
	Contents(g) // all values must be 3
	for _, tp := range Contents(g) {
		if tp[0] != 3 {
			t.Fatalf("value %d in range for 3", tp[0])
		}
	}
	if s.FindRange(0, 99).Len() != 0 {
		t.Fatal("missing value should give empty range")
	}
}

func TestHeavySplit(t *testing.T) {
	d := disk(4, 1) // M = 4: groups with >= 4 tuples are heavy
	var rows []tuple.Tuple
	for i := 0; i < 6; i++ {
		rows = append(rows, tuple.Tuple{10, int64(i)}) // heavy group (6)
	}
	for i := 0; i < 2; i++ {
		rows = append(rows, tuple.Tuple{20, int64(i)}) // light group (2)
	}
	for i := 0; i < 4; i++ {
		rows = append(rows, tuple.Tuple{30, int64(i)}) // heavy group (4)
	}
	r := FromTuples(d, tuple.Schema{0, 1}, rows)
	s, err := r.SortBy(0)
	if err != nil {
		t.Fatal(err)
	}
	heavy, light, err := s.Heavy(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(heavy) != 2 {
		t.Fatalf("heavy groups = %d, want 2", len(heavy))
	}
	if heavy[0].Value != 10 || heavy[0].Rel.Len() != 6 {
		t.Fatalf("heavy[0] = %v len %d", heavy[0].Value, heavy[0].Rel.Len())
	}
	if heavy[1].Value != 30 || heavy[1].Rel.Len() != 4 {
		t.Fatalf("heavy[1] = %v len %d", heavy[1].Value, heavy[1].Rel.Len())
	}
	if light.Len() != 2 {
		t.Fatalf("light len = %d, want 2", light.Len())
	}
	if !light.SortedByAttr(0) {
		t.Fatal("light part lost sortedness")
	}
}

func TestLoadChunks(t *testing.T) {
	d := disk(8, 2)
	var rows []tuple.Tuple
	for i := 0; i < 20; i++ {
		rows = append(rows, tuple.Tuple{int64(i)})
	}
	r := FromTuples(d, tuple.Schema{0}, rows)
	var sizes []int
	err := r.LoadChunks(func(c *Chunk) error {
		sizes = append(sizes, len(c.Tuples))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 8 || sizes[1] != 8 || sizes[2] != 4 {
		t.Fatalf("chunk sizes = %v", sizes)
	}
	if d.MemInUse() != 0 {
		t.Fatalf("leaked memory: %d", d.MemInUse())
	}
}

func TestLoadChunksBy(t *testing.T) {
	d := disk(4, 1) // M=4
	var rows []tuple.Tuple
	// Groups of size 3, 3, 2, 1: chunks must respect group boundaries.
	for v, n := range map[int]int{1: 3, 2: 3, 3: 2, 4: 1} {
		for i := 0; i < n; i++ {
			rows = append(rows, tuple.Tuple{int64(v), int64(i)})
		}
	}
	r := FromTuples(d, tuple.Schema{0, 1}, rows)
	s, err := r.SortBy(0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	err = s.LoadChunksBy(0, func(c *Chunk) error {
		if len(c.Tuples) > 2*4 {
			t.Fatalf("chunk exceeds 2M: %d", len(c.Tuples))
		}
		// Layout: Values strictly ascending, Starts bracketing one run each.
		if len(c.Starts) != len(c.Values)+1 || c.Starts[0] != 0 || c.Starts[len(c.Values)] != len(c.Tuples) {
			t.Fatalf("starts %v do not bracket %d tuples for values %v", c.Starts, len(c.Tuples), c.Values)
		}
		for i, v := range c.Values {
			if i > 0 && c.Values[i-1] >= v {
				t.Fatalf("values not strictly ascending: %v", c.Values)
			}
			run := c.Tuples[c.Starts[i]:c.Starts[i+1]]
			for _, tp := range run {
				if tp[0] != v {
					t.Fatalf("run of %d holds %v", v, tp)
				}
			}
			// Group integrity: all tuples of a value must be in one chunk.
			if want := map[int64]int{1: 3, 2: 3, 3: 2, 4: 1}[v]; len(run) != want {
				t.Fatalf("group %d split: %d of %d in chunk", v, len(run), want)
			}
		}
		total += len(c.Tuples)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 9 {
		t.Fatalf("total loaded = %d, want 9", total)
	}
	if d.MemInUse() != 0 {
		t.Fatalf("leaked memory: %d", d.MemInUse())
	}
}

func TestViewBounds(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{1}, {2}})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds view accepted")
		}
	}()
	r.View(1, 5)
}

func TestSemijoin(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0, 1}, []tuple.Tuple{
		{1, 10}, {2, 20}, {3, 30}, {3, 31},
	})
	s := FromTuples(d, tuple.Schema{0, 2}, []tuple.Tuple{
		{1, 100}, {3, 300}, {5, 500},
	})
	rs, _ := r.SortBy(0)
	ss, _ := s.SortBy(0)
	out, err := Semijoin(rs, ss, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := Contents(out)
	if len(got) != 3 {
		t.Fatalf("semijoin len = %d, want 3: %v", len(got), got)
	}
	for _, tp := range got {
		if tp[0] == 2 {
			t.Fatal("value 2 should be filtered")
		}
	}
	if !out.SortedByAttr(0) {
		t.Fatal("semijoin lost sortedness")
	}
}

// TestSemijoinValues grades SemijoinValues against a brute-force filter on a
// view sorted by the attribute and on an unsorted one.
func TestSemijoinValues(t *testing.T) {
	rows := []tuple.Tuple{
		{3, 30}, {math.MinInt64, 1}, {-7, 70}, {math.MaxInt64, 2}, {0, 0},
		{-7, 71}, {3, 31}, {math.MaxInt64 - 1, 3}, {-1, 10}, {math.MinInt64 + 1, 4},
	}
	for _, tc := range []struct {
		name string
		vals []int64
	}{
		{"empty", []int64{}},
		{"nil", nil},
		{"negative", []int64{-7, -1}},
		{"extremes", []int64{math.MinInt64, math.MaxInt64}},
		{"absent", []int64{-8, 1, 2, 4}},
		{"mixed", []int64{math.MinInt64, -7, 0, 3, 5, math.MaxInt64 - 1}},
	} {
		d := disk(16, 4)
		unsorted := FromTuples(d, tuple.Schema{0, 1}, rows)
		sorted, err := unsorted.SortBy(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Relation{unsorted, sorted} {
			var want []tuple.Tuple
			for _, tp := range Contents(r) {
				if slices.Contains(tc.vals, tp[0]) {
					want = append(want, tp)
				}
			}
			out, err := SemijoinValues(r, 0, tc.vals)
			if err != nil {
				t.Fatal(err)
			}
			if got := Contents(out); !slices.EqualFunc(got, want, slices.Equal[tuple.Tuple]) {
				t.Errorf("%s (sorted=%v): got %v, want %v", tc.name, r.SortedByAttr(0), got, want)
			}
		}
	}
}

func TestProject(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0, 1, 2}, []tuple.Tuple{
		{1, 5, 9}, {1, 5, 8}, {2, 5, 7},
	})
	p, err := Project(r, []tuple.Attr{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("project len = %d, want 2: %v", p.Len(), Contents(p))
	}
	if !p.Schema().Equal(tuple.Schema{0, 1}) {
		t.Fatalf("schema = %v", p.Schema())
	}
}

func TestDistinctValues(t *testing.T) {
	d := disk(16, 4)
	r := FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{3}, {1}, {3}, {2}, {1}})
	vals, err := DistinctValues(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 3 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestEqualHelper(t *testing.T) {
	d := disk(16, 4)
	a := FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{1}, {2}})
	b := FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{2}, {1}})
	c := FromTuples(d, tuple.Schema{0}, []tuple.Tuple{{2}, {3}})
	if !Equal(a, b) {
		t.Fatal("order-insensitive equality failed")
	}
	if Equal(a, c) {
		t.Fatal("different contents reported equal")
	}
}

// Property: Heavy partitions the relation; semijoin+anti partition too.
func TestSplitPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		m := 3 + rng.Intn(5)
		d := extmem.NewDisk(extmem.Config{M: m, B: 1})
		n := rng.Intn(60)
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			rows[i] = tuple.Tuple{int64(rng.Intn(8)), int64(i)}
		}
		r := FromTuples(d, tuple.Schema{0, 1}, rows)
		s, err := r.SortBy(0)
		if err != nil {
			t.Fatal(err)
		}
		heavy, light, err := s.Heavy(0)
		if err != nil {
			t.Fatal(err)
		}
		totalHeavy := 0
		for _, g := range heavy {
			if g.Rel.Len() < m {
				t.Fatalf("heavy group of size %d < M=%d", g.Rel.Len(), m)
			}
			totalHeavy += g.Rel.Len()
		}
		err = light.Groups(0, func(g Group) error {
			if g.Rel.Len() >= m {
				t.Fatalf("light group of size %d >= M=%d", g.Rel.Len(), m)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if totalHeavy+light.Len() != n {
			t.Fatalf("split loses tuples: %d + %d != %d", totalHeavy, light.Len(), n)
		}
	}
}
