package relation

import (
	"math/rand"
	"testing"

	"acyclicjoin/internal/tuple"
)

// BenchmarkLoadChunksBy loads a relation sorted on its first column, in
// light value groups of 1–8 tuples, and semijoins a neighbour sorted on the
// same attribute down to each chunk's values: the light-value loop of
// Algorithm 2.
func BenchmarkLoadChunksBy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var rows, nbr []tuple.Tuple
	for v := int64(0); len(rows) < 16384; v++ {
		for n := 1 + rng.Intn(8); n > 0; n-- {
			rows = append(rows, tuple.Tuple{v, rng.Int63(), rng.Int63()})
		}
		nbr = append(nbr, tuple.Tuple{rng.Int63(), v})
	}
	d := disk(256, 16)
	r, err := FromTuples(d, tuple.Schema{0, 1, 2}, rows).SortBy(0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := FromTuples(d, tuple.Schema{3, 0}, nbr).SortBy(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := r.LoadChunksBy(0, func(c *Chunk) error {
			n += len(c.Tuples)
			_, err := SemijoinValues(s, 0, c.Values)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != len(rows) {
			b.Fatalf("loaded %d of %d tuples", n, len(rows))
		}
	}
}
