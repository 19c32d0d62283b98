package main

import (
	"math/rand"
	"slices"
	"time"
)

// The shared hosts this benchmark runs on change speed by a quarter or more
// within minutes, as other tenants come and go, and every timing of a run
// moves with them. So each run also times a fixed calibration kernel,
// interleaved with the Runs it measures, and reports its timings scaled to
// a host on which that kernel takes calibRef: a timing t becomes
// t * calibRef / (median kernel time). The kernel shares no code with the
// library and mixes what the library's hot paths do: sorting int64 keys,
// hashing string keys into a map, and allocating small slices.
const calibRef = 0.005 // seconds

var calibInput = func() []int64 {
	r := rand.New(rand.NewSource(1))
	xs := make([]int64, 1<<15)
	for i := range xs {
		xs[i] = r.Int63n(1 << 20)
	}
	return xs
}()

// calibSink keeps the kernel's results alive.
var calibSink int

// calibrate runs the calibration kernel once and returns its wall-clock time.
func calibrate() float64 {
	t0 := time.Now()
	xs := slices.Clone(calibInput)
	slices.Sort(xs)
	seen := map[string]bool{}
	key := make([]byte, 16)
	var keep [][]int64
	for i, x := range calibInput[:1<<13] {
		for j := range key {
			key[j] = byte(x >> (j % 8 * 8))
		}
		seen[string(key)] = true
		keep = append(keep, []int64{x, int64(i)})
	}
	calibSink = len(xs) + len(seen) + len(keep)
	return time.Since(t0).Seconds()
}
