package acyclicjoin

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// shardRunRows evaluates q with the given options and returns the Result plus
// the emitted rows in emission order (canonical form).
func shardRunRows(t *testing.T, q *Query, inst *Instance, opts Options) (*Result, []string) {
	t.Helper()
	var rows []string
	res, err := Run(q, inst, envOptions(t, opts), func(row Row) {
		rows = append(rows, canonRow(q, row))
	})
	if err != nil {
		t.Fatalf("shards=%d backend=%q: %v", opts.Shards, opts.Backend, err)
	}
	return res, rows
}

// TestShardDifferentialPublicAPI runs random acyclic queries through the
// public API at every shard count, on both backends and both memo modes. The
// emitted row multiset and Count must match the GenericJoin oracle exactly;
// row ORDER must additionally be bit-identical across backends at the same
// shard count (the sharded executor sits entirely above the storage seam).
// An explicit shards=1 must take the bypass fast path and say so in the
// LoadStats; a default (unrequested) run must keep Result.Shards nil.
func TestShardDifferentialPublicAPI(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(6000 + trial)))
		q := randomTreeQuery(rng)
		inst := q.NewInstance()
		fillRandom(rng, q, inst, trial%4 == 0)
		want := oracleRows(t, q, inst)
		for _, memo := range []MemoMode{MemoOn, MemoOff} {
			for _, shards := range []int{1, 2, 4, 8} {
				label := fmt.Sprintf("trial %d shards=%d memo=%v", trial, shards, memo)
				simOpts := Options{Memory: 64, Block: 8, Backend: "sim", Shards: shards, Memo: memo}
				fileOpts := simOpts
				fileOpts.Backend = "file"
				simRes, simRows := shardRunRows(t, q, inst, simOpts)
				_, fileRows := shardRunRows(t, q, inst, fileOpts)
				if simRes.Count != int64(len(want)) {
					t.Fatalf("%s: Count = %d, oracle = %d (relations %v)",
						label, simRes.Count, len(want), q.Relations())
				}
				sorted := append([]string(nil), simRows...)
				sort.Strings(sorted)
				if len(sorted) != len(want) {
					t.Fatalf("%s: emitted %d rows, oracle %d", label, len(sorted), len(want))
				}
				for i := range want {
					if sorted[i] != want[i] {
						t.Fatalf("%s: row %d = %q, oracle %q", label, i, sorted[i], want[i])
					}
				}
				if len(simRows) != len(fileRows) {
					t.Fatalf("%s: sim emitted %d rows, file %d", label, len(simRows), len(fileRows))
				}
				for i := range simRows {
					if simRows[i] != fileRows[i] {
						t.Fatalf("%s: row %d order diverges across backends: sim %q, file %q",
							label, i, simRows[i], fileRows[i])
					}
				}
				s := simRes.Shards
				if s == nil || s.Shards != shards {
					t.Fatalf("%s: Result.Shards = %+v, want %d servers", label, s, shards)
				}
				if s.Bypass != (shards == 1) {
					t.Fatalf("%s: Bypass = %v, want it exactly on the shards=1 fast path", label, s.Bypass)
				}
				if len(s.Rounds) != 2 || s.Rounds[0].Total() < s.InputTuples {
					t.Fatalf("%s: bad load accounting %+v", label, s)
				}
			}
		}
	}
}

// TestShardedTransfersDeterministic repeats sequential sharded runs with
// pruning and the memo on: the servers run concurrently, yet the
// performed/replayed transfer ledger must be identical every time, because
// each server records into its own fork of the run's operator memo.
func TestShardedTransfersDeterministic(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		q := randomTreeQuery(rng)
		inst := q.NewInstance()
		fillRandom(rng, q, inst, trial%5 == 0)
		opts := Options{Memory: 64, Block: 8, Shards: 4}
		first, _ := shardRunRows(t, q, inst, opts)
		for rep := 1; rep < 6; rep++ {
			res, _ := shardRunRows(t, q, inst, opts)
			if res.Transfers != first.Transfers || res.Memo != first.Memo {
				t.Fatalf("trial %d rep %d: transfers %+v memo %+v, first run %+v memo %+v",
					trial, rep, res.Transfers, res.Memo, first.Transfers, first.Memo)
			}
		}
	}
}

// TestShardExplainReport pins the user-facing surface of a sharded run: the
// plan line, Result.Shards, and the ExplainString sharding block.
func TestShardExplainReport(t *testing.T) {
	q, inst := buildTinyQuery(t)
	res, err := Run(q, inst, envOptions(t, Options{Memory: 64, Block: 8, Shards: 4}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "sharded MPC x4") {
		t.Errorf("Plan = %q, want sharded MPC x4", res.Plan)
	}
	s := res.Shards
	if s == nil || s.Shards != 4 {
		t.Fatalf("Result.Shards = %+v, want 4 servers", s)
	}
	exp := res.ExplainString()
	if !strings.Contains(exp, "sharding: 4 servers") {
		t.Errorf("ExplainString missing sharding block:\n%s", exp)
	}
	if !strings.Contains(exp, "round ") || !strings.Contains(exp, "bound=") {
		t.Errorf("ExplainString missing per-round load lines:\n%s", exp)
	}
}

// TestShardBadConfigRejected pins the error for an out-of-range
// Options.Shards.
func TestShardBadConfigRejected(t *testing.T) {
	q, inst := buildTinyQuery(t)
	for _, n := range []int{-1, MaxShards + 1} {
		_, err := Run(q, inst, Options{Memory: 64, Block: 8, Shards: n}, nil)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("Shards=%d: err = %v, want an out-of-range error", n, err)
		}
	}
}
