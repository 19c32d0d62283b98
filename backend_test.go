package acyclicjoin

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// backendRun evaluates q on the given backend and returns the Result plus
// the emitted rows in emission order (canonical form). The emission order is
// part of the cross-backend contract: the engine sits entirely above the
// storage seam, so the file engine must reproduce it exactly.
func backendRunRows(t *testing.T, q *Query, inst *Instance, opts Options) (*Result, []string) {
	t.Helper()
	var rows []string
	res, err := Run(q, inst, envOptions(t, opts), func(row Row) {
		rows = append(rows, canonRow(q, row))
	})
	if err != nil {
		t.Fatalf("backend %q opts %+v: %v", opts.Backend, opts, err)
	}
	return res, rows
}

// checkTransferParity asserts the seam invariant the differential suite is
// built on: every charge in PlanningStats is either a performed or a
// replayed transfer, on every backend. On the file backend the engine must
// additionally have observed exactly the performed side.
func checkTransferParity(t *testing.T, label string, res *Result) {
	t.Helper()
	x := res.Transfers
	if res.PlanningStats.Reads != x.TotalReads() || res.PlanningStats.Writes != x.TotalWrites() {
		t.Fatalf("%s: transfer parity broken: planning stats %+v vs transfers %+v", label, res.PlanningStats, x)
	}
	switch res.Backend {
	case "sim":
		if res.Device != (DeviceStats{}) {
			t.Fatalf("%s: sim backend reported device telemetry: %+v", label, res.Device)
		}
	case "file":
		if res.Device.BilledReads != x.Reads || res.Device.BilledWrites != x.Writes {
			t.Fatalf("%s: engine observed %d/%d billed transfers, ledger performed %d/%d",
				label, res.Device.BilledReads, res.Device.BilledWrites, x.Reads, x.Writes)
		}
		if res.Device.CacheHits+res.Device.DeviceServes+res.Device.BackfillServes != res.Device.BilledReads {
			t.Fatalf("%s: engine read serves do not cover billed reads: %+v", label, res.Device)
		}
	default:
		t.Fatalf("%s: unexpected backend %q", label, res.Backend)
	}
}

// TestDifferentialBackendsPublicAPI runs random acyclic queries through the
// public API on the counting simulator and the os.File engine, across memo
// modes, pruning modes, and worker counts. The rows (in emission order),
// Count, the executed branch's Stats, and the plan must be bit-identical
// across backends in every configuration; PlanningStats and the transfer
// ledger are additionally bit-identical whenever they are deterministic
// (pruning off or sequential — under pruning with workers the planning split
// depends on timing on BOTH backends, so only per-run parity is checked).
func TestDifferentialBackendsPublicAPI(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"seq", Options{}},
		{"seq-noprune", Options{NoPrune: true}},
		{"seq-nomemo", Options{Memo: MemoOff}},
		{"par2-noprune", Options{Parallelism: 2, NoPrune: true}},
		{"par4-noprune", Options{Parallelism: 4, NoPrune: true}},
		{"par4-pruned", Options{Parallelism: 4}},
		{"par4-nomemo", Options{Parallelism: 4, NoPrune: true, Memo: MemoOff}},
	}
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		q := randomTreeQuery(rng)
		inst := q.NewInstance()
		fillRandom(rng, q, inst, trial%5 == 0)
		want := oracleRows(t, q, inst)
		for _, cfg := range configs {
			simOpts := cfg.opts
			simOpts.Memory, simOpts.Block, simOpts.Backend = 64, 8, "sim"
			fileOpts := simOpts
			fileOpts.Backend = "file"
			label := fmt.Sprintf("trial %d %s", trial, cfg.name)
			simRes, simRows := backendRunRows(t, q, inst, simOpts)
			fileRes, fileRows := backendRunRows(t, q, inst, fileOpts)
			checkTransferParity(t, label+" (sim)", simRes)
			checkTransferParity(t, label+" (file)", fileRes)
			if int64(len(want)) != simRes.Count {
				t.Fatalf("%s: sim Count = %d, oracle = %d", label, simRes.Count, len(want))
			}
			if len(simRows) != len(fileRows) {
				t.Fatalf("%s: emitted %d rows on sim, %d on file", label, len(simRows), len(fileRows))
			}
			for i := range simRows {
				if simRows[i] != fileRows[i] {
					t.Fatalf("%s: row %d diverges: sim %q, file %q", label, i, simRows[i], fileRows[i])
				}
			}
			if simRes.Count != fileRes.Count || simRes.Stats != fileRes.Stats ||
				simRes.Plan != fileRes.Plan || simRes.Branches != fileRes.Branches {
				t.Fatalf("%s: results diverge:\nsim  %+v\nfile %+v", label, simRes, fileRes)
			}
			deterministic := simOpts.NoPrune || simOpts.Parallelism == 0
			if deterministic && (simRes.PlanningStats != fileRes.PlanningStats || simRes.Transfers != fileRes.Transfers) {
				t.Fatalf("%s: planning accounting diverges:\nsim  planning %+v transfers %+v\nfile planning %+v transfers %+v",
					label, simRes.PlanningStats, simRes.Transfers, fileRes.PlanningStats, fileRes.Transfers)
			}
		}
	}
}

// TestFileBackendDataDirRetained runs a join with an explicit -datadir and
// checks the backing file lives there during the run's lifetime and is
// removed when the engine closes (RunContext closes it before returning).
func TestFileBackendDataDirRetained(t *testing.T) {
	dir := t.TempDir()
	q, inst := buildTinyQuery(t)
	res, err := Run(q, inst, envOptions(t, Options{Memory: 64, Block: 8, Backend: "file", DataDir: dir}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "file" {
		t.Fatalf("Backend = %q, want file", res.Backend)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		var names []string
		for _, e := range left {
			names = append(names, filepath.Join(dir, e.Name()))
		}
		t.Fatalf("backing files leaked after Run: %v", names)
	}
}

// TestBackendUnknownRejected pins the error for a bad Options.Backend.
func TestBackendUnknownRejected(t *testing.T) {
	q, inst := buildTinyQuery(t)
	_, err := Run(q, inst, Options{Backend: "nvme"}, nil)
	if err == nil || err.Error() != `acyclicjoin: unknown backend "nvme" (want "sim" or "file")` {
		t.Fatalf("err = %v", err)
	}
}

func buildTinyQuery(t *testing.T) (*Query, *Instance) {
	t.Helper()
	q, err := NewQuery().
		Relation("R", "a", "b").
		Relation("S", "b", "c").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := q.NewInstance()
	for i := 0; i < 40; i++ {
		inst.MustAdd("R", i%8, i%5)
		inst.MustAdd("S", i%5, i%7)
	}
	return q, inst
}
