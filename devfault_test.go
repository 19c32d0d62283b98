package acyclicjoin

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// devFaultDifferentialRates is the acceptance grid: at every rate the faulted
// file run must reproduce the fault-free run bit for bit.
var devFaultDifferentialRates = []float64{0.02, 0.05, 0.20}

// TestDeviceFaultDifferentialRates is the PR's differential proof: random
// acyclic queries through the public API with device-level faults injected
// under the file engine — transient EIO plus torn writes — at every sweep
// rate and shard count, compared against the fault-free file run and the
// counting simulator. The full public Result (rows in emission order, Count,
// Stats, Plan, the shard load table) is bit-identical; all retry and repair
// traffic lands in the Faults.Device side channel, never the main Stats.
func TestDeviceFaultDifferentialRates(t *testing.T) {
	var injected int64
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		q := randomTreeQuery(rng)
		inst := q.NewInstance()
		fillRandom(rng, q, inst, trial%3 == 0)
		for _, shards := range []int{1, 3} {
			base := Options{Memory: 64, Block: 8, Shards: shards}
			simOpts := base
			simOpts.Backend = "sim"
			fileOpts := base
			fileOpts.Backend = "file"
			simRes, simRows := backendRunRows(t, q, inst, simOpts)
			fileRes, fileRows := backendRunRows(t, q, inst, fileOpts)
			for _, rate := range devFaultDifferentialRates {
				label := fmt.Sprintf("trial %d shards %d rate %v", trial, shards, rate)
				faultOpts := fileOpts
				faultOpts.DeviceFaults = &DeviceFaultPlan{
					Seed: int64(trial)*31 + 9, Rate: rate, TornRate: rate / 2}
				faultRes, faultRows := backendRunRows(t, q, inst, faultOpts)
				if len(faultRows) != len(fileRows) {
					t.Fatalf("%s: emitted %d rows faulted, %d fault-free", label, len(faultRows), len(fileRows))
				}
				for i := range fileRows {
					if faultRows[i] != fileRows[i] {
						t.Fatalf("%s: row %d diverges: faulted %q, fault-free %q", label, i, faultRows[i], fileRows[i])
					}
					if simRows[i] != fileRows[i] {
						t.Fatalf("%s: row %d diverges across backends: sim %q, file %q", label, i, simRows[i], fileRows[i])
					}
				}
				if faultRes.Count != fileRes.Count || faultRes.Stats != fileRes.Stats ||
					faultRes.Plan != fileRes.Plan || faultRes.Stats != simRes.Stats {
					t.Fatalf("%s: results diverge:\nfaulted    %+v\nfault-free %+v", label, faultRes, fileRes)
				}
				if fs, ws := faultRes.Shards, fileRes.Shards; (fs == nil) != (ws == nil) {
					t.Fatalf("%s: shard telemetry presence diverges", label)
				} else if fs != nil && fmt.Sprint(fs.Rounds) != fmt.Sprint(ws.Rounds) {
					t.Fatalf("%s: shard load table diverges:\nfaulted    %+v\nfault-free %+v", label, fs.Rounds, ws.Rounds)
				}
				checkTransferParity(t, label, faultRes)
				dev := faultRes.Faults.Device
				injected += dev.InjectedReads + dev.InjectedWrites + dev.TornWrites
				if dev.NoSpace != 0 || dev.DeviceDead != 0 || dev.Degraded != 0 {
					t.Fatalf("%s: transient plan reported terminal telemetry: %+v", label, dev)
				}
			}
		}
	}
	if injected == 0 {
		t.Fatal("the sweep injected no device faults; the plan never reached the engine")
	}
}

// TestDeviceFaultNoSpaceTyped exhausts the arena growth cap: the run aborts
// with a typed ErrNoSpace — no panic — and a partial Result whose device
// telemetry records the space failure. ENOSPC is never retried.
func TestDeviceFaultNoSpaceTyped(t *testing.T) {
	q, inst := buildTinyQuery(t)
	res, err := Run(q, inst, envOptions(t, Options{Memory: 64, Block: 8, Backend: "file",
		DeviceFaults: &DeviceFaultPlan{NoSpaceAfter: 512}}), nil)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if res == nil {
		t.Fatal("no partial Result returned with the typed error")
	}
	dev := res.Faults.Device
	if dev.NoSpace < 1 {
		t.Fatalf("NoSpace = %d, want >= 1", dev.NoSpace)
	}
	if dev.Retries != 0 {
		t.Fatalf("space exhaustion was retried %d times; ENOSPC is permanent", dev.Retries)
	}
}

// TestDeviceFaultDataDirHygiene pins the arena hygiene contract under an
// aborted run: with a retained -datadir, the backing file must be gone after
// RunContext returns the typed ENOSPC error — the deferred engine close runs
// on the failure path too.
func TestDeviceFaultDataDirHygiene(t *testing.T) {
	dir := t.TempDir()
	q, inst := buildTinyQuery(t)
	_, err := Run(q, inst, envOptions(t, Options{Memory: 64, Block: 8, Backend: "file", DataDir: dir,
		DeviceFaults: &DeviceFaultPlan{NoSpaceAfter: 512}}), nil)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	left, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(left) != 0 {
		var names []string
		for _, e := range left {
			names = append(names, filepath.Join(dir, e.Name()))
		}
		t.Fatalf("backing files leaked after aborted run: %v", names)
	}
}

// TestDeviceFaultDeadDeviceTyped kills the device outright: every syscall
// from the trigger on fails, the bounded retry budget exhausts, and the run
// aborts with a typed ErrDevice and a partial Result.
func TestDeviceFaultDeadDeviceTyped(t *testing.T) {
	q, inst := buildTinyQuery(t)
	res, err := Run(q, inst, envOptions(t, Options{Memory: 64, Block: 8, Backend: "file",
		DeviceFaults: &DeviceFaultPlan{DeadAt: 10}}), nil)
	if !errors.Is(err, ErrDevice) {
		t.Fatalf("err = %v, want ErrDevice", err)
	}
	if res == nil {
		t.Fatal("no partial Result returned with the typed error")
	}
	if res.Faults.Device.DeviceDead != 1 {
		t.Fatalf("DeviceDead = %d, want 1", res.Faults.Device.DeviceDead)
	}
}

// TestDeviceFaultDegradedFallback sets Degrade on a dead-device plan: instead
// of the typed error, the run transparently re-executes on the counting
// simulator and succeeds, reporting Degraded on the Result and in the device
// telemetry. The recomputed figures match a fault-free sim run exactly.
func TestDeviceFaultDegradedFallback(t *testing.T) {
	q, inst := buildTinyQuery(t)
	wantRes, wantRows := backendRunRows(t, q, inst, Options{Memory: 64, Block: 8, Backend: "sim"})
	var rows []string
	res, err := Run(q, inst, envOptions(t, Options{Memory: 64, Block: 8, Backend: "file",
		DeviceFaults: &DeviceFaultPlan{DeadAt: 10, Degrade: true}}),
		func(row Row) { rows = append(rows, canonRow(q, row)) })
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Result.Degraded not set")
	}
	if res.Backend != "sim" {
		t.Fatalf("Backend = %q, want sim after degradation", res.Backend)
	}
	if res.Faults.Device.Degraded != 1 {
		t.Fatalf("Device.Degraded = %d, want 1", res.Faults.Device.Degraded)
	}
	if len(rows) != len(wantRows) {
		t.Fatalf("emitted %d rows degraded, %d fault-free", len(rows), len(wantRows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Fatalf("row %d diverges: degraded %q, fault-free %q", i, rows[i], wantRows[i])
		}
	}
	if res.Count != wantRes.Count || res.Stats != wantRes.Stats || res.Plan != wantRes.Plan {
		t.Fatalf("degraded result diverges:\ndegraded   %+v\nfault-free %+v", res, wantRes)
	}
}

// TestDeviceFaultSimBackendNoop pins the documented scoping: a DeviceFaults
// plan on the sim backend is a no-op — there are no syscalls to fault — and
// the run matches a plan-free run exactly, with zero device telemetry.
func TestDeviceFaultSimBackendNoop(t *testing.T) {
	q, inst := buildTinyQuery(t)
	wantRes, wantRows := backendRunRows(t, q, inst, Options{Memory: 64, Block: 8, Backend: "sim"})
	gotRes, gotRows := backendRunRows(t, q, inst, Options{Memory: 64, Block: 8, Backend: "sim",
		DeviceFaults: &DeviceFaultPlan{Rate: 0.5, TornRate: 0.5, DeadAt: 3}})
	if gotRes.Faults.Device != (DeviceFaultStats{}) {
		t.Fatalf("sim backend reported device-fault telemetry: %+v", gotRes.Faults.Device)
	}
	if gotRes.Count != wantRes.Count || gotRes.Stats != wantRes.Stats ||
		len(gotRows) != len(wantRows) {
		t.Fatalf("sim run changed under a device plan:\nwith plan %+v\nwithout   %+v", gotRes, wantRes)
	}
}

// FuzzDevFaultOracle is the randomized arm of the differential proof: a
// random acyclic query, a random device fault schedule, a random shard count
// and memo mode — the faulted file run must match the fault-free file run and
// the counting simulator on the full public Result, with all recovery in the
// side channel. Corpus seeds cover each rate tier, sharding, and MemoOff.
func FuzzDevFaultOracle(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(42), uint8(20), uint8(1))
	f.Add(int64(7), uint8(5), uint8(3))
	f.Add(int64(99), uint8(25), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, ratePct, mode uint8) {
		rate := float64(ratePct%26) / 100 // 0 to 0.25
		rng := rand.New(rand.NewSource(seed))
		q := randomTreeQuery(rng)
		inst := q.NewInstance()
		fillRandom(rng, q, inst, mode&4 != 0)
		opts := Options{Memory: 64, Block: 8, Shards: int(mode%2)*2 + 1}
		if mode&2 != 0 {
			opts.Memo = MemoOff
		}
		simOpts := opts
		simOpts.Backend = "sim"
		fileOpts := opts
		fileOpts.Backend = "file"
		faultOpts := fileOpts
		faultOpts.DeviceFaults = &DeviceFaultPlan{Seed: seed ^ 0x5eed, Rate: rate, TornRate: rate / 2}
		simRes, simRows := backendRunRows(t, q, inst, simOpts)
		fileRes, fileRows := backendRunRows(t, q, inst, fileOpts)
		faultRes, faultRows := backendRunRows(t, q, inst, faultOpts)
		if len(simRows) != len(fileRows) || len(fileRows) != len(faultRows) {
			t.Fatalf("row counts diverge: sim %d, file %d, faulted %d", len(simRows), len(fileRows), len(faultRows))
		}
		for i := range simRows {
			if simRows[i] != fileRows[i] || fileRows[i] != faultRows[i] {
				t.Fatalf("row %d diverges: sim %q, file %q, faulted %q", i, simRows[i], fileRows[i], faultRows[i])
			}
		}
		if simRes.Count != faultRes.Count || simRes.Stats != faultRes.Stats || simRes.Plan != faultRes.Plan {
			t.Fatalf("results diverge:\nsim     %+v\nfaulted %+v", simRes, faultRes)
		}
		// The performed/replayed transfer split is timing-dependent when
		// shard servers run concurrently against the shared operator memo
		// (on both arms — nothing to do with faults), so the ledger identity
		// is asserted only on the sequential path, mirroring the
		// deterministic gate in TestDifferentialBackendsPublicAPI.
		if opts.Shards == 1 &&
			(fileRes.Transfers != faultRes.Transfers || fileRes.PlanningStats != faultRes.PlanningStats) {
			t.Fatalf("charged accounting diverges under faults:\nfault-free %+v %+v\nfaulted    %+v %+v",
				fileRes.PlanningStats, fileRes.Transfers, faultRes.PlanningStats, faultRes.Transfers)
		}
		checkTransferParity(t, "fuzz faulted", faultRes)
		dev := faultRes.Faults.Device
		if dev.NoSpace != 0 || dev.DeviceDead != 0 || dev.Degraded != 0 {
			t.Fatalf("transient plan reported terminal telemetry: %+v", dev)
		}
	})
}
