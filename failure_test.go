package acyclicjoin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// chaosQuery builds an L3 query and a random instance big enough that fault
// triggers and cancellation land mid-execution.
func chaosQuery(t *testing.T, seed int64) (*Query, *Instance) {
	t.Helper()
	q, err := NewQuery().
		Relation("R1", "A", "B").
		Relation("R2", "B", "C").
		Relation("R3", "C", "D").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	inst := q.NewInstance()
	for i := 0; i < 150; i++ {
		inst.MustAdd("R1", rng.Intn(12), rng.Intn(12))
		inst.MustAdd("R2", rng.Intn(12), rng.Intn(12))
		inst.MustAdd("R3", rng.Intn(12), rng.Intn(12))
	}
	return q, inst
}

// smallOpts keeps the simulated machine small so runs charge plenty of I/Os.
func smallOpts() Options { return Options{Memory: 64, Block: 4} }

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	q, inst := chaosQuery(t, 1)
	want, err := Run(q, inst, envOptions(t, smallOpts()), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), q, inst, envOptions(t, smallOpts()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count || got.Stats != want.Stats || got.PlanningStats != want.PlanningStats {
		t.Errorf("RunContext = %+v, Run = %+v", got, want)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	q, inst := chaosQuery(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, q, inst, envOptions(t, smallOpts()), nil)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res != nil {
		t.Errorf("pre-cancelled run returned a result: %+v", res)
	}
}

// Cancelling from the emit callback aborts the run mid-execution: the error
// wraps ErrCancelled with the context cause, and the partial Result carries
// the rows emitted and I/Os charged before the abort.
func TestRunContextCancelMidRun(t *testing.T) {
	q, inst := chaosQuery(t, 3)
	ctx, cancel := context.WithCancelCause(context.Background())
	boom := errors.New("operator pulled the plug")
	// Pinned unsharded: the abort relies on charged I/O following the
	// cancelling emit, and a sharded run emits only after all servers have
	// finished their I/O.
	opts := smallOpts()
	opts.Shards = 1
	var seen int64
	res, err := RunContext(ctx, q, inst, envOptions(t, opts), func(Row) {
		seen++
		if seen == 3 {
			cancel(boom)
			// Give the context watcher a beat to latch the cancel mark; the
			// run then aborts at its next charged block I/O.
			time.Sleep(100 * time.Millisecond)
		}
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the cancellation cause in the chain", err)
	}
	if res == nil {
		t.Fatal("no partial result alongside the cancellation error")
	}
	if res.Count < 3 {
		t.Errorf("partial Count = %d, want >= 3", res.Count)
	}
	if res.Stats.IOs == 0 {
		t.Errorf("partial Stats empty: %+v", res.Stats)
	}
}

// A transient-only fault plan leaves every published figure bit-identical
// to the fault-free run; the retries show up only on Result.Faults.
func TestRunTransientFaultsBitIdentical(t *testing.T) {
	q, inst := chaosQuery(t, 4)
	// The explicit empty device plan keeps the baseline fault-free under an
	// environment that injects device faults; backend and shards still
	// follow it.
	base := envOptions(t, Options{Memory: 64, Block: 4, DeviceFaults: &DeviceFaultPlan{}})
	want, err := Run(q, inst, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Faults.Any() {
		t.Fatalf("fault-free run reports faults: %+v", want.Faults)
	}
	for _, rate := range []float64{0.01, 0.1} {
		opts := base
		opts.Faults = &FaultPlan{Seed: 11, TransientRate: rate, MaxAttempts: 100000}
		got, err := Run(q, inst, opts, nil)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if got.Count != want.Count || got.Stats != want.Stats ||
			got.PlanningStats != want.PlanningStats || got.Branches != want.Branches {
			t.Errorf("rate %v: result diverged: got %+v, want %+v", rate, got, want)
		}
		if !got.Faults.Any() {
			t.Errorf("rate %v: no fault telemetry recorded", rate)
		}
	}
}

func TestRunPermanentFaultTyped(t *testing.T) {
	q, inst := chaosQuery(t, 5)
	opts := smallOpts()
	opts.Faults = &FaultPlan{PermanentAt: 25}
	res, err := Run(q, inst, envOptions(t, opts), nil)
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want a *FaultError in the chain", err)
	}
	if res == nil || res.Faults.Permanent == 0 {
		t.Errorf("partial result missing fault telemetry: %+v", res)
	}
	if errors.Is(err, ErrCancelled) || errors.Is(err, ErrBudget) {
		t.Errorf("err matches more than one sentinel: %v", err)
	}
}

// A transient plan whose retry cap is exhausted escalates to ErrFault.
func TestRunTransientEscalatesAtMaxAttempts(t *testing.T) {
	q, inst := chaosQuery(t, 6)
	opts := smallOpts()
	opts.Faults = &FaultPlan{Seed: 1, TransientRate: 1.0, MaxAttempts: 2}
	res, err := Run(q, inst, envOptions(t, opts), nil)
	if err == nil {
		t.Skip("rate-1.0 faults were all absorbed inline; no boundary reached")
	}
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
	if res == nil {
		t.Fatal("no partial result alongside the fault error")
	}
}

// CancelAt triggers inside the plan map onto the public ErrCancelled.
func TestRunPlanCancelTyped(t *testing.T) {
	q, inst := chaosQuery(t, 7)
	opts := smallOpts()
	opts.Faults = &FaultPlan{CancelAt: 25}
	res, err := Run(q, inst, envOptions(t, opts), nil)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res == nil {
		t.Fatal("no partial result alongside the cancellation error")
	}
}

// Ordinary validation errors match none of the failure sentinels.
func TestValidationErrorsUnclassified(t *testing.T) {
	q, _ := chaosQuery(t, 8)
	q2, inst2 := chaosQuery(t, 8)
	_ = q2
	_, err := Run(q, inst2, envOptions(t, Options{}), nil)
	if err == nil {
		t.Fatal("foreign instance accepted")
	}
	for _, sentinel := range []error{ErrCancelled, ErrFault, ErrBudget, ErrInternal} {
		if errors.Is(err, sentinel) {
			t.Errorf("validation error matches %v", sentinel)
		}
	}
}

// Faults during the full-reduction preprocessing (outside core's catchers)
// still come back as typed errors, never a panic across the API.
func TestRunFaultDuringReduction(t *testing.T) {
	q, inst := chaosQuery(t, 9)
	opts := smallOpts()
	// Trigger on the very first charged I/O: that is always reduction
	// (loading is suspended and free).
	opts.Faults = &FaultPlan{PermanentAt: 1}
	res, err := Run(q, inst, envOptions(t, opts), nil)
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
	if res == nil {
		t.Fatal("no partial result for a reduction-time fault")
	}
	if res.Count != 0 {
		t.Errorf("partial Count = %d, want 0 (failed before emission)", res.Count)
	}
}

func TestFaultStatsString(t *testing.T) {
	var fs FaultStats
	if fs.Any() {
		t.Error("zero FaultStats reports Any")
	}
	fs.Transient, fs.Retries = 3, 3
	if !fs.Any() || fs.String() == "" {
		t.Errorf("FaultStats = %q", fs.String())
	}
	_ = fmt.Sprintf("%v", fs)
}

// checkResult accepts a consistent Result and rejects each broken invariant
// with ErrInternal: ledger parity, Count against the rows emitted, and a
// planner clamp.
func TestCheckResultRejectsInconsistentResult(t *testing.T) {
	good := func() *Result {
		return &Result{Count: 5,
			PlanningStats: Stats{Reads: 10, Writes: 4, IOs: 14},
			Transfers:     TransferStats{Reads: 7, Writes: 4, ReplayedReads: 3}}
	}
	if err := checkResult(good(), true, 5, 0); err != nil {
		t.Fatalf("consistent Result rejected: %v", err)
	}
	reads, writes, count := good(), good(), good()
	reads.Transfers.ReplayedReads++
	writes.PlanningStats.Writes++
	count.Count++
	for _, c := range []struct {
		name     string
		res      *Result
		emitting bool
		clamps   int64
	}{
		{"read parity", reads, false, 0},
		{"write parity", writes, false, 0},
		{"count", count, true, 0},
		{"clamp", good(), true, 1},
	} {
		if err := checkResult(c.res, c.emitting, 5, c.clamps); !errors.Is(err, ErrInternal) {
			t.Errorf("%s: err = %v, want ErrInternal", c.name, err)
		}
	}
	// Count-only runs have no adapter tally to hold Count against.
	if err := checkResult(count, false, 5, 0); err != nil {
		t.Errorf("count-only Result rejected: %v", err)
	}
}
