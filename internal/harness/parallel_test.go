package harness

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"acyclicjoin/internal/core"
	"acyclicjoin/internal/extmem"
	"acyclicjoin/internal/tuple"
)

// checkLeaks asserts the run left no child disks in the registry and no
// extra goroutines (after a grace window for workers to finish exiting).
func checkLeaks(t *testing.T, d *extmem.Disk, goroutinesBefore int) {
	t.Helper()
	if n := d.LiveChildren(); n != 0 {
		t.Errorf("leak check: %d child disks alive after run", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Errorf("leak check: %d goroutines alive, started with %d",
				runtime.NumGoroutine(), goroutinesBefore)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Running the registry concurrently must reproduce the sequential report
// byte for byte: experiments are independent and RunAll returns outcomes in
// registry order regardless of completion order.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry twice")
	}
	p := envParams(t, Params{M: 64, B: 8, Scale: 1, Seed: 42})
	render := func(os []Outcome) []string {
		out := make([]string, 0, len(os))
		for _, o := range os {
			if o.Err != nil {
				t.Fatalf("%s: %v", o.Exp.ID, o.Err)
			}
			out = append(out, o.Exp.ID+"\n"+o.Table.Render())
		}
		return out
	}
	seq := render(RunAll(All(), p, 1))
	par := render(RunAll(All(), p, 4))
	if len(seq) != len(par) {
		t.Fatalf("outcome counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("outcome %d differs:\n--- sequential ---\n%s\n--- parallel ---\n%s", i, seq[i], par[i])
		}
	}
}

func TestRunAllEmptyAndSingle(t *testing.T) {
	if got := RunAll(nil, Params{}, 4); len(got) != 0 {
		t.Errorf("RunAll(nil) = %d outcomes", len(got))
	}
	e := All()[0]
	got := RunAll([]*Experiment{e}, envParams(t, Params{M: 64, B: 8, Scale: 1, Seed: 42}), 4)
	if len(got) != 1 || got[0].Exp != e || got[0].Err != nil {
		t.Errorf("single-experiment RunAll = %+v", got)
	}
}

// Harness-style workloads (random tree-structured graphs and instances, the
// same generators the experiments use) through core.Run: with NoPrune every
// Parallelism setting must match the sequential exhaustive Result exactly,
// including the winning-branch plan; under pruning (the default) the pinned
// fields — emitted rows, ExecStats, Policy — must still match the unpruned
// sequential reference at every worker count.
func TestExhaustiveParallelismDeterminism(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		run := func(parallelism int, noPrune bool) (*core.Result, []string, error) {
			rng := rand.New(rand.NewSource(seed))
			d := extmem.NewDisk(extmem.Config{M: 64, B: 4})
			g := randomAcyclicGraph(rng, 3+rng.Intn(3))
			in := randomVerifyInstance(d, rng, g, 20+rng.Intn(20), 4)
			goroutines := runtime.NumGoroutine()
			var rows []string
			r, err := core.Run(g, in, func(a tuple.Assignment) {
				rows = append(rows, a.String())
			}, core.Options{Strategy: core.StrategyExhaustive, Parallelism: parallelism, NoPrune: noPrune})
			checkLeaks(t, d, goroutines)
			return r, rows, err
		}
		wantRes, wantRows, err := run(0, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, n := range []int{1, 4, 8} {
			gotRes, gotRows, err := run(n, true)
			if err != nil {
				t.Fatalf("seed %d P=%d: %v", seed, n, err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("seed %d P=%d Result = %+v, want %+v", seed, n, gotRes, wantRes)
			}
			if !reflect.DeepEqual(gotRows, wantRows) {
				t.Errorf("seed %d P=%d emitted rows differ (%d vs %d)", seed, n, len(gotRows), len(wantRows))
			}
		}
		for _, n := range []int{0, 1, 4, 8} {
			gotRes, gotRows, err := run(n, false)
			if err != nil {
				t.Fatalf("seed %d pruned P=%d: %v", seed, n, err)
			}
			if gotRes.Emitted != wantRes.Emitted || gotRes.ExecStats != wantRes.ExecStats {
				t.Errorf("seed %d pruned P=%d: Emitted/ExecStats = %d/%+v, want %d/%+v",
					seed, n, gotRes.Emitted, gotRes.ExecStats, wantRes.Emitted, wantRes.ExecStats)
			}
			if !reflect.DeepEqual(gotRes.Policy, wantRes.Policy) {
				t.Errorf("seed %d pruned P=%d: Policy = %v, want %v", seed, n, gotRes.Policy, wantRes.Policy)
			}
			if !reflect.DeepEqual(gotRows, wantRows) {
				t.Errorf("seed %d pruned P=%d emitted rows differ (%d vs %d)", seed, n, len(gotRows), len(wantRows))
			}
		}
	}
}

// Cancellation mid-branch on harness-style workloads: the run aborts with a
// typed error at every worker count, with zero leaked children/goroutines.
func TestHarnessCancellationMidBranchNoLeaks(t *testing.T) {
	for _, par := range []int{0, 2, 4} {
		rng := rand.New(rand.NewSource(5))
		d := extmem.NewDisk(extmem.Config{M: 64, B: 4})
		g := randomAcyclicGraph(rng, 4)
		in := randomVerifyInstance(d, rng, g, 30, 4)
		d.SetFaultPlan(&extmem.FaultPlan{CancelAt: 50})
		goroutines := runtime.NumGoroutine()
		_, err := core.Run(g, in, func(tuple.Assignment) {}, core.Options{
			Strategy: core.StrategyExhaustive, Parallelism: par})
		checkLeaks(t, d, goroutines)
		if !errors.Is(err, extmem.ErrCancelled) {
			t.Fatalf("P=%d: err = %v, want ErrCancelled", par, err)
		}
	}
}

// A cancelled context skips not-yet-started experiments with a typed error
// in both the sequential and the parallel sweep.
func TestRunAllCtxCancelledSkips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exps := All()[:3]
	for _, par := range []int{1, 4} {
		for _, o := range RunAllCtx(ctx, exps, Params{M: 64, B: 8, Scale: 1, Seed: 42}, par) {
			if o.Err == nil || !errors.Is(o.Err, context.Canceled) {
				t.Errorf("par %d, %s: err = %v, want context.Canceled", par, o.Exp.ID, o.Err)
			}
			if o.Table != nil {
				t.Errorf("par %d, %s: skipped experiment produced a table", par, o.Exp.ID)
			}
		}
	}
}
