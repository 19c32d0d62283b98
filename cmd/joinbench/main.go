// Command joinbench regenerates the paper's tables and figures as measured
// experiments on the simulated external-memory machine. Without flags it
// runs the full registry (E1-E30, see DESIGN.md for the mapping to paper
// artifacts); -exp selects a single experiment.
//
// Usage:
//
//	joinbench [-exp E4] [-m 256] [-b 16] [-scale 1] [-seed 42] [-parallel 4] [-list]
//	          [-opcache=false] [-prune=false] [-backend file] [-syncdevice]
//	          [-strategy greedy] [-shards 4] [-timeout 10m]
//	          [-benchjson BENCH_opcache.json] [-prunejson BENCH_prune.json]
//	          [-chaosjson BENCH_chaos.json] [-backendjson BENCH_backend.json]
//	          [-greedyjson BENCH_greedy.json] [-shardjson BENCH_shards.json]
//	          [-devchaosjson BENCH_devchaos.json] [-devfaultrate 0.02]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"acyclicjoin/internal/cli"
	"acyclicjoin/internal/harness"
)

// config carries every joinbench flag; kept as a struct so run stays
// callable from tests without a dozen positional parameters.
type config struct {
	exp                             string
	m, b, scale                     int
	seed                            int64
	list                            bool
	verify, par, shards             int
	opcache, prune                  bool
	backend, datadir, strategy      string
	syncdevice                      bool
	benchjson, prunejson, chaosjson string
	backendjson, greedyjson         string
	shardjson, devchaosjson         string
	devfaultrate                    float64
	devfaultseed                    int64
	cpuprof, memprof                string
}

func main() {
	var c config
	flag.StringVar(&c.exp, "exp", "", "run a single experiment (e.g. E4); empty runs all")
	flag.IntVar(&c.m, "m", 256, "memory size M in tuples")
	flag.IntVar(&c.b, "b", 16, "block size B in tuples")
	flag.IntVar(&c.scale, "scale", 1, "input size multiplier")
	flag.Int64Var(&c.seed, "seed", 42, "random seed for generated workloads")
	flag.BoolVar(&c.list, "list", false, "list experiments and exit")
	flag.IntVar(&c.verify, "verify", 0, "run a randomized correctness sweep with this many trials per configuration and exit")
	flag.IntVar(&c.par, "parallel", 1, "run up to this many experiments concurrently (tables are identical at any setting)")
	flag.BoolVar(&c.opcache, "opcache", true, "use the charge-replay operator memo (tables are byte-identical either way; off forces every operator to run for real)")
	flag.BoolVar(&c.prune, "prune", true, "branch-and-bound pruning of exhaustive dry runs (tables are byte-identical either way; off restores the paper's full Σ-branches accounting in the experiments that honor it)")
	flag.StringVar(&c.benchjson, "benchjson", "", "write the machine-readable operator-memo benchmark (wall-clock, I/O, hit rate, evictions) to this file and exit")
	flag.StringVar(&c.prunejson, "prunejson", "", "write the machine-readable pruning benchmark (wall-clock, planning I/Os saved, branches pruned) to this file and exit")
	flag.StringVar(&c.chaosjson, "chaosjson", "", "write the machine-readable chaos benchmark (fault rates x worker counts, bit-identity, retry telemetry) to this file and exit")
	flag.StringVar(&c.backend, "backend", "", "storage engine for every experiment: sim (counting simulator, default) or file (real os.File-backed disk; all tables stay byte-identical); empty falls back to $ACYCLICJOIN_BACKEND")
	flag.StringVar(&c.datadir, "datadir", "", "directory for the file backend's backing files (default $ACYCLICJOIN_DATADIR, then unlinked temp files)")
	flag.BoolVar(&c.syncdevice, "syncdevice", false, "force the file backend's synchronous device path (inline pread/pwrite, no overlap workers); default async unless $ACYCLICJOIN_SYNC_DEVICE is set; all tables are byte-identical either way")
	flag.StringVar(&c.backendjson, "backendjson", "", "write the machine-readable backend differential benchmark (sim vs file: transfer parity, bit-identity, device telemetry, wall-clock) to this file and exit")
	flag.StringVar(&c.greedyjson, "greedyjson", "", "write the machine-readable greedy-planner benchmark (planning I/Os vs the exhaustive sweep, plan-quality ratio, wall-clock) to this file and exit")
	flag.StringVar(&c.shardjson, "shardjson", "", "write the machine-readable sharding benchmark (load vs the instance-optimal bound, heavy-hitter effect, wall-clock speedup on the file backend) to this file and exit")
	flag.IntVar(&c.shards, "shards", 0, "add a shard-parallel differential arm at this many simulated MPC servers to the -verify sweep; 0 falls back to $ACYCLICJOIN_SHARDS, then 1 (no shard arm); experiments pin their shard counts and ignore this")
	flag.StringVar(&c.strategy, "strategy", "", "restrict the -verify sweep to one peeling strategy: exhaustive, first, smallest, or greedy; empty falls back to $ACYCLICJOIN_STRATEGY, then the full sweep")
	flag.StringVar(&c.devchaosjson, "devchaosjson", "", "write the machine-readable device-chaos benchmark (syscall fault rates x device modes on the file backend, bit-identity, injection/recovery telemetry) to this file and exit")
	flag.Float64Var(&c.devfaultrate, "devfaultrate", 0, "inject transient device-level syscall faults at this per-call probability on every file-backend experiment machine (deterministic per -devfaultseed; tables stay byte-identical, recovery is reported separately); 0 falls back to $ACYCLICJOIN_DEVFAULTRATE; no-op on the sim backend")
	flag.Int64Var(&c.devfaultseed, "devfaultseed", 0, "seed for the injected device fault schedule; 0 falls back to $ACYCLICJOIN_DEVFAULTSEED, then 1")
	flag.StringVar(&c.cpuprof, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&c.memprof, "memprofile", "", "write a heap profile to this file on exit")
	timeout := flag.Duration("timeout", 0, "stop starting new experiments after this long (0 = no limit); completed tables are still printed")
	flag.Parse()

	ctx, cancelCause := context.WithCancelCause(context.Background())
	if *timeout > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeoutCause(ctx, *timeout, errors.New("joinbench: timeout elapsed"))
		defer cancelT()
	}
	// Two-stage SIGINT: the first interrupt cancels the context (experiments
	// not yet started are skipped and the completed tables print), a second
	// force-exits.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "interrupt: cancelling sweep (interrupt again to force exit)")
		cancelCause(errors.New("joinbench: interrupted"))
		<-sig
		fmt.Fprintln(os.Stderr, "second interrupt: forcing exit")
		os.Exit(130)
	}()
	os.Exit(run(ctx, c))
}

// run holds the real main so profile writers run before os.Exit. Unset
// -strategy, -backend, -datadir, -syncdevice, -shards and -devfault* flags
// fall back to their ACYCLICJOIN_* environment variables.
func run(ctx context.Context, c config) int {
	if c.cpuprof != "" {
		f, err := os.Create(c.cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if c.memprof != "" {
		defer func() {
			f, err := os.Create(c.memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if c.list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %-45s %s\n", e.ID, e.Artifact, e.Title)
		}
		return 0
	}

	env, err := cli.Config{Strategy: c.strategy, Backend: c.backend, DataDir: c.datadir,
		SyncDevice: c.syncdevice, Shards: c.shards,
		DevFaultRate: c.devfaultrate, DevFaultSeed: c.devfaultseed}.FromEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "joinbench: %v\n", err)
		return 2
	}
	p := harness.Params{M: c.m, B: c.b, Scale: c.scale, Seed: c.seed,
		NoMemo: !c.opcache, NoPrune: !c.prune,
		Backend: env.Backend, DataDir: env.DataDir, SyncDevice: env.SyncDevice,
		Strategy: env.Strategy, Shards: env.Shards,
		DevFaultRate: env.DevFaultRate, DevFaultSeed: env.DevFaultSeed}

	if c.prunejson != "" {
		res, err := harness.PruneBench(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prune bench: %v\n", err)
			return 1
		}
		if writeJSON(c.prunejson, res, "prune bench") != nil {
			return 1
		}
		for _, w := range res.Workloads {
			fmt.Printf("%-17s wall pruned/full = %.2fms/%.2fms (%.2fx)  planning IOs %d -> %d (%.1f%% saved)  pruned %d/%d branches  winner pinned=%v\n",
				w.Name, float64(w.WallNanosPruned)/1e6, float64(w.WallNanosUnpruned)/1e6,
				w.Speedup, w.PlanningIOsUnpruned, w.PlanningIOsPruned,
				100*w.SavedIOsFraction, w.BranchesPruned, w.Branches, w.WinnerPinned)
		}
		return 0
	}

	if c.benchjson != "" {
		res, err := harness.OpMemoBench(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "op-memo bench: %v\n", err)
			return 1
		}
		if writeJSON(c.benchjson, res, "op-memo bench") != nil {
			return 1
		}
		for _, w := range res.Workloads {
			fmt.Printf("%-17s wall on/off = %.2fms/%.2fms (%.1fx)  IOs %d identical=%v bounded=%v  hit rate %.0f%%  evictions %d\n",
				w.Name, float64(w.WallNanosMemoOn)/1e6, float64(w.WallNanosMemoOff)/1e6,
				w.Speedup, w.IOs, w.Identical, w.BoundedIdentical, 100*w.HitRate, w.BoundedEvictions)
		}
		return 0
	}

	if c.chaosjson != "" {
		res, err := harness.ChaosBench(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos bench: %v\n", err)
			return 1
		}
		if writeJSON(c.chaosjson, res, "chaos bench") != nil {
			return 1
		}
		for _, w := range res.Workloads {
			fmt.Printf("%-17s rate=%.2f workers=%d rows=%d execIOs=%d identical=%v transient=%d boundary retries=%d retry IOs=%d backoff IOs=%d\n",
				w.Name, w.Rate, w.Workers, w.Rows, w.ExecIOs, w.Identical,
				w.Transient, w.BoundaryRetries, w.RetryIOs, w.BackoffIOs)
		}
		return 0
	}

	if c.devchaosjson != "" {
		res, err := harness.DevChaosBench(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "device chaos bench: %v\n", err)
			return 1
		}
		if writeJSON(c.devchaosjson, res, "device chaos bench") != nil {
			return 1
		}
		for _, w := range res.Workloads {
			fmt.Printf("%-17s rate=%.2f torn=%.2f %s rows=%d execIOs=%d identical=%v injected r/w=%d/%d torn=%d retries=%d repairs=%d backoff IOs=%d\n",
				w.Name, w.Rate, w.TornRate, w.Mode, w.Rows, w.ExecIOs, w.Identical,
				w.InjectedReads, w.InjectedWrites, w.TornWrites, w.Retries, w.Repairs, w.BackoffIOs)
		}
		return 0
	}

	if c.backendjson != "" {
		res, err := harness.BackendBench(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "backend bench: %v\n", err)
			return 1
		}
		if writeJSON(c.backendjson, res, "backend bench") != nil {
			return 1
		}
		mode := "async"
		if res.SyncDevice {
			mode = "sync"
		}
		for _, w := range res.Workloads {
			fmt.Printf("%-17s wall file/sim = %.2fms/%.2fms (%.1fx)  IOs %d parity=%v identical=%v  preads=%d pwrites=%d cache hits=%d prefetched=%d (hit %d, wasted %d) evictions=%d  device=%s overlapped=%d queue-hiwater=%d inflight-hiwater=%d demand-waits=%d\n",
				w.Name, float64(w.WallNanosFile)/1e6, float64(w.WallNanosSim)/1e6,
				w.Slowdown, w.IOs, w.Parity, w.Identical,
				w.ReadCalls, w.WriteCalls, w.CacheHits, w.Prefetched,
				w.PrefetchHits, w.PrefetchWasted, w.Evictions,
				mode, w.OverlappedWrites, w.FlushQueueHiWater, w.PrefetchInFlight, w.DemandWaits)
		}
		return 0
	}

	if c.shardjson != "" {
		res, err := harness.ShardBench(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shard bench: %v\n", err)
			return 1
		}
		if writeJSON(c.shardjson, res, "shard bench") != nil {
			return 1
		}
		for _, w := range res.Workloads {
			fmt.Printf("%-17s shards=%d rows=%d maxload=%d bound=%d (%.2fx) repl=%.2fx heavy=%d  wall=%.2fms vs 1-shard %.2fms (%.2fx)  identical=%v\n",
				w.Name, w.Shards, w.Rows, w.MaxLoad, w.Bound, w.LoadRatio, w.Replication,
				w.HeavyValues, float64(w.WallNanos)/1e6, float64(w.WallNanosBase)/1e6, w.Speedup, w.Identical)
		}
		return 0
	}

	if c.greedyjson != "" {
		res, err := harness.GreedyBench(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "greedy bench: %v\n", err)
			return 1
		}
		if writeJSON(c.greedyjson, res, "greedy bench") != nil {
			return 1
		}
		for _, w := range res.Workloads {
			fmt.Printf("%-17s wall greedy/exh = %.2fms/%.2fms (%.1fx)  planning IOs %d vs %d (%.1f%%)  exec IOs %d vs %d (quality %.2fx)  rows equal=%v\n",
				w.Name, float64(w.WallNanosGreedy)/1e6, float64(w.WallNanosExhaustive)/1e6,
				w.Speedup, w.PlanningIOsGreedy, w.PlanningIOsExhaustive, 100*w.PlanningFraction,
				w.ExecIOsGreedy, w.ExecIOsBest, w.QualityRatio, w.RowsEqual)
		}
		return 0
	}

	if c.verify > 0 {
		tab, err := harness.VerifySweep(p, c.verify)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verification FAILED: %v\n", err)
			return 1
		}
		fmt.Print(tab.Render())
		return 0
	}
	exps := harness.All()
	if c.exp != "" {
		e := harness.Get(c.exp)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", c.exp)
			return 2
		}
		exps = []*harness.Experiment{e}
	} else {
		fmt.Printf("machine: M=%d tuples, B=%d tuples/block, scale=%d, seed=%d, parallel=%d\n",
			p.M, p.B, p.Scale, p.Seed, c.par)
	}
	// Experiments are independent; RunAllCtx executes up to -parallel of
	// them concurrently and hands back outcomes in registry order, so the
	// printed report is byte-identical to a sequential sweep. Cancellation
	// (timeout or SIGINT) skips experiments that have not started yet;
	// completed tables still print below before the non-zero exit.
	code := 0
	for _, o := range harness.RunAllCtx(ctx, exps, p, c.par) {
		fmt.Printf("\n[%s] %s\n(paper artifact: %s)\n\n", o.Exp.ID, o.Exp.Title, o.Exp.Artifact)
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", o.Exp.ID, o.Err)
			code = 1
			continue
		}
		fmt.Print(o.Table.Render())
	}
	return code
}

func writeJSON(path string, v any, what string) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		return err
	}
	return nil
}
