package acyclicjoin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"acyclicjoin/internal/cli"
)

// envOptions applies the ACYCLICJOIN_* environment to opts the way joinrun
// applies it to its flags: a field the test sets wins over its variable. The
// suite's Runs go through it, so setting ACYCLICJOIN_BACKEND,
// ACYCLICJOIN_SHARDS or ACYCLICJOIN_DEVFAULTRATE re-runs the whole suite on
// that backend, shard count or device fault rate. Run itself never reads the
// environment.
func envOptions(tb testing.TB, opts Options) Options {
	tb.Helper()
	env, err := cli.Config{Backend: opts.Backend, DataDir: opts.DataDir,
		SyncDevice: opts.SyncDevice, Shards: opts.Shards}.FromEnv()
	if err != nil {
		tb.Fatal(err)
	}
	opts.Backend, opts.DataDir, opts.SyncDevice, opts.Shards = env.Backend, env.DataDir, env.SyncDevice, env.Shards
	if opts.DeviceFaults == nil && env.DevFaultRate > 0 {
		opts.DeviceFaults = &DeviceFaultPlan{Seed: env.DevFaultSeed, Rate: env.DevFaultRate}
	}
	return opts
}

var envVars = []string{cli.EnvStrategy, cli.EnvBackend, cli.EnvDataDir, cli.EnvSyncDevice,
	cli.EnvShards, cli.EnvDevFaultRate, cli.EnvDevFaultSeed}

// Run is a pure function of its arguments: no ACYCLICJOIN_* value, hostile
// or malformed, changes a zero-Options run.
func TestRunIgnoresEnvironment(t *testing.T) {
	q, inst := buildTinyQuery(t)
	for _, v := range envVars {
		t.Setenv(v, "")
	}
	want, err := Run(q, inst, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hostile := map[string]string{
		cli.EnvStrategy: "first", cli.EnvBackend: "file",
		cli.EnvDataDir: filepath.Join(t.TempDir(), "missing"), cli.EnvSyncDevice: "1",
		cli.EnvShards: "3", cli.EnvDevFaultRate: "0.5", cli.EnvDevFaultSeed: "1",
	}
	for _, setting := range []string{"hostile", "malformed"} {
		for _, v := range envVars {
			if setting == "hostile" {
				t.Setenv(v, hostile[v])
			} else {
				t.Setenv(v, "banana")
			}
		}
		res, err := Run(q, inst, Options{}, nil)
		if err != nil {
			t.Fatalf("%s environment: %v", setting, err)
		}
		if res.Backend != "sim" || res.Shards != nil || res.Faults != (FaultStats{}) {
			t.Errorf("%s environment: Backend %q, Shards %+v, Faults %+v; want sim, nil, zero",
				setting, res.Backend, res.Shards, res.Faults)
		}
		if res.Count != want.Count || res.Stats != want.Stats {
			t.Errorf("%s environment: Count %d Stats %+v; want %d %+v",
				setting, res.Count, res.Stats, want.Count, want.Stats)
		}
	}
}

// envOptions really does route a Run: the environment picks the backend, the
// shard count and the device fault rate, and an explicit field beats it.
func TestEnvOptionsRoutesRun(t *testing.T) {
	q, inst := buildTinyQuery(t)
	for _, v := range envVars {
		t.Setenv(v, "")
	}
	t.Setenv(cli.EnvBackend, "file")
	t.Setenv(cli.EnvShards, "3")
	t.Setenv(cli.EnvDevFaultRate, "0.5")
	res, err := Run(q, inst, envOptions(t, Options{Memory: 64, Block: 8}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "file" || res.Shards == nil || res.Shards.Shards != 3 {
		t.Fatalf("Backend %q, Shards %+v; want file across 3 servers", res.Backend, res.Shards)
	}
	if dev := res.Faults.Device; dev.InjectedReads+dev.InjectedWrites == 0 {
		t.Fatalf("env-armed device plan injected nothing: %+v", dev)
	}
	res, err = Run(q, inst, envOptions(t, Options{Memory: 64, Block: 8, Backend: "sim", Shards: 2}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "sim" || res.Shards == nil || res.Shards.Shards != 2 {
		t.Fatalf("Backend %q, Shards %+v; want explicit sim across 2 servers", res.Backend, res.Shards)
	}
}

// envReaders are the standard-library calls that read the process
// environment, by import path.
var envReaders = map[string][]string{
	"os":      {"Getenv", "LookupEnv", "Environ", "ExpandEnv"},
	"syscall": {"Getenv", "Environ"},
}

// Only the command-line front ends and internal/cli may read the environment;
// the library is configured by its arguments alone.
func TestLibraryReadsNoEnvironment(t *testing.T) {
	allowed := map[string]bool{"cmd": true, "examples": true, "perfbench": true,
		filepath.Join("internal", "cli"): true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (allowed[path] || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		names := map[string]string{} // local package name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if _, ok := envReaders[p]; !ok {
				continue
			}
			name := filepath.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || names[pkg.Name] == "" {
				return true
			}
			for _, fn := range envReaders[names[pkg.Name]] {
				if sel.Sel.Name == fn {
					t.Errorf("%s: %s.%s reads the environment; only cmd/, examples/, perfbench/ and internal/cli may",
						fset.Position(sel.Pos()), pkg.Name, fn)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
