package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildJoinrun compiles the command once per test binary into a temp dir.
func buildJoinrun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "joinrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeCSV drops a two-column CSV joining with itself on the shared column.
func writeCSV(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "edges.csv")
	var b strings.Builder
	for i := 0; i < 30; i++ {
		b.WriteString(strings.Join([]string{
			string(rune('a' + i%5)), string(rune('a' + i%7)),
		}, ","))
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJoinrunShardEnvPrecedence drives the built binary end to end: the
// -shards flag and $ACYCLICJOIN_SHARDS must resolve with flag-beats-env
// precedence, the shard report must land on stderr, and a junk environment
// value must fail loudly when no flag overrides it.
func TestJoinrunShardEnvPrecedence(t *testing.T) {
	bin := buildJoinrun(t)
	csv := writeCSV(t, t.TempDir())
	spec := []string{"R:src,mid=" + csv, "S:mid,dst=" + csv}

	run := func(env []string, args ...string) (string, error) {
		cmd := exec.Command(bin, append(append([]string{"-m", "64", "-b", "8", "-count"}, args...), spec...)...)
		cmd.Env = append(os.Environ(), env...)
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	out, err := run([]string{"ACYCLICJOIN_SHARDS=3"})
	if err != nil || !strings.Contains(out, "shards: 3 servers") {
		t.Fatalf("env fallback: err=%v output:\n%s", err, out)
	}
	out, err = run([]string{"ACYCLICJOIN_SHARDS=7"}, "-shards", "2")
	if err != nil || !strings.Contains(out, "shards: 2 servers") {
		t.Fatalf("flag must beat env: err=%v output:\n%s", err, out)
	}
	out, err = run([]string{"ACYCLICJOIN_SHARDS="})
	if err != nil || strings.Contains(out, "shards:") {
		t.Fatalf("unsharded run printed a shard report: err=%v output:\n%s", err, out)
	}
	out, err = run([]string{"ACYCLICJOIN_SHARDS=banana"})
	if err == nil || !strings.Contains(out, "ACYCLICJOIN_SHARDS") {
		t.Fatalf("junk env accepted: err=%v output:\n%s", err, out)
	}
	out, err = run([]string{"ACYCLICJOIN_SHARDS=banana"}, "-shards", "2")
	if err != nil || !strings.Contains(out, "shards: 2 servers") {
		t.Fatalf("flag should shadow junk env: err=%v output:\n%s", err, out)
	}
}

// TestJoinrunBackendEnv shows the library's environment independence does
// not cost the CLI its fallback: $ACYCLICJOIN_BACKEND still selects the file
// engine, -backend beats it, and a malformed value fails loudly.
func TestJoinrunBackendEnv(t *testing.T) {
	bin := buildJoinrun(t)
	csv := writeCSV(t, t.TempDir())
	spec := []string{"R:src,mid=" + csv, "S:mid,dst=" + csv}
	run := func(env string, args ...string) (string, error) {
		cmd := exec.Command(bin, append(append([]string{"-m", "64", "-b", "8", "-count"}, args...), spec...)...)
		cmd.Env = append(os.Environ(), env)
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	out, err := run("ACYCLICJOIN_BACKEND=file")
	if err != nil || !strings.Contains(out, "backend: file") {
		t.Fatalf("env fallback did not reach the file backend: err=%v output:\n%s", err, out)
	}
	out, err = run("ACYCLICJOIN_BACKEND=file", "-backend", "sim")
	if err != nil || strings.Contains(out, "backend: file") {
		t.Fatalf("flag must beat env: err=%v output:\n%s", err, out)
	}
	out, err = run("ACYCLICJOIN_BACKEND=banana")
	if err == nil || !strings.Contains(out, "ACYCLICJOIN_BACKEND") {
		t.Fatalf("junk env accepted: err=%v output:\n%s", err, out)
	}
}

// TestJoinrunShardedCountMatches checks the sharded and unsharded binaries
// agree on the result count.
func TestJoinrunShardedCountMatches(t *testing.T) {
	bin := buildJoinrun(t)
	csv := writeCSV(t, t.TempDir())
	spec := []string{"R:src,mid=" + csv, "S:mid,dst=" + csv}
	count := func(args ...string) string {
		cmd := exec.Command(bin, append(append([]string{"-m", "64", "-b", "8", "-count"}, args...), spec...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "results: ") {
				return line
			}
		}
		t.Fatalf("no results line:\n%s", out)
		return ""
	}
	want := count()
	for _, p := range []string{"2", "4"} {
		if got := count("-shards", p); got != want {
			t.Errorf("-shards %s: %q, unsharded %q", p, got, want)
		}
	}
}
