package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp identifies what was measured and where.
type stamp struct {
	Workload      string   `json:"workload"`
	Seed          int64    `json:"seed"`
	Trace         int      `json:"trace"`
	Commit        string   `json:"commit"`
	SourceSHA256  string   `json:"source_sha256"`
	GoVersion     string   `json:"go_version"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	NumCPU        int      `json:"num_cpu"`
	CPUModel      string   `json:"cpu_model"`
	EnvCleared    []string `json:"env_cleared"`
	InputTuples   int      `json:"input_tuples"`
	ReferenceRows int64    `json:"reference_rows"`
	Seconds       float64  `json:"seconds"`
	TraceFile     string   `json:"trace_file,omitempty"`
	// CalibrationS is the median calibration-kernel time and TimeScale the
	// factor the end-to-end timings were multiplied by (see calibRef).
	CalibrationS float64 `json:"calibration_s,omitempty"`
	TimeScale    float64 `json:"time_scale,omitempty"`
}

func newStamp(workload string, seed int64, trace int, cleared []string) stamp {
	if cleared == nil {
		cleared = []string{}
	}
	return stamp{
		Workload:     workload,
		Seed:         seed,
		Trace:        trace,
		Commit:       gitCommit("."),
		SourceSHA256: sourceDigest("."),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		EnvCleared:   cleared,
	}
}

// gitCommit resolves HEAD by reading root/.git directly, without running git;
// "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes the library's Go sources and go.mod (everything but
// this benchmark and hidden directories), naming the measured program even
// where there is no git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && path != filepath.Join(root, "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" where
// there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
