package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// runRecord identifies the code and machine behind a run's numbers.
type runRecord struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Trace       int    `json:"trace"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GCPercent   int    `json:"gc_percent"`
	CPUModel    string `json:"cpu_model"`
	NumCPU      int    `json:"nproc"`
	GitDescribe string `json:"git_describe"`
	// SourceSHA256 hashes the simulator's Go sources (go.mod and every .go
	// file under internal/), naming the code where git is unavailable.
	SourceSHA256 string `json:"source_sha256"`
}

func newRunRecord(workload string, seed uint64, trace int) runRecord {
	gc := debug.SetGCPercent(-1)
	debug.SetGCPercent(gc)
	return runRecord{
		Workload: workload, Seed: seed, Trace: trace,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GCPercent:    gc,
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GitDescribe:  gitDescribe(),
		SourceSHA256: sourceDigest("."),
	}
}

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

// gitDescribe asks git about the working directory only: the ceiling stops
// it from reporting an enclosing repository when the tree is an export.
func gitDescribe() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--tags")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

func sourceDigest(root string) string {
	h := sha256.New()
	add := func(path string) {
		f, err := os.Open(path)
		if err != nil {
			return
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		io.Copy(h, f)
	}
	add(filepath.Join(root, "go.mod"))
	// An unreadable file or directory only changes the digest, which then
	// names no commit; the run itself is unaffected.
	_ = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			add(path)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
