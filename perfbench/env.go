package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envInfo records where and on what a result was measured.
type envInfo struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Traced       bool           `json:"traced"`
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	GoVersion    string         `json:"go_version"`
	GOOS         string         `json:"goos"`
	GOARCH       string         `json:"goarch"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	NumCPU       int            `json:"num_cpu"`
	CPUModel     string         `json:"cpu_model"`
	Caches       []string       `json:"caches"`
	Config       map[string]any `json:"config"`
}

// benchEnv gathers the environment. The checkout the benchmark runs in
// need not be a git repository, so the commit may be "unknown"; the
// source hash identifies the code either way.
func benchEnv(r *run) envInfo {
	e := envInfo{
		Workload:   r.workload,
		Seed:       r.seed,
		Seconds:    r.seconds.Seconds(),
		Traced:     r.traced,
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Config:     r.config,
	}
	// Only a checkout that is itself a repository names its commit; git
	// would otherwise search the parent directories.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	e.SourceSHA256 = sourceHash()
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					e.CPUModel = strings.TrimSpace(v)
					break
				}
			}
		}
	}
	// Per-core cache hierarchy of CPU 0, e.g. "L2 Unified 2048K".
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(f string) string {
			b, err := os.ReadFile(filepath.Join(d, f))
			if err != nil {
				return "?"
			}
			return strings.TrimSpace(string(b))
		}
		e.Caches = append(e.Caches, "L"+read("level")+" "+read("type")+" "+read("size"))
	}
	return e
}

// sourceHash digests every Go source and go.mod under the working
// directory (the checkout root), skipping hidden directories such as
// the build output.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
