package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// facts records the machine and input facts every result is read against.
type facts struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Operations int    `json:"operations"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the VCS revision stamped into the binary, or "unknown" when
	// the sources were built outside a repository; SourceDigest identifies
	// the measured sources either way.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func provenance(cfg config, root string, ops int) facts {
	f := facts{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    int(cfg.seconds.Seconds()),
		Trace:      cfg.trace,
		Operations: ops,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    cfg.workers,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				f.Commit = s.Value
			}
		}
	}
	f.SourceDigest = sourceDigest(root)
	return f
}

// sourceDigest hashes every go.mod and non-test .go file under root (the
// build output directory excluded), in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		name := d.Name()
		if !d.IsDir() && (name == "go.mod" || strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")) {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeProvenance stores the facts next to the result they describe.
func writeProvenance(cfg config, f facts, res *result) error {
	data, err := json.MarshalIndent(struct {
		Facts  facts   `json:"facts"`
		Result *result `json:"result"`
	}{f, res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(cfg.out, name), append(data, '\n'), 0o644)
}
