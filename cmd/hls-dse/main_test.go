package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLISmoke builds the real binary and drives the incremental and
// profiling flags end to end: a sweep against an on-disk store, then warm
// re-runs from fresh processes (one with an engine flag, -retries), must
// print identical tables, and both profile files must land non-empty.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "hls-dse")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	store := filepath.Join(tmp, "store")
	cpu := filepath.Join(tmp, "cpu.pprof")
	mem := filepath.Join(tmp, "mem.pprof")
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", bin, strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	cold := run("-kernel", "gemm", "-size", "MINI", "-incr-store", store,
		"-cpuprofile", cpu, "-memprofile", mem)
	if !strings.Contains(cold, "Pareto frontier") {
		t.Fatalf("no frontier in output:\n%s", cold)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err=%v)", p, err)
		}
	}
	entries, err := os.ReadDir(store)
	if err != nil || len(entries) == 0 {
		t.Fatalf("incremental store %s not populated (err=%v)", store, err)
	}

	// A fresh process against the same store must warm-start to the same
	// table (output is deterministic without -stats).
	warm := run("-kernel", "gemm", "-size", "MINI", "-incr-store", store)
	if warm != cold {
		t.Fatalf("warm CLI run diverges from cold\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	retried := run("-kernel", "gemm", "-size", "MINI", "-incr-store", store, "-retries", "1")
	if retried != cold {
		t.Fatalf("warm -retries run diverges from cold\ncold:\n%s\nwarm:\n%s", cold, retried)
	}
}
