package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/castore"
	"repro/internal/dse"
	"repro/internal/engine"
)

// TestHelperServeDaemon is not a test: it is the subprocess body for the
// chaos test — a real daemon over the given store directory, killed with
// SIGKILL by the parent. It writes its listen address to the given file
// once serving.
func TestHelperServeDaemon(t *testing.T) {
	dir := os.Getenv("SERVE_CHAOS_DIR")
	addrFile := os.Getenv("SERVE_CHAOS_ADDRFILE")
	if dir == "" || addrFile == "" {
		t.Skip("subprocess helper; driven by TestChaosKillMidSweepRestart")
	}
	s, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatal(err)
	}
	// Serve until the parent kills us; the error return is the kill.
	_ = http.Serve(ln, s.Handler())
}

// startChaosDaemon launches the helper subprocess and waits for its
// address.
func startChaosDaemon(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperServeDaemon$")
	cmd.Env = append(os.Environ(),
		"SERVE_CHAOS_DIR="+dir, "SERVE_CHAOS_ADDRFILE="+addrFile)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return cmd, "http://" + string(b)
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("daemon never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosKillMidSweepRestart is the crash-safety proof: a daemon is
// SIGKILLed in the middle of a sweep — no drain, no journal close, no
// store flush beyond what already happened — and a fresh daemon over the
// same store directory completes the sweep with every already-evaluated
// point served from the persistent store (zero re-evaluations, proven by
// the engine's disk-hit counter) and a Pareto frontier byte-identical to
// an uninterrupted embedded run.
func TestChaosKillMidSweepRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons")
	}
	dir := t.TempDir()
	cmd, base := startChaosDaemon(t, dir)

	// Start a sweep and kill the daemon after a few points stream back.
	body, _ := json.Marshal(SweepRequest{Kernel: "gemm", Size: "MINI", Client: "chaos"})
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	seen := 0
	for sc.Scan() && seen < 3 {
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err == nil && ev.Type == "point" {
			seen++
		}
	}
	if seen < 3 {
		cmd.Process.Kill()
		t.Fatalf("sweep streamed only %d points before ending", seen)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup of any kind
		t.Fatal(err)
	}
	cmd.Wait()
	resp.Body.Close()

	// The store holds whatever completed before the kill — at least the
	// streamed points (a write-ahead: results persist before they stream).
	store := openResultStoreDir(t, dir)
	preserved := store.Len()
	if preserved < seen {
		t.Fatalf("store has %d records after kill, streamed %d", preserved, seen)
	}

	// Restart over the same directory and run the sweep to completion.
	cmd2, base2 := startChaosDaemon(t, dir)
	defer func() { cmd2.Process.Kill(); cmd2.Wait() }()
	resp, err = http.Post(base2+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var done *SweepEvent
	fromStore := 0
	sc = bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "point":
			if ev.Point.Source == "store" {
				fromStore++
			}
		case "error":
			t.Errorf("post-restart sweep error on %s: %s", ev.Label, ev.Err)
		case "done":
			e := ev
			done = &e
		}
	}
	if done == nil {
		t.Fatal("post-restart sweep ended without done event")
	}
	// Zero re-evaluations of store-resident points: every record that
	// survived the kill is served from the store.
	if fromStore != preserved {
		t.Fatalf("store hits = %d, store records preserved = %d — restarted daemon re-evaluated persisted work", fromStore, preserved)
	}

	// /stats agrees: the engine's own disk-hit counter proves the reuse.
	var st StatsResponse
	sresp, err := http.Get(base2 + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Engine.DiskHits != int64(preserved) {
		t.Fatalf("engine DiskHits = %d, want %d", st.Engine.DiskHits, preserved)
	}

	// Byte-identical recovery: the frontier matches an uninterrupted
	// embedded exploration of the same input exactly.
	k := kernelFor(t, "gemm", "MINI")
	ref, err := dse.Explore(engine.Input{Build: k.build, Top: k.top}, k.tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(done.Frontier) != len(ref.Pareto) {
		t.Fatalf("frontier sizes: restarted %d, reference %d", len(done.Frontier), len(ref.Pareto))
	}
	for i, p := range ref.Pareto {
		sp := done.Frontier[i]
		if sp.Label != p.Label || sp.Latency != p.Latency() || sp.Area != p.Area {
			t.Fatalf("frontier[%d] diverges after kill/restart: {%s %d %.0f} vs {%s %d %.0f}",
				i, sp.Label, sp.Latency, sp.Area, p.Label, p.Latency(), p.Area)
		}
	}
}

// openResultStoreDir opens the results castore under a server store dir.
func openResultStoreDir(t *testing.T, dir string) *castore.Store {
	t.Helper()
	s, err := castore.Open(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}
