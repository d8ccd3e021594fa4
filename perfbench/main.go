// Command perfbench is the repository benchmark. It drives the compiler's
// layers only through their public entry points (engine, flow, serve,
// oracle and the per-unit pass functions), runs one named workload for a
// fixed time, checks every output against an independent reference, and
// prints one JSON result line as the last line of standard output.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload compile-pairs --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run, and the spans
// are written as Chrome trace-event JSON under .bench_build/perfbench-out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// workers bounds engine workers and serve clients: never more than the
	// machine's processors.
	workers int
	// out is the directory for span files and provenance records.
	out string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"compile-pairs":  func(c config) (*result, error) { return runPairs(c, false) },
	"verified-pairs": func(c config) (*result, error) { return runPairs(c, true) },
}

func main() {
	workload := flag.String("workload", "", "workload: compile-pairs or verified-pairs")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	root := flag.String("root", ".", "repository root; outputs go under <root>/.bench_build")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workers:  min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		out:      filepath.Join(*root, ".bench_build", "perfbench-out"),
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	prov := provenance(cfg, *root, res.Attempted)
	if err := writeProvenance(cfg, prov, res); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(prov)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("provenance %s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
