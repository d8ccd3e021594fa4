package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/mlir"
)

// TestBatchReleasesFinishedModules runs a batch on one worker whose last
// job's Build collects garbage and requires, through runtime.SetFinalizer,
// that every earlier job's module was collected: no result references
// MLIR, so the fresh-module check must not keep the modules alive.
func TestBatchReleasesFinishedModules(t *testing.T) {
	const n = 4
	var collected atomic.Int32
	seen := int32(-1)
	jobs := make([]Job, n)
	for i := range jobs {
		job := kernelJob(t, "gemm", flow.Directives{})
		job.Label = fmt.Sprintf("gemm-%d", i)
		build := job.Build
		if i < n-1 {
			job.Build = func() *mlir.Module {
				m := build()
				runtime.SetFinalizer(m, func(*mlir.Module) { collected.Add(1) })
				return m
			}
		} else {
			job.Build = func() *mlir.Module {
				// Finalizers run on their own goroutine after
				// the collection that finds their object unreachable.
				for deadline := time.Now().Add(5 * time.Second); collected.Load() < n-1 &&
					time.Now().Before(deadline); {
					runtime.GC()
					time.Sleep(time.Millisecond)
				}
				seen = collected.Load()
				return build()
			}
		}
		jobs[i] = job
	}
	rs, err := New(Options{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
	}
	if seen != n-1 {
		t.Errorf("%d of %d finished jobs' modules were collected before the last job built its own", seen, n-1)
	}
}
