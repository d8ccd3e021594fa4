package main

import (
	"fmt"
	"sync"

	"repro/internal/flow"
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	"repro/internal/oracle"
	"repro/internal/polybench"
)

// refOutputs holds each kernel's expected outputs at one size preset: the
// kernel's Go reference run on polybench.Init buffers. The reference is
// independent of every compiler layer.
type refOutputs map[string][][]float32

func newRefOutputs(kernels []*polybench.Kernel, sizes []polybench.Size) refOutputs {
	out := refOutputs{}
	for i, k := range kernels {
		bufs := k.NewBuffers(sizes[i])
		polybench.Init(bufs)
		k.Ref(sizes[i], bufs)
		out[k.Name] = bufs
	}
	return out
}

// checkItem is one final module to execute against its kernel's reference.
type checkItem struct {
	key    string
	lm     *llvm.Module
	kernel *polybench.Kernel
	size   polybench.Size
}

// checkModule runs the final module on polybench.Init buffers, one pointer
// per array port, and compares every element with the reference within
// oracle.DefaultMaxULP.
func checkModule(it checkItem, want [][]float32) error {
	bufs := it.kernel.NewBuffers(it.size)
	polybench.Init(bufs)
	mems := make([]*interp.Mem, len(bufs))
	for i, b := range bufs {
		mems[i] = interp.NewMem(int64(len(b)) * 4)
		for j, v := range b {
			mems[i].SetFloat32(j, v)
		}
	}
	if err := flow.Execute(it.lm, it.kernel.Name, mems); err != nil {
		return fmt.Errorf("%s: %w", it.key, err)
	}
	for ai, w := range want {
		got := mems[ai].Float32Slice()
		for i := range w {
			if !interp.ULPEqual32(got[i], w[i], oracle.DefaultMaxULP) {
				return fmt.Errorf("%s: arg %d element %d: got %v, want %v (%d ULP apart)",
					it.key, ai, i, got[i], w[i], interp.ULPDiff32(got[i], w[i]))
			}
		}
	}
	return nil
}

// checkAll checks the items on up to workers goroutines and returns one
// error (or nil) per item.
func checkAll(items []checkItem, refs refOutputs, workers int) []error {
	errs := make([]error, len(items))
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				errs[i] = checkModule(items[i], refs[items[i].kernel.Name])
			}
		}()
	}
	for i := range items {
		feed <- i
	}
	close(feed)
	wg.Wait()
	return errs
}
