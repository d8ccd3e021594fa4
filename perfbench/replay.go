package main

import (
	"fmt"
	"time"

	"repro/internal/cfront"
	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm"
	lpasses "repro/internal/llvm/passes"
	"repro/internal/mlir/lower"
	"repro/internal/mlir/passes"
	"repro/internal/oracle"
	"repro/internal/polybench"
	"repro/internal/translate"
)

// replayJob is one job the traced run replays.
type replayJob struct {
	id     int
	kernel *polybench.Kernel
	size   polybench.Size
	kind   engine.Kind
	d      flow.Directives
	tgt    hls.Target
	verify bool
}

// layerCounts accumulates the counts the replay records next to its spans.
type layerCounts struct {
	irBytes     map[string]int64 // summed output bytes by stage
	irOutputs   map[string]int   // outputs measured by stage
	cfrontBytes int64            // C source bytes the C frontend read
	checks      int              // oracle checks made
	// measuring is the time spent printing IR to size it, which the
	// tracing overhead leaves out: the untraced runs never print.
	measuring time.Duration
}

func newLayerCounts() *layerCounts {
	return &layerCounts{irBytes: map[string]int64{}, irOutputs: map[string]int{}}
}

// irStages are the stages whose output size the replay records.
var irStages = []string{"translate", "adaptor", "emit-hlscpp"}

// replay re-runs one job's flow unit by unit, in the order
// flow.PipelineUnits gives, calling each unit's public function inside its
// own span. Oracle checks (verify jobs) get spans of their own beside the
// unit they check, never inside it. A unit the replay cannot map fails the
// replay, so a new pass cannot go unmeasured. It returns the synthesis
// report and the final LLVM module, which the caller compares with the
// flow's own result.
func replay(tr *tracer, lc *layerCounts, j replayJob) (*hls.Report, *llvm.Module, error) {
	job := tr.begin("job", -1, j.id, 0)
	defer tr.end(job)
	top := j.kernel.Name
	m := j.kernel.Build(j.size)

	var h *oracle.Harness
	if j.verify {
		if err := tr.do("oracle.reference", job, j.id, 0, func() (err error) {
			h, err = oracle.New(m, top)
			return err
		}); err != nil {
			return nil, nil, err
		}
	}
	var (
		lm  *llvm.Module
		src string
		rep *hls.Report
	)
	// measure records a stage's output size. Printing the IR to size it gets
	// a span of its own, so it is not billed to the job.
	measure := func(stage string, size func() int) {
		t0 := time.Now()
		id := tr.begin("measure.ir-bytes", job, j.id, 0)
		lc.irBytes[stage] += int64(size())
		lc.irOutputs[stage]++
		tr.end(id)
		lc.measuring += time.Since(t0)
	}

	prevStage := ""
	for _, u := range flow.PipelineUnits(string(j.kind), j.d) {
		name := u.Stage + "." + u.Pass
		// The adaptor flow verifies the cleaned module and runs the HLS
		// conformance gate when it leaves the LLVM cleanup stage.
		if prevStage == "llvm-opt" && u.Stage != "llvm-opt" {
			if err := lm.Verify(); err != nil {
				return nil, nil, fmt.Errorf("%s: verify after llvm-opt: %w", name, err)
			}
			if err := tr.do("conformance", job, j.id, 0, func() error {
				if ds := hls.Conformance(lm); len(ds) > 0 {
					return fmt.Errorf("%d HLS conformance violation(s); first: %s", len(ds), ds[0].String())
				}
				return nil
			}); err != nil {
				return nil, nil, err
			}
		}
		prevStage = u.Stage

		var run func() error
		checkMLIR := func() error { return h.CheckMLIR(m) }
		checkLLVM := func() error { return h.CheckLLVM(lm) }
		check := checkLLVM
		switch u.Stage {
		case "mlir-opt":
			p, err := mlirPass(u.Pass, top, j.d)
			if err != nil {
				return nil, nil, err
			}
			// The MLIR pass manager verifies the module after every pass.
			run = func() error {
				if err := p.Run(m); err != nil {
					return err
				}
				return m.Verify()
			}
			check = checkMLIR
		case "lowering":
			switch u.Pass {
			case "affine-to-scf":
				run = func() error { return lower.AffineToSCF(m) }
			case "scf-to-cf":
				run = func() error { return lower.SCFToCF(m) }
			}
			check = checkMLIR
		case "translate":
			run = func() (err error) {
				lm, err = translate.Translate(m, translate.Options{EmitLifetimeMarkers: true})
				return err
			}
		case "adaptor":
			run = func() error {
				_, err := core.Adapt(lm, core.Options{TopFunc: top})
				return err
			}
		case "llvm-opt":
			if p, ok := llvmPass(u.Pass); ok {
				run = func() error {
					for _, f := range lm.Funcs {
						if !f.IsDecl {
							p.Run(f)
						}
					}
					return nil
				}
			}
		case "emit-hlscpp":
			run = func() (err error) {
				src, err = cgen.Emit(m)
				return err
			}
			check = nil // the flow checks the compiled C, not the text
		case "c-frontend":
			run = func() (err error) {
				lc.cfrontBytes += int64(len(src))
				lm, err = cfront.Compile(src, cfront.Options{Top: top})
				return err
			}
		case "synthesis":
			run = func() (err error) {
				rep, err = hls.Synthesize(lm, top, j.tgt)
				return err
			}
		}
		if run == nil {
			return nil, nil, fmt.Errorf("no replay for pipeline unit %s: map it in perfbench/replay.go so it is measured", u)
		}
		if err := tr.do(name, job, j.id, 0, run); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", u, err)
		}
		switch u.Stage {
		case "translate", "adaptor":
			measure(u.Stage, func() int { return len(lm.Print()) })
		case "emit-hlscpp":
			measure(u.Stage, func() int { return len(src) })
		}
		if h != nil && check != nil {
			lc.checks++
			if err := tr.do("oracle."+name, job, j.id, 0, check); err != nil {
				return nil, nil, fmt.Errorf("oracle after %s: %w", u, err)
			}
		}
	}
	if rep == nil || lm == nil {
		return nil, nil, fmt.Errorf("replay of %s ended without a synthesis report", j.kind)
	}
	return rep, lm, nil
}

// mlirPass constructs the MLIR pass a pipeline unit names, with the
// parameters the flow derives from the directives.
func mlirPass(name, top string, d flow.Directives) (passes.Pass, error) {
	var p passes.Pass
	switch name {
	case "hls-mark-top":
		p = passes.MarkTop(top)
	case "hls-pipeline-innermost":
		p = passes.PipelineInnermost(max(d.II, 1))
	case "hls-mark-unroll":
		p = passes.MarkUnroll(d.Unroll)
	case "affine-loop-unroll":
		p = passes.LoopUnroll(0, true)
	case "hls-array-partition-all":
		if d.Partition == nil {
			return nil, fmt.Errorf("unit mlir-opt/%s without a partition directive", name)
		}
		p = passes.PartitionAllArgs(*d.Partition)
	case "hls-mark-flatten":
		p = passes.MarkFlatten()
	case "hls-mark-dataflow":
		p = passes.MarkDataflow(top)
	case "canonicalize":
		p = passes.Canonicalize()
	case "cse":
		p = passes.CSE()
	default:
		return nil, fmt.Errorf("no replay for pipeline unit mlir-opt/%s: map it in perfbench/replay.go so it is measured", name)
	}
	if p.Name() != name {
		return nil, fmt.Errorf("replay maps unit mlir-opt/%s to pass %s", name, p.Name())
	}
	return p, nil
}

// llvmPass finds the LLVM cleanup pass a pipeline unit names.
func llvmPass(name string) (lpasses.Pass, bool) {
	for _, p := range []lpasses.Pass{lpasses.PassSimplifyCFG, lpasses.PassConstFold,
		lpasses.PassStrengthReduce, lpasses.PassCSE, lpasses.PassDCE, lpasses.PassMem2Reg} {
		if p.Name == name {
			return p, true
		}
	}
	return lpasses.Pass{}, false
}
