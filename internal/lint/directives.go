package lint

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/diag"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// checkDirectives lints the HLS directives attached to the LLVM module:
// loop metadata whose request the scheduler cannot honor (pipeline II below
// the dependence-implied RecMII, unroll factors that do not divide the trip
// count), directives the scheduler silently ignores (pipeline on a
// non-innermost loop, II without pipeline, conflicting pipeline+unroll,
// metadata on an ambiguous multi-latch loop), and array-partition specs
// inconsistent with the arrays' static shapes.
func checkDirectives(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	var bounds []hls.LoopBound
	for _, l := range ctx.Loops.Loops {
		out = append(out, lintLoopMD(ctx, &bounds, l)...)
	}
	out = append(out, lintPartitions(ctx)...)
	return out
}

// lintLoopMD lints loop l's directives; bounds holds the function's loop
// bounds once a pipelined loop needs its RecMII.
func lintLoopMD(ctx *FuncContext, bounds *[]hls.LoopBound, l *analysis.Loop) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "hls-directives"
	if len(l.Latches) > 1 {
		for _, latch := range l.Latches {
			if t := latch.Terminator(); t != nil && t.Loop != nil {
				out = append(out, ctx.diag(diag.SevWarning, check, l.Header, nil,
					fmt.Sprintf("loop %%%s has %d back edges; latch metadata is ambiguous and dropped",
						l.Header.Name, len(l.Latches)),
					"restructure the loop to a single latch before attaching directives"))
				break
			}
		}
	}
	md := l.MD
	if md == nil {
		return out
	}
	if md.Pipeline && !l.IsInnermost() {
		out = append(out, ctx.diag(diag.SevWarning, check, l.Header, nil,
			fmt.Sprintf("hls.pipeline on non-innermost loop %%%s is ignored by the scheduler", l.Header.Name),
			"pipeline the innermost loop, or flatten the nest first"))
	}
	if md.II > 0 && !md.Pipeline {
		out = append(out, ctx.diag(diag.SevWarning, check, l.Header, nil,
			fmt.Sprintf("hls.ii=%d on loop %%%s without hls.pipeline has no effect", md.II, l.Header.Name), ""))
	}
	if md.Pipeline && md.Unroll != 0 {
		out = append(out, ctx.diag(diag.SevWarning, check, l.Header, nil,
			fmt.Sprintf("loop %%%s requests both pipeline and unroll; the scheduler pipelines and ignores the unroll", l.Header.Name),
			"drop one of the two directives"))
	}
	if md.Pipeline && l.IsInnermost() {
		rec := ctx.recMII(bounds, l)
		want := md.II
		if want <= 0 {
			want = 1
		}
		if want < rec {
			out = append(out, ctx.diag(diag.SevWarning, check, l.Header, nil,
				fmt.Sprintf("requested II=%d is below the dependence-implied RecMII=%d; achieved II will be %d",
					want, rec, rec),
				fmt.Sprintf("request II=%d, or break the recurrence feeding the store", rec)))
		}
	}
	if md.Unroll > 1 && !md.Pipeline {
		if trip, ok := analysis.TripCount(l); ok && trip > 0 {
			if int64(md.Unroll) > trip {
				out = append(out, ctx.diag(diag.SevWarning, check, l.Header, nil,
					fmt.Sprintf("unroll factor %d exceeds the loop trip count %d", md.Unroll, trip),
					fmt.Sprintf("use full unrolling or a factor of at most %d", trip)))
			} else if trip%int64(md.Unroll) != 0 {
				out = append(out, ctx.diag(diag.SevWarning, check, l.Header, nil,
					fmt.Sprintf("unroll factor %d does not divide the trip count %d; a remainder loop is required",
						md.Unroll, trip),
					"pick a factor dividing the trip count to avoid the epilogue"))
			}
		}
	}
	if md.Flatten && l.IsInnermost() {
		out = append(out, ctx.diag(diag.SevWarning, check, l.Header, nil,
			fmt.Sprintf("hls.flatten on innermost loop %%%s has nothing to flatten", l.Header.Name), ""))
	}
	return out
}

// lintPartitions validates array-partition attributes against the arrays'
// static shapes, as recorded by the adaptor (hls.array.argN) or visible in
// the parameter type.
func lintPartitions(ctx *FuncContext) diag.Diagnostics {
	var out diag.Diagnostics
	const check = "hls-directives"
	for i := range ctx.F.Params {
		p, ok := ctx.F.Partition(i)
		if !ok {
			continue
		}
		kind, factor, dim := p.Kind, p.Factor, p.Dim
		name := fmt.Sprintf("arg%d", i)
		switch kind {
		case "complete":
			continue // registers; factor/dim are irrelevant
		case "cyclic", "block":
		default:
			out = append(out, ctx.diag(diag.SevWarning, check, nil, nil,
				fmt.Sprintf("array partition on %s has unknown kind %q", name, kind),
				"use cyclic, block, or complete"))
			continue
		}
		if factor < 2 {
			out = append(out, ctx.diag(diag.SevWarning, check, nil, nil,
				fmt.Sprintf("array partition on %s has factor %d, which does not partition anything", name, factor), ""))
			continue
		}
		dims := arrayShape(ctx.F, i)
		if len(dims) == 0 {
			continue // shape unknown: nothing to validate against
		}
		if dim < 0 || dim >= len(dims) {
			out = append(out, ctx.diag(diag.SevWarning, check, nil, nil,
				fmt.Sprintf("array partition on %s names dimension %d but the array has %d dimension(s)",
					name, dim, len(dims)), ""))
			continue
		}
		size := dims[dim]
		if int64(factor) > size {
			out = append(out, ctx.diag(diag.SevWarning, check, nil, nil,
				fmt.Sprintf("array partition factor %d on %s exceeds dimension %d of size %d",
					factor, name, dim, size),
				"use complete partitioning instead"))
		} else if size%int64(factor) != 0 {
			out = append(out, ctx.diag(diag.SevWarning, check, nil, nil,
				fmt.Sprintf("array partition factor %d on %s does not divide dimension %d of size %d; banks will be uneven",
					factor, name, dim, size),
				fmt.Sprintf("pick a factor dividing %d", size)))
		}
	}
	return out
}

// arrayShape returns the static dimensions of parameter i: the adaptor's
// hls.array.argN attribute ("NxM") when present, else the dimensions read
// off a pointer-to-array parameter type.
func arrayShape(f *llvm.Function, i int) []int64 {
	if s := f.Attrs[fmt.Sprintf("hls.array.arg%d", i)]; s != "" {
		var dims []int64
		for _, part := range strings.Split(s, "x") {
			n, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				return nil
			}
			dims = append(dims, n)
		}
		return dims
	}
	ty := f.Params[i].Ty
	if !ty.IsPtr() {
		return nil
	}
	var dims []int64
	for t := ty.Elem; t != nil && t.IsArray(); t = t.Elem {
		dims = append(dims, t.N)
	}
	return dims
}
