package lint

import (
	"fmt"
	"io"

	"repro/internal/bitwidth"
	"repro/internal/hls"
	"repro/internal/llvm"
)

// This file renders the bitwidth engine's full view for `hls-lint -widths`:
// per function, every named integer value with its known bits, interval,
// fused width, and demanded-narrowed hardware width, plus the aggregate
// resource delta between pricing the datapath at declared versus inferred
// widths.

// WidthArea is one cost model's LUT/FF/DSP total over a function's operators.
type WidthArea struct {
	LUT int `json:"lut"`
	FF  int `json:"ff"`
	DSP int `json:"dsp"`
}

// FuncWidths is the width report of one function.
type FuncWidths struct {
	Func     string                 `json:"func"`
	Values   []bitwidth.ValueReport `json:"values"`
	Declared WidthArea              `json:"declared"`
	Inferred WidthArea              `json:"inferred"`
	// SavedLUT/SavedFF/SavedDSP are Declared minus Inferred.
	SavedLUT int `json:"saved_lut"`
	SavedFF  int `json:"saved_ff"`
	SavedDSP int `json:"saved_dsp"`
}

// WidthSummary runs the bitwidth analysis over every defined function of m
// and prices each function's operators under both cost models.
func WidthSummary(m *llvm.Module, tgt hls.Target) []FuncWidths {
	if tgt.ClockNs == 0 {
		tgt = hls.DefaultTarget()
	}
	declared := tgt
	declared.CostModel = hls.CostDeclared
	inferred := tgt
	inferred.CostModel = hls.CostInferred

	var out []FuncWidths
	for _, f := range m.Funcs {
		if f.IsDecl || len(f.Blocks) == 0 {
			continue
		}
		a := hls.Analyze(f).Bitwidth()
		fw := FuncWidths{Func: f.Name, Values: a.Report()}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				dc, ic := declared.CostOf(in), inferred.CostAt(in, a.OpWidth(in))
				fw.Declared.LUT += dc.LUT
				fw.Declared.FF += dc.FF
				fw.Declared.DSP += dc.DSP
				fw.Inferred.LUT += ic.LUT
				fw.Inferred.FF += ic.FF
				fw.Inferred.DSP += ic.DSP
			}
		}
		fw.SavedLUT = fw.Declared.LUT - fw.Inferred.LUT
		fw.SavedFF = fw.Declared.FF - fw.Inferred.FF
		fw.SavedDSP = fw.Declared.DSP - fw.Inferred.DSP
		out = append(out, fw)
	}
	return out
}

// WriteWidthsText renders the summary for terminals.
func WriteWidthsText(w io.Writer, fws []FuncWidths) {
	for _, fw := range fws {
		fmt.Fprintf(w, "@%s\n", fw.Func)
		for _, v := range fw.Values {
			fmt.Fprintf(w, "  %%%s@%%%s: i%d %s hw=%d known=%s range=%s demanded=%s\n",
				v.Name, v.Block, v.TypeBits, v.Width, v.HWBits, v.Known, v.Interval, v.Demanded)
		}
		fmt.Fprintf(w, "  area declared lut=%d ff=%d dsp=%d | inferred lut=%d ff=%d dsp=%d | saved lut=%d ff=%d dsp=%d\n",
			fw.Declared.LUT, fw.Declared.FF, fw.Declared.DSP,
			fw.Inferred.LUT, fw.Inferred.FF, fw.Inferred.DSP,
			fw.SavedLUT, fw.SavedFF, fw.SavedDSP)
	}
}
