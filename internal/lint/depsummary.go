package lint

import (
	"fmt"
	"io"

	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// This file renders the dependence engine's full view for `hls-lint -deps`:
// per top-level loop nest, every load/store pair the points-to analysis
// cannot separate, with the tests applied and the resulting distance or
// direction vectors.

// DepEdge is one dependence edge of the summary, in printable form.
type DepEdge struct {
	Src  string   `json:"src"`
	Dst  string   `json:"dst"`
	Kind string   `json:"kind"`
	Base string   `json:"base,omitempty"`
	Res  string   `json:"result"`
	Vecs []string `json:"vectors,omitempty"`
	// Tests lists the subscript classes and tests that decided the pair
	// (ziv, strong-siv, weak-siv, miv, gcd, banerjee) or why it stayed
	// unresolved (non-affine, distinct-bases, ...).
	Tests []string `json:"tests,omitempty"`
}

// DepNest is the dependence summary of one top-level loop nest.
type DepNest struct {
	// Root is the nest's outermost header; Loops lists the nest's headers
	// outermost-first, the level order of every vector.
	Root  string    `json:"root"`
	Loops []string  `json:"loops"`
	Edges []DepEdge `json:"edges"`
}

// FuncDeps is the dependence summary of one function.
type FuncDeps struct {
	Func  string    `json:"func"`
	Nests []DepNest `json:"nests"`
}

// DependenceSummary runs the dependence engine of every defined function's
// analysis set over m and collects the per-nest edges.
func DependenceSummary(m *llvm.Module) []FuncDeps {
	var out []FuncDeps
	for _, f := range m.Funcs {
		if f.IsDecl || len(f.Blocks) == 0 {
			continue
		}
		a := hls.Analyze(f)
		fd := FuncDeps{Func: f.Name}
		for _, l := range a.Loops.Loops {
			if l.Parent != nil {
				continue // one summary per top-level nest
			}
			nest := DepNest{Root: l.Header.Name}
			for _, nl := range a.Loops.Loops {
				if nl == l || nestedIn(nl, l) {
					nest.Loops = append(nest.Loops, nl.Header.Name)
				}
			}
			for _, ed := range a.DepEngine().Edges(l) {
				de := DepEdge{
					Src:   instrRef(ed.Src),
					Dst:   instrRef(ed.Dst),
					Kind:  ed.Kind,
					Res:   ed.Res.String(),
					Tests: ed.Tests,
				}
				if ed.Base != nil {
					de.Base = ed.Base.Ident()
				}
				for _, v := range ed.Vectors {
					de.Vecs = append(de.Vecs, v.String())
				}
				nest.Edges = append(nest.Edges, de)
			}
			fd.Nests = append(fd.Nests, nest)
		}
		if len(fd.Nests) > 0 {
			out = append(out, fd)
		}
	}
	return out
}

func nestedIn(l, root *analysis.Loop) bool {
	for p := l.Parent; p != nil; p = p.Parent {
		if p == root {
			return true
		}
	}
	return false
}

func instrRef(in *llvm.Instr) string {
	label := instrLabel(in)
	if in.Parent != nil {
		return fmt.Sprintf("%%%s@%%%s", label, in.Parent.Name)
	}
	return "%" + label
}

// WriteDependenceText renders the summary for terminals.
func WriteDependenceText(w io.Writer, fds []FuncDeps) {
	for _, fd := range fds {
		fmt.Fprintf(w, "@%s\n", fd.Func)
		for _, nest := range fd.Nests {
			fmt.Fprintf(w, "  nest %%%s (levels:", nest.Root)
			for _, l := range nest.Loops {
				fmt.Fprintf(w, " %%%s", l)
			}
			fmt.Fprintln(w, ")")
			if len(nest.Edges) == 0 {
				fmt.Fprintln(w, "    no may-alias access pairs")
				continue
			}
			for _, ed := range nest.Edges {
				fmt.Fprintf(w, "    %-6s %s -> %s: %s", ed.Kind, ed.Src, ed.Dst, ed.Res)
				if ed.Base != "" {
					fmt.Fprintf(w, " base=%s", ed.Base)
				}
				for _, v := range ed.Vecs {
					fmt.Fprintf(w, " %s", v)
				}
				if len(ed.Tests) > 0 {
					fmt.Fprint(w, " [")
					for i, t := range ed.Tests {
						if i > 0 {
							fmt.Fprint(w, ", ")
						}
						fmt.Fprint(w, t)
					}
					fmt.Fprint(w, "]")
				}
				fmt.Fprintln(w)
			}
		}
	}
}
