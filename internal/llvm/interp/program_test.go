package interp

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/llvm"
	"repro/internal/llvm/parser"
)

// programBase is a small loop kernel touching every construct whose
// details the program equality must see.
const programBase = `; ModuleID = 't'
; Flavor: hls

define void @k([8 x float]* "hls.interface=ap_memory" %a, [8 x i32]* "hls.interface=ap_memory" %b, i64 %n) #0 {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 8
  br i1 %c, label %body, label %exit
body:
  %p = getelementptr inbounds [8 x float], [8 x float]* %a, i64 0, i64 %i
  %x = load float, float* %p
  %r = getelementptr inbounds [8 x float], [8 x float]* %a, i64 0, i64 7
  %s = load float, float* %r
  %y = fadd float %x, 0e+00
  %z = fmul float %y, %s
  store float %z, float* %p
  %q = getelementptr inbounds [8 x i32], [8 x i32]* %b, i64 0, i64 %i
  %u = load i32, i32* %q
  store i32 9, i32* %q
  %w = load i32, i32* %q
  %v = add i32 %w, 3
  store i32 %v, i32* %q
  %next = add i64 %i, 1
  br label %loop, !llvm.loop !0
exit:
  ret void
}

attributes #0 = { "hls.array_partition.arg0"="cyclic,2,0" "hls.top"="1" }
!0 = distinct !{!0, !"llvm.loop.pipeline.enable", i1 true, !"llvm.loop.pipeline.ii", i32 1}
`

func compileText(t *testing.T, src string) *Program {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	p, err := Compile(m, "k")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// edit applies the replacements to the base text, failing the test when one
// does not match.
func edit(t *testing.T, pairs ...string) string {
	t.Helper()
	src := programBase
	for i := 0; i < len(pairs); i += 2 {
		if !strings.Contains(src, pairs[i]) {
			t.Fatalf("edit %q does not match the base", pairs[i])
		}
		src = strings.ReplaceAll(src, pairs[i], pairs[i+1])
	}
	return src
}

// TestProgramDistinguishesExecutionDetails: changing any one detail that
// execution depends on yields a program that is not Equal to the base.
func TestProgramDistinguishesExecutionDetails(t *testing.T) {
	base := compileText(t, programBase)
	for _, c := range []struct {
		name  string
		pairs []string
	}{
		{"opcode", []string{"fadd float %x", "fsub float %x"}},
		{"predicate", []string{"icmp slt", "icmp sle"}},
		{"negative zero", []string{"%x, 0e+00", "%x, -0e+00"}},
		{"integer constant", []string{"%w, 3", "%w, 4"}},
		{"load width", []string{"%u = load i32, i32* %q", "%u = load i16, i16* %q"}},
		{"store width", []string{"store i32 9, i32* %q", "store i16 9, i16* %q"}},
		{"gep index", []string{"i64 0, i64 7", "i64 0, i64 6"}},
		{"phi incoming value", []string{"[ 0, %entry ]", "[ 1, %entry ]"}},
		{"branch target", []string{"label %body, label %exit", "label %exit, label %body"}},
		{"param abi", []string{"i64 %n)", "float* %n)"}},
	} {
		p := compileText(t, edit(t, c.pairs...))
		if p.Equal(base) {
			t.Errorf("%s: changed module compiles to an equal program", c.name)
		}
		if p.Digest() == base.Digest() {
			t.Errorf("%s: changed module compiles to a program with the base's digest", c.name)
		}
	}
}

// TestProgramIgnoresNonExecutedDetails: attributes, names and loop
// metadata never reach a program.
func TestProgramIgnoresNonExecutedDetails(t *testing.T) {
	base := compileText(t, programBase)
	for _, c := range []struct {
		name  string
		pairs []string
	}{
		{"hls attributes", []string{
			` "hls.interface=ap_memory"`, "",
			`"hls.array_partition.arg0"="cyclic,2,0" `, `"hls.array_partition.arg0"="cyclic,4,0" "hls.unroll"="2" `}},
		{"value and block names", []string{"%i", "%iv", "%x", "%elem", "loop:", "header:", "%loop", "%header", "body:", "latch:", "%body", "%latch"}},
		{"loop metadata", []string{`!"llvm.loop.pipeline.ii", i32 1`, `!"llvm.loop.pipeline.ii", i32 4`}},
		{"no loop metadata", []string{", !llvm.loop !0", "", "!0 = distinct !{!0, !\"llvm.loop.pipeline.enable\", i1 true, !\"llvm.loop.pipeline.ii\", i32 1}\n", ""}},
	} {
		p := compileText(t, edit(t, c.pairs...))
		if !p.Equal(base) {
			t.Errorf("%s: module compiles to a different program", c.name)
		}
		if p.Digest() != base.Digest() {
			t.Errorf("%s: module compiles to a program with another digest", c.name)
		}
	}
}

// cloneProgram copies p deeply enough that editing one field of the copy
// leaves p as it is.
func cloneProgram(p *Program) *Program {
	q := &Program{params: slices.Clone(p.params)}
	for _, f := range p.funcs {
		f.code, f.consts = slices.Clone(f.code), slices.Clone(f.consts)
		f.steps, f.args = slices.Clone(f.steps), slices.Clone(f.args)
		q.funcs = append(q.funcs, f)
	}
	return q
}

// TestDigestSeesEveryIdentityField: changing any one field Equal compares
// — an opcode, a slot, an immediate, a constant's bit pattern (±0.0
// included), a GEP stride, a parameter class, a count — changes the
// digest; the diagnostics do not.
func TestDigestSeesEveryIdentityField(t *testing.T) {
	base := compileText(t, programBase)
	f := &base.funcs[0]
	zero := slices.IndexFunc(f.consts, func(c constSlot) bool { return c.f == 0 && c.i == 0 })
	if zero < 0 || len(f.steps) == 0 {
		t.Fatal("base program lacks a +0.0 constant or a GEP step")
	}
	gep := slices.IndexFunc(f.code, func(in inst) bool { return in.op == opGEP })
	for _, c := range []struct {
		name string
		edit func(f *function, p *Program)
	}{
		{"opcode", func(f *function, _ *Program) { f.code[gep].op = opLoad }},
		{"sub", func(f *function, _ *Program) { f.code[gep].sub++ }},
		{"dst slot", func(f *function, _ *Program) { f.code[gep].dst++ }},
		{"operand slot a", func(f *function, _ *Program) { f.code[gep].a++ }},
		{"operand b", func(f *function, _ *Program) { f.code[gep].b++ }},
		{"operand c", func(f *function, _ *Program) { f.code[gep].c++ }},
		{"imm", func(f *function, _ *Program) { f.code[gep].imm++ }},
		{"code length", func(f *function, _ *Program) { f.code = append(f.code, inst{op: opNop}) }},
		{"negative zero", func(f *function, _ *Program) { f.consts[zero].f = math.Float64bits(math.Copysign(0, -1)) }},
		{"float constant bits", func(f *function, _ *Program) { f.consts[zero].f = 1 }},
		{"integer constant", func(f *function, _ *Program) { f.consts[zero].i = 1 }},
		{"constant slot", func(f *function, _ *Program) { f.consts[zero].slot++ }},
		{"gep stride", func(f *function, _ *Program) { f.steps[0].stride++ }},
		{"gep step slot", func(f *function, _ *Program) { f.steps[0].slot++ }},
		{"call args", func(f *function, _ *Program) { f.args = append(f.args, 0) }},
		{"nparams", func(f *function, _ *Program) { f.nparams++ }},
		{"nslots", func(f *function, _ *Program) { f.nslots++ }},
		{"ntracked", func(f *function, _ *Program) { f.ntracked++ }},
		{"parameter class", func(_ *function, p *Program) { p.params[2] = ParamFloat }},
		{"callee", func(_ *function, p *Program) { p.funcs = append(p.funcs, function{}) }},
	} {
		p := cloneProgram(base)
		c.edit(&p.funcs[0], p)
		if p.Equal(base) {
			t.Errorf("%s: the edited program is still Equal to the base", c.name)
		}
		if p.Digest() == base.Digest() {
			t.Errorf("%s: the edit left the digest unchanged", c.name)
		}
	}
	p := cloneProgram(base)
	p.funcs[0].name, p.funcs[0].errs = "renamed", append(p.funcs[0].errs, errors.New("unreachable"))
	if p.Digest() != base.Digest() {
		t.Error("diagnostics changed the digest")
	}
}

// TestUndefinedValueTrapsOnlyWhenReached: a read its definition does not
// dominate traps exactly when the definition has not run, as a select
// reads only the arm it picks.
func TestUndefinedValueTrapsOnlyWhenReached(t *testing.T) {
	m, err := parser.Parse(`; ModuleID = 't'
; Flavor: modern

define i64 @k(i64 %x) {
entry:
  %c = icmp sgt i64 %x, 0
  br i1 %c, label %then, label %join
then:
  %v = add i64 %x, 10
  br label %join
join:
  %s = select i1 %c, i64 %v, i64 7
  %r = add i64 %v, %s
  ret i64 %r
}
`)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := NewMachine(m).Run(context.Background(), "k", IntArg(5))
	if err != nil || got != 30 {
		t.Fatalf("k(5) = %d, %v; want 30", got, err)
	}
	_, _, err = NewMachine(m).Run(context.Background(), "k", IntArg(-1))
	if tr, ok := AsTrap(err); !ok || tr.Kind != TrapUndef || !strings.Contains(err.Error(), "%r") {
		t.Fatalf("k(-1) = %v, want an undefined-value trap at %%r (the select must not trap)", err)
	}
}

// pointerCompare is a function comparing pointers into its two arguments.
const pointerCompare = `; ModuleID = 't'
; Flavor: modern

define i64 @f(ptr %a, ptr %b) {
entry:
  %q = getelementptr float, ptr %a, i64 1
  %c = icmp PRED ptr LHS, RHS
  %r = zext i1 %c to i64
  ret i64 %r
}
`

// TestPointerICmp compares pointers as (allocation, offset): eq and ne see
// both, ordered predicates order offsets within one allocation, and an
// ordered comparison across allocations is an ordinary error, not a trap.
func TestPointerICmp(t *testing.T) {
	run := func(pred, lhs, rhs string, a, b Arg) (int64, error) {
		t.Helper()
		src := strings.NewReplacer("PRED", pred, "LHS", lhs, "RHS", rhs).Replace(pointerCompare)
		m, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		got, _, err := NewMachine(m).Run(context.Background(), "f", a, b)
		return got, err
	}
	one, other := NewMem(16), NewMem(16)
	for _, c := range []struct {
		pred, lhs, rhs string
		a, b           Arg
		want           int64
	}{
		{"eq", "%a", "%q", PtrArg(one, 0), PtrArg(one, 4), 0},
		{"ne", "%a", "%q", PtrArg(one, 0), PtrArg(one, 4), 1},
		{"eq", "%b", "%q", PtrArg(one, 0), PtrArg(one, 4), 1},
		{"eq", "%a", "%b", PtrArg(one, 0), PtrArg(one, 0), 1},
		{"eq", "%a", "%b", PtrArg(one, 0), PtrArg(other, 0), 0},
		{"ne", "%a", "%b", PtrArg(one, 4), PtrArg(other, 4), 1},
		{"ult", "%a", "%q", PtrArg(one, 0), PtrArg(one, 4), 1},
		{"slt", "%q", "%a", PtrArg(one, 0), PtrArg(one, 4), 0},
		{"uge", "%b", "%q", PtrArg(one, 0), PtrArg(one, 4), 1},
		{"ugt", "%b", "%a", PtrArg(one, 0), PtrArg(one, 8), 1},
	} {
		got, err := run(c.pred, c.lhs, c.rhs, c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("icmp %s ptr %s, %s = %d, %v; want %d", c.pred, c.lhs, c.rhs, got, err, c.want)
		}
	}
	_, err := run("ult", "%a", "%b", PtrArg(one, 0), PtrArg(other, 0))
	if err == nil || !strings.Contains(err.Error(), "%c") {
		t.Fatalf("ordered compare across allocations = %v, want an error naming %%c", err)
	}
	if _, ok := AsTrap(err); ok {
		t.Errorf("ordered compare across allocations is an oracle limitation, got the trap %v", err)
	}
}

// diagnosticsBase has a tracked value, a located error and an unknown
// callee: every diagnostic table of a program is non-empty.
const diagnosticsBase = `; ModuleID = 't'
; Flavor: modern

declare void @mystery()

define i64 @k(i64 %x) {
entry:
  %c = icmp sgt i64 %x, 0
  br i1 %c, label %then, label %join
then:
  %v = add i64 %x, 10
  br label %join
join:
  call void @mystery()
  %s = select i1 %c, i64 %v, i64 7
  %r = sdiv i64 %v, %s
  ret i64 %r
}
`

// TestRecycledDiagnostics: a program compiled into a released program's
// storage carries its own diagnostics — undefined-value names, errors and
// located sites — never the released program's.
func TestRecycledDiagnostics(t *testing.T) {
	parse := func(src string) *llvm.Module {
		t.Helper()
		m, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		return m
	}
	a := parse(diagnosticsBase)
	b := parse(strings.NewReplacer("%v", "%w", "mystery", "enigma", "%r", "%q").Replace(diagnosticsBase))
	for _, m := range [][2]*llvm.Module{{a, b}, {b, a}} {
		prev, err := Compile(m[0], "k")
		if err != nil {
			t.Fatal(err)
		}
		prev.Release()
		got, err := Compile(m[1], "k")
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := CompileFresh(m[1], "k")
		if err != nil {
			t.Fatal(err)
		}
		if d := Diff(got, fresh); d != "" {
			t.Errorf("recycled program differs from a fresh compile: %s", d)
		}
	}
}
