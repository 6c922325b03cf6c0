package mcc

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// Compiled is the result of compiling an MC program for one target
// configuration.
type Compiled struct {
	Spec *isa.Spec
	// Asm is the generated assembly source (runtime + program + data).
	Asm string
	// Image is the linked binary.
	Image *prog.Image
	// Spills counts spilled live ranges across all functions (a register
	// pressure diagnostic for the paper's Section 3.3.1 experiments).
	Spills int
}

// Compile parses, optimizes and compiles src for the given target
// configuration and assembles the result into a linked image.
func Compile(file, src string, spec *isa.Spec) (*Compiled, error) {
	span := telemetry.StartSpan("compile",
		telemetry.String("file", file), telemetry.String("config", spec.Name))
	source, spills, err := GenAsm(file, src, spec)
	span.End()
	if err != nil {
		return nil, err
	}
	reg := telemetry.Default()
	reg.Counter("mcc.compiles").Inc()
	reg.Counter("mcc.spills").Add(int64(spills))
	img, err := asm.Assemble(file+".s", source, spec)
	if err != nil {
		return nil, fmt.Errorf("mcc: internal assembly error: %w\n--- generated source ---\n%s", err, numberLines(source))
	}
	// Mandatory post-codegen gate: no image that fails static
	// verification (encoding ranges, CFG integrity, def-before-use,
	// stack discipline) ever reaches the simulator.
	if rep := verify.Image(img, spec); !rep.OK() {
		return nil, fmt.Errorf("mcc: %s (%s): %w", file, spec.Name, rep.Err())
	}
	return &Compiled{Spec: spec, Asm: source, Image: img, Spills: spills}, nil
}

// timedPass runs one compiler pass, feeding its wall-clock time into the
// per-pass duration histogram "mcc.pass.<name>.us".
func timedPass(name string, f func()) {
	start := time.Now() //detlint:ignore timenow telemetry-only timing, never feeds output bytes
	f()
	telemetry.Default().Histogram("mcc.pass." + name + ".us").Observe(time.Since(start).Microseconds()) //detlint:ignore timenow telemetry-only timing, never feeds output bytes
}

// instrCount is the optimizer's shrinkage measure: IR instructions
// across all blocks.
func instrCount(f *IRFunc) int64 {
	var n int64
	for _, b := range f.Blocks {
		n += int64(len(b.Ins))
	}
	return n
}

func numberLines(s string) string {
	lines := strings.Split(s, "\n")
	var b strings.Builder
	for i, l := range lines {
		fmt.Fprintf(&b, "%4d\t%s\n", i+1, l)
	}
	return b.String()
}

// GenAsm runs the full compiler pipeline and returns assembly text.
func GenAsm(file, src string, spec *isa.Spec) (string, int, error) {
	var p *Program
	var err error
	timedPass("parse", func() { p, err = Parse(file, src) })
	if err != nil {
		return "", 0, err
	}
	if !hasMain(p) {
		return "", 0, fmt.Errorf("%s: no function main", file)
	}

	var irFuncs []*IRFunc
	timedPass("irgen", func() { irFuncs, err = GenIR(p) })
	if err != nil {
		return "", 0, err
	}

	data := newDataLayout()
	if err := layoutGlobals(data, p); err != nil {
		return "", 0, err
	}
	// Floating-point constants must be registered before bss placement so
	// gp offsets are final for legalization.
	for _, f := range irFuncs {
		for _, b := range f.Blocks {
			for i := range b.Ins {
				in := &b.Ins[i]
				if in.Op == IConst && in.Ty != TI32 {
					data.fpConst(fbits(in.FImm, in.Ty == TF64), in.Ty == TF64)
				}
			}
		}
	}
	data.finalizeBSS()

	var out strings.Builder
	out.WriteString(RuntimeSource(spec))
	spills := 0
	for _, f := range irFuncs {
		var removed int64
		optimize := func() {
			before := instrCount(f)
			timedPass("optimize", func() { Optimize(f, spec) })
			removed += before - instrCount(f)
		}
		optimize()
		timedPass("legalize", func() {
			Legalize(f, spec, data.offsets)
			LowerCalls(f)
			LowerCallTargets(f, spec)
		})
		optimize()
		timedPass("hoist", func() { Hoist(f, spec, data.offsets) })
		optimize()
		telemetry.Default().Counter("mcc.opt.removed_instrs").Add(removed)
		var alloc *Alloc
		timedPass("regalloc", func() { alloc = Allocate(f, spec) })
		spills += alloc.Spills
		var lines []line
		timedPass("emit", func() { lines, err = genFuncAsm(f, spec, alloc, data) })
		if err != nil {
			return "", 0, err
		}
		for _, l := range lines {
			out.WriteString(l.text)
			out.WriteByte('\n')
		}
	}

	if len(data.entries) > 0 {
		out.WriteString("\t.data\n")
		for _, e := range data.entries {
			out.WriteString(e)
			out.WriteByte('\n')
		}
	}
	if len(data.bss) > 0 {
		out.WriteString("\t.bss\n")
		for _, e := range data.bss {
			out.WriteString(e)
			out.WriteByte('\n')
		}
	}
	return out.String(), spills, nil
}

func hasMain(p *Program) bool {
	for _, f := range p.Funcs {
		if f.Sym.Name == "main" {
			return true
		}
	}
	return false
}

// layoutGlobals registers every global variable and string literal in the
// data layout (zero-initialized variables go to bss).
func layoutGlobals(data *dataLayout, p *Program) error {
	for _, g := range p.Globals {
		sym := g.Sym
		t := sym.Ty
		zero := len(g.Init) == 0 && g.InitStr == ""
		if zero {
			data.bssVar(sym.Name, int32(t.Size()), int32(t.Align()))
			continue
		}
		data.alignTo(int32(t.Align()))
		data.label(sym.Name)
		if err := emitInit(data, g); err != nil {
			return err
		}
	}
	for _, s := range p.Strings {
		data.label(s.Label)
		data.asciiz(s.Val)
	}
	return nil
}

func emitInit(data *dataLayout, g *GlobalDecl) error {
	t := g.Sym.Ty
	if g.InitStr != "" {
		data.asciiz(g.InitStr)
		if pad := int32(t.N - len(g.InitStr) - 1); pad > 0 {
			data.space(pad)
		}
		return nil
	}
	elem := t
	count := 1
	if t.K == KArray {
		elem, count = t.Elem, t.N
	}
	vals := g.Init
	emitOne := func(e Expr) error {
		switch v := e.(type) {
		case *IntLit:
			switch elem.K {
			case KChar:
				data.bytes([]string{fmt.Sprintf("%d", uint8(v.Val))})
			case KFloat:
				data.words(fmt.Sprintf("%d", uint32(fbits(float64(v.Val), false))))
			case KDouble:
				bits := fbits(float64(v.Val), true)
				data.words(fmt.Sprintf("%d", uint32(bits)), fmt.Sprintf("%d", uint32(bits>>32)))
			default:
				data.words(fmt.Sprintf("%d", int32(v.Val)))
			}
		case *FloatLit:
			switch elem.K {
			case KFloat:
				data.words(fmt.Sprintf("%d", uint32(fbits(v.Val, false))))
			case KDouble:
				bits := fbits(v.Val, true)
				data.words(fmt.Sprintf("%d", uint32(bits)), fmt.Sprintf("%d", uint32(bits>>32)))
			default:
				data.words(fmt.Sprintf("%d", int32(v.Val)))
			}
		default:
			return fmt.Errorf("mcc: non-constant initializer for %q", g.Sym.Name)
		}
		return nil
	}
	for _, e := range vals {
		if err := emitOne(e); err != nil {
			return err
		}
	}
	if rest := count - len(vals); rest > 0 {
		data.space(int32(rest * elem.Size()))
	}
	return nil
}
