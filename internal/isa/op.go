package isa

import "fmt"

// Op is a semantic machine operation. The set mirrors Table 1 of the paper:
// both instruction sets implement (nearly) the same operations; they differ
// in how the operations are encoded and in which immediate forms exist.
type Op uint8

const (
	BAD Op = iota

	// Memory operations. Word loads/stores take a register base plus a
	// word-aligned displacement; on D16 the sub-word modes take no
	// displacement at all ("address for subword modes is not offsettable").
	LD   // load word
	LDH  // load halfword, sign-extend
	LDHU // load halfword, zero-extend
	LDB  // load byte, sign-extend
	LDBU // load byte, zero-extend
	ST   // store word
	STH  // store halfword
	STB  // store byte
	LDC  // D16 only: load word from a PC-relative literal pool into r0

	// Control transfer. All transfers have one architectural delay slot:
	// the following instruction is always executed.
	BR  // PC-relative unconditional branch
	BZ  // branch if register zero (D16: register is implicitly r0)
	BNZ // branch if register nonzero (D16: implicitly r0)
	J   // jump to absolute address in register; DLXe also has a J-type form
	JZ  // conditional register jump (address in register, condition in r0/rs)
	JNZ // conditional register jump
	JL  // jump and link: like J but writes return address to r1

	// Integer compare: sets destination to all-zeros or all-ones.
	// D16: both operands registers, destination implicitly r0, conditions
	// limited to lt/ltu/le/leu/eq/ne. DLXe: any GPR destination, immediate
	// right operand allowed, plus gt/gtu/ge/geu.
	CMP

	// Integer ALU.
	ADD
	ADDI // immediate add; D16 immediates are 5-bit unsigned
	SUB
	SUBI
	AND
	ANDI // DLXe only (16-bit immediate)
	OR
	ORI // DLXe only
	XOR
	XORI // DLXe only
	NEG  // D16 only: rx = -rx (DLXe uses sub rd, r0, rs)
	INV  // D16 only: rx = ^rx
	SHL
	SHLI
	SHR // logical right shift
	SHRI
	SHRA // arithmetic right shift
	SHRAI

	// Moves.
	MV   // register move (within the GPR file)
	MVI  // move immediate; D16: 9-bit signed, DLXe: 16-bit signed
	MVHI // DLXe only: set upper 16 bits (rd = imm << 16)

	// GPR <-> FPR transfer. The paper's machines lack direct FP loads and
	// stores ("to simplify the FPU interface"); values cross register
	// files 32 bits at a time.
	MVFL // FPR low word  <- GPR
	MVFH // FPR high word <- GPR
	MFFL // GPR <- FPR low word
	MFFH // GPR <- FPR high word
	FMV  // FPR <- FPR (full 64-bit register move)

	// Floating point, single (.sf) and double (.df) precision.
	// Compares write the FP status register, read back with RDSR.
	FADDS
	FSUBS
	FMULS
	FDIVS
	FNEGS
	FCMPS
	FADDD
	FSUBD
	FMULD
	FDIVD
	FNEGD
	FCMPD

	// Mode conversions (Table 1: si2sf, sf2df, di2df, df2di, df2sf).
	CVTSISF // int -> single
	CVTSIDF // int -> double (the paper's di2df)
	CVTSFDF // single -> double
	CVTDFSF // double -> single
	CVTDFSI // double -> int (the paper's df2di)
	CVTSFSI // single -> int

	// Special.
	TRAP // software trap: halt and simulator services (see sim package)
	RDSR // read FP status register into a GPR (D16: implicitly r0)
	NOP  // explicit no-operation (delay-slot filler)

	opCount
)

// NumOps is the number of defined operations (useful for tables).
const NumOps = int(opCount)

var opNames = [...]string{
	BAD: "bad",
	LD:  "ld", LDH: "ldh", LDHU: "ldhu", LDB: "ldb", LDBU: "ldbu",
	ST: "st", STH: "sth", STB: "stb", LDC: "ldc",
	BR: "br", BZ: "bz", BNZ: "bnz", J: "j", JZ: "jz", JNZ: "jnz", JL: "jl",
	CMP: "cmp",
	ADD: "add", ADDI: "addi", SUB: "sub", SUBI: "subi",
	AND: "and", ANDI: "andi", OR: "or", ORI: "ori", XOR: "xor", XORI: "xori",
	NEG: "neg", INV: "inv",
	SHL: "shl", SHLI: "shli", SHR: "shr", SHRI: "shri", SHRA: "shra", SHRAI: "shrai",
	MV: "mv", MVI: "mvi", MVHI: "mvhi",
	MVFL: "mvfl", MVFH: "mvfh", MFFL: "mffl", MFFH: "mffh", FMV: "fmv",
	FADDS: "add.sf", FSUBS: "sub.sf", FMULS: "mul.sf", FDIVS: "div.sf",
	FNEGS: "neg.sf", FCMPS: "cmp.sf",
	FADDD: "add.df", FSUBD: "sub.df", FMULD: "mul.df", FDIVD: "div.df",
	FNEGD: "neg.df", FCMPD: "cmp.df",
	CVTSISF: "si2sf", CVTSIDF: "si2df", CVTSFDF: "sf2df",
	CVTDFSF: "df2sf", CVTDFSI: "df2si", CVTSFSI: "sf2si",
	TRAP: "trap", RDSR: "rdsr", NOP: "nop",
}

// String returns the assembly mnemonic for the operation.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// OpByName maps an assembly mnemonic back to its operation. It returns BAD
// for unknown mnemonics.
func OpByName(name string) Op {
	return opByName[name]
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op, name := range opNames {
		if name != "" {
			m[name] = Op(op)
		}
	}
	return m
}()

// IsLoad reports whether op reads data memory.
func (op Op) IsLoad() bool {
	switch op {
	case LD, LDH, LDHU, LDB, LDBU, LDC:
		return true
	}
	return false
}

// IsStore reports whether op writes data memory.
func (op Op) IsStore() bool {
	switch op {
	case ST, STH, STB:
		return true
	}
	return false
}

// IsBranch reports whether op is a PC-relative conditional or unconditional
// branch (not a register jump).
func (op Op) IsBranch() bool {
	switch op {
	case BR, BZ, BNZ:
		return true
	}
	return false
}

// IsJump reports whether op is an absolute jump (register or J-type).
func (op Op) IsJump() bool {
	switch op {
	case J, JZ, JNZ, JL:
		return true
	}
	return false
}

// IsControl reports whether op transfers control (and therefore has an
// architectural delay slot).
func (op Op) IsControl() bool { return op.IsBranch() || op.IsJump() }

// IsFPU reports whether op executes on the floating-point unit (and is
// therefore subject to multi-cycle result latencies).
func (op Op) IsFPU() bool {
	switch op {
	case FADDS, FSUBS, FMULS, FDIVS, FNEGS, FCMPS,
		FADDD, FSUBD, FMULD, FDIVD, FNEGD, FCMPD,
		CVTSISF, CVTSIDF, CVTSFDF, CVTDFSF, CVTDFSI, CVTSFSI:
		return true
	}
	return false
}

// IsFCmp reports whether op is a floating-point compare (writes the FP
// status register rather than a register operand).
func (op Op) IsFCmp() bool { return op == FCMPS || op == FCMPD }

// HasImmediate reports whether op carries an immediate operand by
// definition (as opposed to ops that never do).
func (op Op) HasImmediate() bool {
	switch op {
	case ADDI, SUBI, ANDI, ORI, XORI, SHLI, SHRI, SHRAI, MVI, MVHI, TRAP:
		return true
	}
	return false
}
