package alpha

// Primary opcode values.
const (
	opcCallPAL = 0x00
	opcLDA     = 0x08
	opcLDAH    = 0x09
	opcLDBU    = 0x0A
	opcLDQU    = 0x0B
	opcLDWU    = 0x0C
	opcSTW     = 0x0D
	opcSTB     = 0x0E
	opcSTQU    = 0x0F
	opcINTA    = 0x10
	opcINTL    = 0x11
	opcINTS    = 0x12
	opcINTM    = 0x13
	opcMISC    = 0x18
	opcJSR     = 0x1A
	opcLDL     = 0x28
	opcLDQ     = 0x29
	opcLDLL    = 0x2A
	opcLDQL    = 0x2B
	opcSTL     = 0x2C
	opcSTQ     = 0x2D
	opcSTLC    = 0x2E
	opcSTQC    = 0x2F
	opcBR      = 0x30
	opcBSR     = 0x34
	opcBLBC    = 0x38
	opcBEQ     = 0x39
	opcBLT     = 0x3A
	opcBLE     = 0x3B
	opcBLBS    = 0x3C
	opcBNE     = 0x3D
	opcBGE     = 0x3E
	opcBGT     = 0x3F
)

// opClass says how the rest of a word is laid out once its primary
// opcode is known.
type opClass uint8

const (
	classInvalid     opClass = iota // undefined opcode
	classUnsupported                // recognised but unimplemented (FP, PAL-reserved)
	classPAL
	classMemory
	classBranch
	classOperate // op comes from operateOps by function code
	classMisc    // op comes from miscOps by function code
	classJump
)

// primaryEntry is one row of the primary-opcode table.
type primaryEntry struct {
	class opClass
	op    Op // for classMemory and classBranch
}

// primary is the decode table for the 6-bit primary opcode. Decode and
// the encoder's encTable are both built from it, operateOps, miscOps and
// jumpOps, so the two directions cannot disagree.
var primary = [64]primaryEntry{
	opcCallPAL: {classPAL, OpCallPAL},

	opcLDA: {classMemory, OpLDA}, opcLDAH: {classMemory, OpLDAH},
	opcLDBU: {classMemory, OpLDBU}, opcLDQU: {classMemory, OpLDQU}, opcLDWU: {classMemory, OpLDWU},
	opcSTW: {classMemory, OpSTW}, opcSTB: {classMemory, OpSTB}, opcSTQU: {classMemory, OpSTQU},
	opcLDL: {classMemory, OpLDL}, opcLDQ: {classMemory, OpLDQ},
	opcLDLL: {classMemory, OpLDLL}, opcLDQL: {classMemory, OpLDQL},
	opcSTL: {classMemory, OpSTL}, opcSTQ: {classMemory, OpSTQ},
	opcSTLC: {classMemory, OpSTLC}, opcSTQC: {classMemory, OpSTQC},

	opcBR: {classBranch, OpBR}, opcBSR: {classBranch, OpBSR},
	opcBLBC: {classBranch, OpBLBC}, opcBEQ: {classBranch, OpBEQ},
	opcBLT: {classBranch, OpBLT}, opcBLE: {classBranch, OpBLE},
	opcBLBS: {classBranch, OpBLBS}, opcBNE: {classBranch, OpBNE},
	opcBGE: {classBranch, OpBGE}, opcBGT: {classBranch, OpBGT},

	opcINTA: {class: classOperate}, opcINTL: {class: classOperate},
	opcINTS: {class: classOperate}, opcINTM: {class: classOperate},
	opcMISC: {class: classMisc},
	opcJSR:  {class: classJump},

	// Floating point and PAL-reserved opcodes we know exist but do not
	// implement.
	0x14: {class: classUnsupported}, 0x15: {class: classUnsupported}, // FP operate / ITFP
	0x16: {class: classUnsupported}, 0x17: {class: classUnsupported},
	0x1C: {class: classUnsupported},                                  // FPTI
	0x20: {class: classUnsupported}, 0x21: {class: classUnsupported}, // FP loads/stores
	0x22: {class: classUnsupported}, 0x23: {class: classUnsupported},
	0x24: {class: classUnsupported}, 0x25: {class: classUnsupported},
	0x26: {class: classUnsupported}, 0x27: {class: classUnsupported},
	0x31: {class: classUnsupported}, 0x32: {class: classUnsupported}, // FP branches
	0x33: {class: classUnsupported}, 0x35: {class: classUnsupported},
	0x36: {class: classUnsupported}, 0x37: {class: classUnsupported},
	0x19: {class: classUnsupported}, 0x1B: {class: classUnsupported}, // PAL-reserved (HW_*)
	0x1D: {class: classUnsupported}, 0x1E: {class: classUnsupported},
	0x1F: {class: classUnsupported},
}

// operateOps holds the 7-bit function-code tables of the operate opcodes
// 0x10..0x13 (inta, intl, ints, intm), indexed by opcode-opcINTA.
// OpInvalid marks an unassigned function code.
var operateOps = [4][128]Op{
	opcINTA - opcINTA: {
		0x00: OpADDL, 0x02: OpS4ADDL, 0x12: OpS8ADDL,
		0x09: OpSUBL, 0x0B: OpS4SUBL, 0x1B: OpS8SUBL,
		0x20: OpADDQ, 0x22: OpS4ADDQ, 0x32: OpS8ADDQ,
		0x29: OpSUBQ, 0x2B: OpS4SUBQ, 0x3B: OpS8SUBQ,
		0x2D: OpCMPEQ, 0x4D: OpCMPLT, 0x6D: OpCMPLE,
		0x1D: OpCMPULT, 0x3D: OpCMPULE, 0x0F: OpCMPBGE,
	},
	opcINTL - opcINTA: {
		0x00: OpAND, 0x08: OpBIC, 0x20: OpBIS, 0x28: OpORNOT,
		0x40: OpXOR, 0x48: OpEQV,
		0x24: OpCMOVEQ, 0x26: OpCMOVNE, 0x44: OpCMOVLT, 0x46: OpCMOVGE,
		0x64: OpCMOVLE, 0x66: OpCMOVGT, 0x14: OpCMOVLBS, 0x16: OpCMOVLBC,
		0x61: OpAMASK, 0x6C: OpIMPLVER,
	},
	opcINTS - opcINTA: {
		0x39: OpSLL, 0x34: OpSRL, 0x3C: OpSRA,
		0x06: OpEXTBL, 0x16: OpEXTWL, 0x26: OpEXTLL, 0x36: OpEXTQL,
		0x5A: OpEXTWH, 0x6A: OpEXTLH, 0x7A: OpEXTQH,
		0x0B: OpINSBL, 0x1B: OpINSWL, 0x2B: OpINSLL, 0x3B: OpINSQL,
		0x57: OpINSWH, 0x67: OpINSLH, 0x77: OpINSQH,
		0x02: OpMSKBL, 0x12: OpMSKWL, 0x22: OpMSKLL, 0x32: OpMSKQL,
		0x52: OpMSKWH, 0x62: OpMSKLH, 0x72: OpMSKQH,
		0x30: OpZAP, 0x31: OpZAPNOT,
	},
	opcINTM - opcINTA: {
		0x00: OpMULL, 0x20: OpMULQ, 0x30: OpUMULH,
	},
}

// miscOps maps the opcode-0x18 function codes (held in the displacement
// field) to operations. The defined codes are sparse in 16 bits but all
// are multiples of 0x400, so the table is indexed by fn>>10 and a code
// with any of its low ten bits set is undefined. OpInvalid marks an
// unassigned slot.
var miscOps = [64]Op{
	0x0000 >> 10: OpTRAPB, 0x0400 >> 10: OpEXCB,
	0x4000 >> 10: OpMB, 0x4400 >> 10: OpWMB, 0xC000 >> 10: OpRPCC,
	0x8000 >> 10: OpFETCH, 0xA000 >> 10: OpFETCHM, 0xE800 >> 10: OpECB, 0xF800 >> 10: OpWH64,
}

// jump hint type values in disp[15:14] for opcode 0x1A.
var jumpOps = [4]Op{OpJMP, OpJSR, OpRET, OpJSRCoroutine}

// signExtend returns v sign-extended from the given bit width.
func signExtend(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Decode decodes a raw 32-bit Alpha instruction word. It never fails:
// undefined encodings decode to OpInvalid and floating-point or other
// recognised-but-unimplemented opcodes decode to OpUnsupported. It is a
// pure function of the word and does no map lookups.
func Decode(w Word) Inst {
	inst := Inst{Raw: w}
	opc := w.Opcode()
	ra := Reg((w >> 21) & 31)
	rb := Reg((w >> 16) & 31)

	e := primary[opc]
	switch e.class {
	case classMemory:
		inst.Op = e.op
		inst.Format = FormatMemory
		inst.Ra, inst.Rb = ra, rb
		inst.Disp = signExtend(uint32(w)&0xFFFF, 16)

	case classOperate:
		inst.Format = FormatOperate
		op := operateOps[opc-opcINTA][(uint32(w)>>5)&0x7F]
		if op == OpInvalid {
			inst.Op = OpUnsupported
			return inst
		}
		inst.Op = op
		inst.Ra = ra
		inst.Rc = Reg(w & 31)
		if w&(1<<12) != 0 {
			inst.UseLit = true
			inst.Lit = uint8((w >> 13) & 0xFF)
		} else {
			inst.Rb = rb
		}

	case classBranch:
		inst.Op = e.op
		inst.Format = FormatBranch
		inst.Ra = ra
		inst.Disp = signExtend(uint32(w)&0x1FFFFF, 21)

	case classJump:
		inst.Format = FormatMemJump
		disp := uint32(w) & 0xFFFF
		inst.Op = jumpOps[(disp>>14)&3]
		inst.Ra, inst.Rb = ra, rb
		inst.Hint = uint16(disp & 0x3FFF)

	case classMisc:
		fn := uint32(w) & 0xFFFF
		op := miscOps[fn>>10]
		if op == OpInvalid || fn&0x3FF != 0 {
			inst.Op = OpUnsupported
			return inst
		}
		inst.Op = op
		inst.Format = FormatMemFunc
		inst.Ra, inst.Rb = ra, rb

	case classPAL:
		inst.Op = OpCallPAL
		inst.Format = FormatPAL
		inst.PALFn = uint32(w) & 0x03FFFFFF

	case classUnsupported:
		inst.Op = OpUnsupported

	default:
		inst.Op = OpInvalid
	}
	return inst
}
