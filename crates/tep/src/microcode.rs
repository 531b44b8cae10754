//! Microprogrammed control: microinstruction format, per-instruction
//! microprograms, ROM/decoder synthesis, and the microcode peephole.
//!
//! "Each instruction of the TEP is represented by a microprogram
//! containing a sequence of microinstructions. … In the basic TEP,
//! microinstructions are 16 bits wide. The first eight bits represent
//! the control signals, and the other eight bit indicate the address of
//! the next microinstruction. The eight control bits are further divided
//! into 3 bits to denote the group of control signals, and 5 bits to
//! encode the control signals." (§3.2, Table 1)
//!
//! The *unoptimised* microprograms end in an explicit jump back to the
//! fetch sequence and carry conservative sequencing microinstructions;
//! the first optimisation step of §4 — "a peephole optimization step
//! removes redundant jumps from the microprogram sequences" — is
//! implemented by [`peephole`].

use crate::isa::{AluOp, Instr, Storage};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The five control-signal groups of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Group {
    /// Arithmetic ALU controls (group bits `001`, signals `01x00`).
    AluArith,
    /// Logical ALU controls (group bits `001`, signals `000xx`).
    AluLogic,
    /// Shift controls (group bits `010`).
    Shift,
    /// Single-signal strobes (group bits `011`).
    Single,
    /// Address-bus controls (group bits `100`).
    AddressBus,
    /// Jump/branch controls (group bits `101`).
    Jump,
}

impl Group {
    /// The 3-bit group field.
    pub fn bits(self) -> u8 {
        match self {
            Group::AluArith | Group::AluLogic => 0b001,
            Group::Shift => 0b010,
            Group::Single => 0b011,
            Group::AddressBus => 0b100,
            Group::Jump => 0b101,
        }
    }
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Group::AluArith => "arithmetic",
            Group::AluLogic => "logical",
            Group::Shift => "shift",
            Group::Single => "single signals",
            Group::AddressBus => "address bus",
            Group::Jump => "jump, branch",
        })
    }
}

/// One 16-bit microinstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroInstr {
    /// Control-signal group.
    pub group: Group,
    /// 5-bit encoded control signal.
    pub signal: u8,
    /// 8-bit next-microinstruction address (0 = back to fetch).
    pub next: u8,
}

impl MicroInstr {
    /// Encodes into the 16-bit word format: `[group:3][signal:5][next:8]`.
    pub fn encode(self) -> u16 {
        ((self.group.bits() as u16) << 13) | (((self.signal & 0x1f) as u16) << 8) | self.next as u16
    }
}

/// Instruction kinds for microprogram lookup (operands stripped; memory
/// instructions split by storage class because their microprograms
/// differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstrKind {
    /// No-op.
    Nop,
    /// Load immediate.
    Ldi,
    /// Load from register file.
    LoadReg,
    /// Load from internal RAM.
    LoadInt,
    /// Load from external RAM.
    LoadExt,
    /// Store to register file.
    StoreReg,
    /// Store to internal RAM.
    StoreInt,
    /// Store to external RAM.
    StoreExt,
    /// Indexed load, internal RAM.
    LoadIdxInt,
    /// Indexed load, external RAM.
    LoadIdxExt,
    /// Indexed store, internal RAM.
    StoreIdxInt,
    /// Indexed store, external RAM.
    StoreIdxExt,
    /// ACC→OP transfer.
    Tao,
    /// Simple ALU op (add/sub/logic/neg/not).
    AluSimple,
    /// Shift.
    AluShift,
    /// Hardware multiply.
    AluMul,
    /// Hardware divide/remainder.
    AluDiv,
    /// Hardware compare.
    Cmp,
    /// Unconditional jump.
    Jump,
    /// Conditional jump.
    JumpCond,
    /// Subroutine call.
    Call,
    /// Subroutine return.
    Return,
    /// Data-port read.
    PortRead,
    /// Data-port write.
    PortWrite,
    /// Condition-cache read.
    ReadCond,
    /// Condition-cache write.
    SetCond,
    /// Event raise (SLA communication).
    RaiseEvent,
    /// Application-specific fused instruction.
    Custom,
    /// Fused memory-operand ALU, register-file operand.
    AluMemReg,
    /// Fused memory-operand ALU, internal-RAM operand.
    AluMemInt,
    /// Fused memory-operand ALU, external-RAM operand.
    AluMemExt,
    /// End of transition.
    Halt,
}

impl InstrKind {
    /// Every instruction kind, for cost-model diffing.
    pub const ALL: [InstrKind; 32] = [
        InstrKind::Nop,
        InstrKind::Ldi,
        InstrKind::LoadReg,
        InstrKind::LoadInt,
        InstrKind::LoadExt,
        InstrKind::StoreReg,
        InstrKind::StoreInt,
        InstrKind::StoreExt,
        InstrKind::LoadIdxInt,
        InstrKind::LoadIdxExt,
        InstrKind::StoreIdxInt,
        InstrKind::StoreIdxExt,
        InstrKind::Tao,
        InstrKind::AluSimple,
        InstrKind::AluShift,
        InstrKind::AluMul,
        InstrKind::AluDiv,
        InstrKind::Cmp,
        InstrKind::Jump,
        InstrKind::JumpCond,
        InstrKind::Call,
        InstrKind::Return,
        InstrKind::PortRead,
        InstrKind::PortWrite,
        InstrKind::ReadCond,
        InstrKind::SetCond,
        InstrKind::RaiseEvent,
        InstrKind::Custom,
        InstrKind::AluMemReg,
        InstrKind::AluMemInt,
        InstrKind::AluMemExt,
        InstrKind::Halt,
    ];

    /// Classifies an assembler instruction.
    pub fn of(instr: &Instr) -> InstrKind {
        match instr {
            Instr::Nop => InstrKind::Nop,
            Instr::Ldi(_) => InstrKind::Ldi,
            Instr::Load(Storage::Register(_)) => InstrKind::LoadReg,
            Instr::Load(Storage::Internal(_)) => InstrKind::LoadInt,
            Instr::Load(Storage::External(_)) => InstrKind::LoadExt,
            Instr::Store(Storage::Register(_)) => InstrKind::StoreReg,
            Instr::Store(Storage::Internal(_)) => InstrKind::StoreInt,
            Instr::Store(Storage::External(_)) => InstrKind::StoreExt,
            Instr::LoadIndexed(Storage::External(_)) => InstrKind::LoadIdxExt,
            Instr::LoadIndexed(_) => InstrKind::LoadIdxInt,
            Instr::StoreIndexed(Storage::External(_)) => InstrKind::StoreIdxExt,
            Instr::StoreIndexed(_) => InstrKind::StoreIdxInt,
            Instr::Tao => InstrKind::Tao,
            Instr::Alu(op) => match op {
                AluOp::Mul => InstrKind::AluMul,
                AluOp::Div | AluOp::Rem => InstrKind::AluDiv,
                AluOp::Shl | AluOp::Shr | AluOp::Sar => InstrKind::AluShift,
                _ => InstrKind::AluSimple,
            },
            Instr::Cmp { .. } => InstrKind::Cmp,
            Instr::Jump(_) => InstrKind::Jump,
            Instr::JumpIfZero(_) | Instr::JumpIfNotZero(_) => InstrKind::JumpCond,
            Instr::Call(_) => InstrKind::Call,
            Instr::Return => InstrKind::Return,
            Instr::PortRead(_) => InstrKind::PortRead,
            Instr::PortWrite(_) => InstrKind::PortWrite,
            Instr::ReadCond(_) => InstrKind::ReadCond,
            Instr::SetCond(_) => InstrKind::SetCond,
            Instr::RaiseEvent(_) => InstrKind::RaiseEvent,
            Instr::Custom(_) => InstrKind::Custom,
            Instr::AluMem { src: Storage::Register(_), .. } => InstrKind::AluMemReg,
            Instr::AluMem { src: Storage::Internal(_), .. } => InstrKind::AluMemInt,
            Instr::AluMem { src: Storage::External(_), .. } => InstrKind::AluMemExt,
            Instr::Halt => InstrKind::Halt,
        }
    }

    /// All kinds (for exhaustive ROM synthesis and tests).
    pub fn all() -> impl Iterator<Item = InstrKind> {
        [
            InstrKind::Nop,
            InstrKind::Ldi,
            InstrKind::LoadReg,
            InstrKind::LoadInt,
            InstrKind::LoadExt,
            InstrKind::StoreReg,
            InstrKind::StoreInt,
            InstrKind::StoreExt,
            InstrKind::LoadIdxInt,
            InstrKind::LoadIdxExt,
            InstrKind::StoreIdxInt,
            InstrKind::StoreIdxExt,
            InstrKind::Tao,
            InstrKind::AluSimple,
            InstrKind::AluShift,
            InstrKind::AluMul,
            InstrKind::AluDiv,
            InstrKind::Cmp,
            InstrKind::Jump,
            InstrKind::JumpCond,
            InstrKind::Call,
            InstrKind::Return,
            InstrKind::PortRead,
            InstrKind::PortWrite,
            InstrKind::ReadCond,
            InstrKind::SetCond,
            InstrKind::RaiseEvent,
            InstrKind::Custom,
            InstrKind::AluMemReg,
            InstrKind::AluMemInt,
            InstrKind::AluMemExt,
            InstrKind::Halt,
        ]
        .into_iter()
    }
}

/// Builds the (unoptimised) microprogram for an instruction kind.
///
/// Every sequence begins with the shared 2-µop fetch/decode prologue
/// (accounted inside the sequence), performs its data movement and
/// operation steps, and — unoptimised — ends with a redundant explicit
/// jump back to fetch plus a conservative sequencing µop on multi-step
/// operations. [`peephole`] removes exactly those.
pub fn microprogram(kind: InstrKind) -> Vec<MicroInstr> {
    use Group::*;
    // (group, signal) steps of the operative part, after the 2-step
    // fetch/decode prologue and before the redundant epilogue.
    let body: &[(Group, u8)] = match kind {
        InstrKind::Nop => &[],
        InstrKind::Ldi => &[(AddressBus, 0x01)],
        InstrKind::LoadReg => &[(Single, 0x04)],
        InstrKind::LoadInt => &[(AddressBus, 0x03), (Single, 0x05)],
        InstrKind::LoadExt => {
            &[
                (AddressBus, 0x06),
                (AddressBus, 0x07),
                (Single, 0x08),
                (Single, 0x09),
                (AddressBus, 0x0a),
                (Single, 0x0b),
            ]
        }
        InstrKind::StoreReg => &[(Single, 0x0c)],
        InstrKind::StoreInt => &[(AddressBus, 0x03), (Single, 0x0e)],
        InstrKind::StoreExt => {
            &[
                (AddressBus, 0x06),
                (AddressBus, 0x0f),
                (Single, 0x10),
                (Single, 0x11),
                (AddressBus, 0x12),
                (Single, 0x13),
            ]
        }
        InstrKind::LoadIdxInt => {
            &[(AluArith, 0x08), (AddressBus, 0x03), (AddressBus, 0x04), (Single, 0x05)]
        }
        InstrKind::LoadIdxExt => {
            &[
                (AluArith, 0x08),
                (AddressBus, 0x06),
                (AddressBus, 0x07),
                (Single, 0x08),
                (Single, 0x09),
                (AddressBus, 0x0a),
                (Single, 0x0b),
            ]
        }
        InstrKind::StoreIdxInt => {
            &[(AluArith, 0x08), (AddressBus, 0x03), (AddressBus, 0x0d), (Single, 0x0e)]
        }
        InstrKind::StoreIdxExt => {
            &[
                (AluArith, 0x08),
                (AddressBus, 0x06),
                (AddressBus, 0x0f),
                (Single, 0x10),
                (Single, 0x11),
                (AddressBus, 0x12),
                (Single, 0x13),
            ]
        }
        InstrKind::Tao => &[(Single, 0x14)],
        InstrKind::AluSimple => &[(AluArith, 0x08)],
        InstrKind::AluShift => &[(Shift, 0x01)],
        InstrKind::AluMul => {
            // Multi-cycle booth-style multiply on the M/D unit.
            &[
                (AluArith, 0x0c),
                (AluArith, 0x0c),
                (AluArith, 0x0c),
                (AluArith, 0x0c),
                (AluArith, 0x0c),
                (AluArith, 0x0c),
                (Single, 0x15),
                (Single, 0x16),
            ]
        }
        InstrKind::AluDiv => {
            // Restoring divide: longer than multiply.
            &[
                (AluArith, 0x0d),
                (AluArith, 0x0d),
                (AluArith, 0x0d),
                (AluArith, 0x0d),
                (AluArith, 0x0d),
                (AluArith, 0x0d),
                (AluArith, 0x0d),
                (AluArith, 0x0d),
                (AluArith, 0x0d),
                (AluArith, 0x0d),
                (Single, 0x15),
                (Single, 0x16),
            ]
        }
        InstrKind::Cmp => &[(AluLogic, 0x02)],
        InstrKind::Jump => &[(Jump, 0x01)],
        InstrKind::JumpCond => &[(AluLogic, 0x01), (Jump, 0x02)],
        InstrKind::Call => &[(AddressBus, 0x14), (Single, 0x17), (Jump, 0x03), (Single, 0x18)],
        InstrKind::Return => &[(AddressBus, 0x15), (Jump, 0x04)],
        InstrKind::PortRead => &[(AddressBus, 0x16), (Single, 0x19)],
        InstrKind::PortWrite => &[(AddressBus, 0x16), (Single, 0x1a)],
        InstrKind::ReadCond => &[(AddressBus, 0x17), (Single, 0x1b)],
        InstrKind::SetCond => &[(AddressBus, 0x17), (Single, 0x1c)],
        InstrKind::RaiseEvent => &[(AddressBus, 0x18), (Single, 0x1d), (Single, 0x1e)],
        InstrKind::Custom => &[(AluArith, 0x1f)],
        // Fused mem-operand ALU: operand fetch overlapped with the
        // OP<-ACC transfer, then a single ALU step.
        InstrKind::AluMemReg => &[(Single, 0x14), (AluArith, 0x08)],
        InstrKind::AluMemInt => &[(AddressBus, 0x03), (Single, 0x14), (AluArith, 0x08)],
        InstrKind::AluMemExt => {
            &[
                (AddressBus, 0x06),
                (Single, 0x14),
                (Single, 0x08),
                (AddressBus, 0x0a),
                (AluArith, 0x08),
            ]
        }
        InstrKind::Halt => &[(Single, 0x1f)],
    };

    let mut seq = Vec::with_capacity(body.len() + 4);
    // Fetch/decode prologue.
    seq.push(MicroInstr { group: AddressBus, signal: 0x00, next: 0 });
    seq.push(MicroInstr { group: Single, signal: 0x01, next: 0 });
    for &(group, signal) in body {
        seq.push(MicroInstr { group, signal, next: 0 });
    }
    // Redundant epilogue the peephole removes: a conservative sequencing
    // µop on multi-step operations, then an explicit jump to fetch.
    if body.len() >= 2 {
        seq.push(MicroInstr { group: Single, signal: 0x00, next: 0 });
    }
    seq.push(MicroInstr { group: Jump, signal: 0x00, next: 0 });
    // Chain next-addresses (relative; ROM layout renumbers).
    for i in 0..seq.len() {
        seq[i].next = if i + 1 < seq.len() { (i + 1) as u8 } else { 0 };
    }
    seq
}

/// Removes the redundant jump-to-fetch and conservative sequencing µops
/// from a microprogram ("a peephole optimization step removes redundant
/// jumps from the microprogram sequences", §4), and overlaps the decode
/// step with the ROM dispatch (the opcode directly addresses the entry,
/// so the separate decode µop disappears).
pub fn peephole(mut seq: Vec<MicroInstr>) -> Vec<MicroInstr> {
    // Trailing explicit jump to fetch is redundant: the last operative
    // µinstruction's next-address field already returns to fetch.
    if let Some(last) = seq.last() {
        if last.group == Group::Jump && last.signal == 0x00 {
            seq.pop();
        }
    }
    // A pure sequencing µop (Single/0x00) before the end is also dead.
    if seq.len() > 2 {
        if let Some(last) = seq.last() {
            if last.group == Group::Single && last.signal == 0x00 {
                seq.pop();
            }
        }
    }
    // Decode overlap: drop the second prologue µop (Single/0x01).
    if seq.len() > 1 && seq[1].group == Group::Single && seq[1].signal == 0x01 {
        seq.remove(1);
    }
    for i in 0..seq.len() {
        let n = if i + 1 < seq.len() { (i + 1) as u8 } else { 0 };
        seq[i].next = n;
    }
    seq
}

/// Microprogram length (= cycle count) for a kind under an architecture.
pub fn micro_len(kind: InstrKind, optimized: bool) -> u32 {
    let seq = microprogram(kind);
    let seq = if optimized { peephole(seq) } else { seq };
    seq.len() as u32
}

/// A synthesised microprogram ROM plus its opcode dispatch table.
///
/// "The final set of selected library elements for a PSCP version
/// determines the set of microinstructions needed for the application.
/// The specific microprogram decoder for this application can therefore
/// be easily synthesized." (§4)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicrocodeRom {
    /// Opcode → ROM entry address.
    pub entries: BTreeMap<InstrKind, u16>,
    /// ROM contents.
    pub words: Vec<MicroInstr>,
    /// Whether peepholed sequences were used.
    pub optimized: bool,
}

impl MicrocodeRom {
    /// Synthesises the ROM for exactly the instruction kinds an
    /// application uses.
    pub fn synthesize(kinds: &BTreeSet<InstrKind>, optimized: bool) -> Self {
        let mut entries = BTreeMap::new();
        let mut words = Vec::new();
        for &kind in kinds {
            let mut seq = microprogram(kind);
            if optimized {
                seq = peephole(seq);
            }
            let base = words.len() as u16;
            entries.insert(kind, base);
            let len = seq.len();
            for (i, mut w) in seq.into_iter().enumerate() {
                w.next = if i + 1 < len { (base as usize + i + 1) as u8 } else { 0 };
                words.push(w);
            }
        }
        MicrocodeRom { entries, words, optimized }
    }

    /// Number of 16-bit ROM words.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Number of distinct control signals used (drives decoder area).
    pub fn distinct_signals(&self) -> usize {
        self.words
            .iter()
            .map(|w| (w.group.bits(), w.signal))
            .collect::<BTreeSet<_>>()
            .len()
    }
}

/// Renders the microcode format summary of Table 1.
pub fn format_table1() -> String {
    let rows = [
        ("arithmetic", "001", "01x00"),
        ("logical", "001", "000xx"),
        ("shift", "010", "0xxxx"),
        ("single signals", "011", "xxxxx"),
        ("address bus", "100", "0xxxx"),
        ("jump, branch", "101", "0xxxx"),
    ];
    let mut out = String::from("Symbolic          Encoding\n");
    for (name, grp, sig) in rows {
        out.push_str(&format!("{name:<17} {grp} {sig}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_have_microprograms() {
        for kind in InstrKind::all() {
            let seq = microprogram(kind);
            assert!(seq.len() >= 3, "{kind:?} too short: {}", seq.len());
            assert!(seq.len() <= 18, "{kind:?} too long: {}", seq.len());
        }
    }

    #[test]
    fn peephole_strictly_shrinks() {
        for kind in InstrKind::all() {
            let unopt = microprogram(kind);
            let opt = peephole(unopt.clone());
            assert!(opt.len() < unopt.len(), "{kind:?} not shrunk");
            assert!(opt.len() + 3 >= unopt.len(), "{kind:?} shrunk too much");
        }
    }

    #[test]
    fn costs_reflect_storage_hierarchy() {
        assert!(micro_len(InstrKind::LoadReg, true) < micro_len(InstrKind::LoadInt, true));
        assert!(micro_len(InstrKind::LoadInt, true) < micro_len(InstrKind::LoadExt, true));
    }

    #[test]
    fn muldiv_are_multicycle() {
        assert!(micro_len(InstrKind::AluMul, true) > micro_len(InstrKind::AluSimple, true));
        assert!(micro_len(InstrKind::AluDiv, true) > micro_len(InstrKind::AluMul, true));
    }

    #[test]
    fn encoding_fits_16_bits() {
        for kind in InstrKind::all() {
            for w in microprogram(kind) {
                let e = w.encode();
                assert_eq!(e >> 13, w.group.bits() as u16);
                assert_eq!((e >> 8) & 0x1f, (w.signal & 0x1f) as u16);
            }
        }
    }

    #[test]
    fn rom_synthesis_covers_kinds_and_chains() {
        let kinds: BTreeSet<InstrKind> =
            [InstrKind::Ldi, InstrKind::AluSimple, InstrKind::Halt].into_iter().collect();
        let rom = MicrocodeRom::synthesize(&kinds, true);
        assert_eq!(rom.entries.len(), 3);
        // Entry addresses in range, chains stay inside the ROM.
        for (&kind, &base) in &rom.entries {
            let len = micro_len(kind, true) as usize;
            assert!(base as usize + len <= rom.words.len());
        }
        // Optimised ROM is smaller than unoptimised.
        let unopt = MicrocodeRom::synthesize(&kinds, false);
        assert!(rom.word_count() < unopt.word_count());
    }

    #[test]
    fn custom_ops_are_short() {
        // "These instructions execute within one clock cycle" — plus the
        // fetch µop, the optimised form is 2 µops.
        assert_eq!(micro_len(InstrKind::Custom, true), 2);
    }

    #[test]
    fn table1_renders_all_groups() {
        let t = format_table1();
        for g in ["arithmetic", "logical", "shift", "single signals", "address bus", "jump"] {
            assert!(t.contains(g), "missing {g}");
        }
    }
}
