//! Canonical fixed-width encoding of [`Inst`]: the binary counterpart
//! of the disassembly listing in `disasm.rs`.
//!
//! The listing is complete and canonical but costs a formatted line per
//! instruction; content hashes (the memo fingerprint in `simtune-core`)
//! want the same information as machine words. Every instruction
//! encodes to exactly two `u64`s, so a sequence of encodings needs no
//! separators and no two distinct sequences share a word stream.
//!
//! The encoding is persisted (memo snapshots are keyed on a digest of
//! it): opcode numbers and field positions never change, and a new
//! variant takes the next unused opcode.

use crate::Inst;

/// Packs an opcode and up to four register indices (operand order as
/// declared on the variant; the opcode fixes each position's register
/// class) into the header word.
fn header(opcode: u8, regs: [u8; 4]) -> u64 {
    let [a, b, c, d] = regs;
    u64::from_le_bytes([opcode, a, b, c, d, 0, 0, 0])
}

impl Inst {
    /// The instruction as two words: a header (opcode in the low byte,
    /// register indices in the bytes above it) and the immediate as raw
    /// bits — the `i64` reinterpreted, [`f32::to_bits`] for float
    /// constants (so NaN payloads and `-0.0` stay distinct, exactly as
    /// the simulator sees them), the resolved instruction index for
    /// branch targets, zero when the variant has none.
    ///
    /// Two instructions encode alike iff every field is bit-identical.
    ///
    /// # Example
    ///
    /// ```
    /// use simtune_isa::{Fpr, Gpr, Inst};
    ///
    /// let li = Inst::Li { rd: Gpr(3), imm: -1 };
    /// assert_eq!(li.canonical_words(), [0x0300, u64::MAX]);
    /// // The text listing prints every NaN as `NaN`; the words do not.
    /// let nan = |bits| Inst::Fli { fd: Fpr(0), imm: f32::from_bits(bits) };
    /// assert_ne!(
    ///     nan(0x7fc0_0000).canonical_words(),
    ///     nan(0x7fc0_0001).canonical_words()
    /// );
    /// ```
    pub fn canonical_words(&self) -> [u64; 2] {
        // One arm per variant and no wildcard: adding an instruction
        // does not compile until it has an encoding.
        match *self {
            Inst::Li { rd, imm } => [header(0, [rd.0, 0, 0, 0]), imm as u64],
            Inst::Addi { rd, rs, imm } => [header(1, [rd.0, rs.0, 0, 0]), imm as u64],
            Inst::Add { rd, rs1, rs2 } => [header(2, [rd.0, rs1.0, rs2.0, 0]), 0],
            Inst::Sub { rd, rs1, rs2 } => [header(3, [rd.0, rs1.0, rs2.0, 0]), 0],
            Inst::Mul { rd, rs1, rs2 } => [header(4, [rd.0, rs1.0, rs2.0, 0]), 0],
            Inst::Muli { rd, rs, imm } => [header(5, [rd.0, rs.0, 0, 0]), imm as u64],
            Inst::Slli { rd, rs, shamt } => [header(6, [rd.0, rs.0, 0, 0]), u64::from(shamt)],
            Inst::Mv { rd, rs } => [header(7, [rd.0, rs.0, 0, 0]), 0],
            Inst::Ld { rd, rs, imm } => [header(8, [rd.0, rs.0, 0, 0]), imm as u64],
            Inst::Sd { rval, rs, imm } => [header(9, [rval.0, rs.0, 0, 0]), imm as u64],
            Inst::Fli { fd, imm } => [header(10, [fd.0, 0, 0, 0]), u64::from(imm.to_bits())],
            Inst::Flw { fd, rs, imm } => [header(11, [fd.0, rs.0, 0, 0]), imm as u64],
            Inst::Fsw { fval, rs, imm } => [header(12, [fval.0, rs.0, 0, 0]), imm as u64],
            Inst::Fadd { fd, fs1, fs2 } => [header(13, [fd.0, fs1.0, fs2.0, 0]), 0],
            Inst::Fsub { fd, fs1, fs2 } => [header(14, [fd.0, fs1.0, fs2.0, 0]), 0],
            Inst::Fmul { fd, fs1, fs2 } => [header(15, [fd.0, fs1.0, fs2.0, 0]), 0],
            Inst::Fdiv { fd, fs1, fs2 } => [header(16, [fd.0, fs1.0, fs2.0, 0]), 0],
            Inst::Fmadd { fd, fs1, fs2, fs3 } => [header(17, [fd.0, fs1.0, fs2.0, fs3.0]), 0],
            Inst::Fmax { fd, fs1, fs2 } => [header(18, [fd.0, fs1.0, fs2.0, 0]), 0],
            Inst::Fcvt { fd, rs } => [header(19, [fd.0, rs.0, 0, 0]), 0],
            Inst::Vload { vd, rs, imm } => [header(20, [vd.0, rs.0, 0, 0]), imm as u64],
            Inst::Vstore { vval, rs, imm } => [header(21, [vval.0, rs.0, 0, 0]), imm as u64],
            Inst::Vbcast { vd, fs } => [header(22, [vd.0, fs.0, 0, 0]), 0],
            Inst::Vsplat { vd, imm } => [header(23, [vd.0, 0, 0, 0]), u64::from(imm.to_bits())],
            Inst::Vfadd { vd, vs1, vs2 } => [header(24, [vd.0, vs1.0, vs2.0, 0]), 0],
            Inst::Vfmul { vd, vs1, vs2 } => [header(25, [vd.0, vs1.0, vs2.0, 0]), 0],
            Inst::Vfma { vd, vs1, vs2 } => [header(26, [vd.0, vs1.0, vs2.0, 0]), 0],
            Inst::Vfmax { vd, vs1, vs2 } => [header(27, [vd.0, vs1.0, vs2.0, 0]), 0],
            Inst::Vredsum { fd, vs } => [header(28, [fd.0, vs.0, 0, 0]), 0],
            Inst::Vinsert { vd, fs, lane } => [header(29, [vd.0, fs.0, 0, 0]), u64::from(lane)],
            Inst::Vextract { fd, vs, lane } => [header(30, [fd.0, vs.0, 0, 0]), u64::from(lane)],
            Inst::Blt { rs1, rs2, target } => [header(31, [rs1.0, rs2.0, 0, 0]), target as u64],
            Inst::Bge { rs1, rs2, target } => [header(32, [rs1.0, rs2.0, 0, 0]), target as u64],
            Inst::Bne { rs1, rs2, target } => [header(33, [rs1.0, rs2.0, 0, 0]), target as u64],
            Inst::Jmp { target } => [header(34, [0; 4]), target as u64],
            Inst::Ecall { code } => [header(35, [0; 4]), u64::from(code)],
            Inst::Halt => [header(36, [0; 4]), 0],
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_inst;

    /// Every variant under a few operand settings, as listing text (the
    /// form this encoding replaces as a key): words are equal iff the
    /// lines are, and opcode bytes are equal iff the mnemonics are.
    #[test]
    fn encoding_separates_exactly_what_the_listing_separates() {
        let mut lines: Vec<String> = Vec::new();
        for (a, b, c, d, imm) in [(1, 2, 3, 4, 5i64), (2, 1, 3, 4, 5), (1, 2, 4, 3, -5)] {
            lines.extend([
                format!("li r{a}, {imm}"),
                format!("addi r{a}, r{b}, {imm}"),
                format!("add r{a}, r{b}, r{c}"),
                format!("sub r{a}, r{b}, r{c}"),
                format!("mul r{a}, r{b}, r{c}"),
                format!("muli r{a}, r{b}, {imm}"),
                format!("slli r{a}, r{b}, {c}"),
                format!("mv r{a}, r{b}"),
                format!("ld r{a}, {imm}(r{b})"),
                format!("sd r{a}, {imm}(r{b})"),
                format!("fli f{a}, {imm}.5"),
                format!("flw f{a}, {imm}(r{b})"),
                format!("fsw f{a}, {imm}(r{b})"),
                format!("fadd.s f{a}, f{b}, f{c}"),
                format!("fsub.s f{a}, f{b}, f{c}"),
                format!("fmul.s f{a}, f{b}, f{c}"),
                format!("fdiv.s f{a}, f{b}, f{c}"),
                format!("fmadd.s f{a}, f{b}, f{c}, f{d}"),
                format!("fmax.s f{a}, f{b}, f{c}"),
                format!("fcvt.s f{a}, r{b}"),
                format!("vload v{a}, {imm}(r{b})"),
                format!("vstore v{a}, {imm}(r{b})"),
                format!("vbcast v{a}, f{b}"),
                format!("vsplat v{a}, {imm}.5"),
                format!("vfadd v{a}, v{b}, v{c}"),
                format!("vfmul v{a}, v{b}, v{c}"),
                format!("vfma v{a}, v{b}, v{c}"),
                format!("vfmax v{a}, v{b}, v{c}"),
                format!("vredsum f{a}, v{b}"),
                format!("vins v{a}[{c}], f{b}"),
                format!("vext f{a}, v{b}[{c}]"),
                format!("blt r{a}, r{b}, @{c}"),
                format!("bge r{a}, r{b}, @{c}"),
                format!("bne r{a}, r{b}, @{c}"),
                format!("j @{c}"),
                format!("ecall {c}"),
                "halt".to_string(),
            ]);
        }
        let mnemonic = |line: &str| line.split(' ').next().unwrap().to_string();
        let words: Vec<[u64; 2]> = lines
            .iter()
            .map(|l| parse_inst(l).expect(l).canonical_words())
            .collect();
        for (la, wa) in lines.iter().zip(&words) {
            for (lb, wb) in lines.iter().zip(&words) {
                assert_eq!(la == lb, wa == wb, "{la} / {lb}");
                let same_opcode = wa[0] as u8 == wb[0] as u8;
                assert_eq!(mnemonic(la) == mnemonic(lb), same_opcode, "{la} / {lb}");
            }
        }
        let mut opcodes: Vec<u8> = words.iter().map(|w| w[0] as u8).collect();
        opcodes.sort_unstable();
        opcodes.dedup();
        assert_eq!(opcodes, (0..37).collect::<Vec<u8>>());
    }
}
