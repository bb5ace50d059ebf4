//! The memo fingerprint is a 16-byte digest; this suite holds it to the
//! key it replaced — the request's full canonical text — and pins it.
//!
//! * **As discriminating as the text.** Over torture programs and
//!   conv2d sketch candidates, under every context the key covers, two
//!   requests share a digest iff they share the reference text key.
//! * **Every bit counts.** Flipping one bit of an immediate, a register
//!   index, a branch target, a data word or a segment base, or moving a
//!   word across a segment boundary, changes the digest.
//! * **Stable.** Golden digests of hand-built executables: a toolchain,
//!   platform or refactor that re-keys every snapshot fails here instead
//!   of producing a cache that silently never hits.

use proptest::prelude::*;
use simtune_core::{memo_fingerprint, KernelBuilder, SearchSpace, SketchSpace};
use simtune_isa::{
    torture_program_with, EngineKind, Executable, Fpr, Gpr, Inst, Program, RunLimits, TargetIsa,
    TortureConfig, Vr, DATA_BASE,
};
use simtune_tensor::{conv2d_bias_relu, Conv2dShape, SketchGenerator};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The key this digest replaced, kept as the oracle: the disassembly
/// listing under a context header, then every data word.
fn reference_text_key(
    exe: &Executable,
    fidelity_digest: &str,
    limits: &RunLimits,
    engine: EngineKind,
) -> Vec<u8> {
    let mut text = String::new();
    let t = &exe.target;
    let _ = writeln!(
        text,
        "target={} lanes={} inst_bytes={}",
        t.name, t.vector_lanes, t.inst_bytes
    );
    let _ = writeln!(text, "fidelity=[{fidelity_digest}]");
    let _ = writeln!(text, "engine={}", engine.label());
    let _ = writeln!(text, "max_insts={}", limits.max_insts);
    text.push_str(&exe.program.disassemble());
    let mut key = text.into_bytes();
    for (base, values) in &exe.data_segments {
        key.extend_from_slice(&base.to_le_bytes());
        key.extend_from_slice(&(values.len() as u64).to_le_bytes());
        for v in values {
            key.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    key
}

const DIGESTS: [&str; 2] = [
    "accurate @ l1d=32KiB/8w l2=2MiB/16w",
    "pipelined:btb=512,ras=8 @ l1d=32KiB/8w l2=2MiB/16w",
];
const MAX_INSTS: [u64; 2] = [u64::MAX, 1_000_000];

fn digest_of(exe: &Executable) -> Vec<u8> {
    memo_fingerprint(exe, DIGESTS[0], &RunLimits::default(), EngineKind::Decoded)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Ten torture presets × seeds 0..32 and the first buildable conv2d
/// sketch candidates of a strided walk over the lattice, each on riscv
/// and x86.
fn corpus() -> Vec<Executable> {
    let targets = [TargetIsa::riscv_u74(), TargetIsa::x86_ryzen_5800x()];
    let mut exes = Vec::new();
    for (preset, config) in TortureConfig::corpus() {
        for seed in 0..32u64 {
            let program = torture_program_with(&config, seed);
            for target in &targets {
                let data = vec![seed as f32, -0.0, 1.5];
                exes.push(
                    Executable::new(format!("{preset}-{seed}"), program.clone(), target.clone())
                        .with_segment(DATA_BASE, data),
                );
            }
        }
    }
    let def = conv2d_bias_relu(&Conv2dShape::paper_groups()[1].scaled(8, 8));
    for target in &targets {
        let space = SketchSpace::new(SketchGenerator::new(&def, target.clone()));
        let builder = KernelBuilder::new(def.clone(), target.clone());
        let size = space.size().expect("sketch spaces are finite");
        // A stride coprime to every radix visits all digits of the
        // mixed-radix lattice; canonicalization folds some corners
        // together, which plants genuine duplicates in the corpus.
        let built = (0..size)
            .map(|i| (i * 7919) % size)
            .filter_map(|i| {
                let params = space.nth(i).expect("inside the lattice");
                let schedule = space.generator().schedule(&params);
                builder.build(&schedule, &format!("conv-{i}")).ok()
            })
            .take(160);
        exes.extend(built);
    }
    exes
}

/// Digest equality ⇔ reference-text equality over the whole corpus ×
/// 2 fidelity digests × 2 limits × every engine label, renamed twins
/// included: zero collisions, zero spurious misses.
#[test]
fn the_digest_separates_exactly_what_the_text_key_separates() {
    let exes = corpus();
    assert!(exes.len() >= 640 + 200, "{} executables", exes.len());
    // text → digest: one digest per text means equal texts collide;
    // as many distinct digests as texts means nothing else does.
    let mut by_text: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    let mut requests = 0usize;
    for exe in &exes {
        let mut twin = exe.clone();
        twin.name = format!("{} (renamed)", exe.name);
        for fidelity in DIGESTS {
            for max_insts in MAX_INSTS {
                for engine in EngineKind::ALL {
                    let limits = RunLimits { max_insts };
                    let digest = memo_fingerprint(exe, fidelity, &limits, engine);
                    assert_eq!(digest.len(), 16);
                    assert_eq!(
                        digest,
                        memo_fingerprint(&twin, fidelity, &limits, engine),
                        "a name must not re-key {}",
                        exe.name
                    );
                    let text = reference_text_key(exe, fidelity, &limits, engine);
                    let first = by_text.entry(text).or_insert_with(|| digest.clone());
                    assert_eq!(*first, digest, "equal text, different digest: {}", exe.name);
                    requests += 1;
                }
            }
        }
    }
    let digests: HashSet<&Vec<u8>> = by_text.values().collect();
    assert_eq!(digests.len(), by_text.len(), "two texts share a digest");
    // The corpus must exercise both directions: distinct requests, and
    // duplicates (canonicalized lattice corners build the same program).
    assert!(by_text.len() > 10_000, "{} distinct", by_text.len());
    assert!(
        by_text.len() < requests,
        "no duplicate request in the corpus"
    );
}

/// 64 instructions touching every operand kind, over two segments (the
/// first of odd length, so the packed tail word is covered).
fn specimen() -> Executable {
    let mut insts = vec![
        Inst::Addi {
            rd: Gpr(1),
            rs: Gpr(2),
            imm: 0x0123_4567_89ab_cdef,
        },
        Inst::Fli {
            fd: Fpr(3),
            imm: 1.5,
        },
        Inst::Vsplat {
            vd: Vr(4),
            imm: -2.25,
        },
        Inst::Slli {
            rd: Gpr(5),
            rs: Gpr(6),
            shamt: 3,
        },
        Inst::Vinsert {
            vd: Vr(7),
            fs: Fpr(8),
            lane: 2,
        },
        Inst::Ecall { code: 7 },
        Inst::Fmadd {
            fd: Fpr(9),
            fs1: Fpr(10),
            fs2: Fpr(11),
            fs3: Fpr(12),
        },
        Inst::Vfma {
            vd: Vr(13),
            vs1: Vr(14),
            vs2: Vr(15),
        },
        Inst::Blt {
            rs1: Gpr(16),
            rs2: Gpr(17),
            target: 21,
        },
        Inst::Jmp { target: 42 },
    ];
    insts.resize(
        63,
        Inst::Mv {
            rd: Gpr(0),
            rs: Gpr(0),
        },
    );
    insts.push(Inst::Halt);
    let program = Program::from_insts(insts).expect("a valid program");
    Executable::new("specimen", program, TargetIsa::x86_ryzen_5800x())
        .with_segment(DATA_BASE, vec![1.0, 2.0, 3.0])
        .with_segment(DATA_BASE + 0x1000, vec![4.0, 5.0])
}

/// Every single-bit neighbour of `inst` that is still a valid
/// instruction of a 64-instruction program (register indices < 32,
/// lanes < 8, branch targets < 64).
fn one_bit_neighbours(inst: Inst) -> Vec<Inst> {
    let r = |v: u8| (0..5).map(move |b| v ^ (1 << b));
    let t = |v: usize| (0..6).map(move |b| v ^ (1 << b));
    match inst {
        Inst::Addi { rd, rs, imm } => (0..64)
            .map(|b| Inst::Addi {
                rd,
                rs,
                imm: imm ^ (1 << b),
            })
            .chain(r(rd.0).map(|x| Inst::Addi {
                rd: Gpr(x),
                rs,
                imm,
            }))
            .chain(r(rs.0).map(|x| Inst::Addi {
                rd,
                rs: Gpr(x),
                imm,
            }))
            .collect(),
        Inst::Fli { fd, imm } => (0..32)
            .map(|b| Inst::Fli {
                fd,
                imm: f32::from_bits(imm.to_bits() ^ (1 << b)),
            })
            .chain(r(fd.0).map(|x| Inst::Fli { fd: Fpr(x), imm }))
            .collect(),
        Inst::Vsplat { vd, imm } => (0..32)
            .map(|b| Inst::Vsplat {
                vd,
                imm: f32::from_bits(imm.to_bits() ^ (1 << b)),
            })
            .chain(r(vd.0).map(|x| Inst::Vsplat { vd: Vr(x), imm }))
            .collect(),
        Inst::Slli { rd, rs, shamt } => (0..8)
            .map(|b| Inst::Slli {
                rd,
                rs,
                shamt: shamt ^ (1 << b),
            })
            .collect(),
        Inst::Vinsert { vd, fs, lane } => (0..3)
            .map(|b| Inst::Vinsert {
                vd,
                fs,
                lane: lane ^ (1 << b),
            })
            .chain(r(vd.0).map(|x| Inst::Vinsert {
                vd: Vr(x),
                fs,
                lane,
            }))
            .chain(r(fs.0).map(|x| Inst::Vinsert {
                vd,
                fs: Fpr(x),
                lane,
            }))
            .collect(),
        Inst::Ecall { code } => (0..16)
            .map(|b| Inst::Ecall {
                code: code ^ (1 << b),
            })
            .collect(),
        Inst::Fmadd { fd, fs1, fs2, fs3 } => r(fd.0)
            .map(|x| Inst::Fmadd {
                fd: Fpr(x),
                fs1,
                fs2,
                fs3,
            })
            .chain(r(fs1.0).map(|x| Inst::Fmadd {
                fd,
                fs1: Fpr(x),
                fs2,
                fs3,
            }))
            .chain(r(fs2.0).map(|x| Inst::Fmadd {
                fd,
                fs1,
                fs2: Fpr(x),
                fs3,
            }))
            .chain(r(fs3.0).map(|x| Inst::Fmadd {
                fd,
                fs1,
                fs2,
                fs3: Fpr(x),
            }))
            .collect(),
        Inst::Vfma { vd, vs1, vs2 } => r(vd.0)
            .map(|x| Inst::Vfma {
                vd: Vr(x),
                vs1,
                vs2,
            })
            .chain(r(vs1.0).map(|x| Inst::Vfma {
                vd,
                vs1: Vr(x),
                vs2,
            }))
            .chain(r(vs2.0).map(|x| Inst::Vfma {
                vd,
                vs1,
                vs2: Vr(x),
            }))
            .collect(),
        Inst::Blt { rs1, rs2, target } => t(target)
            .map(|x| Inst::Blt {
                rs1,
                rs2,
                target: x,
            })
            .chain(r(rs1.0).map(|x| Inst::Blt {
                rs1: Gpr(x),
                rs2,
                target,
            }))
            .chain(r(rs2.0).map(|x| Inst::Blt {
                rs1,
                rs2: Gpr(x),
                target,
            }))
            .collect(),
        Inst::Jmp { target } => t(target).map(|x| Inst::Jmp { target: x }).collect(),
        _ => Vec::new(),
    }
}

/// Every one-bit neighbour of the specimen — in the program, the data
/// and the segment layout — has its own digest, distinct from the
/// specimen's and from every other neighbour's.
#[test]
fn every_single_bit_of_program_and_data_is_covered() {
    let base = specimen();
    let mut mutants: Vec<Executable> = Vec::new();
    for (at, inst) in base.program.insts().iter().enumerate() {
        for neighbour in one_bit_neighbours(*inst) {
            let mut insts = base.program.insts().to_vec();
            insts[at] = neighbour;
            let mut m = base.clone();
            m.program = Program::from_insts(insts).expect("neighbours stay valid");
            mutants.push(m);
        }
    }
    let in_program = mutants.len();
    assert_eq!(in_program, 242, "every listed field, every bit");
    for segment in 0..base.data_segments.len() {
        for bit in 0..64 {
            let mut m = base.clone();
            m.data_segments[segment].0 ^= 1 << bit;
            mutants.push(m);
        }
        for word in 0..base.data_segments[segment].1.len() {
            for bit in 0..32 {
                let mut m = base.clone();
                let v = &mut m.data_segments[segment].1[word];
                *v = f32::from_bits(v.to_bits() ^ (1 << bit));
                mutants.push(m);
            }
        }
    }
    // A word crossing the boundary between adjacent segments, each way:
    // the concatenated data is unchanged, only the lengths move.
    let mut forward = base.clone();
    let moved = forward.data_segments[0].1.pop().expect("non-empty");
    forward.data_segments[1].1.insert(0, moved);
    let mut backward = base.clone();
    let moved = backward.data_segments[1].1.remove(0);
    backward.data_segments[0].1.push(moved);
    // And the whole second segment folded into the first.
    let mut merged = base.clone();
    let (_, tail) = merged.data_segments.pop().expect("two segments");
    merged.data_segments[0].1.extend(tail);
    mutants.extend([forward, backward, merged]);

    let mut seen = HashSet::from([digest_of(&base)]);
    for m in &mutants {
        assert!(
            seen.insert(digest_of(m)),
            "a one-bit neighbour shares a digest:\n{}{:x?}",
            m.program.disassemble(),
            m.data_segments
        );
    }
}

/// The text key printed every NaN immediate as `NaN`; the digest hashes
/// the bits, as the simulator executes them.
#[test]
fn nan_payloads_fingerprint_apart() {
    let with_imm = |bits: u32| {
        let insts = vec![
            Inst::Fli {
                fd: Fpr(1),
                imm: f32::from_bits(bits),
            },
            Inst::Halt,
        ];
        let program = Program::from_insts(insts).expect("a valid program");
        Executable::new("nan", program, TargetIsa::riscv_u74())
    };
    let (quiet, payload) = (with_imm(0x7fc0_0000), with_imm(0x7fc0_0001));
    let text =
        |exe| reference_text_key(exe, DIGESTS[0], &RunLimits::default(), EngineKind::Decoded);
    assert_eq!(text(&quiet), text(&payload), "the oracle's blind spot");
    assert_ne!(digest_of(&quiet), digest_of(&payload));
}

/// Golden digests. If this fails, every snapshot in the field stops
/// hitting: either restore the encoding or bump `SNAPSHOT_SCHEMA` and
/// re-pin.
#[test]
fn golden_digests_are_stable() {
    let minimal = Executable::new(
        "minimal",
        Program::from_insts(vec![Inst::Halt]).expect("a valid program"),
        TargetIsa::riscv_u74(),
    );
    let mut arm = specimen();
    arm.target = TargetIsa::arm_cortex_a72();
    let digests = [
        memo_fingerprint(
            &minimal,
            "fast-count @ line_bytes=64",
            &RunLimits::default(),
            EngineKind::Interp,
        ),
        digest_of(&specimen()),
        memo_fingerprint(
            &arm,
            DIGESTS[1],
            &RunLimits { max_insts: 12_345 },
            EngineKind::Threaded,
        ),
    ];
    assert_eq!(
        digests.map(|d| hex(&d)),
        [
            "912dba06ed357d30257e0b7364b3f69c",
            "f3d5bb9f179b141715fba92ac8b6b5a8",
            "ee05f853c24fbf8d9916fdc80ca8d719",
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// On a random torture program: flip one random bit of one random
    /// immediate, data word or segment base; the digest changes exactly
    /// when the reference text does (always, NaN immediates aside — the
    /// generator emits none).
    #[test]
    fn a_random_single_bit_flip_rekeys_like_the_text(
        seed in any::<u64>(),
        preset in 0usize..10,
        pick in any::<u32>(),
        bit in 0u32..64,
        what in 0u8..3,
    ) {
        let (_, config) = TortureConfig::corpus().swap_remove(preset);
        let program = torture_program_with(&config, seed);
        let base = Executable::new("t", program, TargetIsa::x86_ryzen_5800x())
            .with_segment(DATA_BASE, vec![0.5, -1.0, 3.25]);
        let mut flipped = base.clone();
        match what {
            0 => {
                let mut insts = base.program.insts().to_vec();
                let with_imm: Vec<usize> = (0..insts.len())
                    .filter(|&i| matches!(insts[i], Inst::Li { .. } | Inst::Addi { .. }))
                    .collect();
                prop_assume!(!with_imm.is_empty());
                let at = with_imm[pick as usize % with_imm.len()];
                match &mut insts[at] {
                    Inst::Li { imm, .. } | Inst::Addi { imm, .. } => *imm ^= 1 << bit,
                    _ => unreachable!("filtered above"),
                }
                flipped.program = Program::from_insts(insts).expect("immediates are unchecked");
            }
            1 => {
                let values = &mut flipped.data_segments[0].1;
                let v = &mut values[pick as usize % 3];
                *v = f32::from_bits(v.to_bits() ^ (1 << (bit % 32)));
            }
            _ => flipped.data_segments[0].0 ^= 1 << bit,
        }
        let limits = RunLimits::default();
        for engine in EngineKind::ALL {
            prop_assert_ne!(
                reference_text_key(&base, DIGESTS[0], &limits, engine),
                reference_text_key(&flipped, DIGESTS[0], &limits, engine)
            );
            prop_assert_ne!(
                memo_fingerprint(&base, DIGESTS[0], &limits, engine),
                memo_fingerprint(&flipped, DIGESTS[0], &limits, engine)
            );
        }
    }
}
