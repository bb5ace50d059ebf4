//! Code generation: loop-nest IR → virtual-ISA programs.
//!
//! The generator lowers every schedule by the *same* deterministic rules,
//! so instruction-count differences between two schedules reflect real
//! structural differences (loop depth, unrolling, vectorization, register
//! pressure) rather than code-generator noise — which is what makes
//! relative comparisons across implementations meaningful for autotuning.
//!
//! Key mechanisms, mirroring what an `-O2` compiler does for such nests:
//!
//! * **Per-level address partials.** Each buffer access keeps a chain of
//!   pointer registers, one per loop level whose counter appears in its
//!   index; level `ℓ`'s pointer is `parent + 4·coef·counter`, recomputed
//!   once per iteration of loop `ℓ` — not per innermost iteration.
//! * **Unrolling folds constants.** Fully unrolled loops disappear; their
//!   contribution lands in the load/store immediate offset.
//! * **Register windows.** The reduction accumulator lives in a register
//!   across the window computed by lowering (`simtune-tensor::lower`).
//! * **Spilling.** Counters and partials are assigned registers innermost
//!   first; when the target's GPR file (16 on the x86-like target) runs
//!   out, the outermost entities live in stack slots with explicit
//!   load/store traffic — deep tiling on x86 pays real spill cost.

use crate::expr::{tensor_seed, ComputeDef, TensorInit};
use crate::lower::{lower, Access, LoweredKernel, Nest, NestBody, NestLoop};
use crate::schedule::{LoopKind, Schedule, ScheduleError};
use crate::TargetIsa;
use simtune_isa::{
    BuildProgramError, Executable, Fpr, Gpr, Inst, Label, ProgramBuilder, Vr, STACK_BASE,
};
use std::error::Error;
use std::fmt;

// Reserved general-purpose registers.
const SCRATCH0: Gpr = Gpr(0);
const SCRATCH1: Gpr = Gpr(1);
const SP: Gpr = Gpr(2);
const POOL_FIRST: u8 = 3;

// Reserved float registers.
const F_ZERO: Fpr = Fpr(0);
const F_OP_A: Fpr = Fpr(1);
const F_OP_B: Fpr = Fpr(2);
const F_ACC: Fpr = Fpr(3);
const F_BIAS: Fpr = Fpr(4);
const F_TMP: Fpr = Fpr(5);

// Reserved vector registers.
const V_ACC: Vr = Vr(0);
const V_OP_A: Vr = Vr(1);
const V_OP_B: Vr = Vr(2);

/// Errors raised during code generation.
#[derive(Debug, Clone)]
pub enum CodegenError {
    /// The assembled program failed validation (indicates a generator bug).
    Build(BuildProgramError),
    /// A schedule constraint surfaced during lowering.
    Schedule(ScheduleError),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Build(e) => write!(f, "program assembly failed: {e}"),
            CodegenError::Schedule(e) => write!(f, "schedule rejected: {e}"),
        }
    }
}

impl Error for CodegenError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CodegenError::Build(e) => Some(e),
            CodegenError::Schedule(e) => Some(e),
        }
    }
}

impl From<BuildProgramError> for CodegenError {
    fn from(e: BuildProgramError) -> Self {
        CodegenError::Build(e)
    }
}

impl From<ScheduleError> for CodegenError {
    fn from(e: ScheduleError) -> Self {
        CodegenError::Schedule(e)
    }
}

/// Where an entity (loop counter or address partial) lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(Gpr),
    Stack(i64), // byte offset from SP
}

/// Compiles a lowered kernel into an [`Executable`] for `target`.
///
/// `seed` determines the input tensor contents (see
/// [`crate::prepared_inputs`]).
///
/// # Errors
///
/// Returns [`CodegenError::Build`] if the assembled program fails
/// validation — which indicates a bug in the generator, not bad input.
pub fn codegen(
    kernel: &LoweredKernel,
    target: &TargetIsa,
    name: &str,
    seed: u64,
) -> Result<Executable, CodegenError> {
    let mut b = ProgramBuilder::new();
    b.push(Inst::Li {
        rd: SP,
        imm: STACK_BASE as i64,
    });
    for nest in &kernel.nests {
        NestEmitter::new(&mut b, kernel, nest, target).emit()?;
    }
    b.push(Inst::Halt);
    let program = b.build()?;

    let mut exe = Executable::new(name, program, target.clone());
    for (i, buf) in kernel.buffers.iter().enumerate() {
        if matches!(buf.decl.init, TensorInit::Zeros) {
            continue; // memory reads as zero; no segment needed
        }
        exe = exe.with_segment(buf.base, buf.decl.materialize(tensor_seed(seed, i)));
    }
    Ok(exe)
}

/// Lowers and compiles in one step: the "builder" of the paper's
/// autotuning flow (Fig. 2), producing the standalone executable the
/// simulator interface runs.
///
/// # Errors
///
/// Returns [`CodegenError::Schedule`] for invalid schedules and
/// [`CodegenError::Build`] for internal assembly failures.
///
/// # Example
///
/// ```
/// use simtune_tensor::{build_executable, matmul, Schedule, TargetIsa};
///
/// let def = matmul(8, 8, 8);
/// let exe = build_executable(&def, &Schedule::default_for(&def),
///                            &TargetIsa::riscv_u74(), 42, "mm")?;
/// assert!(exe.program.len() > 10);
/// # Ok::<(), simtune_tensor::CodegenError>(())
/// ```
pub fn build_executable(
    def: &ComputeDef,
    schedule: &Schedule,
    target: &TargetIsa,
    seed: u64,
    name: &str,
) -> Result<Executable, CodegenError> {
    let kernel = lower(def, schedule, target)?;
    codegen(&kernel, target, name, seed)
}

/// Identifies an access site within a nest body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteId {
    Out,
    Lhs,
    Rhs,
    In,
    Bias,
}

struct Site<'a> {
    id: SiteId,
    access: &'a Access,
    /// Serial (extent > 1) loop levels whose counter appears in the index.
    chain: Vec<usize>,
    /// Locations: `locs[0]` = root pointer, `locs[1 + i]` = partial after
    /// applying `chain[i]`.
    locs: Vec<Loc>,
}

struct NestEmitter<'a, 'b> {
    b: &'a mut ProgramBuilder,
    kernel: &'b LoweredKernel,
    nest: &'b Nest,
    target: &'b TargetIsa,
    sites: Vec<Site<'b>>,
    counter_locs: Vec<Option<Loc>>, // per loop level; None = no counter
    /// Unrolled-instance values currently in scope: (level, value).
    unroll_env: Vec<(usize, usize)>,
    vector_leaf: Option<usize>,
}

impl<'a, 'b> NestEmitter<'a, 'b> {
    fn new(
        b: &'a mut ProgramBuilder,
        kernel: &'b LoweredKernel,
        nest: &'b Nest,
        target: &'b TargetIsa,
    ) -> Self {
        let vector_leaf = nest
            .loops
            .last()
            .filter(|l| l.kind == LoopKind::Vectorized)
            .map(|_| nest.loops.len() - 1);

        let accesses: Vec<(SiteId, &Access)> = match &nest.body {
            NestBody::InitStore { out } => vec![(SiteId::Out, out)],
            NestBody::MacReduce { out, lhs, rhs, .. } => {
                vec![(SiteId::Out, out), (SiteId::Lhs, lhs), (SiteId::Rhs, rhs)]
            }
            NestBody::Epilogue { out, input, bias } => {
                vec![
                    (SiteId::Out, out),
                    (SiteId::In, input),
                    (SiteId::Bias, bias),
                ]
            }
        };

        let is_chain_level = |l: usize| {
            let info: &NestLoop = &nest.loops[l];
            info.kind == LoopKind::Serial && info.extent > 1
        };
        let sites: Vec<Site> = accesses
            .into_iter()
            .map(|(id, access)| {
                let chain: Vec<usize> = access
                    .expr
                    .terms
                    .iter()
                    .map(|&(l, _)| l)
                    .filter(|&l| is_chain_level(l))
                    .collect();
                Site {
                    id,
                    access,
                    chain,
                    locs: Vec::new(),
                }
            })
            .collect();

        let mut em = NestEmitter {
            b,
            kernel,
            nest,
            target,
            sites,
            counter_locs: vec![None; nest.loops.len()],
            unroll_env: Vec::new(),
            vector_leaf,
        };
        em.allocate();
        em
    }

    /// Assigns registers (innermost first) then stack slots.
    fn allocate(&mut self) {
        // Entity list: (depth, kind, site index or level, chain position).
        // depth -1 = site roots.
        #[derive(Clone, Copy)]
        enum Ent {
            Counter(usize),        // level
            Partial(usize, usize), // site idx, chain pos
            Root(usize),           // site idx
        }
        let mut ents: Vec<(i64, Ent)> = Vec::new();
        for (l, info) in self.nest.loops.iter().enumerate() {
            if info.kind == LoopKind::Serial && info.extent > 1 {
                ents.push((l as i64, Ent::Counter(l)));
            }
        }
        for (s, site) in self.sites.iter().enumerate() {
            ents.push((-1, Ent::Root(s)));
            for (pos, &lvl) in site.chain.iter().enumerate() {
                ents.push((lvl as i64, Ent::Partial(s, pos)));
            }
        }
        // Deepest first gets registers.
        ents.sort_by_key(|&(d, _)| std::cmp::Reverse(d));

        let pool_len = self.target.gpr_count.saturating_sub(POOL_FIRST as usize);
        let mut next_reg = 0usize;
        let mut next_slot = 0i64;
        let take = |next_reg: &mut usize, next_slot: &mut i64| -> Loc {
            if *next_reg < pool_len {
                let r = Gpr(POOL_FIRST + *next_reg as u8);
                *next_reg += 1;
                Loc::Reg(r)
            } else {
                let s = Loc::Stack(*next_slot);
                *next_slot += 8;
                s
            }
        };

        // Pre-size site loc vectors: locs[0] root, then per chain level.
        for site in &mut self.sites {
            site.locs = vec![Loc::Stack(0); site.chain.len() + 1];
        }
        for (_, ent) in ents {
            let loc = take(&mut next_reg, &mut next_slot);
            match ent {
                Ent::Counter(l) => self.counter_locs[l] = Some(loc),
                Ent::Root(s) => self.sites[s].locs[0] = loc,
                Ent::Partial(s, pos) => self.sites[s].locs[pos + 1] = loc,
            }
        }
    }

    fn emit(mut self) -> Result<(), CodegenError> {
        // Nest prologue: constants + root pointers.
        if !matches!(self.nest.body, NestBody::MacReduce { .. }) {
            self.b.push(Inst::Fli {
                fd: F_ZERO,
                imm: 0.0,
            });
        }
        for s in 0..self.sites.len() {
            let base = self.kernel.buffers[self.sites[s].access.buffer].base as i64;
            let root_val = base + 4 * self.sites[s].access.expr.constant;
            let loc = self.sites[s].locs[0];
            match loc {
                Loc::Reg(r) => {
                    self.b.push(Inst::Li {
                        rd: r,
                        imm: root_val,
                    });
                }
                Loc::Stack(off) => {
                    self.b.push(Inst::Li {
                        rd: SCRATCH0,
                        imm: root_val,
                    });
                    self.b.push(Inst::Sd {
                        rval: SCRATCH0,
                        rs: SP,
                        imm: off,
                    });
                }
            }
        }
        self.emit_level(0);
        Ok(())
    }

    fn window_entry(&self) -> Option<usize> {
        match &self.nest.body {
            NestBody::MacReduce { window_entry, .. } => Some(*window_entry),
            _ => None,
        }
    }

    fn emit_level(&mut self, level: usize) {
        if self.window_entry() == Some(level) {
            self.emit_acc_start();
        }
        if level == self.nest.loops.len() {
            self.emit_leaf();
        } else {
            let info = self.nest.loops[level];
            let effective_kind = if info.kind == LoopKind::Serial && info.extent == 1 {
                // Trivial loops are folded like single-instance unrolls.
                LoopKind::Unrolled
            } else {
                info.kind
            };
            match effective_kind {
                LoopKind::Serial => self.emit_serial(level, info.extent),
                LoopKind::Unrolled => {
                    for val in 0..info.extent {
                        self.unroll_env.push((level, val));
                        self.emit_level(level + 1);
                        self.unroll_env.pop();
                    }
                }
                LoopKind::Vectorized => {
                    // Handled by the leaf; just descend.
                    self.emit_level(level + 1);
                }
            }
        }
        if self.window_entry() == Some(level) {
            self.emit_acc_store();
        }
    }

    fn emit_serial(&mut self, level: usize, extent: usize) {
        let cnt = self.counter_locs[level].expect("serial loop has a counter");
        // counter = 0
        match cnt {
            Loc::Reg(r) => {
                self.b.push(Inst::Li { rd: r, imm: 0 });
            }
            Loc::Stack(off) => {
                self.b.push(Inst::Li {
                    rd: SCRATCH0,
                    imm: 0,
                });
                self.b.push(Inst::Sd {
                    rval: SCRATCH0,
                    rs: SP,
                    imm: off,
                });
            }
        }
        let top: Label = self.b.bind_new_label();

        // Address partial updates for sites indexed by this level.
        for s in 0..self.sites.len() {
            let Some(pos) = self.sites[s].chain.iter().position(|&l| l == level) else {
                continue;
            };
            let coef = self.sites[s].access.expr.coef(level);
            let parent = if pos == 0 {
                self.sites[s].locs[0]
            } else {
                self.sites[s].locs[pos]
            };
            let dest = self.sites[s].locs[pos + 1];
            // parent pointer -> register
            let parent_reg = self.read_to(parent, SCRATCH0);
            // counter -> register
            let cnt_reg = self.read_to(cnt, SCRATCH1);
            // scratch1 = counter * 4*coef ; dest = parent + scratch1
            self.b.push(Inst::Muli {
                rd: SCRATCH1,
                rs: cnt_reg,
                imm: 4 * coef,
            });
            match dest {
                Loc::Reg(r) => {
                    self.b.push(Inst::Add {
                        rd: r,
                        rs1: parent_reg,
                        rs2: SCRATCH1,
                    });
                }
                Loc::Stack(off) => {
                    self.b.push(Inst::Add {
                        rd: SCRATCH1,
                        rs1: parent_reg,
                        rs2: SCRATCH1,
                    });
                    self.b.push(Inst::Sd {
                        rval: SCRATCH1,
                        rs: SP,
                        imm: off,
                    });
                }
            }
        }

        self.emit_level(level + 1);

        // Latch: counter += 1; if counter < extent goto top.
        match cnt {
            Loc::Reg(r) => {
                self.b.push(Inst::Addi {
                    rd: r,
                    rs: r,
                    imm: 1,
                });
                self.b.push(Inst::Li {
                    rd: SCRATCH0,
                    imm: extent as i64,
                });
                self.b.branch_lt(r, SCRATCH0, top);
            }
            Loc::Stack(off) => {
                self.b.push(Inst::Ld {
                    rd: SCRATCH0,
                    rs: SP,
                    imm: off,
                });
                self.b.push(Inst::Addi {
                    rd: SCRATCH0,
                    rs: SCRATCH0,
                    imm: 1,
                });
                self.b.push(Inst::Sd {
                    rval: SCRATCH0,
                    rs: SP,
                    imm: off,
                });
                self.b.push(Inst::Li {
                    rd: SCRATCH1,
                    imm: extent as i64,
                });
                self.b.branch_lt(SCRATCH0, SCRATCH1, top);
            }
        }
    }

    /// Reads a location into a register (pass-through for `Loc::Reg`).
    fn read_to(&mut self, loc: Loc, scratch: Gpr) -> Gpr {
        match loc {
            Loc::Reg(r) => r,
            Loc::Stack(off) => {
                self.b.push(Inst::Ld {
                    rd: scratch,
                    rs: SP,
                    imm: off,
                });
                scratch
            }
        }
    }

    /// Pointer register for `site` valid at loop `level` (exclusive of
    /// deeper levels), plus the immediate byte offset contributed by
    /// enclosing unrolled instances.
    fn pointer_at(&mut self, site_idx: usize, level: usize, scratch: Gpr) -> (Gpr, i64) {
        let site = &self.sites[site_idx];
        let pos = site
            .chain
            .iter()
            .rposition(|&l| l < level)
            .map(|p| p + 1)
            .unwrap_or(0);
        let loc = site.locs[pos];
        let imm = self.unrolled_imm(site_idx);
        (self.read_to(loc, scratch), imm)
    }

    /// Immediate byte offset from unrolled instances in scope.
    fn unrolled_imm(&self, site_idx: usize) -> i64 {
        let expr = &self.sites[site_idx].access.expr;
        4 * self
            .unroll_env
            .iter()
            .map(|&(l, v)| expr.coef(l) * v as i64)
            .sum::<i64>()
    }

    fn site_index(&self, id: SiteId) -> usize {
        self.sites
            .iter()
            .position(|s| s.id == id)
            .expect("site exists for body kind")
    }

    fn is_vector_body(&self) -> bool {
        self.vector_leaf.is_some()
    }

    fn emit_acc_start(&mut self) {
        let NestBody::MacReduce {
            full_reduction,
            window_entry,
            ..
        } = &self.nest.body
        else {
            return;
        };
        let (full_reduction, window_entry) = (*full_reduction, *window_entry);
        let vector = self.is_vector_body();
        if full_reduction {
            if vector {
                self.b.push(Inst::Vsplat {
                    vd: V_ACC,
                    imm: 0.0,
                });
            } else {
                self.b.push(Inst::Fli {
                    fd: F_ACC,
                    imm: 0.0,
                });
            }
            return;
        }
        let out = self.site_index(SiteId::Out);
        let (ptr, imm) = self.pointer_at(out, window_entry, SCRATCH0);
        if vector {
            self.b.push(Inst::Vload {
                vd: V_ACC,
                rs: ptr,
                imm,
            });
        } else {
            self.b.push(Inst::Flw {
                fd: F_ACC,
                rs: ptr,
                imm,
            });
        }
    }

    fn emit_acc_store(&mut self) {
        let NestBody::MacReduce { window_entry, .. } = &self.nest.body else {
            return;
        };
        let window_entry = *window_entry;
        let out = self.site_index(SiteId::Out);
        let (ptr, imm) = self.pointer_at(out, window_entry, SCRATCH0);
        if self.is_vector_body() {
            self.b.push(Inst::Vstore {
                vval: V_ACC,
                rs: ptr,
                imm,
            });
        } else {
            self.b.push(Inst::Fsw {
                fval: F_ACC,
                rs: ptr,
                imm,
            });
        }
    }

    fn emit_leaf(&mut self) {
        let n = self.nest.loops.len();
        match &self.nest.body {
            NestBody::InitStore { .. } => {
                let out = self.site_index(SiteId::Out);
                let (ptr, imm) = self.pointer_at(out, n, SCRATCH0);
                self.b.push(Inst::Fsw {
                    fval: F_ZERO,
                    rs: ptr,
                    imm,
                });
            }
            NestBody::Epilogue { .. } => {
                let input = self.site_index(SiteId::In);
                let (iptr, iimm) = self.pointer_at(input, n, SCRATCH0);
                self.b.push(Inst::Flw {
                    fd: F_OP_A,
                    rs: iptr,
                    imm: iimm,
                });
                let bsite = self.site_index(SiteId::Bias);
                let (bptr, bimm) = self.pointer_at(bsite, n, SCRATCH0);
                self.b.push(Inst::Flw {
                    fd: F_BIAS,
                    rs: bptr,
                    imm: bimm,
                });
                self.b.push(Inst::Fadd {
                    fd: F_TMP,
                    fs1: F_OP_A,
                    fs2: F_BIAS,
                });
                self.b.push(Inst::Fmax {
                    fd: F_TMP,
                    fs1: F_TMP,
                    fs2: F_ZERO,
                });
                let out = self.site_index(SiteId::Out);
                let (optr, oimm) = self.pointer_at(out, n, SCRATCH0);
                self.b.push(Inst::Fsw {
                    fval: F_TMP,
                    rs: optr,
                    imm: oimm,
                });
            }
            NestBody::MacReduce { .. } => {
                if let Some(vlevel) = self.vector_leaf {
                    self.emit_vector_mac(vlevel);
                } else {
                    let lhs = self.site_index(SiteId::Lhs);
                    let (lptr, limm) = self.pointer_at(lhs, n, SCRATCH0);
                    self.b.push(Inst::Flw {
                        fd: F_OP_A,
                        rs: lptr,
                        imm: limm,
                    });
                    let rsite = self.site_index(SiteId::Rhs);
                    let (rptr, rimm) = self.pointer_at(rsite, n, SCRATCH0);
                    self.b.push(Inst::Flw {
                        fd: F_OP_B,
                        rs: rptr,
                        imm: rimm,
                    });
                    // Fused multiply-add straight into the window.
                    self.b.push(Inst::Fmadd {
                        fd: F_ACC,
                        fs1: F_OP_A,
                        fs2: F_OP_B,
                        fs3: F_ACC,
                    });
                }
            }
        }
    }

    /// Vector MAC leaf: operand load strategy depends on each operand's
    /// stride along the vectorized loop.
    fn emit_vector_mac(&mut self, vlevel: usize) {
        let lanes = self.target.vector_lanes;
        let lhs = self.site_index(SiteId::Lhs);
        self.emit_vector_operand(lhs, vlevel, V_OP_A, lanes);
        let rsite = self.site_index(SiteId::Rhs);
        self.emit_vector_operand(rsite, vlevel, V_OP_B, lanes);
        self.b.push(Inst::Vfma {
            vd: V_ACC,
            vs1: V_OP_A,
            vs2: V_OP_B,
        });
    }

    fn emit_vector_operand(&mut self, site_idx: usize, vlevel: usize, dst: Vr, lanes: usize) {
        let coef = self.sites[site_idx].access.expr.coef(vlevel);
        let n = self.nest.loops.len();
        match coef {
            0 => {
                // Invariant along the vector: scalar load + broadcast.
                let (ptr, imm) = self.pointer_at(site_idx, n, SCRATCH0);
                self.b.push(Inst::Flw {
                    fd: F_OP_A,
                    rs: ptr,
                    imm,
                });
                self.b.push(Inst::Vbcast {
                    vd: dst,
                    fs: F_OP_A,
                });
            }
            1 => {
                // Unit stride: one vector load.
                let (ptr, imm) = self.pointer_at(site_idx, n, SCRATCH0);
                self.b.push(Inst::Vload {
                    vd: dst,
                    rs: ptr,
                    imm,
                });
            }
            c => {
                // Strided gather: one scalar load + insert per lane (what
                // compilers emit for non-unit-stride vector operands, e.g.
                // stride-2 convolution inputs).
                for lane in 0..lanes {
                    let (ptr, imm) = self.pointer_at(site_idx, n, SCRATCH0);
                    self.b.push(Inst::Flw {
                        fd: F_OP_A,
                        rs: ptr,
                        imm: imm + 4 * c * lane as i64,
                    });
                    self.b.push(Inst::Vinsert {
                        vd: dst,
                        fs: F_OP_A,
                        lane: lane as u8,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::matmul;

    #[test]
    fn build_executable_produces_runnable_code() {
        let def = matmul(4, 4, 4);
        let exe = build_executable(
            &def,
            &Schedule::default_for(&def),
            &TargetIsa::riscv_u74(),
            1,
            "mm",
        )
        .unwrap();
        assert_eq!(exe.target.name, "riscv");
        // Two input segments (a, b); the zeroed output needs none.
        assert_eq!(exe.data_segments.len(), 2);
    }

    #[test]
    fn invalid_schedule_surfaces_as_schedule_error() {
        let def = matmul(4, 4, 4);
        let mut s = Schedule::default_for(&def);
        s.order.pop();
        let err = build_executable(&def, &s, &TargetIsa::riscv_u74(), 1, "mm");
        assert!(matches!(err, Err(CodegenError::Schedule(_))));
    }

    #[test]
    fn error_display_mentions_cause() {
        let def = matmul(4, 4, 4);
        let mut s = Schedule::default_for(&def);
        s.order.pop();
        let err = build_executable(&def, &s, &TargetIsa::riscv_u74(), 1, "mm").unwrap_err();
        assert!(err.to_string().contains("schedule rejected"));
    }
}
