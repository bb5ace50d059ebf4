//! Lowering: applied schedule → loop-nest IR.
//!
//! Turns a [`ComputeDef`] plus [`LoopStructure`] into one to three
//! [`Nest`]s of a fixed vocabulary the code generator understands:
//!
//! 1. an optional *init* nest zeroing the accumulator buffer (needed only
//!    when the register window cannot cover the whole reduction),
//! 2. the *main* reduction nest,
//! 3. an optional *epilogue* nest applying bias + ReLU.
//!
//! The central concept is the **register window**: the maximal innermost
//! run of loops in which the output index is invariant. Inside the window
//! the accumulator lives in a register; the store happens once at window
//! exit. Schedules that push reduction loops innermost therefore get
//! cheap accumulation, and schedules that interleave spatial loops below
//! reduction loops pay a load-modify-store per element — exactly the cost
//! structure real compilers produce.

use crate::expr::{ComputeDef, OperandAccess, TensorDecl, TensorInit, VarRef};
use crate::schedule::{LoopKind, LoopStructure, Schedule, ScheduleError};
use crate::TargetIsa;
use simtune_isa::DATA_BASE;

/// Buffer index within a [`LoweredKernel`].
pub type BufId = usize;

/// Linear (element-offset) affine expression over the loops of one nest:
/// `offset = Σ coef·loop_counter + constant`. Term indices refer to
/// positions in [`Nest::loops`], outermost = 0.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    /// `(loop index, coefficient)` terms, sorted by loop index.
    pub terms: Vec<(usize, i64)>,
    /// Constant element offset.
    pub constant: i64,
}

impl LinExpr {
    /// Coefficient of loop `l` (0 when absent).
    pub fn coef(&self, l: usize) -> i64 {
        self.terms
            .iter()
            .find(|&&(i, _)| i == l)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }

    /// Deepest loop with a non-zero coefficient, if any.
    pub fn deepest_term(&self) -> Option<usize> {
        self.terms.iter().map(|&(i, _)| i).max()
    }

    /// Evaluates for concrete loop counter values.
    pub fn eval(&self, counters: &[usize]) -> i64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(i, c)| c * counters[i] as i64)
                .sum::<i64>()
    }

    fn push(&mut self, loop_idx: usize, coef: i64) {
        if coef == 0 {
            return;
        }
        if let Some(t) = self.terms.iter_mut().find(|(i, _)| *i == loop_idx) {
            t.1 += coef;
            self.terms.retain(|&(_, c)| c != 0);
        } else {
            self.terms.push((loop_idx, coef));
            self.terms.sort_by_key(|&(i, _)| i);
        }
    }
}

/// A buffer access at element granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Which buffer.
    pub buffer: BufId,
    /// Element offset expression.
    pub expr: LinExpr,
}

/// One loop of a lowered nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestLoop {
    /// Trip count.
    pub extent: usize,
    /// Execution kind.
    pub kind: LoopKind,
}

/// The innermost statement of a nest.
#[derive(Debug, Clone, PartialEq)]
pub enum NestBody {
    /// `out[expr] = 0` — the init nest.
    InitStore {
        /// Store target.
        out: Access,
    },
    /// `out[expr] {+}= Σ lhs·rhs` with a register window.
    MacReduce {
        /// Reduction output.
        out: Access,
        /// Left operand.
        lhs: Access,
        /// Right operand.
        rhs: Access,
        /// `true`: the window covers the full reduction; the accumulator
        /// starts at zero and is stored once. `false`:
        /// load-accumulate-store against the buffer (an init nest zeroed
        /// it).
        full_reduction: bool,
        /// Loop index at which the accumulator register becomes live
        /// (0 = whole nest; `loops.len()` = per-leaf load/store).
        window_entry: usize,
    },
    /// `out[expr] = relu(input[expr] + bias[expr])` — the epilogue nest.
    Epilogue {
        /// Final output.
        out: Access,
        /// Accumulator buffer being read.
        input: Access,
        /// Bias operand.
        bias: Access,
    },
}

/// One lowered loop nest.
#[derive(Debug, Clone, PartialEq)]
pub struct Nest {
    /// Loops, outermost first.
    pub loops: Vec<NestLoop>,
    /// Innermost statement.
    pub body: NestBody,
}

/// A buffer of the lowered kernel with its simulated base address.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferLayout {
    /// Declaration (name, shape, init policy).
    pub decl: TensorDecl,
    /// Base byte address in simulator memory.
    pub base: u64,
}

impl BufferLayout {
    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.decl.len() as u64 * 4
    }
}

/// Fully lowered kernel: buffers with addresses plus the nest sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredKernel {
    /// All buffers; indices are [`BufId`]s.
    pub buffers: Vec<BufferLayout>,
    /// Nests in execution order.
    pub nests: Vec<Nest>,
    /// Buffer holding the kernel's final output.
    pub output_buffer: BufId,
    /// Scratch accumulator buffer, present when an epilogue exists.
    pub scratch_buffer: Option<BufId>,
}

/// Lowers `def` under `schedule` for `target`.
///
/// # Errors
///
/// Propagates [`ScheduleError`]s from [`Schedule::apply`] and adds
/// [`ScheduleError::VectorizedOutputNotContiguous`] when the vectorized
/// loop does not write the output with stride 1.
///
/// # Example
///
/// ```
/// use simtune_tensor::{lower, matmul, Schedule, TargetIsa};
///
/// let def = matmul(8, 8, 8);
/// let lowered = lower(&def, &Schedule::default_for(&def), &TargetIsa::riscv_u74())?;
/// // Default matmul: one nest, no scratch, full register window.
/// assert_eq!(lowered.nests.len(), 1);
/// assert!(lowered.scratch_buffer.is_none());
/// # Ok::<(), simtune_tensor::ScheduleError>(())
/// ```
pub fn lower(
    def: &ComputeDef,
    schedule: &Schedule,
    target: &TargetIsa,
) -> Result<LoweredKernel, ScheduleError> {
    let structure = schedule.apply(def, target)?;
    lower_structure(def, &structure)
}

/// Lowers an already-applied loop structure (used by the tuners to avoid
/// re-validating).
///
/// # Errors
///
/// Returns [`ScheduleError::VectorizedOutputNotContiguous`] when the
/// vectorized loop's output stride is not 1.
pub fn lower_structure(
    def: &ComputeDef,
    structure: &LoopStructure,
) -> Result<LoweredKernel, ScheduleError> {
    // ---- buffer layout ----
    let needs_scratch = def.epilogue.is_some();
    let mut buffers: Vec<BufferLayout> = Vec::new();
    let mut cursor = DATA_BASE;
    for decl in &def.tensors {
        let mut d = decl.clone();
        // The output is written by this kernel; it starts zeroed.
        if buffers.len() == def.output {
            d.init = TensorInit::Zeros;
        }
        let b = BufferLayout {
            decl: d,
            base: cursor,
        };
        cursor = align_up(cursor + b.bytes(), 4096);
        buffers.push(b);
    }
    let scratch_buffer = if needs_scratch {
        let b = BufferLayout {
            decl: TensorDecl::new("acc_scratch", def.output_decl().shape.clone())
                .with_init(TensorInit::Zeros),
            base: cursor,
        };
        buffers.push(b);
        Some(buffers.len() - 1)
    } else {
        None
    };
    let main_dest: BufId = scratch_buffer.unwrap_or(def.output);

    // ---- index expressions over the scheduled loops ----
    let expansions = structure.expansions();
    let to_lin = |access: &OperandAccess| -> LinExpr {
        let affine = access.linearize(&def.tensors[access.tensor]);
        let mut lin = LinExpr {
            terms: Vec::new(),
            constant: affine.constant,
        };
        for &(var, coef) in &affine.terms {
            for &(loop_idx, stride) in &expansions[&var] {
                lin.push(loop_idx, coef * stride);
            }
        }
        lin
    };

    // Output index: identity over spatial vars, flattened row-major.
    let out_strides = def.output_decl().strides();
    let mut out_lin = LinExpr::default();
    for (dim, stride) in out_strides.iter().enumerate() {
        for &(loop_idx, vstride) in &expansions[&VarRef::Spatial(dim)] {
            out_lin.push(loop_idx, *stride as i64 * vstride);
        }
    }

    let lhs_lin = to_lin(&def.lhs);
    let rhs_lin = to_lin(&def.rhs);

    // ---- register window ----
    let n_loops = structure.loops.len();
    let vector_leaf = structure
        .loops
        .last()
        .filter(|l| l.kind == LoopKind::Vectorized)
        .map(|_| n_loops - 1);
    if let Some(v) = vector_leaf {
        let coef = out_lin.coef(v);
        if coef != 1 {
            return Err(ScheduleError::VectorizedOutputNotContiguous { coef });
        }
    }
    // Deepest loop (other than a vectorized leaf) carrying the output.
    let deepest_out = out_lin
        .terms
        .iter()
        .map(|&(i, _)| i)
        .filter(|&i| Some(i) != vector_leaf)
        .max();
    let window_entry = deepest_out.map(|d| d + 1).unwrap_or(0);

    // Does the window cover every reduction loop?
    let full_reduction = structure
        .loops
        .iter()
        .enumerate()
        .all(|(i, l)| !l.is_reduce || i >= window_entry);

    let mut nests = Vec::new();

    // ---- init nest (flat) when the window is partial ----
    if !full_reduction {
        let len = buffers[main_dest].decl.len();
        nests.push(Nest {
            loops: vec![NestLoop {
                extent: len,
                kind: LoopKind::Serial,
            }],
            body: NestBody::InitStore {
                out: Access {
                    buffer: main_dest,
                    expr: LinExpr {
                        terms: vec![(0, 1)],
                        constant: 0,
                    },
                },
            },
        });
    }

    // ---- main nest ----
    nests.push(Nest {
        loops: structure
            .loops
            .iter()
            .map(|l| NestLoop {
                extent: l.extent,
                kind: l.kind,
            })
            .collect(),
        body: NestBody::MacReduce {
            out: Access {
                buffer: main_dest,
                expr: out_lin,
            },
            lhs: Access {
                buffer: def.lhs.tensor,
                expr: lhs_lin,
            },
            rhs: Access {
                buffer: def.rhs.tensor,
                expr: rhs_lin,
            },
            full_reduction,
            window_entry,
        },
    });

    // ---- epilogue nest (untiled spatial loops) ----
    if let Some(epi) = &def.epilogue {
        let spatial_loops: Vec<NestLoop> = def
            .spatial_extents
            .iter()
            .map(|&e| NestLoop {
                extent: e,
                kind: LoopKind::Serial,
            })
            .collect();
        // Identity flat index over the epilogue's own loops.
        let mut flat = LinExpr::default();
        for (dim, stride) in out_strides.iter().enumerate() {
            flat.push(dim, *stride as i64);
        }
        let affine = epi.bias.linearize(&def.tensors[epi.bias.tensor]);
        let mut bias_lin = LinExpr {
            terms: Vec::new(),
            constant: affine.constant,
        };
        for &(var, coef) in &affine.terms {
            match var {
                VarRef::Spatial(i) => bias_lin.push(i, coef),
                VarRef::Reduce(_) => unreachable!("bias indexed by reduce var"),
            }
        }
        nests.push(Nest {
            loops: spatial_loops,
            body: NestBody::Epilogue {
                out: Access {
                    buffer: def.output,
                    expr: flat.clone(),
                },
                input: Access {
                    buffer: main_dest,
                    expr: flat,
                },
                bias: Access {
                    buffer: epi.bias.tensor,
                    expr: bias_lin,
                },
            },
        });
    }

    Ok(LoweredKernel {
        buffers,
        nests,
        output_buffer: def.output,
        scratch_buffer,
    })
}

fn align_up(v: u64, align: u64) -> u64 {
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{conv2d_bias_relu, matmul, Conv2dShape};
    use crate::schedule::{Split, SubVar};

    fn arm() -> TargetIsa {
        TargetIsa::arm_cortex_a72()
    }

    #[test]
    fn default_matmul_gets_full_window() {
        let def = matmul(4, 6, 8);
        let k = lower(&def, &Schedule::default_for(&def), &arm()).unwrap();
        assert_eq!(k.nests.len(), 1);
        match &k.nests[0].body {
            NestBody::MacReduce {
                full_reduction,
                window_entry,
                ..
            } => {
                assert!(*full_reduction);
                // Loops: i, j, k — the window starts below j (index 2).
                assert_eq!(*window_entry, 2);
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn reduction_outside_window_forces_init_nest() {
        // Order k, i, j: output depends on the innermost loops, so the
        // window cannot cover k -> init nest + load/modify/store.
        let def = matmul(4, 4, 4);
        let mut s = Schedule::default_for(&def);
        s.order = vec![
            SubVar::whole(VarRef::Reduce(0)),
            SubVar::whole(VarRef::Spatial(0)),
            SubVar::whole(VarRef::Spatial(1)),
        ];
        let k = lower(&def, &s, &arm()).unwrap();
        assert_eq!(k.nests.len(), 2, "init nest + main nest");
        match &k.nests[1].body {
            NestBody::MacReduce {
                full_reduction,
                window_entry,
                ..
            } => {
                assert!(!*full_reduction);
                assert_eq!(*window_entry, 3, "window is empty (per-leaf)");
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn conv_produces_scratch_and_epilogue() {
        let shape = Conv2dShape {
            n: 1,
            h: 8,
            w: 8,
            co: 4,
            ci: 3,
            kh: 3,
            kw: 3,
            stride: (1, 1),
            pad: (1, 1),
        };
        let def = conv2d_bias_relu(&shape);
        let k = lower(&def, &Schedule::default_for(&def), &arm()).unwrap();
        assert!(k.scratch_buffer.is_some());
        assert_eq!(k.nests.len(), 2, "main + epilogue (full window)");
        match &k.nests[1].body {
            NestBody::Epilogue { bias, .. } => {
                assert_eq!(bias.buffer, 2, "bias tensor");
            }
            other => panic!("expected epilogue, got {other:?}"),
        }
        // Buffer addresses are 4 KiB aligned and non-overlapping.
        for w in k.buffers.windows(2) {
            assert!(w[1].base >= w[0].base + w[0].bytes());
            assert_eq!(w[1].base % 4096, 0);
        }
    }

    #[test]
    fn vectorized_output_stride_must_be_one() {
        // Vectorize i (stride M in C) instead of j: rejected at lowering.
        let def = matmul(4, 8, 4);
        let mut s = Schedule::default_for(&def);
        s.order = vec![
            SubVar::whole(VarRef::Spatial(1)),
            SubVar::whole(VarRef::Reduce(0)),
            SubVar::whole(VarRef::Spatial(0)),
        ];
        s.vectorize = Some(SubVar::whole(VarRef::Spatial(0)));
        let err = lower(&def, &s, &arm());
        assert!(matches!(
            err,
            Err(ScheduleError::VectorizedOutputNotContiguous { coef: 8 })
        ));
    }

    #[test]
    fn vectorized_inner_j_is_accepted_and_window_excludes_leaf() {
        let def = matmul(4, 8, 4);
        let j = VarRef::Spatial(1);
        let mut s = Schedule::default_for(&def);
        s.splits.push(Split {
            var: j,
            factors: vec![4], // j.1 extent 4 == ARM lanes
        });
        s.order = vec![
            SubVar::whole(VarRef::Spatial(0)),
            SubVar { var: j, piece: 0 },
            SubVar::whole(VarRef::Reduce(0)),
            SubVar { var: j, piece: 1 },
        ];
        s.vectorize = Some(SubVar { var: j, piece: 1 });
        let k = lower(&def, &s, &arm()).unwrap();
        match &k.nests[0].body {
            NestBody::MacReduce {
                full_reduction,
                window_entry,
                ..
            } => {
                // Window entry under j.0 (index 1): covers k and the
                // vectorized leaf.
                assert_eq!(*window_entry, 2);
                assert!(*full_reduction);
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn lin_expr_eval_and_coef() {
        let e = LinExpr {
            terms: vec![(0, 4), (2, 1)],
            constant: 7,
        };
        assert_eq!(e.eval(&[2, 9, 3]), 8 + 3 + 7);
        assert_eq!(e.coef(0), 4);
        assert_eq!(e.coef(1), 0);
        assert_eq!(e.deepest_term(), Some(2));
    }

    #[test]
    fn split_expands_indices_consistently() {
        // After splitting k by 2, the lhs A[i,k] coefficient on k.0 must
        // be stride*orig_coef = 2.
        let def = matmul(4, 4, 8);
        let kvar = VarRef::Reduce(0);
        let mut s = Schedule::default_for(&def);
        s.splits.push(Split {
            var: kvar,
            factors: vec![2],
        });
        s.order = vec![
            SubVar::whole(VarRef::Spatial(0)),
            SubVar::whole(VarRef::Spatial(1)),
            SubVar {
                var: kvar,
                piece: 0,
            },
            SubVar {
                var: kvar,
                piece: 1,
            },
        ];
        let k = lower(&def, &s, &arm()).unwrap();
        match &k.nests[0].body {
            NestBody::MacReduce { lhs, .. } => {
                // A shape [4,8]: linear = 8 i + k = 8 i + 2 k0 + k1.
                assert_eq!(lhs.expr.coef(0), 8);
                assert_eq!(lhs.expr.coef(2), 2);
                assert_eq!(lhs.expr.coef(3), 1);
            }
            other => panic!("unexpected body {other:?}"),
        }
    }
}
