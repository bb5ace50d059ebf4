//! Tensor-program substrate: the TVM stand-in of the `simtune`
//! reproduction.
//!
//! The paper (Section II-A) drives TVM's AutoTVM and Auto-Scheduler to
//! generate many *implementations* (schedules) of ML kernels, compiles
//! them with LLVM, and measures them. This crate provides each of those
//! ingredients for the virtual ISA of `simtune-isa`:
//!
//! * [`ComputeDef`] — tensor-expression kernels in reduction normal form:
//!   the paper's two kernels, [`matmul`] and [`conv2d_bias_relu`];
//! * [`Schedule`] — split / reorder / unroll / vectorize / parallel
//!   primitives applied to a kernel, validated per target;
//! * [`lower`] — schedule application producing loop-nest IR with
//!   register-window analysis;
//! * [`build_executable`] — deterministic code generation to standalone
//!   executables (the "builder" of the paper's Fig. 2);
//! * [`ConfigSpace`] — AutoTVM-style template search spaces and
//!   [`SketchGenerator`] — Auto-Scheduler-style sketch + annotation
//!   sampling;
//! * [`validate_schedule`] — numeric equivalence of any schedule against
//!   the host reference.
//!
//! # Example: build and validate a matmul
//!
//! ```
//! use simtune_cache::HierarchyConfig;
//! use simtune_tensor::{matmul, validate_schedule, Schedule, TargetIsa};
//!
//! let def = matmul(8, 8, 8);
//! let schedule = Schedule::default_for(&def);
//! validate_schedule(&def, &schedule, &TargetIsa::riscv_u74(),
//!                   &HierarchyConfig::tiny_for_tests(), 42, 1e-3)?;
//! # Ok::<(), simtune_tensor::ValidateError>(())
//! ```

mod codegen;
mod expr;
mod kernels;
mod lower;
mod schedule;
mod sketch;
mod space;
mod validate;

pub use codegen::{build_executable, codegen, CodegenError};
pub use expr::{
    fill_values, prepared_inputs, tensor_seed, AffineIdx, ComputeDef, Epilogue, OperandAccess,
    TensorDecl, TensorInit, VarRef,
};
pub use kernels::{conv2d_bias_relu, matmul, Conv2dShape};
pub use lower::{
    lower, lower_structure, Access, BufId, BufferLayout, LinExpr, LoweredKernel, Nest, NestBody,
    NestLoop,
};
pub use schedule::{
    LoopInfo, LoopKind, LoopStructure, Schedule, ScheduleError, Split, SubVar, MAX_UNROLL,
};
pub use sketch::{SketchGenerator, SketchParams, SketchPattern, MAX_REDUCE_TILE, MAX_SPATIAL_TILE};
pub use space::{ConfigSpace, Knob, KnobChoice, SpaceBuilder};
pub use validate::{validate_schedule, ValidateError, DEFAULT_TOLERANCE};

// Re-exported so downstream crates name targets without depending on
// simtune-isa directly.
pub use simtune_isa::TargetIsa;
