//! Tensor-expression layer: the Tensor Expression (TE) stand-in.
//!
//! The paper's kernels are TVM TE compute definitions (its Listings 1
//! and 5). This module captures the same class of operators in a compact
//! normal form: an output tensor defined over *spatial* axes, reduced over
//! *reduce* axes, whose value is the sum over the reduction domain of a
//! product of two operand loads with affine indices, optionally followed
//! by an elementwise bias add + ReLU epilogue. That normal form covers the
//! two kernels the paper tunes: the MatMul of its Listing 1 and the
//! Conv2D+Bias+ReLU groups of its Table II.

use std::fmt;

/// Reference to an iteration variable of a compute definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarRef {
    /// `i`-th spatial (parallel) axis of the output.
    Spatial(usize),
    /// `i`-th reduction axis.
    Reduce(usize),
}

impl fmt::Display for VarRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarRef::Spatial(i) => write!(f, "s{i}"),
            VarRef::Reduce(i) => write!(f, "r{i}"),
        }
    }
}

/// Affine index expression `Σ coef·var + constant` used to index one
/// dimension of an operand tensor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AffineIdx {
    /// `(variable, coefficient)` terms; variables appear at most once.
    pub terms: Vec<(VarRef, i64)>,
    /// Constant offset.
    pub constant: i64,
}

impl AffineIdx {
    /// The bare variable `v` (coefficient 1, no offset).
    pub fn var(v: VarRef) -> Self {
        AffineIdx {
            terms: vec![(v, 1)],
            constant: 0,
        }
    }

    /// `coef * v`.
    pub fn scaled(v: VarRef, coef: i64) -> Self {
        AffineIdx {
            terms: vec![(v, coef)],
            constant: 0,
        }
    }

    /// A constant index.
    pub fn constant(c: i64) -> Self {
        AffineIdx {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// Adds a term, merging coefficients of repeated variables.
    pub fn plus(mut self, v: VarRef, coef: i64) -> Self {
        if let Some(t) = self.terms.iter_mut().find(|(tv, _)| *tv == v) {
            t.1 += coef;
        } else {
            self.terms.push((v, coef));
        }
        self.terms.retain(|&(_, c)| c != 0);
        self
    }

    /// Adds a constant offset.
    pub fn plus_const(mut self, c: i64) -> Self {
        self.constant += c;
        self
    }

    /// Evaluates the expression for concrete variable values.
    pub fn eval(&self, spatial: &[usize], reduce: &[usize]) -> i64 {
        let mut v = self.constant;
        for &(var, coef) in &self.terms {
            let val = match var {
                VarRef::Spatial(i) => spatial[i] as i64,
                VarRef::Reduce(i) => reduce[i] as i64,
            };
            v += coef * val;
        }
        v
    }

    /// Coefficient of `v` (0 if absent).
    pub fn coef(&self, v: VarRef) -> i64 {
        self.terms
            .iter()
            .find(|(tv, _)| *tv == v)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }
}

/// How a tensor buffer is initialized when an executable is prepared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorInit {
    /// Deterministic pseudo-random values in [-1, 1).
    Random,
    /// Random interior of shape `inner` embedded in a zero halo of
    /// `pad = (pad_h, pad_w)` on the last two dimensions (pre-padded
    /// convolution inputs).
    PaddedRandom {
        /// Unpadded shape.
        inner: Vec<usize>,
        /// Halo widths on the last two dims.
        pad: (usize, usize),
    },
    /// All zeros (outputs, scratch).
    Zeros,
}

/// Declaration of a named tensor buffer with a row-major shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorDecl {
    /// Buffer name ("ifm", "weights", ...).
    pub name: String,
    /// Row-major shape.
    pub shape: Vec<usize>,
    /// Initialization policy when materialized into simulator memory.
    pub init: TensorInit,
}

impl TensorDecl {
    /// Creates a tensor declaration with [`TensorInit::Random`] contents.
    pub fn new(name: impl Into<String>, shape: Vec<usize>) -> Self {
        TensorDecl {
            name: name.into(),
            shape,
            init: TensorInit::Random,
        }
    }

    /// Sets the initialization policy, builder-style.
    pub fn with_init(mut self, init: TensorInit) -> Self {
        self.init = init;
        self
    }

    /// Materializes the buffer contents for a given seed.
    ///
    /// # Panics
    ///
    /// Panics if a `PaddedRandom` inner shape is inconsistent with the
    /// declared (padded) shape.
    pub fn materialize(&self, seed: u64) -> Vec<f32> {
        match &self.init {
            TensorInit::Random => fill_values(self.len(), seed),
            TensorInit::Zeros => vec![0.0; self.len()],
            TensorInit::PaddedRandom { inner, pad } => {
                let inner_len: usize = inner.iter().product();
                let values = fill_values(inner_len, seed);
                embed_padded(&self.shape, inner, *pad, &values)
            }
        }
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// True for zero-element tensors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1; self.shape.len()];
        for i in (0..self.shape.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.shape[i + 1];
        }
        s
    }
}

/// An operand load: `tensor[idx0, idx1, ...]` with one affine index per
/// dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandAccess {
    /// Index of the tensor in [`ComputeDef::tensors`].
    pub tensor: usize,
    /// One affine expression per tensor dimension.
    pub index: Vec<AffineIdx>,
}

impl OperandAccess {
    /// Flattens the multi-dimensional affine index into a single linear
    /// (element-offset) affine expression using the tensor's row-major
    /// strides.
    pub fn linearize(&self, decl: &TensorDecl) -> AffineIdx {
        let strides = decl.strides();
        let mut out = AffineIdx::default();
        for (dim, idx) in self.index.iter().enumerate() {
            let s = strides[dim] as i64;
            out.constant += idx.constant * s;
            for &(v, c) in &idx.terms {
                out = out.plus(v, c * s);
            }
        }
        out
    }
}

/// Elementwise epilogue applied to the reduction result:
/// `relu(acc + bias[...])`, as in the paper's Conv2D+Bias+ReLU kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epilogue {
    /// Bias operand, indexed by spatial variables only.
    pub bias: OperandAccess,
}

/// A complete compute definition in reduction normal form:
///
/// ```text
/// out[s0,…,sk] = epilogue( Σ_{r0,…,rm}  lhs[…] * rhs[…] )
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeDef {
    /// Kernel-type name ("conv2d_bias_relu", "matmul", ...). One score
    /// predictor is trained per (architecture, kernel type) — this name is
    /// the kernel-type key.
    pub name: String,
    /// All tensors: operands first, output last by convention.
    pub tensors: Vec<TensorDecl>,
    /// Extents of the spatial axes (equal to the output shape).
    pub spatial_extents: Vec<usize>,
    /// Extents of the reduction axes.
    pub reduce_extents: Vec<usize>,
    /// Left product operand.
    pub lhs: OperandAccess,
    /// Right product operand.
    pub rhs: OperandAccess,
    /// Index of the output tensor in `tensors`.
    pub output: usize,
    /// Optional bias/ReLU epilogue.
    pub epilogue: Option<Epilogue>,
}

impl ComputeDef {
    /// Total multiply-accumulate operations
    /// (`Π spatial · Π reduce`).
    pub fn macs(&self) -> u64 {
        let s: u64 = self.spatial_extents.iter().map(|&e| e as u64).product();
        let r: u64 = self.reduce_extents.iter().map(|&e| e as u64).product();
        s * r
    }

    /// The output tensor declaration.
    pub fn output_decl(&self) -> &TensorDecl {
        &self.tensors[self.output]
    }

    /// Validates internal consistency (shapes, indices, bounds).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.output >= self.tensors.len() {
            return Err(format!("output tensor index {} out of range", self.output));
        }
        if self.output_decl().shape != self.spatial_extents {
            return Err(format!(
                "output shape {:?} != spatial extents {:?}",
                self.output_decl().shape,
                self.spatial_extents
            ));
        }
        let accesses: Vec<&OperandAccess> = [&self.lhs, &self.rhs]
            .into_iter()
            .chain(self.epilogue.iter().map(|e| &e.bias))
            .collect();
        for acc in accesses {
            let decl = self
                .tensors
                .get(acc.tensor)
                .ok_or_else(|| format!("operand tensor index {} out of range", acc.tensor))?;
            if acc.index.len() != decl.shape.len() {
                return Err(format!(
                    "operand {} has {} indices for {} dims",
                    decl.name,
                    acc.index.len(),
                    decl.shape.len()
                ));
            }
            // Bounds check at the extreme corners of the iteration space.
            for (dim, idx) in acc.index.iter().enumerate() {
                let (lo, hi) = self.index_range(idx);
                if lo < 0 || hi >= decl.shape[dim] as i64 {
                    return Err(format!(
                        "operand {} dim {dim} index range [{lo}, {hi}] exceeds extent {}",
                        decl.name, decl.shape[dim]
                    ));
                }
            }
        }
        for e in self.spatial_extents.iter().chain(&self.reduce_extents) {
            if *e == 0 {
                return Err("zero-extent axis".into());
            }
        }
        Ok(())
    }

    /// Min/max value an affine index takes over the iteration domain.
    fn index_range(&self, idx: &AffineIdx) -> (i64, i64) {
        let mut lo = idx.constant;
        let mut hi = idx.constant;
        for &(v, c) in &idx.terms {
            let extent = match v {
                VarRef::Spatial(i) => self.spatial_extents[i],
                VarRef::Reduce(i) => self.reduce_extents[i],
            } as i64;
            let (a, b) = (0, c * (extent - 1));
            lo += a.min(b);
            hi += a.max(b);
        }
        (lo, hi)
    }

    /// Evaluates the kernel on the host with the given input buffers —
    /// the reference implementation used to validate generated code.
    ///
    /// `inputs[i]` must hold the values of `tensors[i]` (output buffer
    /// content is ignored). Returns the output tensor values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` lengths do not match the tensor declarations.
    pub fn reference(&self, inputs: &[Vec<f32>]) -> Vec<f32> {
        assert_eq!(inputs.len(), self.tensors.len(), "one buffer per tensor");
        for (decl, buf) in self.tensors.iter().zip(inputs) {
            assert_eq!(buf.len(), decl.len(), "buffer size for {}", decl.name);
        }
        let out_len = self.output_decl().len();
        let mut out = vec![0.0f32; out_len];
        let mut spatial = vec![0usize; self.spatial_extents.len()];
        let mut flat = 0usize;
        loop {
            let mut acc = 0.0f32;
            let mut reduce = vec![0usize; self.reduce_extents.len()];
            loop {
                let l = self.load(&self.lhs, inputs, &spatial, &reduce);
                let r = self.load(&self.rhs, inputs, &spatial, &reduce);
                acc += l * r;
                if !increment(&mut reduce, &self.reduce_extents) {
                    break;
                }
            }
            if let Some(epi) = &self.epilogue {
                acc = (acc + self.load(&epi.bias, inputs, &spatial, &[])).max(0.0);
            }
            out[flat] = acc;
            flat += 1;
            if !increment(&mut spatial, &self.spatial_extents) {
                break;
            }
        }
        out
    }

    fn load(
        &self,
        acc: &OperandAccess,
        inputs: &[Vec<f32>],
        spatial: &[usize],
        reduce: &[usize],
    ) -> f32 {
        let decl = &self.tensors[acc.tensor];
        let strides = decl.strides();
        let mut off = 0i64;
        for (dim, idx) in acc.index.iter().enumerate() {
            off += idx.eval(spatial, reduce) * strides[dim] as i64;
        }
        inputs[acc.tensor][off as usize]
    }
}

/// Derives the per-tensor fill seed from an executable-level seed. Shared
/// by [`prepared_inputs`] and the executable builder so that the host
/// reference and the simulator operate on identical data.
pub fn tensor_seed(base: u64, tensor_index: usize) -> u64 {
    base.wrapping_add(tensor_index as u64)
        .wrapping_mul(0x517C_C1B7_2722_0A95)
}

/// Materializes every tensor of `def` for `seed`: inputs per their init
/// policy (seeded per-tensor), output zeroed. The returned buffers feed
/// both [`ComputeDef::reference`] and the executable builder, guaranteeing
/// host reference and simulator operate on identical data.
pub fn prepared_inputs(def: &ComputeDef, seed: u64) -> Vec<Vec<f32>> {
    def.tensors
        .iter()
        .enumerate()
        .map(|(i, decl)| {
            if i == def.output {
                vec![0.0; decl.len()]
            } else {
                decl.materialize(tensor_seed(seed, i))
            }
        })
        .collect()
}

/// Embeds `values` (shape `inner`) into a zero buffer of shape `padded`,
/// offset by `pad` on the last two dimensions.
fn embed_padded(
    padded: &[usize],
    inner: &[usize],
    pad: (usize, usize),
    values: &[f32],
) -> Vec<f32> {
    assert_eq!(padded.len(), inner.len(), "rank mismatch");
    assert!(padded.len() >= 2, "padded tensors need at least 2 dims");
    let r = padded.len();
    for d in 0..r - 2 {
        assert_eq!(padded[d], inner[d], "only last two dims may be padded");
    }
    assert_eq!(padded[r - 2], inner[r - 2] + 2 * pad.0, "height pad");
    assert_eq!(padded[r - 1], inner[r - 1] + 2 * pad.1, "width pad");
    let out_len: usize = padded.iter().product();
    let mut out = vec![0.0f32; out_len];
    let lead: usize = inner[..r - 2].iter().product();
    let (ih, iw) = (inner[r - 2], inner[r - 1]);
    let (ph, pw) = pad;
    let wp = padded[r - 1];
    let hp = padded[r - 2];
    for l in 0..lead {
        for y in 0..ih {
            let src = (l * ih + y) * iw;
            let dst = (l * hp + y + ph) * wp + pw;
            out[dst..dst + iw].copy_from_slice(&values[src..src + iw]);
        }
    }
    out
}

/// Advances a mixed-radix counter; returns false on wraparound.
fn increment(counter: &mut [usize], extents: &[usize]) -> bool {
    for i in (0..counter.len()).rev() {
        counter[i] += 1;
        if counter[i] < extents[i] {
            return true;
        }
        counter[i] = 0;
    }
    false
}

/// Deterministic pseudo-random fill for input tensors: values in
/// [-1, 1), reproducible from `seed`. Used both by the code generator
/// (tensor preparation) and the host reference.
pub fn fill_values(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matmul() -> ComputeDef {
        // C[i,j] = Σ_k A[i,k] B[k,j], 2x3x4.
        let (n, m, l) = (2usize, 3usize, 4usize);
        ComputeDef {
            name: "matmul".into(),
            tensors: vec![
                TensorDecl::new("a", vec![n, l]),
                TensorDecl::new("b", vec![l, m]),
                TensorDecl::new("c", vec![n, m]),
            ],
            spatial_extents: vec![n, m],
            reduce_extents: vec![l],
            lhs: OperandAccess {
                tensor: 0,
                index: vec![
                    AffineIdx::var(VarRef::Spatial(0)),
                    AffineIdx::var(VarRef::Reduce(0)),
                ],
            },
            rhs: OperandAccess {
                tensor: 1,
                index: vec![
                    AffineIdx::var(VarRef::Reduce(0)),
                    AffineIdx::var(VarRef::Spatial(1)),
                ],
            },
            output: 2,
            epilogue: None,
        }
    }

    #[test]
    fn affine_eval_and_coef() {
        let idx = AffineIdx::var(VarRef::Spatial(0))
            .plus(VarRef::Reduce(1), 2)
            .plus_const(3);
        assert_eq!(idx.eval(&[5], &[0, 7]), 5 + 14 + 3);
        assert_eq!(idx.coef(VarRef::Reduce(1)), 2);
        assert_eq!(idx.coef(VarRef::Spatial(9)), 0);
    }

    #[test]
    fn affine_merges_repeated_terms() {
        let idx = AffineIdx::var(VarRef::Spatial(0)).plus(VarRef::Spatial(0), 2);
        assert_eq!(idx.coef(VarRef::Spatial(0)), 3);
        let gone = AffineIdx::var(VarRef::Spatial(0)).plus(VarRef::Spatial(0), -1);
        assert!(gone.terms.is_empty());
    }

    #[test]
    fn strides_are_row_major() {
        let t = TensorDecl::new("t", vec![2, 3, 4]);
        assert_eq!(t.strides(), vec![12, 4, 1]);
        assert_eq!(t.len(), 24);
    }

    #[test]
    fn linearize_matches_manual_strides() {
        let def = tiny_matmul();
        // A[i,k] over shape [2,4]: linear = 4*i + k.
        let lin = def.lhs.linearize(&def.tensors[0]);
        assert_eq!(lin.coef(VarRef::Spatial(0)), 4);
        assert_eq!(lin.coef(VarRef::Reduce(0)), 1);
        assert_eq!(lin.constant, 0);
    }

    #[test]
    fn reference_matmul_is_correct() {
        let def = tiny_matmul();
        // A = row-major [[1,2,3,4],[5,6,7,8]], B = identity-ish.
        let a = vec![1., 2., 3., 4., 5., 6., 7., 8.];
        // B: 4x3 with B[k][j] = 1 if k==j else 0 -> C = A's first 3 cols.
        let mut b = vec![0.0f32; 12];
        for k in 0..3 {
            b[k * 3 + k] = 1.0;
        }
        let c = def.reference(&[a, b, vec![0.0; 6]]);
        assert_eq!(c, vec![1., 2., 3., 5., 6., 7.]);
    }

    #[test]
    fn validate_catches_out_of_bounds() {
        let mut def = tiny_matmul();
        def.lhs.index[1] = AffineIdx::var(VarRef::Reduce(0)).plus_const(1); // k+1 overflows
        assert!(def.validate().is_err());
        let def = tiny_matmul();
        assert!(def.validate().is_ok());
    }

    #[test]
    fn validate_catches_shape_mismatch() {
        let mut def = tiny_matmul();
        def.spatial_extents = vec![2, 99];
        assert!(def.validate().is_err());
    }

    #[test]
    fn macs_counts_full_domain() {
        assert_eq!(tiny_matmul().macs(), 2 * 3 * 4);
    }

    #[test]
    fn fill_values_deterministic_and_bounded() {
        let a = fill_values(100, 7);
        let b = fill_values(100, 7);
        let c = fill_values(100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
