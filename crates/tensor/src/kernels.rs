//! Concrete kernel definitions: the two kernels of the paper.
//!
//! [`conv2d_bias_relu`] builds the `Conv2D+Bias+ReLU` kernels the paper
//! tunes: five groups taken from a ResNet architecture (its Table II).
//! [`Conv2dShape::paper_groups`] reproduces those shapes exactly;
//! [`Conv2dShape::scaled`] derives the proportionally reduced variants
//! used by the default experiment scale (see DESIGN.md §7). [`matmul`]
//! builds the MatMul of the paper's Listing 1, the second kernel type of
//! the examples and the cross-kernel-type tests.

use crate::expr::{AffineIdx, ComputeDef, Epilogue, OperandAccess, TensorDecl, TensorInit, VarRef};

/// Shape and parameters of one Conv2D+Bias+ReLU group — one row of the
/// paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dShape {
    /// Batch size.
    pub n: usize,
    /// Input feature-map height.
    pub h: usize,
    /// Input feature-map width.
    pub w: usize,
    /// Output channels.
    pub co: usize,
    /// Input channels.
    pub ci: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (height, width).
    pub stride: (usize, usize),
    /// Zero padding (height, width).
    pub pad: (usize, usize),
}

impl Conv2dShape {
    /// Output height `(h + 2·pad_h - kh) / stride_h + 1`.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad.0 - self.kh) / self.stride.0 + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad.1 - self.kw) / self.stride.1 + 1
    }

    /// Multiply-accumulate count of the convolution.
    pub fn macs(&self) -> u64 {
        (self.n * self.co * self.out_h() * self.out_w() * self.ci * self.kh * self.kw) as u64
    }

    /// The five ResNet groups of the paper's Table II, in order.
    pub fn paper_groups() -> Vec<Conv2dShape> {
        vec![
            // group N  H    W    CO   CI  KH KW stride  pad
            Conv2dShape {
                n: 1,
                h: 224,
                w: 224,
                co: 64,
                ci: 3,
                kh: 7,
                kw: 7,
                stride: (2, 2),
                pad: (3, 3),
            },
            Conv2dShape {
                n: 1,
                h: 56,
                w: 56,
                co: 64,
                ci: 64,
                kh: 3,
                kw: 3,
                stride: (1, 1),
                pad: (1, 1),
            },
            Conv2dShape {
                n: 1,
                h: 56,
                w: 56,
                co: 128,
                ci: 64,
                kh: 3,
                kw: 3,
                stride: (2, 2),
                pad: (1, 1),
            },
            Conv2dShape {
                n: 1,
                h: 28,
                w: 28,
                co: 256,
                ci: 128,
                kh: 3,
                kw: 3,
                stride: (2, 2),
                pad: (1, 1),
            },
            Conv2dShape {
                n: 1,
                h: 14,
                w: 14,
                co: 512,
                ci: 256,
                kh: 3,
                kw: 3,
                stride: (2, 2),
                pad: (1, 1),
            },
        ]
    }

    /// Proportionally scaled variant: spatial extents divided by
    /// `spatial_div`, channel counts divided by `channel_div` (with floors
    /// keeping the kernel window applicable). Filter shape, stride and
    /// padding are preserved so the memory-access *structure* is unchanged.
    pub fn scaled(&self, spatial_div: usize, channel_div: usize) -> Conv2dShape {
        let h = (self.h / spatial_div).max(self.kh + self.stride.0);
        let w = (self.w / spatial_div).max(self.kw + self.stride.1);
        Conv2dShape {
            n: self.n,
            h,
            w,
            co: (self.co / channel_div).max(4),
            ci: (self.ci / channel_div).max(3),
            kh: self.kh,
            kw: self.kw,
            stride: self.stride,
            pad: self.pad,
        }
    }
}

/// Builds the fused `Conv2D+Bias+ReLU` compute definition (NCHW layout)
/// for a shape.
///
/// Padding is folded into the input tensor: the `ifm` buffer is declared
/// with shape `[N, CI, H + 2·pad_h, W + 2·pad_w]` and the loader
/// materializes zeros in the halo — the same materialization TVM's `pad`
/// stage performs. Inner loops therefore stay branch-free affine accesses.
///
/// # Example
///
/// ```
/// use simtune_tensor::{conv2d_bias_relu, Conv2dShape};
///
/// let shape = Conv2dShape { n: 1, h: 8, w: 8, co: 4, ci: 3, kh: 3, kw: 3,
///                           stride: (1, 1), pad: (1, 1) };
/// let def = conv2d_bias_relu(&shape);
/// assert_eq!(def.spatial_extents, vec![1, 4, 8, 8]);
/// def.validate().unwrap();
/// ```
pub fn conv2d_bias_relu(shape: &Conv2dShape) -> ComputeDef {
    let (sh, sw) = shape.stride;
    let (ph, pw) = shape.pad;
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let hp = shape.h + 2 * ph;
    let wp = shape.w + 2 * pw;

    // Spatial axes: s0=n, s1=co, s2=oh, s3=ow. Reduce: r0=ci, r1=kh, r2=kw.
    let (n, co, ci) = (VarRef::Spatial(0), VarRef::Spatial(1), VarRef::Reduce(0));
    let (i, j) = (VarRef::Spatial(2), VarRef::Spatial(3));
    let (kh, kw) = (VarRef::Reduce(1), VarRef::Reduce(2));

    ComputeDef {
        name: "conv2d_bias_relu".into(),
        tensors: vec![
            TensorDecl::new("ifm", vec![shape.n, shape.ci, hp, wp]).with_init(
                TensorInit::PaddedRandom {
                    inner: vec![shape.n, shape.ci, shape.h, shape.w],
                    pad: (ph, pw),
                },
            ),
            TensorDecl::new("weights", vec![shape.co, shape.ci, shape.kh, shape.kw]),
            TensorDecl::new("bias", vec![shape.co]),
            TensorDecl::new("ofm", vec![shape.n, shape.co, oh, ow]).with_init(TensorInit::Zeros),
        ],
        spatial_extents: vec![shape.n, shape.co, oh, ow],
        reduce_extents: vec![shape.ci, shape.kh, shape.kw],
        // ifm[n][ci][i*sh + kh][j*sw + kw]   (pre-padded input)
        lhs: OperandAccess {
            tensor: 0,
            index: vec![
                AffineIdx::var(n),
                AffineIdx::var(ci),
                AffineIdx::scaled(i, sh as i64).plus(kh, 1),
                AffineIdx::scaled(j, sw as i64).plus(kw, 1),
            ],
        },
        // weights[co][ci][kh][kw]
        rhs: OperandAccess {
            tensor: 1,
            index: vec![
                AffineIdx::var(co),
                AffineIdx::var(ci),
                AffineIdx::var(kh),
                AffineIdx::var(kw),
            ],
        },
        output: 3,
        epilogue: Some(Epilogue {
            bias: OperandAccess {
                tensor: 2,
                index: vec![AffineIdx::var(co)],
            },
        }),
    }
}

/// Builds a plain MatMul `C[i,j] = Σ_k A[i,k]·B[k,j]` compute definition
/// (the paper's Listing 1).
///
/// # Example
///
/// ```
/// let def = simtune_tensor::matmul(16, 16, 16);
/// assert_eq!(def.macs(), 16 * 16 * 16);
/// def.validate().unwrap();
/// ```
pub fn matmul(n: usize, m: usize, l: usize) -> ComputeDef {
    let (i, j, k) = (VarRef::Spatial(0), VarRef::Spatial(1), VarRef::Reduce(0));
    ComputeDef {
        name: "matmul".into(),
        tensors: vec![
            TensorDecl::new("a", vec![n, l]),
            TensorDecl::new("b", vec![l, m]),
            TensorDecl::new("c", vec![n, m]).with_init(TensorInit::Zeros),
        ],
        spatial_extents: vec![n, m],
        reduce_extents: vec![l],
        lhs: OperandAccess {
            tensor: 0,
            index: vec![AffineIdx::var(i), AffineIdx::var(k)],
        },
        rhs: OperandAccess {
            tensor: 1,
            index: vec![AffineIdx::var(k), AffineIdx::var(j)],
        },
        output: 2,
        epilogue: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::fill_values;

    /// Fills the pre-padded `ifm` buffer: interior from `values` (row-major
    /// `[n][ci][h][w]`), halo zeros. Returns the padded buffer.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n*ci*h*w`.
    fn pad_ifm(shape: &Conv2dShape, values: &[f32]) -> Vec<f32> {
        assert_eq!(values.len(), shape.n * shape.ci * shape.h * shape.w);
        let (ph, pw) = shape.pad;
        let hp = shape.h + 2 * ph;
        let wp = shape.w + 2 * pw;
        let mut out = vec![0.0f32; shape.n * shape.ci * hp * wp];
        for n in 0..shape.n {
            for c in 0..shape.ci {
                for y in 0..shape.h {
                    let src = ((n * shape.ci + c) * shape.h + y) * shape.w;
                    let dst = ((n * shape.ci + c) * hp + y + ph) * wp + pw;
                    out[dst..dst + shape.w].copy_from_slice(&values[src..src + shape.w]);
                }
            }
        }
        out
    }

    #[test]
    fn paper_groups_match_table_ii() {
        let g = Conv2dShape::paper_groups();
        assert_eq!(g.len(), 5);
        assert_eq!((g[0].h, g[0].w, g[0].co, g[0].ci), (224, 224, 64, 3));
        assert_eq!((g[0].kh, g[0].kw), (7, 7));
        assert_eq!(g[0].stride, (2, 2));
        assert_eq!(g[0].pad, (3, 3));
        assert_eq!((g[4].h, g[4].w, g[4].co, g[4].ci), (14, 14, 512, 256));
        for s in &g {
            conv2d_bias_relu(s).validate().expect("group validates");
        }
    }

    #[test]
    fn out_dims_match_resnet_expectations() {
        let g = Conv2dShape::paper_groups();
        assert_eq!((g[0].out_h(), g[0].out_w()), (112, 112));
        assert_eq!((g[1].out_h(), g[1].out_w()), (56, 56));
        assert_eq!((g[2].out_h(), g[2].out_w()), (28, 28));
    }

    #[test]
    fn scaled_preserves_filter_geometry() {
        let g0 = Conv2dShape::paper_groups()[0];
        let s = g0.scaled(4, 4);
        assert_eq!((s.kh, s.kw), (g0.kh, g0.kw));
        assert_eq!(s.stride, g0.stride);
        assert!(s.macs() < g0.macs() / 16);
        conv2d_bias_relu(&s).validate().expect("scaled validates");
    }

    #[test]
    fn conv_reference_matches_hand_computation() {
        // 1x1 input channel, 3x3 input, 2x2 kernel, no pad, stride 1.
        let shape = Conv2dShape {
            n: 1,
            h: 3,
            w: 3,
            co: 1,
            ci: 1,
            kh: 2,
            kw: 2,
            stride: (1, 1),
            pad: (0, 0),
        };
        let def = conv2d_bias_relu(&shape);
        let ifm = vec![1., 2., 3., 4., 5., 6., 7., 8., 9.];
        let padded = pad_ifm(&shape, &ifm);
        assert_eq!(padded, ifm, "no padding requested");
        let weights = vec![1., 0., 0., 1.]; // picks x[i][j] + x[i+1][j+1]
        let bias = vec![0.5];
        let out = def.reference(&[padded, weights, bias, vec![0.0; 4]]);
        // (1+5)+0.5, (2+6)+0.5, (4+8)+0.5, (5+9)+0.5
        assert_eq!(out, vec![6.5, 8.5, 12.5, 14.5]);
    }

    #[test]
    fn conv_reference_applies_relu() {
        let shape = Conv2dShape {
            n: 1,
            h: 2,
            w: 2,
            co: 1,
            ci: 1,
            kh: 1,
            kw: 1,
            stride: (1, 1),
            pad: (0, 0),
        };
        let def = conv2d_bias_relu(&shape);
        let out = def.reference(&[
            vec![-1.0, 2.0, -3.0, 4.0],
            vec![1.0],
            vec![0.0],
            vec![0.0; 4],
        ]);
        assert_eq!(out, vec![0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn pad_ifm_places_halo_zeros() {
        let shape = Conv2dShape {
            n: 1,
            h: 2,
            w: 2,
            co: 1,
            ci: 1,
            kh: 3,
            kw: 3,
            stride: (1, 1),
            pad: (1, 1),
        };
        let padded = pad_ifm(&shape, &[1., 2., 3., 4.]);
        assert_eq!(padded.len(), 16);
        // Row 0 all zeros; row 1 = [0, 1, 2, 0].
        assert_eq!(&padded[0..4], &[0., 0., 0., 0.]);
        assert_eq!(&padded[4..8], &[0., 1., 2., 0.]);
        assert_eq!(&padded[8..12], &[0., 3., 4., 0.]);
    }

    #[test]
    fn matmul_validates() {
        matmul(8, 8, 8).validate().unwrap();
    }

    #[test]
    fn padded_conv_reference_against_dense_formula() {
        // Randomized 2-channel case cross-checked against a direct
        // quadruple-loop implementation.
        let shape = Conv2dShape {
            n: 1,
            h: 5,
            w: 6,
            co: 3,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: (2, 2),
            pad: (1, 1),
        };
        let def = conv2d_bias_relu(&shape);
        let ifm = fill_values(shape.n * shape.ci * shape.h * shape.w, 1);
        let weights = fill_values(shape.co * shape.ci * shape.kh * shape.kw, 2);
        let bias = fill_values(shape.co, 3);
        let padded = pad_ifm(&shape, &ifm);
        let got = def.reference(&[
            padded,
            weights.clone(),
            bias.clone(),
            vec![0.0; shape.co * shape.out_h() * shape.out_w()],
        ]);

        let (oh, ow) = (shape.out_h(), shape.out_w());
        let mut want = vec![0.0f32; shape.co * oh * ow];
        for co in 0..shape.co {
            for i in 0..oh {
                for j in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..shape.ci {
                        for kh in 0..shape.kh {
                            for kw in 0..shape.kw {
                                let y = (i * 2 + kh) as i64 - 1;
                                let x = (j * 2 + kw) as i64 - 1;
                                if y >= 0 && y < shape.h as i64 && x >= 0 && x < shape.w as i64 {
                                    let iv =
                                        ifm[(ci * shape.h + y as usize) * shape.w + x as usize];
                                    let wv = weights
                                        [((co * shape.ci + ci) * shape.kh + kh) * shape.kw + kw];
                                    acc += iv * wv;
                                }
                            }
                        }
                    }
                    want[(co * oh + i) * ow + j] = (acc + bias[co]).max(0.0);
                }
            }
        }
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4, "mismatch: {g} vs {w}");
        }
    }
}
