use crate::model::{check_features, check_fit_input};
use crate::{Loss, PredictError, Regressor, Standardizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtune_linalg::Matrix;

/// Configuration of the regression DNN.
///
/// The default is the paper's tuned architecture (Section IV-C): six
/// dense layers with 128, 128, 64, 32, 16 and 1 neurons, tanh hidden
/// activations, a linear output, MAE loss and the Adam optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct DnnConfig {
    /// Hidden layer widths (the output layer of width 1 is implicit).
    pub hidden: Vec<usize>,
    /// Training loss (MAE in the paper's tuned configuration).
    pub loss: Loss,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Full passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Weight-initialization and shuffling seed.
    pub seed: u64,
}

impl Default for DnnConfig {
    fn default() -> Self {
        DnnConfig {
            hidden: vec![128, 128, 64, 32, 16],
            loss: Loss::Mae,
            learning_rate: 1e-3,
            epochs: 80,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// One dense layer with Adam state.
#[derive(Debug, Clone)]
struct Dense {
    w: Matrix,   // out x in
    b: Vec<f64>, // out
    // Adam moments.
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        // Xavier/Glorot uniform initialization for tanh.
        let limit = (6.0 / (inputs + outputs) as f64).sqrt();
        let w = Matrix::from_fn(outputs, inputs, |_, _| rng.gen_range(-limit..limit));
        Dense {
            mw: Matrix::zeros(outputs, inputs),
            vw: Matrix::zeros(outputs, inputs),
            mb: vec![0.0; outputs],
            vb: vec![0.0; outputs],
            b: vec![0.0; outputs],
            w,
        }
    }
}

/// Regression DNN with from-scratch backpropagation.
///
/// Inputs are z-score standardized internally. Training is deterministic
/// for a given seed.
#[derive(Debug, Clone)]
pub struct DnnRegressor {
    config: DnnConfig,
    layers: Vec<Dense>,
    standardizer: Option<Standardizer>,
    adam_t: u64,
}

impl DnnRegressor {
    /// Builds the paper's tuned architecture with a seed.
    pub fn paper_config(seed: u64) -> Self {
        Self::new(DnnConfig {
            seed,
            ..DnnConfig::default()
        })
    }

    /// Builds a DNN from an explicit configuration.
    pub fn new(config: DnnConfig) -> Self {
        DnnRegressor {
            config,
            layers: Vec::new(),
            standardizer: None,
            adam_t: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DnnConfig {
        &self.config
    }

    /// Forward pass for one sample; returns per-layer activations
    /// (`acts[0]` is the input, `acts.last()` the scalar output).
    fn forward(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(input.to_vec());
        for (li, layer) in self.layers.iter().enumerate() {
            let prev = &acts[li];
            let last = li == self.layers.len() - 1;
            let mut out = Vec::with_capacity(layer.b.len());
            for o in 0..layer.b.len() {
                let z = simtune_linalg::dot(layer.w.row(o), prev) + layer.b[o];
                out.push(if last { z } else { z.tanh() });
            }
            acts.push(out);
        }
        acts
    }

    /// Backward pass for one sample, accumulating gradients.
    fn backward(&self, acts: &[Vec<f64>], target: f64, gw: &mut [Matrix], gb: &mut [Vec<f64>]) {
        let out = acts.last().expect("activations")[0];
        // dL/dout for the configured loss.
        let mut delta: Vec<f64> = vec![match self.config.loss {
            Loss::Mae => (out - target).signum(),
            Loss::Mse | Loss::Rss => 2.0 * (out - target),
        }];
        for li in (0..self.layers.len()).rev() {
            let layer = &self.layers[li];
            let prev = &acts[li];
            // Gradients of this layer.
            for (o, &d) in delta.iter().enumerate() {
                gb[li][o] += d;
                let grow = gw[li].row_mut(o);
                for (j, &p) in prev.iter().enumerate() {
                    grow[j] += d * p;
                }
            }
            if li == 0 {
                break;
            }
            // Propagate: delta_prev = Wᵀ delta ⊙ tanh'(prev).
            let mut next = vec![0.0; prev.len()];
            for (o, &d) in delta.iter().enumerate() {
                let row = layer.w.row(o);
                for (j, n) in next.iter_mut().enumerate() {
                    *n += row[j] * d;
                }
            }
            for (j, n) in next.iter_mut().enumerate() {
                // prev[j] = tanh(z): tanh' = 1 - tanh².
                *n *= 1.0 - prev[j] * prev[j];
            }
            delta = next;
        }
    }

    fn adam_step(&mut self, gw: &[Matrix], gb: &[Vec<f64>], batch: usize) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.adam_t += 1;
        let t = self.adam_t as f64;
        let lr = self.config.learning_rate * (1.0 - B2.powf(t)).sqrt() / (1.0 - B1.powf(t));
        let scale = 1.0 / batch as f64;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for o in 0..layer.b.len() {
                for j in 0..layer.w.cols() {
                    let g = gw[li][(o, j)] * scale;
                    let m = &mut layer.mw[(o, j)];
                    *m = B1 * *m + (1.0 - B1) * g;
                    let v = &mut layer.vw[(o, j)];
                    *v = B2 * *v + (1.0 - B2) * g * g;
                    layer.w[(o, j)] -= lr * layer.mw[(o, j)] / (layer.vw[(o, j)].sqrt() + EPS);
                }
                let g = gb[li][o] * scale;
                layer.mb[o] = B1 * layer.mb[o] + (1.0 - B1) * g;
                layer.vb[o] = B2 * layer.vb[o] + (1.0 - B2) * g * g;
                layer.b[o] -= lr * layer.mb[o] / (layer.vb[o].sqrt() + EPS);
            }
        }
    }
}

impl Regressor for DnnRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), PredictError> {
        check_fit_input(x, y)?;
        let std = Standardizer::fit(x);
        let xs = std.transform(x);
        self.standardizer = Some(std);

        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(0xD44));
        let mut dims = vec![x.cols()];
        dims.extend(&self.config.hidden);
        dims.push(1);
        self.layers = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        self.adam_t = 0;

        let n = xs.rows();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.config.epochs {
            // Fisher-Yates shuffle.
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(self.config.batch_size.max(1)) {
                let mut gw: Vec<Matrix> = self
                    .layers
                    .iter()
                    .map(|l| Matrix::zeros(l.w.rows(), l.w.cols()))
                    .collect();
                let mut gb: Vec<Vec<f64>> =
                    self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
                for &i in chunk {
                    let acts = self.forward(xs.row(i));
                    self.backward(&acts, y[i], &mut gw, &mut gb);
                }
                self.adam_step(&gw, &gb, chunk.len());
            }
        }
        // Divergence check.
        if self
            .layers
            .iter()
            .any(|l| l.w.as_slice().iter().any(|v| !v.is_finite()))
        {
            return Err(PredictError::Diverged);
        }
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, PredictError> {
        let std = self.standardizer.as_ref().ok_or(PredictError::NotFitted)?;
        check_features(std.features(), x)?;
        let xs = std.transform(x);
        Ok((0..xs.rows())
            .map(|i| self.forward(xs.row(i)).last().expect("output")[0])
            .collect())
    }

    fn name(&self) -> &'static str {
        "dnn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64) -> DnnConfig {
        DnnConfig {
            hidden: vec![16, 8],
            loss: Loss::Mse,
            learning_rate: 5e-3,
            epochs: 300,
            batch_size: 16,
            seed,
        }
    }

    #[test]
    fn learns_linear_function() {
        let x = Matrix::from_fn(64, 2, |i, j| ((i * (3 + j)) % 16) as f64 / 8.0 - 1.0);
        let y: Vec<f64> = (0..64).map(|i| x[(i, 0)] - 0.5 * x[(i, 1)]).collect();
        let mut dnn = DnnRegressor::new(small_config(1));
        dnn.fit(&x, &y).unwrap();
        let p = dnn.predict(&x).unwrap();
        let mse = Loss::Mse.compute(&y, &p);
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn learns_nonlinear_function() {
        // y = x0² - the reason the paper needs more than LinReg.
        let x = Matrix::from_fn(80, 1, |i, _| i as f64 / 40.0 - 1.0);
        let y: Vec<f64> = (0..80).map(|i| x[(i, 0)] * x[(i, 0)]).collect();
        let mut dnn = DnnRegressor::new(small_config(2));
        dnn.fit(&x, &y).unwrap();
        let p = dnn.predict(&x).unwrap();
        let mse = Loss::Mse.compute(&y, &p);
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn deterministic_per_seed() {
        let x = Matrix::from_fn(32, 2, |i, j| (i + j) as f64 / 10.0);
        let y: Vec<f64> = (0..32).map(|i| (i % 5) as f64).collect();
        let fit = |seed| {
            let mut m = DnnRegressor::new(small_config(seed));
            m.fit(&x, &y).unwrap();
            m.predict(&x).unwrap()
        };
        assert_eq!(fit(7), fit(7));
        assert_ne!(fit(7), fit(8));
    }

    #[test]
    fn paper_architecture_has_six_layers() {
        let mut dnn = DnnRegressor::paper_config(0);
        let x = Matrix::from_fn(8, 3, |i, j| (i * j) as f64);
        let y = vec![0.0; 8];
        // Shrink training so the test stays fast.
        dnn.config.epochs = 1;
        dnn.fit(&x, &y).unwrap();
        assert_eq!(dnn.layers.len(), 6);
        assert_eq!(dnn.layers[0].w.rows(), 128);
        assert_eq!(dnn.layers[5].w.rows(), 1);
    }

    #[test]
    fn unfitted_prediction_fails() {
        let dnn = DnnRegressor::new(small_config(0));
        assert!(matches!(
            dnn.predict(&Matrix::zeros(1, 2)),
            Err(PredictError::NotFitted)
        ));
    }
}
