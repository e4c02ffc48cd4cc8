//! The §4.3 model zoo: LR, SVR, CNN, DNN.
//!
//! Architectures follow the paper exactly: the CNN has "four consecutive
//! convolutional layers. The first two layers consist of 64 filters and the
//! remaining layers consist of 128 filters" followed by a 512-neuron dense
//! layer and a single sigmoid output; the DNN has "four fully connected
//! layers with size of 128, 128, 256, and 256" and the same output; both
//! train with Adam (lr 0.001) on MSE for 100 epochs. The SVR uses an RBF
//! kernel with γ = 0.1 and C = 2. A [`TrainProfile::Fast`] preset shrinks
//! widths and epochs for tests and CI while preserving every architectural
//! ingredient.

use mlkit::data::StandardScaler;
use mlkit::linear::RidgeRegression;
use mlkit::matrix::Matrix;
use mlkit::nn::{Activation, Network, NetworkBuilder, TrainConfig};
use mlkit::svr::{Svr, SvrConfig};

use super::features::FEATURE_DIM;

/// Which §4.3 model to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelKind {
    /// Linear regression.
    Lr,
    /// ε-SVR with an RBF kernel (γ = 0.1, C = 2).
    Svr,
    /// The paper's convolutional network (its best model).
    Cnn,
    /// The paper's dense network.
    Dnn,
}

impl ModelKind {
    /// All four, in the paper's Table 5 order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Lr,
        ModelKind::Svr,
        ModelKind::Cnn,
        ModelKind::Dnn,
    ];

    /// The paper's label for the model.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Lr => "LR",
            ModelKind::Svr => "SVR",
            ModelKind::Cnn => "CNN",
            ModelKind::Dnn => "DNN",
        }
    }
}

/// Training fidelity: paper-faithful or fast-for-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrainProfile {
    /// Paper architecture and epochs (expensive: minutes on large splits).
    Paper,
    /// Same shapes, smaller widths and fewer epochs (seconds).
    #[default]
    Fast,
}

#[derive(Debug, Clone)]
enum Inner {
    Lr(RidgeRegression),
    Svr(Box<Svr>),
    Nn(Box<Network>),
}

/// A trained severity model predicting v3 base scores from the 13-feature
/// vectors of [`super::features`].
#[derive(Debug, Clone)]
pub struct SeverityModel {
    kind: ModelKind,
    scaler: StandardScaler,
    inner: Inner,
}

impl SeverityModel {
    /// Trains a model of the given kind.
    ///
    /// `y` are v3 base scores in `[0, 10]`; neural models learn `y / 10`
    /// behind their sigmoid output, exactly like the paper.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `x.cols() != FEATURE_DIM`.
    pub fn train(kind: ModelKind, x: &Matrix, y: &[f64], profile: TrainProfile, seed: u64) -> Self {
        assert!(x.rows() > 0, "empty training set");
        assert_eq!(x.cols(), FEATURE_DIM, "feature width mismatch");
        let scaler = StandardScaler::fit(x);
        let xs = scaler.transform(x);
        let inner = match kind {
            ModelKind::Lr => Inner::Lr(
                RidgeRegression::fit(&xs, y, 1e-6).expect("ridge-regularised fit succeeds"),
            ),
            ModelKind::Svr => {
                let (features, epochs) = match profile {
                    TrainProfile::Paper => (512, 60),
                    TrainProfile::Fast => (128, 15),
                };
                Inner::Svr(Box::new(Svr::fit(
                    &xs,
                    y,
                    SvrConfig {
                        gamma: 0.1,
                        c: 2.0,
                        epsilon: 0.1,
                        features,
                        epochs,
                        learning_rate: 0.05,
                        seed,
                    },
                )))
            }
            ModelKind::Cnn => {
                let (f1, f2, dense, epochs) = match profile {
                    TrainProfile::Paper => (64, 128, 512, 100),
                    TrainProfile::Fast => (8, 16, 32, 30),
                };
                let mut net = NetworkBuilder::input_1d(FEATURE_DIM)
                    .conv1d(f1, 3, Activation::Relu)
                    .conv1d(f1, 3, Activation::Relu)
                    .conv1d(f2, 3, Activation::Relu)
                    .conv1d(f2, 3, Activation::Relu)
                    .dense(dense, Activation::Relu)
                    .dense(1, Activation::Sigmoid)
                    .build(seed);
                let y01: Vec<f64> = y.iter().map(|v| v / 10.0).collect();
                net.fit_scalar(
                    &xs,
                    &y01,
                    &TrainConfig {
                        epochs,
                        batch_size: 32,
                        learning_rate: 0.001,
                        seed,
                        ..TrainConfig::default()
                    },
                );
                Inner::Nn(Box::new(net))
            }
            ModelKind::Dnn => {
                let (w1, w2, epochs) = match profile {
                    TrainProfile::Paper => (128, 256, 100),
                    TrainProfile::Fast => (16, 32, 30),
                };
                let mut net = NetworkBuilder::input_1d(FEATURE_DIM)
                    .dense(w1, Activation::Relu)
                    .dense(w1, Activation::Relu)
                    .dense(w2, Activation::Relu)
                    .dense(w2, Activation::Relu)
                    .dense(1, Activation::Sigmoid)
                    .build(seed);
                let y01: Vec<f64> = y.iter().map(|v| v / 10.0).collect();
                net.fit_scalar(
                    &xs,
                    &y01,
                    &TrainConfig {
                        epochs,
                        batch_size: 32,
                        learning_rate: 0.001,
                        seed,
                        ..TrainConfig::default()
                    },
                );
                Inner::Nn(Box::new(net))
            }
        };
        Self {
            kind,
            scaler,
            inner,
        }
    }

    /// Which model this is.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Predicts v3 base scores for every row of a feature matrix, clamped
    /// to [0, 10]. The whole batch runs through the scaler and the model's
    /// batched kernels in one pass — there is no per-sample entry point.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        let xs = self.scaler.transform(x);
        let mut raw = match &self.inner {
            Inner::Lr(m) => m.predict(&xs),
            Inner::Svr(m) => m.predict(&xs),
            Inner::Nn(m) => {
                let mut p = m.predict(&xs);
                for v in &mut p {
                    *v *= 10.0;
                }
                p
            }
        };
        for v in &mut raw {
            *v = v.clamp(0.0, 10.0);
        }
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic severity-like task: score is a nonlinear function of the
    /// first features.
    fn toy_data(n: usize) -> (Matrix, Vec<f64>) {
        let mut data = Vec::with_capacity(n * FEATURE_DIM);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let mut row = [0.0; FEATURE_DIM];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = (((i * 31 + j * 17) % 97) as f64) / 97.0;
            }
            let score = (3.0 + 4.0 * row[0] + 3.0 * row[3] * row[4] + 2.0 * row[12]).min(10.0);
            y.push(score);
            data.extend_from_slice(&row);
        }
        (Matrix::from_vec(n, FEATURE_DIM, data), y)
    }

    #[test]
    fn all_models_train_and_predict_in_range() {
        let (x, y) = toy_data(120);
        for kind in ModelKind::ALL {
            let m = SeverityModel::train(kind, &x, &y, TrainProfile::Fast, 3);
            for p in m.predict(&x) {
                assert!((0.0..=10.0).contains(&p), "{kind:?} predicted {p}");
            }
        }
    }

    #[test]
    fn models_beat_constant_baseline() {
        let (x, y) = toy_data(200);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let baseline: f64 = y.iter().map(|v| (v - mean).abs()).sum::<f64>() / y.len() as f64;
        for kind in [ModelKind::Lr, ModelKind::Cnn, ModelKind::Dnn] {
            let m = SeverityModel::train(kind, &x, &y, TrainProfile::Fast, 7);
            let pred = m.predict(&x);
            let ae = mlkit::metrics::average_error(&y, &pred);
            assert!(
                ae < baseline,
                "{kind:?}: AE {ae} not better than baseline {baseline}"
            );
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = toy_data(60);
        let a = SeverityModel::train(ModelKind::Dnn, &x, &y, TrainProfile::Fast, 11);
        let b = SeverityModel::train(ModelKind::Dnn, &x, &y, TrainProfile::Fast, 11);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    /// Pins the Fast-profile CNN's float stream: the FNV-1a digest of its
    /// prediction bits after `train` on fixed data. Any change to the conv
    /// kernels' per-element accumulation order moves this digest.
    #[test]
    fn fast_cnn_predictions_match_golden_digest() {
        let (x, y) = toy_data(154);
        let m = SeverityModel::train(ModelKind::Cnn, &x, &y, TrainProfile::Fast, 0xbac0);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in m.predict(&x) {
            for b in p.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(
            h, 0x6214_205e_0df0_a116,
            "Fast CNN prediction digest moved: {h:#018x}"
        );
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ModelKind::Cnn.label(), "CNN");
        assert_eq!(ModelKind::ALL.len(), 4);
    }
}
