//! Batched vs legacy-shape training-kernel comparison.
//!
//! Run with `BENCH_JSON=BENCH_mlkit.json cargo bench -p nvd-bench --bench
//! mlkit` to emit the machine-readable artifact CI uploads. Two questions
//! are answered per run:
//!
//! 1. **Does batching win on its own?** `fit/batched/jobs_1` vs
//!    `fit/legacy_per_sample` compares the matrix-form minibatch trainer
//!    against a faithful replica of the pre-refactor per-sample
//!    forward/backward loop, both pinned to one job — the kernel win must
//!    not depend on thread count.
//! 2. **Does the matrix layer scale?** `fit/batched/jobs_4` and the raw
//!    `matmul` group compare 1 vs 4 jobs through `minipar::with_jobs`
//!    (outputs are asserted bit-identical before timing starts).
//! 3. **Do the batched conv kernels win?** `conv_fit/new/jobs_1` trains the
//!    Fast-profile CNN shape against `conv_fit/legacy_per_sample`, a
//!    replica of the per-sample `Conv1d` forward/backward loops they
//!    replaced; both must predict bit-identically before timing starts.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mlkit::matrix::Matrix;
use mlkit::nn::{Activation, Network, NetworkBuilder, TrainConfig};

/// Severity-sized synthetic regression task: FEATURE_DIM-wide rows, the
/// ground-truth scale of a 2% corpus, nonlinear target.
const FEATURES: usize = 13;
const SAMPLES: usize = 1024;

fn severity_sized_data() -> (Matrix, Vec<f64>) {
    let mut data = Vec::with_capacity(SAMPLES * FEATURES);
    let mut y = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let mut row = [0.0; FEATURES];
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = (((i * 31 + j * 17) % 97) as f64) / 97.0;
        }
        y.push(((3.0 + 4.0 * row[0] + 3.0 * row[3] * row[4] + 2.0 * row[12]) / 10.0).min(1.0));
        data.extend_from_slice(&row);
    }
    (Matrix::from_vec(SAMPLES, FEATURES, data), y)
}

/// The paper's fast-profile DNN shape (what every severity clean trains).
fn dnn() -> Network {
    NetworkBuilder::input_1d(FEATURES)
        .dense(16, Activation::Relu)
        .dense(16, Activation::Relu)
        .dense(32, Activation::Relu)
        .dense(32, Activation::Relu)
        .dense(1, Activation::Sigmoid)
        .build(7)
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 5,
        batch_size: 32,
        seed: 7,
        ..TrainConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Legacy-shape reference: the pre-refactor per-sample trainer.
// ---------------------------------------------------------------------------

/// A faithful replica of the per-sample dense trainer this PR deleted:
/// `Vec<Vec<f64>>` activation/gradient scratch, one forward/backward per
/// sample, identical Adam updates and shuffle stream. Lives only in this
/// bench as the baseline the batched kernels must beat.
mod legacy {
    use super::TrainConfig;
    use mlkit::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub struct LegacyDense {
        sizes: Vec<usize>,
        /// Per layer: `units × fan_in` row-major weights.
        weights: Vec<Vec<f64>>,
        biases: Vec<Vec<f64>>,
        /// Sigmoid on the last layer, ReLU elsewhere.
        n_layers: usize,
    }

    impl LegacyDense {
        pub fn new(input: usize, widths: &[usize], seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sizes = vec![input];
            sizes.extend_from_slice(widths);
            let n_layers = widths.len();
            let mut weights = Vec::new();
            let mut biases = Vec::new();
            for li in 0..n_layers {
                let (fan_in, fan_out) = (sizes[li], sizes[li + 1]);
                let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
                weights.push(
                    (0..fan_in * fan_out)
                        .map(|_| rng.gen_range(-limit..limit))
                        .collect(),
                );
                biases.push(vec![0.0; fan_out]);
            }
            Self {
                sizes,
                weights,
                biases,
                n_layers,
            }
        }

        fn activate(&self, li: usize, x: f64) -> f64 {
            if li + 1 == self.n_layers {
                1.0 / (1.0 + (-x).exp())
            } else {
                x.max(0.0)
            }
        }

        fn derivative(&self, li: usize, out: f64) -> f64 {
            if li + 1 == self.n_layers {
                out * (1.0 - out)
            } else if out > 0.0 {
                1.0
            } else {
                0.0
            }
        }

        /// Per-sample minibatch SGD/Adam exactly as the old `Network::fit`
        /// ran it: per-sample forward with `Vec<Vec<f64>>` caches, scalar
        /// accumulation into per-layer gradient vectors.
        pub fn fit(&mut self, x: &Matrix, y: &[f64], cfg: &TrainConfig) -> f64 {
            let n = x.rows();
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let mut adam_m: Vec<Vec<f64>> =
                self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
            let mut adam_v: Vec<Vec<f64>> =
                self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
            let mut adam_bm: Vec<Vec<f64>> =
                self.biases.iter().map(|b| vec![0.0; b.len()]).collect();
            let mut adam_bv: Vec<Vec<f64>> =
                self.biases.iter().map(|b| vec![0.0; b.len()]).collect();
            let mut grad_w: Vec<Vec<f64>> =
                self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
            let mut grad_b: Vec<Vec<f64>> =
                self.biases.iter().map(|b| vec![0.0; b.len()]).collect();
            let mut acts: Vec<Vec<f64>> = vec![Vec::new(); self.n_layers + 1];
            let mut order: Vec<usize> = (0..n).collect();
            let mut step = 0.0f64;
            let mut last_loss = 0.0;

            for _ in 0..cfg.epochs {
                for i in (1..order.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    order.swap(i, j);
                }
                let mut epoch_loss = 0.0;
                for batch in order.chunks(cfg.batch_size.max(1)) {
                    for g in &mut grad_w {
                        g.iter_mut().for_each(|v| *v = 0.0);
                    }
                    for g in &mut grad_b {
                        g.iter_mut().for_each(|v| *v = 0.0);
                    }
                    let scale = 1.0 / batch.len() as f64;
                    for &s in batch {
                        acts[0].clear();
                        acts[0].extend_from_slice(x.row(s));
                        for li in 0..self.n_layers {
                            let fan_in = self.sizes[li];
                            let units = self.sizes[li + 1];
                            let (head, tail) = acts.split_at_mut(li + 1);
                            let input = &head[li];
                            let out = &mut tail[0];
                            out.clear();
                            for u in 0..units {
                                let w = &self.weights[li][u * fan_in..(u + 1) * fan_in];
                                let mut acc = self.biases[li][u];
                                for (wi, xi) in w.iter().zip(input) {
                                    acc += wi * xi;
                                }
                                out.push(self.activate(li, acc));
                            }
                        }
                        let e = acts[self.n_layers][0] - y[s];
                        epoch_loss += e * e * scale;
                        let mut grad_cur = vec![2.0 * e * scale];
                        for li in (0..self.n_layers).rev() {
                            let fan_in = self.sizes[li];
                            let units = self.sizes[li + 1];
                            let mut grad_next = vec![0.0; fan_in];
                            for u in 0..units {
                                let d = grad_cur[u] * self.derivative(li, acts[li + 1][u]);
                                if d == 0.0 {
                                    continue;
                                }
                                grad_b[li][u] += d;
                                let w = &self.weights[li][u * fan_in..(u + 1) * fan_in];
                                let gw = &mut grad_w[li][u * fan_in..(u + 1) * fan_in];
                                for i in 0..fan_in {
                                    gw[i] += d * acts[li][i];
                                    grad_next[i] += d * w[i];
                                }
                            }
                            grad_cur = grad_next;
                        }
                    }
                    step += 1.0;
                    for li in 0..self.n_layers {
                        adam(
                            &mut self.weights[li],
                            &grad_w[li],
                            &mut adam_m[li],
                            &mut adam_v[li],
                            cfg,
                            step,
                        );
                        adam(
                            &mut self.biases[li],
                            &grad_b[li],
                            &mut adam_bm[li],
                            &mut adam_bv[li],
                            cfg,
                            step,
                        );
                    }
                }
                last_loss = epoch_loss;
            }
            last_loss
        }
    }

    pub(super) fn adam(
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        v: &mut [f64],
        cfg: &TrainConfig,
        t: f64,
    ) {
        let bc1 = 1.0 - cfg.beta1.powf(t);
        let bc2 = 1.0 - cfg.beta2.powf(t);
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g;
            v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * g * g;
            params[i] -= cfg.learning_rate * (m[i] / bc1) / ((v[i] / bc2).sqrt() + cfg.epsilon);
        }
    }
}

/// The paper's Fast-profile CNN shape (what every severity clean trains).
fn cnn() -> Network {
    NetworkBuilder::input_1d(FEATURES)
        .conv1d(8, 3, Activation::Relu)
        .conv1d(8, 3, Activation::Relu)
        .conv1d(16, 3, Activation::Relu)
        .conv1d(16, 3, Activation::Relu)
        .dense(32, Activation::Relu)
        .dense(1, Activation::Sigmoid)
        .build(7)
}

/// A replica of the CNN trainer before the batched conv kernels: the
/// per-sample `Conv1d` forward and backward loops (zero-delta skips
/// included), with the dense layers, Adam and the shuffle stream exactly as
/// `Network::fit` runs them. Lives only in this bench as the baseline the
/// batched kernels must beat, bit for bit.
mod legacy_cnn {
    use super::TrainConfig;
    use mlkit::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct Layer {
        /// `Some((filters, kernel))` for a convolution, `None` for dense.
        conv: Option<(usize, usize)>,
        sigmoid: bool,
        in_shape: (usize, usize),
        l_out: usize,
        weights: Matrix,
        biases: Vec<f64>,
    }

    impl Layer {
        fn activate(&self, x: f64) -> f64 {
            if self.sigmoid {
                1.0 / (1.0 + (-x).exp())
            } else {
                x.max(0.0)
            }
        }

        fn derivative(&self, out: f64) -> f64 {
            if self.sigmoid {
                out * (1.0 - out)
            } else if out > 0.0 {
                1.0
            } else {
                0.0
            }
        }

        fn forward(&self, input: &Matrix, output: &mut Matrix) {
            let Some((filters, kernel)) = self.conv else {
                input.matmul_transposed_into(&self.weights, output);
                output.add_broadcast(&self.biases);
                output.map_in_place(|x| self.activate(x));
                return;
            };
            let (c_in, l_in) = self.in_shape;
            let l_out = self.l_out;
            for s in 0..input.rows() {
                let x_row = input.row(s);
                let out_row = output.row_mut(s);
                for f in 0..filters {
                    let w_row = self.weights.row(f);
                    for p in 0..l_out {
                        let mut acc = self.biases[f];
                        for c in 0..c_in {
                            let w = &w_row[c * kernel..(c + 1) * kernel];
                            let x = &x_row[c * l_in + p..][..kernel];
                            for (wi, xi) in w.iter().zip(x) {
                                acc += wi * xi;
                            }
                        }
                        out_row[f * l_out + p] = self.activate(acc);
                    }
                }
            }
        }

        fn backward(
            &self,
            input: &Matrix,
            output: &Matrix,
            delta: &mut Matrix,
            grad_in: &mut Matrix,
            grad_w: &mut Matrix,
            grad_b: &mut Vec<f64>,
        ) {
            for s in 0..delta.rows() {
                for (d, &o) in delta.row_mut(s).iter_mut().zip(output.row(s)) {
                    *d *= self.derivative(o);
                }
            }
            let Some((filters, kernel)) = self.conv else {
                *grad_b = delta.column_sums();
                delta.transpose_matmul_into(input, grad_w);
                delta.matmul_into(&self.weights, grad_in);
                return;
            };
            let (c_in, l_in) = self.in_shape;
            let l_out = self.l_out;
            grad_w.as_mut_slice().fill(0.0);
            grad_b.fill(0.0);
            for s in 0..delta.rows() {
                let d_row = delta.row(s);
                let x_row = input.row(s);
                let gi_row = grad_in.row_mut(s);
                gi_row.fill(0.0);
                for f in 0..filters {
                    let w_row = self.weights.row(f);
                    let gw_row = grad_w.row_mut(f);
                    for p in 0..l_out {
                        let d = d_row[f * l_out + p];
                        if d == 0.0 {
                            continue;
                        }
                        grad_b[f] += d;
                        for c in 0..c_in {
                            let base_w = c * kernel;
                            let base_x = c * l_in + p;
                            for j in 0..kernel {
                                gw_row[base_w + j] += d * x_row[base_x + j];
                                gi_row[base_x + j] += d * w_row[base_w + j];
                            }
                        }
                    }
                }
            }
        }
    }

    pub struct LegacyCnn {
        layers: Vec<Layer>,
    }

    impl LegacyCnn {
        /// `conv(8,3) ×2 → conv(16,3) ×2 → dense(32) → dense(1)` over a
        /// one-channel input, Glorot-initialised from `seed` exactly as
        /// `NetworkBuilder::build` does.
        pub fn fast(input: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut layers = Vec::new();
            let mut shape = (1, input);
            for (filters, kernel) in [(8, 3), (8, 3), (16, 3), (16, 3)] {
                let l_out = shape.1 - kernel + 1;
                let (fan_in, fan_out) = (shape.0 * kernel, filters * kernel);
                layers.push(Layer {
                    conv: Some((filters, kernel)),
                    sigmoid: false,
                    in_shape: shape,
                    l_out,
                    weights: glorot(&mut rng, filters, shape.0 * kernel, fan_in, fan_out),
                    biases: vec![0.0; filters],
                });
                shape = (filters, l_out);
            }
            for (units, sigmoid) in [(32, false), (1, true)] {
                let fan_in = shape.0 * shape.1;
                layers.push(Layer {
                    conv: None,
                    sigmoid,
                    in_shape: shape,
                    l_out: units,
                    weights: glorot(&mut rng, units, fan_in, fan_in, units),
                    biases: vec![0.0; units],
                });
                shape = (1, units);
            }
            Self { layers }
        }

        fn out_size(layer: &Layer) -> usize {
            match layer.conv {
                Some((filters, _)) => filters * layer.l_out,
                None => layer.l_out,
            }
        }

        fn acts(&self, batch: usize, input: usize) -> Vec<Matrix> {
            let mut acts = vec![Matrix::zeros(batch, input)];
            acts.extend(
                self.layers
                    .iter()
                    .map(|l| Matrix::zeros(batch, Self::out_size(l))),
            );
            acts
        }

        pub fn predict(&self, x: &Matrix) -> Vec<f64> {
            let mut acts = self.acts(x.rows(), x.cols());
            acts[0] = x.clone();
            for (li, layer) in self.layers.iter().enumerate() {
                let (head, tail) = acts.split_at_mut(li + 1);
                layer.forward(&head[li], &mut tail[0]);
            }
            let out = &acts[self.layers.len()];
            (0..out.rows()).map(|r| out.row(r)[0]).collect()
        }

        pub fn fit(&mut self, x: &Matrix, y: &[f64], cfg: &TrainConfig) {
            let n = x.rows();
            let n_layers = self.layers.len();
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let sized = |l: &Layer| vec![0.0; l.weights.as_slice().len()];
            let mut adam_m: Vec<Vec<f64>> = self.layers.iter().map(sized).collect();
            let mut adam_v: Vec<Vec<f64>> = self.layers.iter().map(sized).collect();
            let mut adam_bm: Vec<Vec<f64>> = self
                .layers
                .iter()
                .map(|l| vec![0.0; l.biases.len()])
                .collect();
            let mut adam_bv = adam_bm.clone();
            let mut grad_w: Vec<Matrix> = self
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
                .collect();
            let mut grad_b: Vec<Vec<f64>> = adam_bm.clone();
            let full = cfg.batch_size.max(1).min(n);
            let mut order: Vec<usize> = (0..n).collect();
            let mut step = 0.0f64;
            for _ in 0..cfg.epochs {
                for i in (1..order.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    order.swap(i, j);
                }
                for batch in order.chunks(full) {
                    let mut acts = self.acts(batch.len(), x.cols());
                    let mut deltas = self.acts(batch.len(), x.cols());
                    for (bi, &s) in batch.iter().enumerate() {
                        acts[0].row_mut(bi).copy_from_slice(x.row(s));
                    }
                    for (li, layer) in self.layers.iter().enumerate() {
                        let (head, tail) = acts.split_at_mut(li + 1);
                        layer.forward(&head[li], &mut tail[0]);
                    }
                    let scale = 1.0 / batch.len() as f64;
                    for (bi, &s) in batch.iter().enumerate() {
                        let e = acts[n_layers].row(bi)[0] - y[s];
                        deltas[n_layers].row_mut(bi)[0] = 2.0 * e * scale;
                    }
                    for li in (0..n_layers).rev() {
                        let (d_head, d_tail) = deltas.split_at_mut(li + 1);
                        self.layers[li].backward(
                            &acts[li],
                            &acts[li + 1],
                            &mut d_tail[0],
                            &mut d_head[li],
                            &mut grad_w[li],
                            &mut grad_b[li],
                        );
                    }
                    step += 1.0;
                    for (li, layer) in self.layers.iter_mut().enumerate() {
                        let (m, v) = (&mut adam_m[li], &mut adam_v[li]);
                        super::legacy::adam(
                            layer.weights.as_mut_slice(),
                            grad_w[li].as_slice(),
                            m,
                            v,
                            cfg,
                            step,
                        );
                        let (m, v) = (&mut adam_bm[li], &mut adam_bv[li]);
                        super::legacy::adam(&mut layer.biases, &grad_b[li], m, v, cfg, step);
                    }
                }
            }
        }
    }

    fn glorot(rng: &mut StdRng, rows: usize, cols: usize, fan_in: usize, fan_out: usize) -> Matrix {
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| rng.gen_range(-limit..limit))
                .collect(),
        )
    }
}

fn bench_conv_fit(c: &mut Criterion) {
    let (x, y) = severity_sized_data();
    let cfg = train_cfg();

    // Parity gate before timing: the batched conv kernels must reproduce
    // the per-sample trainer bit for bit, at any job count.
    let fit_at = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let mut net = cnn();
            net.fit_scalar(&x, &y, &cfg);
            net.predict(&x)
        })
    };
    let mut legacy = legacy_cnn::LegacyCnn::fast(FEATURES, 7);
    legacy.fit(&x, &y, &cfg);
    let bits = |p: Vec<f64>| p.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let reference = bits(legacy.predict(&x));
    assert_eq!(
        bits(fit_at(1)),
        reference,
        "batched conv fit diverged from the per-sample replica"
    );
    assert_eq!(
        bits(fit_at(4)),
        reference,
        "batched conv fit diverged across jobs"
    );

    let mut group = c.benchmark_group("mlkit_conv_fit");
    group.sample_size(5);
    for jobs in [1usize, 4] {
        group.bench_function(format!("new/jobs_{jobs}"), |b| {
            b.iter(|| {
                minipar::with_jobs(jobs, || {
                    let mut net = cnn();
                    net.fit_scalar(black_box(&x), black_box(&y), &cfg)
                })
            })
        });
    }
    group.bench_function("legacy_per_sample", |b| {
        b.iter(|| {
            let mut net = legacy_cnn::LegacyCnn::fast(FEATURES, 7);
            net.fit(black_box(&x), black_box(&y), &cfg)
        })
    });
    group.finish();
}

fn bench_fit(c: &mut Criterion) {
    let (x, y) = severity_sized_data();
    let cfg = train_cfg();

    // Determinism gate before timing: batched training must agree exactly
    // across job counts.
    let fit_at = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let mut net = dnn();
            net.fit_scalar(&x, &y, &cfg);
            net.predict(&x)
        })
    };
    assert_eq!(fit_at(1), fit_at(4), "batched fit diverged across jobs");

    let mut group = c.benchmark_group("mlkit_fit");
    group.sample_size(5);
    for jobs in [1usize, 4] {
        group.bench_function(format!("batched/jobs_{jobs}"), |b| {
            b.iter(|| {
                minipar::with_jobs(jobs, || {
                    let mut net = dnn();
                    net.fit_scalar(black_box(&x), black_box(&y), &cfg)
                })
            })
        });
    }
    group.bench_function("legacy_per_sample", |b| {
        b.iter(|| {
            let mut net = legacy::LegacyDense::new(FEATURES, &[16, 16, 32, 32, 1], 7);
            net.fit(black_box(&x), black_box(&y), &cfg)
        })
    });
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let a = Matrix::from_vec(
        512,
        256,
        (0..512 * 256).map(|i| ((i % 89) as f64) / 89.0).collect(),
    );
    let b_mat = Matrix::from_vec(
        256,
        128,
        (0..256 * 128).map(|i| ((i % 83) as f64) / 83.0).collect(),
    );
    let serial = minipar::with_jobs(1, || a.matmul(&b_mat));
    let wide = minipar::with_jobs(4, || a.matmul(&b_mat));
    assert_eq!(serial, wide, "matmul diverged across jobs");

    let mut group = c.benchmark_group("mlkit_matmul_512x256x128");
    for jobs in [1usize, 4] {
        group.bench_function(format!("jobs_{jobs}"), |b| {
            b.iter(|| minipar::with_jobs(jobs, || black_box(&a).matmul(black_box(&b_mat))))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fit, bench_conv_fit, bench_matmul
);
criterion_main!(benches);
