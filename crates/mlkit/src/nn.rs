//! Sequential neural networks: Dense / Conv1D layers, Adam, MSE — in
//! **batched matrix form**.
//!
//! §4.3 of the paper trains two deep models to backport CVSS v3 scores:
//!
//! * a **CNN** of "four consecutive convolutional layers. The first two
//!   layers consist of 64 filters and the remaining layers consist of 128
//!   filters with a filter size of 3×3", followed by flattening, a
//!   512-neuron fully connected layer, and a single sigmoid output;
//! * a **DNN** of "four fully connected layers with size of 128, 128, 256,
//!   and 256", followed by a single sigmoid output.
//!
//! Both are "trained … over 100 epochs using mean squared error loss … and
//! Adam optimizer with a learning rate of 0.001". The feature vector is
//! one-dimensional, so the 3×3 convolution degenerates to a kernel-3 Conv1D.
//!
//! Training works on whole minibatches at once: a dense layer's forward pass
//! is one `X · Wᵀ` [`Matrix::matmul_transposed`] plus a bias broadcast, its
//! backward pass one `Dᵀ · X` [`Matrix::transpose_matmul`] for the weight
//! gradient and one `D · W` [`Matrix::matmul`] for the input gradient — all
//! running on the blocked, `minipar`-sharded kernels of [`crate::matrix`].
//!
//! A convolution runs on the same kernels through an im2col matrix `X_col`
//! of the batch, one row per `(sample, position)` and one column per
//! `(channel, tap)`:
//!
//! * **forward** — `X_col · Wᵀ` by [`Matrix::matmul_seeded_into`], each
//!   accumulator seeded with its filter's bias, so every output sums
//!   `bias + Σ w·x` in ascending tap order exactly like a per-position dot
//!   product, vectorised over filters;
//! * **weight and bias gradients** — the deltas permuted position-major
//!   (`D_pm`), then `D_pmᵀ · X_col` by [`Matrix::transpose_matmul`] and the
//!   column sums of `D_pm`, both reducing `(sample, position)` ascending;
//! * **input gradient** — `Σ_f Σ_p d[f, p] · W[f, c, q − p]` per input
//!   element in one register accumulator, vectorised over channels (the
//!   first layer skips it: nothing reads it).
//!
//! Each element therefore reduces in the order the per-sample loops used,
//! and the results are bit-identical to them. Activations, deltas and all
//! conv scratch live in preallocated workspaces that are reused across
//! every batch of an epoch, so training allocates nothing per batch.
//! Every reduction runs in one fixed order, so training is deterministic
//! under a seed and bit-identical at any `NVD_JOBS` setting.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    Linear,
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Logistic sigmoid, `1 / (1 + e^-x)` — the paper's output activation.
    Sigmoid,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative expressed in terms of the *output* value.
    fn derivative_from_output(self, out: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if out > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => out * (1.0 - out),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LayerKind {
    Dense { units: usize },
    Conv1d { filters: usize, kernel: usize },
}

/// One layer: parameters plus fixed input/output shapes `(channels, len)`.
///
/// Weights are a [`Matrix`]: `units × fan_in` for dense layers (so the
/// batched forward pass is a single `matmul_transposed`), and
/// `filters × (c_in · kernel)` for convolutions (row `f` holds filter `f`'s
/// taps for every input channel).
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    kind: LayerKind,
    activation: Activation,
    in_shape: (usize, usize),
    out_shape: (usize, usize),
    weights: Matrix,
    biases: Vec<f64>,
}

impl Layer {
    fn dense(in_shape: (usize, usize), units: usize, activation: Activation) -> Self {
        let fan_in = in_shape.0 * in_shape.1;
        Self {
            kind: LayerKind::Dense { units },
            activation,
            in_shape,
            out_shape: (1, units),
            weights: Matrix::zeros(units, fan_in),
            biases: vec![0.0; units],
        }
    }

    fn conv1d(
        in_shape: (usize, usize),
        filters: usize,
        kernel: usize,
        activation: Activation,
    ) -> Self {
        let (c, l) = in_shape;
        assert!(
            l >= kernel,
            "conv1d kernel {kernel} longer than input length {l}"
        );
        Self {
            kind: LayerKind::Conv1d { filters, kernel },
            activation,
            in_shape,
            out_shape: (filters, l - kernel + 1),
            weights: Matrix::zeros(filters, c * kernel),
            biases: vec![0.0; filters],
        }
    }

    fn init(&mut self, rng: &mut StdRng) {
        let (fan_in, fan_out) = match self.kind {
            LayerKind::Dense { units } => (self.in_shape.0 * self.in_shape.1, units),
            LayerKind::Conv1d { filters, kernel } => (self.in_shape.0 * kernel, filters * kernel),
        };
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        for w in self.weights.as_mut_slice() {
            *w = rng.gen_range(-limit..limit);
        }
        // Biases start at zero.
    }

    fn out_size(&self) -> usize {
        self.out_shape.0 * self.out_shape.1
    }

    /// Forward pass over a whole minibatch: `input` is `batch × in_size`,
    /// `output` (overwritten) is `batch × out_size`. Convolutions need
    /// their [`ConvScratch`]; dense layers take `None`.
    fn forward_batch(
        &self,
        input: &Matrix,
        output: &mut Matrix,
        scratch: Option<&mut ConvScratch>,
    ) {
        let act = self.activation;
        match self.kind {
            LayerKind::Dense { .. } => {
                input.matmul_transposed_into(&self.weights, output);
                output.add_broadcast(&self.biases);
                output.map_in_place(|x| act.apply(x));
            }
            LayerKind::Conv1d { kernel, .. } => {
                let sc = scratch.expect("conv layer needs its scratch");
                let l_in = self.in_shape.1;
                let l_out = self.out_shape.1;
                // im2col: row `s·l_out + p`, column `c·k + j` holds
                // `x[s, c, p + j]`, the tap weight `W[f, c·k + j]` meets.
                sc.x_col.par_rows_mut(|r, col_row| {
                    let x = &input.row(r / l_out)[r % l_out..];
                    for (c, taps) in col_row.chunks_exact_mut(kernel).enumerate() {
                        taps.copy_from_slice(&x[c * l_in..][..kernel]);
                    }
                });
                // `bias[f] + Σ_col W[f, col]·x_col[col]` in ascending column
                // order, the accumulator seeded by the bias — the exact
                // float stream of a per-position dot product.
                self.weights.transpose_into(&mut sc.w_t);
                sc.x_col
                    .matmul_seeded_into(&sc.w_t, Some(&self.biases), &mut sc.pm);
                // Back to channel-major rows (`f·l_out + p`), activated.
                let pm = &sc.pm;
                output.par_rows_mut(|s, out_row| {
                    for p in 0..l_out {
                        for (f, &z) in pm.row(s * l_out + p).iter().enumerate() {
                            out_row[f * l_out + p] = act.apply(z);
                        }
                    }
                });
            }
        }
    }

    /// Backpropagates a whole minibatch.
    ///
    /// On entry `delta` holds ∂L/∂(activated output); this routine folds the
    /// activation derivative in place, then overwrites `grad` with the
    /// batch-summed parameter gradients and, when given, `grad_in` with
    /// ∂L/∂input (the first layer passes `None`: nothing reads it).
    ///
    /// Every gradient element reduces in one fixed order — weight and bias
    /// gradients over `(sample, position)` ascending, conv input gradients
    /// over `(filter, position)` ascending — so the float stream is
    /// independent of the job count.
    fn backward_batch(
        &self,
        input: &Matrix,
        output: &Matrix,
        delta: &mut Matrix,
        grad_in: Option<&mut Matrix>,
        grad: &mut LayerGrad,
        scratch: Option<&mut ConvScratch>,
    ) {
        // δ ← δ ⊙ act'(out), elementwise per row.
        let act = self.activation;
        delta.par_rows_mut(|s, d_row| {
            for (d, &o) in d_row.iter_mut().zip(output.row(s)) {
                *d *= act.derivative_from_output(o);
            }
        });
        match self.kind {
            LayerKind::Dense { .. } => {
                delta.column_sums_into(&mut grad.b);
                delta.transpose_matmul_into(input, &mut grad.w);
                if let Some(grad_in) = grad_in {
                    delta.matmul_into(&self.weights, grad_in);
                }
            }
            LayerKind::Conv1d { filters, kernel } => {
                let sc = scratch.expect("conv layer needs its scratch");
                let (c_in, l_in) = self.in_shape;
                let l_out = self.out_shape.1;
                // Position-major deltas `D_pm[s·l_out + p, f]`, so the
                // parameter gradients are `grad_b = Σ_rows D_pm` and
                // `grad_w = D_pmᵀ · X_col`, both reducing `(s, p)` ascending.
                let delta = &*delta;
                sc.pm.par_rows_mut(|r, pm_row| {
                    let d = &delta.row(r / l_out)[r % l_out..];
                    for (f, v) in pm_row.iter_mut().enumerate() {
                        *v = d[f * l_out];
                    }
                });
                sc.pm.column_sums_into(&mut grad.b);
                sc.pm.transpose_matmul_into(&sc.x_col, &mut grad.w);
                let Some(grad_in) = grad_in else {
                    return;
                };
                let w_fjc = sc.w_fjc.as_mut().expect("input-gradient scratch");
                // ∂L/∂x[s, c, q] = Σ_f Σ_p d[s, f, p] · W[f, c, q − p], summed
                // `f` then `p` ascending, in a register accumulator over
                // `C_LANES` channels (the permuted weights pad `c` with zero
                // lanes, which are never stored).
                let c_pad = w_fjc.cols();
                for f in 0..filters {
                    let w_row = self.weights.row(f);
                    for j in 0..kernel {
                        let w_fj = &mut w_fjc.row_mut(f * kernel + j)[..c_in];
                        for (c, w) in w_fj.iter_mut().enumerate() {
                            *w = w_row[c * kernel + j];
                        }
                    }
                }
                let w_fjc = w_fjc.as_slice();
                let work = filters * l_out * kernel * c_in;
                grad_in.par_rows_mut_cost(work, |s, gi_row| {
                    let d_row = delta.row(s);
                    for q in 0..l_in {
                        let positions = q.saturating_sub(kernel - 1)..=q.min(l_out - 1);
                        for c0 in (0..c_in).step_by(C_LANES) {
                            let mut acc = [0.0; C_LANES];
                            for f in 0..filters {
                                let d_f = &d_row[f * l_out..][..l_out];
                                for p in positions.clone() {
                                    let d = d_f[p];
                                    let w = &w_fjc[(f * kernel + q - p) * c_pad + c0..][..C_LANES];
                                    for (a, &w) in acc.iter_mut().zip(w) {
                                        *a += d * w;
                                    }
                                }
                            }
                            for (i, &a) in acc.iter().take(c_in - c0).enumerate() {
                                gi_row[(c0 + i) * l_in + q] = a;
                            }
                        }
                    }
                });
            }
        }
    }
}

/// Input channels per register accumulator in the conv input gradient.
const C_LANES: usize = 8;

/// One layer's batch-summed parameter gradients, shaped like its
/// parameters.
#[derive(Debug)]
struct LayerGrad {
    w: Matrix,
    b: Vec<f64>,
}

impl LayerGrad {
    fn new(layer: &Layer) -> Self {
        Self {
            w: Matrix::zeros(layer.weights.rows(), layer.weights.cols()),
            b: vec![0.0; layer.biases.len()],
        }
    }
}

/// A convolution's per-batch scratch, sized once per batch length `B`.
#[derive(Debug)]
struct ConvScratch {
    /// im2col of the layer input, `(B·l_out) × (c_in·k)`; kept from the
    /// forward pass for the weight gradient.
    x_col: Matrix,
    /// Position-major `(B·l_out) × F`: pre-activations in the forward
    /// pass, deltas in the backward pass.
    pm: Matrix,
    /// The weights transposed to `(c_in·k) × F` for the forward product.
    w_t: Matrix,
    /// The weights permuted to `(F·k) × c_pad` for the input gradient:
    /// row `f·k + j` holds `W[f, c, j]` for every input channel `c`,
    /// zero-padded to a multiple of [`C_LANES`]. `None` for inference and
    /// for the first layer, whose input gradient nothing reads.
    w_fjc: Option<Matrix>,
}

impl ConvScratch {
    fn new(layer: &Layer, batch: usize, input_grad: bool) -> Option<Self> {
        let LayerKind::Conv1d { filters, kernel } = layer.kind else {
            return None;
        };
        let c_in = layer.in_shape.0;
        let rows = batch * layer.out_shape.1;
        Some(Self {
            x_col: Matrix::zeros(rows, c_in * kernel),
            pm: Matrix::zeros(rows, filters),
            w_t: Matrix::zeros(c_in * kernel, filters),
            w_fjc: input_grad
                .then(|| Matrix::zeros(filters * kernel, c_in.next_multiple_of(C_LANES))),
        })
    }
}

/// Builder for [`Network`]; shapes are checked as layers are appended.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    input: (usize, usize),
    layers: Vec<Layer>,
}

impl NetworkBuilder {
    /// Starts a network over a 1-D input of the given length (one channel).
    pub fn input_1d(len: usize) -> Self {
        assert!(len > 0, "input length must be positive");
        Self {
            input: (1, len),
            layers: Vec::new(),
        }
    }

    fn current_shape(&self) -> (usize, usize) {
        self.layers
            .last()
            .map(|l| l.out_shape)
            .unwrap_or(self.input)
    }

    /// Appends a 1-D convolution (`filters` output channels, width `kernel`).
    ///
    /// # Panics
    ///
    /// Panics if the kernel is longer than the current feature length.
    pub fn conv1d(mut self, filters: usize, kernel: usize, activation: Activation) -> Self {
        let shape = self.current_shape();
        self.layers
            .push(Layer::conv1d(shape, filters, kernel, activation));
        self
    }

    /// Appends a fully connected layer (flattens its input implicitly).
    pub fn dense(mut self, units: usize, activation: Activation) -> Self {
        let shape = self.current_shape();
        self.layers.push(Layer::dense(shape, units, activation));
        self
    }

    /// Initialises all weights (Glorot uniform) and returns the network.
    ///
    /// # Panics
    ///
    /// Panics if no layers were added.
    pub fn build(self, seed: u64) -> Network {
        assert!(!self.layers.is_empty(), "network has no layers");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = self.layers;
        for l in &mut layers {
            l.init(&mut rng);
        }
        Network {
            input: self.input,
            layers,
        }
    }
}

/// Training hyper-parameters (paper: Adam, lr 0.001, MSE, 100 epochs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam step size.
    pub learning_rate: f64,
    /// Adam first-moment decay.
    pub beta1: f64,
    /// Adam second-moment decay.
    pub beta2: f64,
    /// Adam numerical-stability constant.
    pub epsilon: f64,
    /// Seed for shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            batch_size: 32,
            learning_rate: 0.001,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            seed: 0xadab,
        }
    }
}

/// Adam state for one parameter vector.
#[derive(Debug, Clone, Default)]
struct AdamState {
    m: Vec<f64>,
    v: Vec<f64>,
}

impl AdamState {
    fn sized(n: usize) -> Self {
        Self {
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    fn update(&mut self, params: &mut [f64], grads: &[f64], cfg: &TrainConfig, t: f64) {
        let bc1 = 1.0 - cfg.beta1.powf(t);
        let bc2 = 1.0 - cfg.beta2.powf(t);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = cfg.beta1 * self.m[i] + (1.0 - cfg.beta1) * g;
            self.v[i] = cfg.beta2 * self.v[i] + (1.0 - cfg.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= cfg.learning_rate * m_hat / (v_hat.sqrt() + cfg.epsilon);
        }
    }
}

/// Preallocated per-batch matrices: `acts[0]` is the gathered input batch,
/// `acts[i + 1]` the activations of layer `i`, `deltas[i]` holds
/// ∂L/∂(activated output of layer `i`), and `conv[i]` is layer `i`'s
/// [`ConvScratch`] when it is a convolution. One workspace exists per
/// distinct batch length — at most two per fit (full batches plus the
/// tail), so training allocates nothing per batch.
#[derive(Debug)]
struct Workspace {
    acts: Vec<Matrix>,
    deltas: Vec<Matrix>,
    conv: Vec<Option<ConvScratch>>,
}

impl Workspace {
    /// A workspace for `batch` rows; `training` adds the deltas and the
    /// backward-pass scratch that inference never touches.
    fn new(layers: &[Layer], input_len: usize, batch: usize, training: bool) -> Self {
        let mut acts = vec![Matrix::zeros(batch, input_len)];
        acts.extend(layers.iter().map(|l| Matrix::zeros(batch, l.out_size())));
        let deltas = if training {
            acts[1..]
                .iter()
                .map(|a| Matrix::zeros(batch, a.cols()))
                .collect()
        } else {
            Vec::new()
        };
        let conv = layers
            .iter()
            .enumerate()
            .map(|(li, l)| ConvScratch::new(l, batch, training && li > 0))
            .collect();
        Self { acts, deltas, conv }
    }

    /// Runs every layer forward over the batch gathered in `acts[0]`.
    fn forward(&mut self, layers: &[Layer]) {
        for (li, layer) in layers.iter().enumerate() {
            let (head, tail) = self.acts.split_at_mut(li + 1);
            layer.forward_batch(&head[li], &mut tail[0], self.conv[li].as_mut());
        }
    }

    /// Backpropagates the output deltas (seeded by the caller into the
    /// last `deltas` matrix) through every layer into `grads`.
    fn backward(&mut self, layers: &[Layer], grads: &mut [LayerGrad]) {
        for li in (0..layers.len()).rev() {
            let (d_head, d_tail) = self.deltas.split_at_mut(li);
            layers[li].backward_batch(
                &self.acts[li],
                &self.acts[li + 1],
                &mut d_tail[0],
                d_head.last_mut(),
                &mut grads[li],
                self.conv[li].as_mut(),
            );
        }
    }
}

/// A feed-forward network of [`NetworkBuilder`]-assembled layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    input: (usize, usize),
    layers: Vec<Layer>,
}

/// Rows per inference chunk in [`Network::forward`] — bounds workspace
/// memory when predicting over very large populations (the ≈74K-CVE
/// backport sweep) while keeping each chunk large enough for the matrix
/// kernels to amortise (a chunk is `64 · l_out` rows in a conv layer's
/// product). A conv layer's im2col scratch holds `l_out · c_in · k` values
/// per row, several times its activations, so chunks stay small.
const PREDICT_CHUNK: usize = 64;

impl Network {
    /// Expected input feature count.
    pub fn input_len(&self) -> usize {
        self.input.0 * self.input.1
    }

    /// Output dimension of the final layer.
    pub fn output_len(&self) -> usize {
        self.layers.last().map(Layer::out_size).unwrap_or(0)
    }

    /// Total trainable parameter count.
    pub fn num_parameters(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.as_slice().len() + l.biases.len())
            .sum()
    }

    /// Runs the batched forward pass over every row of `x`, returning the
    /// `x.rows() × output_len()` activation matrix. Large inputs are
    /// processed in [`PREDICT_CHUNK`]-row chunks so workspace memory stays
    /// bounded; chunking never changes values (rows are independent).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_len()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_len(), "input width mismatch");
        let mut out = Matrix::zeros(x.rows(), self.output_len());
        // One inference workspace per distinct chunk length: every chunk
        // but a shorter tail reuses the first, and the tail's replaces it.
        let mut ws: Option<Workspace> = None;
        for start in (0..x.rows()).step_by(PREDICT_CHUNK) {
            let len = PREDICT_CHUNK.min(x.rows() - start);
            if ws.as_ref().is_none_or(|w| w.acts[0].rows() != len) {
                drop(ws.take());
                ws = Some(Workspace::new(&self.layers, self.input_len(), len, false));
            }
            let ws = ws.as_mut().expect("workspace sized above");
            for bi in 0..len {
                ws.acts[0].row_mut(bi).copy_from_slice(x.row(start + bi));
            }
            ws.forward(&self.layers);
            for bi in 0..len {
                out.row_mut(start + bi)
                    .copy_from_slice(ws.acts[self.layers.len()].row(bi));
            }
        }
        out
    }

    /// Predicts the scalar output (first output unit) for every row of a
    /// matrix.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        let out = self.forward(x);
        (0..out.rows()).map(|r| out.row(r)[0]).collect()
    }

    /// Trains with minibatch Adam on the MSE loss; returns each epoch's
    /// mean squared error per training sample (`Σ e² / n`, summed over
    /// output units), measured on the forward passes the updates used.
    ///
    /// Targets are rows of `y` (use a 1-column matrix for scalar
    /// regression).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the network or the dataset is empty.
    pub fn fit(&mut self, x: &Matrix, y: &Matrix, cfg: &TrainConfig) -> Vec<f64> {
        assert_eq!(x.rows(), y.rows(), "sample count mismatch");
        assert!(x.rows() > 0, "empty dataset");
        assert_eq!(x.cols(), self.input_len(), "input width mismatch");
        assert_eq!(y.cols(), self.output_len(), "output width mismatch");

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = x.rows();
        let n_layers = self.layers.len();

        let mut adam_w: Vec<AdamState> = self
            .layers
            .iter()
            .map(|l| AdamState::sized(l.weights.as_slice().len()))
            .collect();
        let mut adam_b: Vec<AdamState> = self
            .layers
            .iter()
            .map(|l| AdamState::sized(l.biases.len()))
            .collect();

        let mut grads: Vec<LayerGrad> = self.layers.iter().map(LayerGrad::new).collect();

        // Preallocated activation/delta workspaces: one for full batches,
        // one (lazily sized) for the shorter tail batch.
        let full = cfg.batch_size.max(1).min(n);
        let mut ws_full = Workspace::new(&self.layers, self.input_len(), full, true);
        let tail = n % full;
        let mut ws_tail =
            (tail != 0).then(|| Workspace::new(&self.layers, self.input_len(), tail, true));

        let mut order: Vec<usize> = (0..n).collect();
        let mut step = 0.0f64;
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);

        for _ in 0..cfg.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut squared_error = 0.0;
            for batch in order.chunks(full) {
                let ws = if batch.len() == full {
                    &mut ws_full
                } else {
                    ws_tail.as_mut().expect("tail workspace sized at entry")
                };
                // Gather the shuffled batch into the input workspace.
                for (bi, &s) in batch.iter().enumerate() {
                    ws.acts[0].row_mut(bi).copy_from_slice(x.row(s));
                }
                ws.forward(&self.layers);
                // MSE gradient at the output (ascending batch order).
                let scale = 1.0 / batch.len() as f64;
                let out_act = &ws.acts[n_layers];
                let delta_out = &mut ws.deltas[n_layers - 1];
                for (bi, &s) in batch.iter().enumerate() {
                    let d_row = delta_out.row_mut(bi);
                    for ((d, &o), &t) in d_row.iter_mut().zip(out_act.row(bi)).zip(y.row(s)) {
                        let e = o - t;
                        squared_error += e * e;
                        *d = 2.0 * e * scale;
                    }
                }
                ws.backward(&self.layers, &mut grads);
                step += 1.0;
                for (li, layer) in self.layers.iter_mut().enumerate() {
                    adam_w[li].update(
                        layer.weights.as_mut_slice(),
                        grads[li].w.as_slice(),
                        cfg,
                        step,
                    );
                    adam_b[li].update(&mut layer.biases, &grads[li].b, cfg, step);
                }
            }
            // Per-sample MSE over the epoch: every sample counts once, so
            // a short tail batch weighs no more than its rows.
            epoch_losses.push(squared_error / n as f64);
        }
        epoch_losses
    }

    /// Convenience wrapper for scalar targets.
    pub fn fit_scalar(&mut self, x: &Matrix, y: &[f64], cfg: &TrainConfig) -> Vec<f64> {
        let y_mat = Matrix::from_vec(y.len(), 1, y.to_vec());
        self.fit(x, &y_mat, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_propagate_through_builder() {
        let net = NetworkBuilder::input_1d(13)
            .conv1d(4, 3, Activation::Relu)
            .conv1d(8, 3, Activation::Relu)
            .dense(16, Activation::Relu)
            .dense(1, Activation::Sigmoid)
            .build(1);
        assert_eq!(net.input_len(), 13);
        assert_eq!(net.output_len(), 1);
        // conv1: 4*(1*3)+4; conv2: 8*(4*3)+8; dense: 16*(8*9)+16; out: 1*16+1
        assert_eq!(net.num_parameters(), 16 + 104 + 1168 + 17);
    }

    #[test]
    fn forward_is_deterministic_and_job_count_invariant() {
        let net = NetworkBuilder::input_1d(5)
            .dense(8, Activation::Relu)
            .dense(1, Activation::Sigmoid)
            .build(42);
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4, 0.5]]);
        let a = net.forward(&x);
        let b = net.forward(&x);
        assert_eq!(a, b);
        let serial = minipar::with_jobs(1, || net.forward(&x));
        let wide = minipar::with_jobs(4, || net.forward(&x));
        assert_eq!(serial, wide, "forward diverged across job counts");
        assert!(
            a[(0, 0)] > 0.0 && a[(0, 0)] < 1.0,
            "sigmoid output in (0,1)"
        );
    }

    #[test]
    fn training_is_bit_identical_across_job_counts() {
        let (x, y) = batch_dataset();
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let run = || {
            let mut net = NetworkBuilder::input_1d(6)
                .conv1d(4, 3, Activation::Relu)
                .dense(8, Activation::Relu)
                .dense(1, Activation::Linear)
                .build(9);
            let losses = net.fit_scalar(&x, &y, &cfg);
            (losses, net.predict(&x))
        };
        let serial = minipar::with_jobs(1, run);
        let wide = minipar::with_jobs(4, run);
        assert_eq!(serial.0, wide.0, "losses diverged across job counts");
        assert_eq!(serial.1, wide.1, "predictions diverged across job counts");
    }

    #[test]
    fn learns_xor_with_dense_net() {
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = [0.0, 1.0, 1.0, 0.0];
        let mut net = NetworkBuilder::input_1d(2)
            .dense(8, Activation::Relu)
            .dense(1, Activation::Sigmoid)
            .build(3);
        net.fit_scalar(
            &x,
            &y,
            &TrainConfig {
                epochs: 800,
                batch_size: 4,
                learning_rate: 0.01,
                ..TrainConfig::default()
            },
        );
        let pred = net.predict(&x);
        for (i, &target) in y.iter().enumerate() {
            assert!(
                (pred[i] - target).abs() < 0.25,
                "sample {i}: predicted {}, want {target}",
                pred[i]
            );
        }
    }

    fn batch_dataset() -> (Matrix, Vec<f64>) {
        // Target: mean of the 6 inputs (a linear function a conv can express).
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..64 {
            let row: Vec<f64> = (0..6)
                .map(|j| ((i * 7 + j * 13) % 10) as f64 / 10.0)
                .collect();
            y.push(row.iter().sum::<f64>() / 6.0);
            rows.push(row);
        }
        (Matrix::from_vectors(&rows), y)
    }

    #[test]
    fn conv_net_learns_simple_function() {
        let (x, y) = batch_dataset();
        let mut net = NetworkBuilder::input_1d(6)
            .conv1d(4, 3, Activation::Relu)
            .dense(8, Activation::Relu)
            .dense(1, Activation::Linear)
            .build(9);
        net.fit_scalar(
            &x,
            &y,
            &TrainConfig {
                epochs: 300,
                batch_size: 16,
                learning_rate: 0.01,
                ..TrainConfig::default()
            },
        );
        let pred = net.predict(&x);
        let ae = crate::metrics::average_error(&y, &pred);
        assert!(ae < 0.05, "average error {ae}");
    }

    #[test]
    fn training_loss_decreases() {
        let x = Matrix::from_rows(&[&[0.0], &[0.25], &[0.5], &[0.75], &[1.0]]);
        let y = [0.0, 0.5, 1.0, 1.5, 2.0];
        let mut net = NetworkBuilder::input_1d(1)
            .dense(4, Activation::Relu)
            .dense(1, Activation::Linear)
            .build(5);
        let losses = net.fit_scalar(
            &x,
            &y,
            &TrainConfig {
                epochs: 200,
                batch_size: 5,
                learning_rate: 0.01,
                ..TrainConfig::default()
            },
        );
        assert!(losses.last().unwrap() < &(losses[0] * 0.5));
    }

    /// Numerical gradient check on a tiny conv+conv+dense network, through
    /// the batched backward path (a 2-sample batch exercises the
    /// batch-summed reductions; the second conv layer exercises the conv
    /// input gradient).
    #[test]
    fn analytic_gradients_match_numerical() {
        let x = Matrix::from_rows(&[&[0.3, -0.2, 0.8, 0.1, 0.6], &[-0.5, 0.4, 0.2, 0.9, -0.7]]);
        let y = Matrix::from_vec(2, 1, vec![0.7, 0.2]);
        let build = || {
            NetworkBuilder::input_1d(5)
                .conv1d(2, 3, Activation::Sigmoid)
                .conv1d(3, 2, Activation::Sigmoid)
                .dense(3, Activation::Sigmoid)
                .dense(1, Activation::Linear)
                .build(17)
        };

        // Batch-mean squared error, the loss `fit` differentiates.
        let loss_of = |net: &Network| {
            let o = net.forward(&x);
            (0..x.rows())
                .map(|s| (o[(s, 0)] - y[(s, 0)]).powi(2) / x.rows() as f64)
                .sum::<f64>()
        };

        let net = build();
        let n_layers = net.layers.len();
        let mut ws = Workspace::new(&net.layers, net.input_len(), x.rows(), true);
        for s in 0..x.rows() {
            ws.acts[0].row_mut(s).copy_from_slice(x.row(s));
        }
        ws.forward(&net.layers);
        let scale = 1.0 / x.rows() as f64;
        for s in 0..x.rows() {
            ws.deltas[n_layers - 1].row_mut(s)[0] =
                2.0 * (ws.acts[n_layers].row(s)[0] - y[(s, 0)]) * scale;
        }
        let mut grads: Vec<LayerGrad> = net.layers.iter().map(LayerGrad::new).collect();
        ws.backward(&net.layers, &mut grads);

        // Compare against central differences for a sample of weights.
        let eps = 1e-6;
        for li in 0..n_layers {
            for wi in (0..net.layers[li].weights.as_slice().len()).step_by(3) {
                let mut plus = net.clone();
                plus.layers[li].weights.as_mut_slice()[wi] += eps;
                let mut minus = net.clone();
                minus.layers[li].weights.as_mut_slice()[wi] -= eps;
                let num = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
                let ana = grads[li].w.as_slice()[wi];
                assert!(
                    (num - ana).abs() < 1e-5 * (1.0 + num.abs().max(ana.abs())),
                    "layer {li} w{wi}: numerical {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn fit_returns_per_sample_mse() {
        // 100 rows in batches of 32 leave a 4-row tail; with a zero
        // learning rate the weights never move, so every epoch's loss is
        // the MSE of the untrained forward pass.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                (0..6)
                    .map(|j| ((i * 7 + j * 13) % 10) as f64 / 10.0)
                    .collect()
            })
            .collect();
        let x = Matrix::from_vectors(&rows);
        let y: Vec<f64> = (0..100).map(|i| (i % 9) as f64 / 9.0).collect();
        let mut net = NetworkBuilder::input_1d(6)
            .conv1d(4, 3, Activation::Relu)
            .dense(8, Activation::Relu)
            .dense(1, Activation::Sigmoid)
            .build(4);
        let pred = net.predict(&x);
        let mse = pred
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / 100.0;
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 32,
            learning_rate: 0.0,
            ..TrainConfig::default()
        };
        for loss in net.fit_scalar(&x, &y, &cfg) {
            assert!(
                (loss - mse).abs() <= 1e-12 * mse,
                "epoch loss {loss} vs forward MSE {mse}"
            );
        }
    }

    /// The per-sample conv forward pass the batched kernel replaced,
    /// frozen as the parity reference.
    fn reference_conv_forward(layer: &Layer, input: &Matrix) -> Matrix {
        let LayerKind::Conv1d { filters, kernel } = layer.kind else {
            unreachable!("conv reference on a dense layer");
        };
        let (c_in, l_in) = layer.in_shape;
        let l_out = layer.out_shape.1;
        let mut out = Matrix::zeros(input.rows(), layer.out_size());
        for s in 0..input.rows() {
            let x_row = input.row(s);
            let out_row = out.row_mut(s);
            for f in 0..filters {
                let w_row = layer.weights.row(f);
                for p in 0..l_out {
                    let mut acc = layer.biases[f];
                    for c in 0..c_in {
                        let w = &w_row[c * kernel..(c + 1) * kernel];
                        let x = &x_row[c * l_in + p..][..kernel];
                        for (wi, xi) in w.iter().zip(x) {
                            acc += wi * xi;
                        }
                    }
                    out_row[f * l_out + p] = layer.activation.apply(acc);
                }
            }
        }
        out
    }

    /// The per-sample conv backward pass the batched kernels replaced
    /// (zero-delta skips included), on an already-folded `delta`:
    /// returns `(grad_w, grad_b, grad_in)`.
    fn reference_conv_backward(
        layer: &Layer,
        input: &Matrix,
        delta: &Matrix,
    ) -> (Matrix, Vec<f64>, Matrix) {
        let LayerKind::Conv1d { filters, kernel } = layer.kind else {
            unreachable!("conv reference on a dense layer");
        };
        let (c_in, l_in) = layer.in_shape;
        let l_out = layer.out_shape.1;
        let mut grad_w = Matrix::zeros(layer.weights.rows(), layer.weights.cols());
        let mut grad_b = vec![0.0; filters];
        let mut grad_in = Matrix::zeros(input.rows(), input.cols());
        for s in 0..delta.rows() {
            let d_row = delta.row(s);
            let x_row = input.row(s);
            let gi_row = grad_in.row_mut(s);
            for f in 0..filters {
                let w_row = layer.weights.row(f);
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
        (grad_w, grad_b, grad_in)
    }

    fn assert_bits_eq(what: &str, new: &[f64], reference: &[f64]) {
        assert_eq!(new.len(), reference.len(), "{what}: length");
        for (i, (a, b)) in new.iter().zip(reference).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}[{i}]: {a} vs reference {b}"
            );
        }
    }

    /// Deterministic values in [-1, 1) with exact zeros (and a negative
    /// zero) sprinkled in.
    fn probe_values(n: usize, salt: u64) -> Vec<f64> {
        (0..n as u64)
            .map(|i| match (i + salt) % 7 {
                0 => 0.0,
                3 if i % 2 == 0 => -0.0,
                _ => {
                    let z = (i ^ salt.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    ((z >> 11) % 2000) as f64 / 1000.0 - 1.0
                }
            })
            .collect()
    }

    #[test]
    fn batched_conv_kernels_are_bit_identical_to_per_sample_reference() {
        let mut rng = StdRng::seed_from_u64(31);
        for c_in in [1, 8, 16] {
            for kernel in 1..=3 {
                for l_in in [kernel, 13] {
                    for filters in [3, 16] {
                        let mut layer =
                            Layer::conv1d((c_in, l_in), filters, kernel, Activation::Relu);
                        layer.init(&mut rng);
                        layer.biases = probe_values(filters, 5);
                        for batch in [1, 5, 32] {
                            let shape =
                                format!("c_in {c_in} k {kernel} l_in {l_in} F {filters} B {batch}");
                            let input = Matrix::from_vec(
                                batch,
                                c_in * l_in,
                                probe_values(batch * c_in * l_in, 1),
                            );
                            let delta_in = Matrix::from_vec(
                                batch,
                                layer.out_size(),
                                probe_values(batch * layer.out_size(), 2),
                            );
                            let want_out = reference_conv_forward(&layer, &input);
                            for jobs in [1, 4] {
                                minipar::with_jobs(jobs, || {
                                    let mut scratch = ConvScratch::new(&layer, batch, true);
                                    let mut out = Matrix::zeros(batch, layer.out_size());
                                    layer.forward_batch(&input, &mut out, scratch.as_mut());
                                    assert_bits_eq(
                                        &format!("{shape}: output"),
                                        out.as_slice(),
                                        want_out.as_slice(),
                                    );

                                    let mut delta = delta_in.clone();
                                    let mut grad = LayerGrad::new(&layer);
                                    let mut grad_in = Matrix::zeros(batch, c_in * l_in);
                                    layer.backward_batch(
                                        &input,
                                        &out,
                                        &mut delta,
                                        Some(&mut grad_in),
                                        &mut grad,
                                        scratch.as_mut(),
                                    );
                                    // `delta` now holds the folded deltas both paths start from.
                                    let (gw, gb, gi) =
                                        reference_conv_backward(&layer, &input, &delta);
                                    assert_bits_eq(
                                        &format!("{shape}: grad_w"),
                                        grad.w.as_slice(),
                                        gw.as_slice(),
                                    );
                                    assert_bits_eq(&format!("{shape}: grad_b"), &grad.b, &gb);
                                    assert_bits_eq(
                                        &format!("{shape}: grad_in"),
                                        grad_in.as_slice(),
                                        gi.as_slice(),
                                    );
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let net = NetworkBuilder::input_1d(3)
            .dense(1, Activation::Linear)
            .build(0);
        net.forward(&Matrix::from_rows(&[&[1.0]]));
    }
}
