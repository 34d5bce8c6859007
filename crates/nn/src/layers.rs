//! Layers built on the tape: `Linear`, `Mlp`, and an `LstmCell` (used by
//! the Graph-enc-dec baseline's sequential device decoder).

use crate::init::xavier;
use crate::matrix::Matrix;
use crate::param::{Param, ParamSet};
use crate::scratch::InferenceScratch;
use crate::tape::{Tape, Var};
use rand::Rng;

/// Fully connected layer `y = x @ W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight `[in x out]`.
    pub w: Param,
    /// Bias `[1 x out]`.
    pub b: Param,
}

impl Linear {
    /// Xavier-initialised layer registered into `set`.
    pub fn new<R: Rng>(input: usize, output: usize, set: &mut ParamSet, rng: &mut R) -> Self {
        let w = set.register(Param::new(xavier(input, output, rng)));
        let b = set.register(Param::new(Matrix::zeros(1, output)));
        Self { w, b }
    }

    /// Forward pass.
    pub fn forward(&self, t: &mut Tape, x: Var) -> Var {
        let w = t.param(&self.w);
        let b = t.param(&self.b);
        let y = t.matmul(x, w);
        t.add_row(y, b)
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.w.shape().0
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.w.shape().1
    }
}

/// One precision of the tape-free forward: the linear layer it runs —
/// f32 [`Linear`] or int8 [`crate::QuantizedLinear`] — and the tanh that
/// layer pairs with. Inference code is generic over it, so both
/// precisions share one encoder, head and batcher, and each compiles to
/// its own monomorphised loop.
pub trait InferLayer {
    /// Output width.
    fn output_dim(&self) -> usize;

    /// Forward `x` into a preallocated `out` (`x.rows x output_dim`),
    /// staging through `scratch` where the precision needs it.
    fn forward_infer(&self, x: &Matrix, scratch: &mut InferenceScratch, out: &mut Matrix);

    /// This precision's in-place tanh.
    fn tanh(m: &mut Matrix);
}

impl InferLayer for Linear {
    fn output_dim(&self) -> usize {
        Linear::output_dim(self)
    }

    /// Reads the weights in place — no parameter clone, no tape node —
    /// and produces bitwise-identical values to [`Linear::forward`].
    fn forward_infer(&self, x: &Matrix, _scratch: &mut InferenceScratch, out: &mut Matrix) {
        let w = self.w.0.borrow();
        let b = self.b.0.borrow();
        x.matmul_into(&w.value, out);
        out.add_row_assign(&b.value);
    }

    /// The glibc-exact kernel the tape uses, so the bits match it.
    fn tanh(m: &mut Matrix) {
        m.tanh_assign();
    }
}

/// Activation selector for [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent (paper's default).
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    fn apply(self, t: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Tanh => t.tanh(x),
            Activation::Relu => t.relu(x),
            Activation::Sigmoid => t.sigmoid(x),
        }
    }

    /// In-place variant; tanh is `L`'s, the rest use the same scalar ops
    /// as the tape versions.
    fn apply_infer<L: InferLayer>(self, x: &mut Matrix) {
        match self {
            Activation::Tanh => L::tanh(x),
            Activation::Relu => x.relu_assign(),
            Activation::Sigmoid => x.sigmoid_assign(),
        }
    }
}

/// Multi-layer perceptron: hidden layers with activation, linear output.
/// `L` is [`Linear`] for the trainable model; inference-only copies at
/// another precision swap in that precision's layer.
#[derive(Debug, Clone)]
pub struct Mlp<L = Linear> {
    pub(crate) layers: Vec<L>,
    pub(crate) activation: Activation,
}

impl Mlp {
    /// MLP with dims `[in, h1, ..., out]`.
    pub fn new<R: Rng>(
        dims: &[usize],
        activation: Activation,
        set: &mut ParamSet,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], set, rng))
            .collect();
        Self { layers, activation }
    }

    /// Forward: activation after every layer except the last.
    pub fn forward(&self, t: &mut Tape, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(t, x);
            if i != last {
                x = self.activation.apply(t, x);
            }
        }
        x
    }
}

impl<L: InferLayer> Mlp<L> {
    /// Tape-free forward; intermediates ping-pong through `scratch`.
    /// Bitwise identical to [`Mlp::forward`] for f32 layers. The returned
    /// matrix comes from the arena — `put` it back when done.
    pub fn forward_infer(&self, x: &Matrix, scratch: &mut InferenceScratch) -> Matrix {
        let last = self.layers.len() - 1;
        let mut cur: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let xin = cur.as_ref().unwrap_or(x);
            let mut out = scratch.take(xin.rows, layer.output_dim());
            layer.forward_infer(xin, scratch, &mut out);
            if i != last {
                self.activation.apply_infer::<L>(&mut out);
            }
            if let Some(prev) = cur.take() {
                scratch.put(prev);
            }
            cur = Some(out);
        }
        cur.expect("Mlp has at least one layer")
    }
}

/// A single-layer LSTM cell.
#[derive(Debug, Clone)]
pub struct LstmCell {
    wx: Param,
    wh: Param,
    b: Param,
    hidden: usize,
}

impl LstmCell {
    /// Cell with `input`-wide inputs and `hidden`-wide state.
    pub fn new<R: Rng>(input: usize, hidden: usize, set: &mut ParamSet, rng: &mut R) -> Self {
        let wx = set.register(Param::new(xavier(input, 4 * hidden, rng)));
        let wh = set.register(Param::new(xavier(hidden, 4 * hidden, rng)));
        let b = set.register(Param::new(Matrix::zeros(1, 4 * hidden)));
        Self { wx, wh, b, hidden }
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Zero state `(h, c)` for a batch of `rows`.
    pub fn zero_state(&self, t: &mut Tape, rows: usize) -> (Var, Var) {
        let h = t.input(Matrix::zeros(rows, self.hidden));
        let c = t.input(Matrix::zeros(rows, self.hidden));
        (h, c)
    }

    /// One step: gates in i,f,g,o order.
    pub fn step(&self, t: &mut Tape, x: Var, h: Var, c: Var) -> (Var, Var) {
        let wx = t.param(&self.wx);
        let wh = t.param(&self.wh);
        let b = t.param(&self.b);
        let zx = t.matmul(x, wx);
        let zh = t.matmul(h, wh);
        let z = t.add(zx, zh);
        let z = t.add_row(z, b);
        let hd = self.hidden;
        let zi = t.slice_cols(z, 0, hd);
        let zf = t.slice_cols(z, hd, hd);
        let zg = t.slice_cols(z, 2 * hd, hd);
        let zo = t.slice_cols(z, 3 * hd, hd);
        let i = t.sigmoid(zi);
        let f = t.sigmoid(zf);
        let g = t.tanh(zg);
        let o = t.sigmoid(zo);
        let fc = t.mul(f, c);
        let ig = t.mul(i, g);
        let c2 = t.add(fc, ig);
        let tc = t.tanh(c2);
        let h2 = t.mul(o, tc);
        (h2, c2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_shapes() {
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let l = Linear::new(4, 3, &mut set, &mut rng);
        assert_eq!(l.input_dim(), 4);
        assert_eq!(l.output_dim(), 3);
        let mut t = Tape::new();
        let x = t.input(Matrix::zeros(5, 4));
        let y = l.forward(&mut t, x);
        assert_eq!((t.value(y).rows, t.value(y).cols), (5, 3));
    }

    #[test]
    fn mlp_learns_xor() {
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, &mut set, &mut rng);
        let xs = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let ys = [0.0f32, 1.0, 1.0, 0.0];
        let mut adam = Adam::new(0.05);
        let mut last_loss = f32::INFINITY;
        for _ in 0..400 {
            let mut t = Tape::new();
            let x = t.input(xs.clone());
            let out = mlp.forward(&mut t, x); // [4x1] logits
            let probs = t.sigmoid(out);
            let target = t.input(Matrix::from_vec(4, 1, ys.to_vec()));
            let neg = t.scale(target, -1.0);
            let diff = t.add(probs, neg);
            let sq = t.mul(diff, diff);
            let loss = t.sum_all(sq);
            last_loss = t.value(loss).item();
            t.backward(loss);
            adam.step(&set);
        }
        assert!(last_loss < 0.05, "xor loss = {last_loss}");
    }

    #[test]
    fn lstm_step_shapes_and_state_evolution() {
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let cell = LstmCell::new(3, 5, &mut set, &mut rng);
        let mut t = Tape::new();
        let (h0, c0) = cell.zero_state(&mut t, 1);
        let x = t.input(Matrix::from_vec(1, 3, vec![1.0, -1.0, 0.5]));
        let (h1, c1) = cell.step(&mut t, x, h0, c0);
        assert_eq!((t.value(h1).rows, t.value(h1).cols), (1, 5));
        assert_eq!((t.value(c1).rows, t.value(c1).cols), (1, 5));
        // Non-zero input should move the state off zero.
        assert!(t.value(h1).norm() > 0.0);
    }

    #[test]
    fn lstm_gradients_flow_through_time() {
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let cell = LstmCell::new(2, 4, &mut set, &mut rng);
        set.zero_grad();
        let mut t = Tape::new();
        let (mut h, mut c) = cell.zero_state(&mut t, 1);
        for i in 0..3 {
            let x = t.input(Matrix::from_vec(1, 2, vec![i as f32, 1.0]));
            let (h2, c2) = cell.step(&mut t, x, h, c);
            h = h2;
            c = c2;
        }
        let loss = t.sum_all(h);
        t.backward(loss);
        // All three weight tensors must receive gradient.
        for p in set.params() {
            assert!(p.0.borrow().grad.norm() > 0.0, "parameter got no gradient");
        }
    }
}
