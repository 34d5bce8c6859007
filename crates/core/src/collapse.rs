//! Edge-collapsing prediction head (§IV-B).
//!
//! For each directed edge `e = (u, v)`:
//!
//! ```text
//! h_head = W_head · h_u        h_tail = W_tail · h_v
//! h_{u,v} = W₁ · [h_head : h_tail : W_edge · f_{u,v}]
//! P(merge(u,v)) = σ(MLP(W₂ · h_{u,v}))
//! ```

use crate::config::CoarsenConfig;
use rand::Rng;
use spg_graph::features::EDGE_FEATURES;
use spg_graph::{GraphFeatures, TopoView};
use spg_nn::layers::{Activation, Linear, Mlp};
use spg_nn::{Matrix, ParamSet, Tape, Var};

/// The collapse head: node embeddings + edge features → per-edge logits.
/// `L` is [`Linear`] for the trainable model; [`crate::QuantizedModel`]
/// holds an int8 copy.
#[derive(Debug, Clone)]
pub struct CollapseHead<L = Linear> {
    pub(crate) head_proj: L,
    pub(crate) tail_proj: L,
    pub(crate) edge_proj: L,
    pub(crate) merge: Mlp<L>,
    pub(crate) edge_collapse_features: bool,
}

impl CollapseHead {
    /// Build with parameters registered into `set`. `node_dim` is the width
    /// of the encoder output (`2m`).
    pub fn new<R: Rng>(
        cfg: &CoarsenConfig,
        node_dim: usize,
        set: &mut ParamSet,
        rng: &mut R,
    ) -> Self {
        let m = cfg.hidden;
        Self {
            head_proj: Linear::new(node_dim, m, set, rng),
            tail_proj: Linear::new(node_dim, m, set, rng),
            edge_proj: Linear::new(EDGE_FEATURES, cfg.edge_hidden, set, rng),
            merge: Mlp::new(
                &[2 * m + cfg.edge_hidden, cfg.head_hidden, 1],
                Activation::Relu,
                set,
                rng,
            ),
            edge_collapse_features: cfg.edge_collapse_features,
        }
    }

    /// Per-edge collapse logits (`[E x 1]`) from node representations
    /// `h` (`[N x 2m]`).
    pub fn logits(&self, t: &mut Tape, view: &TopoView<'_>, feats: &GraphFeatures, h: Var) -> Var {
        let e = view.edges.len();
        assert!(e > 0, "logits need at least one edge");

        let src: Vec<u32> = view.edges.iter().map(|&(s, _)| s).collect();
        let dst: Vec<u32> = view.edges.iter().map(|&(_, d)| d).collect();

        let head_all = self.head_proj.forward(t, h);
        let tail_all = self.tail_proj.forward(t, h);
        let h_head = t.gather_rows(head_all, &src);
        let h_tail = t.gather_rows(tail_all, &dst);

        let ef = if self.edge_collapse_features {
            Matrix::from_vec(e, EDGE_FEATURES, feats.edge.0.clone())
        } else {
            Matrix::zeros(e, EDGE_FEATURES)
        };
        let ef = t.input(ef);
        let ef = self.edge_proj.forward(t, ef);
        let ef = t.tanh(ef);

        let cat = t.concat_cols(&[h_head, h_tail, ef]);
        self.merge.forward(t, cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EdgeAwareGnn;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spg_graph::{Channel, ClusterSpec, Operator, StreamGraph, StreamGraphBuilder};

    fn tiny() -> StreamGraph {
        let mut b = StreamGraphBuilder::new();
        let a = b.add_node(Operator::new(100.0));
        let c = b.add_node(Operator::new(200.0));
        let d = b.add_node(Operator::new(300.0));
        b.add_edge(a, c, Channel::new(10.0)).unwrap();
        b.add_edge(c, d, Channel::new(2000.0)).unwrap();
        b.finish().unwrap()
    }

    fn logits_for(cfg: &CoarsenConfig, seed: u64) -> Matrix {
        let g = tiny();
        let feats = GraphFeatures::extract(&g, &ClusterSpec::paper_medium(4), 1e4);
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let enc = EdgeAwareGnn::new(cfg, &mut set, &mut rng);
        let head = CollapseHead::new(cfg, enc.output_dim(), &mut set, &mut rng);
        let mut t = Tape::new();
        let h = enc.encode(&mut t, &g.topo_view(), &feats);
        let z = head.logits(&mut t, &g.topo_view(), &feats, h);
        t.value(z).clone()
    }

    #[test]
    fn one_logit_per_edge() {
        let z = logits_for(&CoarsenConfig::default(), 0);
        assert_eq!((z.rows, z.cols), (2, 1));
        assert!(z.is_finite());
    }

    #[test]
    fn edge_feature_ablation_changes_logits() {
        let full = logits_for(&CoarsenConfig::default(), 3);
        let ablated = logits_for(&CoarsenConfig::without_edge_collapse_features(), 3);
        assert!(full != ablated);
    }

    #[test]
    fn gradients_reach_all_params() {
        let g = tiny();
        let feats = GraphFeatures::extract(&g, &ClusterSpec::paper_medium(4), 1e4);
        let cfg = CoarsenConfig::default();
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let enc = EdgeAwareGnn::new(&cfg, &mut set, &mut rng);
        let head = CollapseHead::new(&cfg, enc.output_dim(), &mut set, &mut rng);
        set.zero_grad();
        let mut t = Tape::new();
        let h = enc.encode(&mut t, &g.topo_view(), &feats);
        let z = head.logits(&mut t, &g.topo_view(), &feats, h);
        let ll = t.bernoulli_log_prob(z, &[1.0, 0.0]);
        t.backward(ll);
        let with_grad = set
            .params()
            .iter()
            .filter(|p| p.0.borrow().grad.norm() > 0.0)
            .count();
        // Every parameter except possibly dead-ReLU branches must get
        // gradient; demand a strong majority.
        assert!(
            with_grad * 10 >= set.params().len() * 8,
            "{with_grad}/{} params got gradient",
            set.params().len()
        );
    }
}
