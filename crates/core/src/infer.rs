//! Tape-free batched inference for [`CoarsenModel`].
//!
//! The training forward builds a [`spg_nn::Tape`]: every op allocates a
//! node, every parameter use clones its matrix, and gather/segment passes
//! walk COO index vectors rebuilt per call. None of that is needed at
//! serve time — inference never backprops — so this module re-implements
//! the encoder and collapse head as plain [`Matrix`] ops with three
//! properties:
//!
//! * **Zero steady-state allocation**: intermediates come from an
//!   [`InferenceScratch`] arena reused across calls (and across serve
//!   batches), weights are read in place through `RefCell` borrows.
//! * **CSR-backed pooling**: segment means pull over
//!   [`spg_graph::Csr`] buckets (ascending edge ids) instead of
//!   scattering over a COO segment vector, and the batched path caches
//!   the disjoint-union CSR in a [`BatchUnion`] keyed by the serve LRU
//!   fingerprints.
//! * **Bitwise identity**: every op replicates its tape counterpart's
//!   accumulation order exactly (CSR buckets list edge ids ascending, so
//!   per-segment sums add in the same order the COO loop did; divisions
//!   use the same `/= count`). The `tests/infer.rs` corpus pins
//!   tape-vs-tape-free equality bit for bit.
//!
//! The forward is written once, generic over [`InferLayer`]: the f32
//! model runs it with [`spg_nn::Linear`] and the exact tanh, the int8
//! [`QuantizedModel`] with [`QuantizedLinear`] and the fast tanh. Each
//! precision compiles to its own monomorphised loop.

use crate::collapse::CollapseHead;
use crate::encoder::EdgeAwareGnn;
use crate::model::{sigmoid, CoarsenModel};
use spg_graph::features::{EDGE_FEATURES, NODE_FEATURES};
use spg_graph::{Csr, GraphFeatures, StreamGraph};
use spg_nn::{InferLayer, Matrix, QuantizedLinear, QuantizedMlp};

pub use spg_nn::InferenceScratch;

/// A topology view for inference: edge list plus forward/reverse CSR.
struct InferTopo<'a> {
    num_nodes: usize,
    edges: &'a [(u32, u32)],
    /// Edges bucketed by source (pools the downstream view).
    fwd: &'a Csr,
    /// Edges bucketed by destination (pools the upstream view).
    rev: &'a Csr,
}

/// Reusable disjoint-union builder for batched inference.
///
/// Holds the concatenated node/edge features, the offset edge list, and
/// both union CSRs, all with capacity reuse across batches. When the
/// caller supplies per-item cache keys (the serve LRU request
/// fingerprints), an identical consecutive batch skips the rebuild
/// entirely — the fingerprint covers graph topology, devices, and rate,
/// which determine the features too.
#[derive(Debug, Default)]
pub struct BatchUnion {
    node: Vec<f32>,
    edge: Vec<f32>,
    edges: Vec<(u32, u32)>,
    num_nodes: usize,
    fwd: Csr,
    rev: Csr,
    key: Option<Vec<u64>>,
    hits: u64,
}

impl BatchUnion {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many batches reused the cached union (diagnostics).
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// (Re)build the union over `items[edged]`, or skip when `keys`
    /// match the previous build.
    fn build(
        &mut self,
        items: &[(&StreamGraph, &GraphFeatures)],
        edged: &[usize],
        keys: Option<&[u64]>,
    ) {
        let new_key: Option<Vec<u64>> = keys.map(|ks| edged.iter().map(|&i| ks[i]).collect());
        if let (Some(nk), Some(ok)) = (&new_key, &self.key) {
            if nk == ok {
                self.hits += 1;
                return;
            }
        }
        self.node.clear();
        self.edge.clear();
        self.edges.clear();
        let mut base = 0u32;
        for &i in edged {
            let (g, f) = items[i];
            self.node.extend_from_slice(&f.node.0);
            self.edge.extend_from_slice(&f.edge.0);
            self.edges.extend(
                g.topo_view()
                    .edges
                    .iter()
                    .map(|&(u, v)| (u + base, v + base)),
            );
            base += g.num_nodes() as u32;
        }
        self.num_nodes = base as usize;
        self.fwd.rebuild(self.num_nodes, self.edges.iter().copied());
        self.rev
            .rebuild(self.num_nodes, self.edges.iter().map(|&(u, v)| (v, u)));
        self.key = new_key;
    }
}

/// Output row `i` = `[h[pick(edges[i])] : ef[i]]` — the fused
/// gather+concat that feeds the message MLP (one pass, no intermediate
/// gathered matrix).
fn gather_concat(h: &Matrix, edges: &[(u32, u32)], pick_src: bool, ef: &Matrix, out: &mut Matrix) {
    let m = h.cols;
    debug_assert_eq!(out.cols, m + ef.cols);
    for (i, &(u, v)) in edges.iter().enumerate() {
        let node = if pick_src { u } else { v } as usize;
        let row = out.row_mut(i);
        row[..m].copy_from_slice(h.row(node));
        row[m..].copy_from_slice(ef.row(i));
    }
}

/// Per-segment mean via a CSR pull: out row `v` accumulates `msg` rows
/// for `v`'s bucket in ascending edge-id order, then divides by the
/// bucket size — exactly the order and rounding of `Tape::segment_mean`.
/// `out` must be zeroed (empty buckets stay zero rows).
fn segment_mean_csr(msg: &Matrix, csr: &Csr, out: &mut Matrix) {
    debug_assert_eq!(out.rows, csr.num_nodes());
    for v in 0..csr.num_nodes() {
        let ids = csr.edge_id_slice(v as u32);
        if ids.is_empty() {
            continue;
        }
        let row = out.row_mut(v);
        for &eid in ids {
            for (o, &x) in row.iter_mut().zip(msg.row(eid as usize)) {
                *o += x;
            }
        }
        let c = ids.len() as f32;
        for x in row {
            *x /= c;
        }
    }
}

/// `out = [a : b]` column-wise (both `n x m`, out `n x 2m`).
fn concat2(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    debug_assert_eq!((a.rows, a.cols), (b.rows, b.cols));
    debug_assert_eq!((out.rows, out.cols), (a.rows, 2 * a.cols));
    let m = a.cols;
    for r in 0..a.rows {
        let row = out.row_mut(r);
        row[..m].copy_from_slice(a.row(r));
        row[m..].copy_from_slice(b.row(r));
    }
}

impl<L: InferLayer> EdgeAwareGnn<L> {
    /// Tape-free [`EdgeAwareGnn::encode`]: returns the `[N x 2m]` node
    /// representation as an arena matrix (bitwise identical to the tape
    /// path for f32 layers). `put` it back when done.
    fn encode_infer(
        &self,
        topo: &InferTopo<'_>,
        node_feats: &[f32],
        edge_feats: &[f32],
        s: &mut InferenceScratch,
    ) -> Matrix {
        let n = topo.num_nodes;
        let e = topo.edges.len();
        let m = self.hidden;

        let mut nf = s.take(n, NODE_FEATURES);
        nf.data.copy_from_slice(node_feats);
        let mut h_up = s.take(n, m);
        self.input_proj.forward_infer(&nf, s, &mut h_up);
        s.put(nf);
        L::tanh(&mut h_up);

        if e == 0 {
            let mut out = s.take(n, 2 * m);
            concat2(&h_up, &h_up, &mut out);
            s.put(h_up);
            return out;
        }

        let mut h_down = s.take(n, m);
        h_down.data.copy_from_slice(&h_up.data);

        // Zeroed when the edge-encoding ablation is off, like the tape path.
        let mut ef = s.take(e, EDGE_FEATURES);
        if self.edge_encoding {
            ef.data.copy_from_slice(edge_feats);
        }

        let mut cat = s.take(e, m + EDGE_FEATURES);
        let mut pool = s.take(n, m);
        let mut cat2 = s.take(n, 2 * m);
        for _ in 0..self.hops {
            // Upstream view: messages flow along edge direction to dst.
            gather_concat(&h_up, topo.edges, true, &ef, &mut cat);
            let mut msg = self.msg.forward_infer(&cat, s);
            L::tanh(&mut msg);
            pool.fill_zero();
            segment_mean_csr(&msg, topo.rev, &mut pool);
            s.put(msg);
            concat2(&h_up, &pool, &mut cat2);
            let mut up_new = s.take(n, m);
            self.update.forward_infer(&cat2, s, &mut up_new);
            L::tanh(&mut up_new);

            // Downstream view: messages flow against edge direction to src.
            gather_concat(&h_down, topo.edges, false, &ef, &mut cat);
            let mut msg = self.msg.forward_infer(&cat, s);
            L::tanh(&mut msg);
            pool.fill_zero();
            segment_mean_csr(&msg, topo.fwd, &mut pool);
            s.put(msg);
            concat2(&h_down, &pool, &mut cat2);
            let mut down_new = s.take(n, m);
            self.update.forward_infer(&cat2, s, &mut down_new);
            L::tanh(&mut down_new);

            s.put(h_up);
            s.put(h_down);
            h_up = up_new;
            h_down = down_new;
        }
        s.put(ef);
        s.put(cat);
        s.put(pool);
        s.put(cat2);

        let mut out = s.take(n, 2 * m);
        concat2(&h_up, &h_down, &mut out);
        s.put(h_up);
        s.put(h_down);
        out
    }
}

impl<L: InferLayer> CollapseHead<L> {
    /// Tape-free [`CollapseHead::logits`]: per-edge logits `[E x 1]` as
    /// an arena matrix (bitwise identical to the tape path for f32
    /// layers).
    fn logits_infer(
        &self,
        topo: &InferTopo<'_>,
        edge_feats: &[f32],
        h: &Matrix,
        s: &mut InferenceScratch,
    ) -> Matrix {
        let e = topo.edges.len();
        assert!(e > 0, "logits need at least one edge");
        let n = h.rows;
        let m = self.head_proj.output_dim();
        let eh = self.edge_proj.output_dim();

        let mut head_all = s.take(n, m);
        self.head_proj.forward_infer(h, s, &mut head_all);
        let mut tail_all = s.take(n, m);
        self.tail_proj.forward_infer(h, s, &mut tail_all);

        let mut ef_in = s.take(e, EDGE_FEATURES);
        if self.edge_collapse_features {
            ef_in.data.copy_from_slice(edge_feats);
        }
        let mut ef = s.take(e, eh);
        self.edge_proj.forward_infer(&ef_in, s, &mut ef);
        L::tanh(&mut ef);
        s.put(ef_in);

        let mut cat = s.take(e, 2 * m + eh);
        for (i, &(u, v)) in topo.edges.iter().enumerate() {
            let row = cat.row_mut(i);
            row[..m].copy_from_slice(head_all.row(u as usize));
            row[m..2 * m].copy_from_slice(tail_all.row(v as usize));
            row[2 * m..].copy_from_slice(ef.row(i));
        }
        s.put(head_all);
        s.put(tail_all);
        s.put(ef);

        let logits = self.merge.forward_infer(&cat, s);
        s.put(cat);
        logits
    }
}

/// The one tape-free forward — encoder, collapse head, sigmoid — over
/// the encoder and head of a [`CoarsenModel`] (`L` = f32 [`spg_nn::Linear`]) or
/// a [`QuantizedModel`] (`L` = [`QuantizedLinear`]).
struct Forward<'m, L>(&'m EdgeAwareGnn<L>, &'m CollapseHead<L>);

impl<L: InferLayer> Forward<'_, L> {
    /// Collapse probabilities for one graph on its own CSR; empty for
    /// edgeless graphs.
    fn probs(
        &self,
        graph: &StreamGraph,
        feats: &GraphFeatures,
        scratch: &mut InferenceScratch,
    ) -> Vec<f32> {
        if graph.num_edges() == 0 {
            return Vec::new();
        }
        let view = graph.topo_view();
        let topo = InferTopo {
            num_nodes: view.num_nodes,
            edges: view.edges,
            fwd: graph.out_csr(),
            rev: graph.in_csr(),
        };
        self.probs_topo(&topo, &feats.node.0, &feats.edge.0, scratch)
    }

    fn probs_topo(
        &self,
        topo: &InferTopo<'_>,
        node_feats: &[f32],
        edge_feats: &[f32],
        scratch: &mut InferenceScratch,
    ) -> Vec<f32> {
        let h = self.0.encode_infer(topo, node_feats, edge_feats, scratch);
        let z = self.1.logits_infer(topo, edge_feats, &h, scratch);
        scratch.put(h);
        let probs = z.data.iter().map(|&x| sigmoid(x)).collect();
        scratch.put(z);
        probs
    }

    /// One forward over the disjoint union of the edged `items`, sliced
    /// back per item; see [`CoarsenModel::predict_probs_batch_with`].
    fn probs_batch(
        &self,
        union: &mut BatchUnion,
        scratch: &mut InferenceScratch,
        keys: Option<&[u64]>,
        items: &[(&StreamGraph, &GraphFeatures)],
    ) -> Vec<Vec<f32>> {
        let mut out: Vec<Vec<f32>> = vec![Vec::new(); items.len()];
        let edged: Vec<usize> = (0..items.len())
            .filter(|&i| items[i].0.num_edges() > 0)
            .collect();
        if edged.is_empty() {
            return out;
        }
        if edged.len() == 1 {
            let (g, f) = items[edged[0]];
            out[edged[0]] = self.probs(g, f, scratch);
            return out;
        }

        union.build(items, &edged, keys);
        let topo = InferTopo {
            num_nodes: union.num_nodes,
            edges: &union.edges,
            fwd: &union.fwd,
            rev: &union.rev,
        };
        let probs = self.probs_topo(&topo, &union.node, &union.edge, scratch);
        let mut pos = 0;
        for &i in &edged {
            let e = items[i].0.num_edges();
            out[i] = probs[pos..pos + e].to_vec();
            pos += e;
        }
        out
    }
}

impl CoarsenModel {
    /// Tape-free inference probabilities for one graph, reusing a scratch
    /// arena across calls. Bitwise identical to the tape forward
    /// ([`CoarsenModel::forward`] + sigmoid); empty for edgeless graphs.
    pub fn infer_probs(
        &self,
        graph: &StreamGraph,
        feats: &GraphFeatures,
        scratch: &mut InferenceScratch,
    ) -> Vec<f32> {
        Forward(&self.encoder, &self.head).probs(graph, feats, scratch)
    }

    /// Batched tape-free inference with explicit state: `union` and
    /// `scratch` persist across calls (the serve batcher owns one of
    /// each), and `keys` — one cache key per item, typically the serve
    /// LRU request fingerprint — lets an identical consecutive batch skip
    /// the union rebuild.
    ///
    /// Single-edged-graph batches (the common serve case after in-batch
    /// dedup) skip the union entirely and run on the graph's own CSR.
    /// Results are bitwise identical to solo [`CoarsenModel::infer_probs`]
    /// calls; edgeless graphs get empty vectors.
    pub fn predict_probs_batch_with(
        &self,
        union: &mut BatchUnion,
        scratch: &mut InferenceScratch,
        keys: Option<&[u64]>,
        items: &[(&StreamGraph, &GraphFeatures)],
    ) -> Vec<Vec<f32>> {
        Forward(&self.encoder, &self.head).probs_batch(union, scratch, keys, items)
    }

    /// Quantize every weight matrix into an int8 [`QuantizedModel`].
    /// Done once at checkpoint load; the f32 model stays untouched.
    pub fn quantize(&self) -> QuantizedModel {
        let (enc, head) = (&self.encoder, &self.head);
        let q = QuantizedLinear::from_linear;
        QuantizedModel {
            encoder: EdgeAwareGnn {
                input_proj: q(&enc.input_proj),
                msg: QuantizedMlp::from_mlp(&enc.msg),
                update: q(&enc.update),
                hidden: enc.hidden,
                hops: enc.hops,
                edge_encoding: enc.edge_encoding,
            },
            head: CollapseHead {
                head_proj: q(&head.head_proj),
                tail_proj: q(&head.tail_proj),
                edge_proj: q(&head.edge_proj),
                merge: QuantizedMlp::from_mlp(&head.merge),
                edge_collapse_features: head.edge_collapse_features,
            },
        }
    }
}

/// Int8-quantized copy of [`CoarsenModel`] for the opt-in serve path:
/// every `Linear` becomes a [`QuantizedLinear`] (per-output-channel
/// symmetric scales fixed at quantization time) and tanh takes the fast
/// rational form, while the graph ops (gather, segment mean, concat) stay
/// f32 and shared. Results are deterministic across replicas and SIMD
/// tiers — the integer accumulation argument lives in `spg_nn::quant` —
/// but are *not* bitwise equal to the f32 path;
/// `tests/quantized_agreement.rs` pins how closely the resulting
/// placements must agree.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    encoder: EdgeAwareGnn<QuantizedLinear>,
    head: CollapseHead<QuantizedLinear>,
}

impl QuantizedModel {
    /// Int8 [`CoarsenModel::infer_probs`]: collapse probabilities for one
    /// graph; empty for edgeless graphs.
    pub fn infer_probs(
        &self,
        graph: &StreamGraph,
        feats: &GraphFeatures,
        scratch: &mut InferenceScratch,
    ) -> Vec<f32> {
        Forward(&self.encoder, &self.head).probs(graph, feats, scratch)
    }

    /// Int8 [`CoarsenModel::predict_probs_batch_with`]: the same
    /// batching, union caching and result slicing.
    pub fn predict_probs_batch_with(
        &self,
        union: &mut BatchUnion,
        scratch: &mut InferenceScratch,
        keys: Option<&[u64]>,
        items: &[(&StreamGraph, &GraphFeatures)],
    ) -> Vec<Vec<f32>> {
        Forward(&self.encoder, &self.head).probs_batch(union, scratch, keys, items)
    }
}
