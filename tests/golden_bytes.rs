//! Golden byte pins: the f32 forward and a short seeded training run
//! must reproduce the exact bytes recorded when every tanh went through
//! glibc 2.36's `tanhf` (x86-64). `tests/infer.rs` compares the tape with
//! the tape-free forward, but both sides share one tanh kernel, so only
//! these constants catch a kernel that drifts by one ulp.
//!
//! Each pin is an FNV-1a hash: of the `infer_probs` bits over a seeded
//! Small + Large corpus (fresh model, then the trained one), and of the
//! serialized checkpoint after two seeded training epochs.
//!
//! The int8 forward gets the same pair of corpus pins (its own tanh,
//! `tanh_fast`, and i32-accumulated matmuls; the trained pin inherits the
//! training run's bytes). They exist because the quantized-agreement
//! tests check only floors, which a changed int8 byte can pass.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::gen::{DatasetSpec, Setting};
use spg::graph::GraphFeatures;
use spg::graph::StreamGraph;
use spg::model::pipeline::MetisCoarsePlacer;
use spg::model::{CoarsenConfig, CoarsenModel, InferenceScratch, ReinforceTrainer, TrainOptions};

const PROBS_FRESH: u64 = 0xa61f_353b_1374_4cde;
const PROBS_TRAINED: u64 = 0x502c_e155_de73_8f23;
const CHECKPOINT: u64 = 0xf6d5_a2fe_b143_d69f;
const INT8_PROBS_FRESH: u64 = 0xa6f5_4f23_0aa5_6c46;
const INT8_PROBS_TRAINED: u64 = 0xf817_df03_95a3_88d4;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of every collapse probability's bits, as `probs` computes them,
/// over 4 Small and 2 Large paper-size graphs.
fn corpus_hash(mut probs: impl FnMut(&StreamGraph, &GraphFeatures) -> Vec<f32>) -> u64 {
    let mut hash = FNV_OFFSET;
    for (setting, seeds) in [(Setting::Small, 0..4u64), (Setting::Large, 0..2u64)] {
        let spec = DatasetSpec::for_setting(setting);
        for seed in seeds {
            let graph = spg::gen::generate_graph(&spec, 1000 + seed);
            let feats = GraphFeatures::extract(&graph, &spec.cluster(), spec.source_rate);
            for p in probs(&graph, &feats) {
                fnv1a(&mut hash, &p.to_bits().to_le_bytes());
            }
        }
    }
    hash
}

/// [`corpus_hash`] of the f32 forward.
fn probs_hash(model: &CoarsenModel) -> u64 {
    let mut scratch = InferenceScratch::new();
    corpus_hash(|g, f| model.infer_probs(g, f, &mut scratch))
}

/// [`corpus_hash`] of the int8 forward of `model`'s quantization.
fn int8_probs_hash(model: &CoarsenModel) -> u64 {
    let qmodel = model.quantize();
    let mut scratch = InferenceScratch::new();
    corpus_hash(|g, f| qmodel.infer_probs(g, f, &mut scratch))
}

/// The seeded model both tests start from.
fn fresh_model() -> CoarsenModel {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    CoarsenModel::new(CoarsenConfig::default(), &mut rng)
}

/// Two seeded single-worker epochs on 4 scaled-down Small graphs.
fn trained(model: CoarsenModel) -> ReinforceTrainer<MetisCoarsePlacer> {
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let graphs: Vec<_> = (0..4u64)
        .map(|s| spg::gen::generate_graph(&spec, 300 + s))
        .collect();
    let mut trainer = ReinforceTrainer::builder(model, MetisCoarsePlacer::new(22))
        .graphs(graphs)
        .cluster(spec.cluster())
        .source_rate(spec.source_rate)
        .options(TrainOptions::new().seed(23).num_workers(1))
        .build();
    for _ in 0..2 {
        trainer.train_epoch();
    }
    trainer
}

#[test]
fn forward_and_training_bytes_match_the_libm_recording() {
    let model = fresh_model();
    let fresh = probs_hash(&model);

    let trainer = trained(model);
    let ckpt = serde_json::to_string(&trainer.checkpoint()).unwrap();
    let mut ckpt_hash = FNV_OFFSET;
    fnv1a(&mut ckpt_hash, ckpt.as_bytes());
    let trained = probs_hash(&trainer.into_model());

    assert_eq!(
        (fresh, trained, ckpt_hash),
        (PROBS_FRESH, PROBS_TRAINED, CHECKPOINT),
        "got (fresh {fresh:#018x}, trained {trained:#018x}, checkpoint {ckpt_hash:#018x})"
    );
}

#[test]
fn int8_forward_bytes_match_the_recording() {
    let model = fresh_model();
    let fresh = int8_probs_hash(&model);
    let trained = int8_probs_hash(&trained(model).into_model());
    assert_eq!(
        (fresh, trained),
        (INT8_PROBS_FRESH, INT8_PROBS_TRAINED),
        "got (fresh {fresh:#018x}, trained {trained:#018x})"
    );
}
