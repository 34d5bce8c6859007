//! The int8 serving path's acceptance contract: quantized inference is
//! deterministic, and its end-to-end placements agree with f32 on at
//! least a pinned fraction of a seeded corpus, never losing more than a
//! pinned sliver of reward on the rest. Placements are compared through
//! the same decode → place → simulate pipeline the serve replicas run,
//! over the paper-setting corpus plus the degenerate pins (single node,
//! edgeless pair, single edge) from `tests/infer.rs`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::gen::{DatasetSpec, Setting};
use spg::graph::{
    Channel, ClusterSpec, GraphFeatures, Operator, Placement, StreamGraph, StreamGraphBuilder,
    TupleRates,
};
use spg::model::pipeline::MetisCoarsePlacer;
use spg::model::{
    CoarsePlacer, CoarsenConfig, CoarsenModel, CoarseningPolicy, DecodeMode, InferenceScratch,
};

/// Exact-placement agreement the int8 path must reach over this corpus.
/// Measured 5/10 on the seeded corpus (both paths are bitwise
/// deterministic, so the measurement is machine-independent); pinned one
/// graph of slack below so a kernel or scale-selection change that
/// degrades agreement fails loudly.
const MIN_AGREEMENT: f64 = 0.4;
/// Worst tolerated per-graph reward ratio int8/f32 where placements
/// differ. Measured worst case 0.9433; anything below this pin means
/// quantization noise started costing real throughput.
const MIN_REWARD_RATIO: f64 = 0.92;
/// Collapse probabilities must stay this close to f32 everywhere —
/// int8's quantization error bound for these layer widths.
const MAX_PROB_DIFF: f32 = 0.05;

fn corpus() -> Vec<(StreamGraph, ClusterSpec, f64)> {
    let mut graphs = Vec::new();
    for setting in [Setting::Small, Setting::Medium, Setting::Large] {
        let spec = DatasetSpec::scaled_down(setting);
        let cluster = spec.cluster();
        for seed in 0..3u64 {
            graphs.push((
                spg::gen::generate_graph(&spec, seed),
                cluster,
                spec.source_rate,
            ));
        }
    }
    // Degenerate pins: single node (no edges), edgeless pair, single edge.
    let cluster = ClusterSpec::paper_medium(3);
    let mut one = StreamGraphBuilder::new();
    one.add_node(Operator::new(5.0));
    graphs.push((one.finish().unwrap(), cluster, 1e4));
    let mut pair = StreamGraphBuilder::new();
    pair.add_node(Operator::new(1.0));
    pair.add_node(Operator::new(2.0));
    graphs.push((pair.finish().unwrap(), cluster, 1e4));
    let mut edge = StreamGraphBuilder::new();
    let a = edge.add_node(Operator::new(100.0));
    let b = edge.add_node(Operator::new(200.0));
    edge.add_edge(a, b, Channel::new(10.0)).unwrap();
    graphs.push((edge.finish().unwrap(), cluster, 1e4));
    graphs
}

/// A briefly-trained model, the same recipe as the serve-cluster
/// harness: serving always runs a trained checkpoint, and training
/// sharpens collapse probabilities away from the 0.5 decision
/// threshold, which is what makes int8-vs-f32 agreement a meaningful
/// contract rather than a coin flip on random weights.
fn model() -> CoarsenModel {
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let graphs: Vec<_> = (0..4u64)
        .map(|s| spg::gen::generate_graph(&spec, 9 + s))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
    let mut trainer = spg::model::ReinforceTrainer::builder(model, MetisCoarsePlacer::new(9))
        .graphs(graphs)
        .cluster(spec.cluster())
        .source_rate(spec.source_rate)
        .options(spg::model::TrainOptions::new().seed(9))
        .build();
    trainer.train_epoch();
    trainer.into_model()
}

/// The serve replica's rollout for one graph: greedy decode, coarse
/// placement, lift, analytic reward.
fn rollout(
    model: &CoarsenModel,
    graph: &StreamGraph,
    cluster: &ClusterSpec,
    rate: f64,
    probs: &[f32],
) -> (Vec<u32>, f64) {
    let policy = CoarseningPolicy::from_config(&model.config);
    let placer = MetisCoarsePlacer::new(7);
    let rates = TupleRates::compute(graph, rate);
    // Greedy decoding ignores the RNG, matching the serve path.
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let decisions = policy.decode(probs, DecodeMode::Greedy, &mut rng);
    let coarsening = policy.apply(graph, &rates, cluster, &decisions, probs);
    let coarse = placer.place_coarse(&coarsening.coarse, cluster);
    let placement = Placement::lift(&coarse, &coarsening.node_map);
    let relative =
        spg::sim::reward::relative_throughput_with_rates(graph, cluster, &placement, &rates);
    (placement.as_slice().to_vec(), relative)
}

#[test]
fn quantized_probs_stay_within_quantization_error_of_f32() {
    let model = model();
    let qmodel = model.quantize();
    let mut scratch = InferenceScratch::new();
    for (i, (graph, cluster, rate)) in corpus().iter().enumerate() {
        let feats = GraphFeatures::extract(graph, cluster, *rate);
        let f32_probs = model.infer_probs(graph, &feats, &mut scratch);
        let q_probs = qmodel.infer_probs(graph, &feats, &mut scratch);
        assert_eq!(q_probs.len(), graph.num_edges(), "graph {i} length");
        let worst = f32_probs
            .iter()
            .zip(&q_probs)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            worst <= MAX_PROB_DIFF,
            "graph {i} ({} nodes, {} edges): max prob diff {worst} exceeds {MAX_PROB_DIFF}",
            graph.num_nodes(),
            graph.num_edges()
        );
    }
}

#[test]
fn quantized_inference_is_deterministic_across_fresh_state() {
    let model = model();
    // Two independent quantizations of the same weights plus fresh
    // scratch state must produce bitwise-identical probabilities — the
    // property that makes int8 placements cacheable and replica-count
    // independent.
    let qa = model.quantize();
    let qb = model.quantize();
    let mut scratch_a = InferenceScratch::new();
    let mut scratch_b = InferenceScratch::new();
    for (i, (graph, cluster, rate)) in corpus().iter().enumerate() {
        let feats = GraphFeatures::extract(graph, cluster, *rate);
        let first = qa.infer_probs(graph, &feats, &mut scratch_a);
        let second = qb.infer_probs(graph, &feats, &mut scratch_b);
        assert_eq!(
            first.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            second.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "graph {i}: quantized inference not deterministic"
        );
    }
}

#[test]
fn quantized_placements_agree_with_f32_within_pinned_bounds() {
    let model = model();
    let qmodel = model.quantize();
    let mut scratch = InferenceScratch::new();
    let corpus = corpus();
    let mut agree = 0usize;
    let mut edged = 0usize;
    for (i, (graph, cluster, rate)) in corpus.iter().enumerate() {
        let feats = GraphFeatures::extract(graph, cluster, *rate);
        let f32_probs = model.infer_probs(graph, &feats, &mut scratch);
        let q_probs = qmodel.infer_probs(graph, &feats, &mut scratch);
        let (f32_placement, f32_reward) = rollout(&model, graph, cluster, *rate, &f32_probs);
        let (q_placement, q_reward) = rollout(&model, graph, cluster, *rate, &q_probs);
        if graph.num_edges() == 0 {
            // Edgeless graphs have no collapse decisions: the pipelines
            // are probability-independent and must agree exactly.
            assert_eq!(
                q_placement, f32_placement,
                "graph {i}: edgeless placement diverged"
            );
            continue;
        }
        edged += 1;
        if q_placement == f32_placement {
            agree += 1;
        } else {
            assert!(
                f32_reward <= 0.0 || q_reward / f32_reward >= MIN_REWARD_RATIO,
                "graph {i} ({} nodes): int8 reward {q_reward:.4} vs f32 {f32_reward:.4} \
                 below ratio {MIN_REWARD_RATIO}",
                graph.num_nodes()
            );
        }
    }
    let fraction = agree as f64 / edged as f64;
    println!("agreement: {agree}/{edged} = {fraction:.3}");
    assert!(
        fraction >= MIN_AGREEMENT,
        "int8 placements agree with f32 on only {agree}/{edged} graphs \
         (pinned floor {MIN_AGREEMENT})"
    );
}

#[test]
fn quantized_batch_matches_solo_quantized_inference() {
    let model = model();
    let qmodel = model.quantize();
    let corpus = corpus();
    let feats: Vec<GraphFeatures> = corpus
        .iter()
        .map(|(g, c, r)| GraphFeatures::extract(g, c, *r))
        .collect();
    let items: Vec<(&StreamGraph, &GraphFeatures)> =
        corpus.iter().map(|(g, _, _)| g).zip(&feats).collect();
    let keys: Vec<u64> = (0..items.len() as u64).collect();

    let mut union = spg::model::BatchUnion::new();
    let mut scratch = InferenceScratch::new();
    let batched = qmodel.predict_probs_batch_with(&mut union, &mut scratch, Some(&keys), &items);
    for (i, ((graph, _, _), probs)) in corpus.iter().zip(&batched).enumerate() {
        let solo = qmodel.infer_probs(graph, &feats[i], &mut scratch);
        assert_eq!(
            probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            solo.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "graph {i}: batched quantized inference diverged from solo"
        );
    }
}
