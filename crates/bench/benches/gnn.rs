//! Neural microbenches: GNN forward pass (f32 and int8), full
//! forward+backward training step, and one REINFORCE rollout (coarsen →
//! partition → simulate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_core::policy::{CoarseningPolicy, DecodeMode};
use spg_core::{CoarsenConfig, CoarsenModel, InferenceScratch};
use spg_gen::{DatasetSpec, Setting};
use spg_graph::{GraphFeatures, TupleRates};
use spg_nn::Tape;

fn bench_gnn(c: &mut Criterion) {
    let mut group = c.benchmark_group("gnn");
    group.sample_size(20);

    for setting in [Setting::Small, Setting::Medium, Setting::Large] {
        let spec = DatasetSpec::scaled_down(setting);
        let cluster = spec.cluster();
        let g = spg_gen::generate_graph(&spec, 13);
        let rates = TupleRates::compute(&g, spec.source_rate);
        let feats = GraphFeatures::extract_with_rates(&g, &cluster, &rates);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        let label = format!("{}-{}n", setting.slug(), g.num_nodes());

        group.bench_with_input(BenchmarkId::new("forward", &label), &g, |b, g| {
            b.iter(|| std::hint::black_box(model.predict_probs_with_features(g, &feats)))
        });

        // Same call shape as `forward`: a fresh arena per call.
        let quantized = model.quantize();
        group.bench_with_input(BenchmarkId::new("forward_int8", &label), &g, |b, g| {
            b.iter(|| {
                let mut scratch = InferenceScratch::new();
                std::hint::black_box(quantized.infer_probs(g, &feats, &mut scratch))
            })
        });

        group.bench_with_input(BenchmarkId::new("forward_backward", &label), &g, |b, g| {
            let actions: Vec<f32> = (0..g.num_edges()).map(|e| (e % 2) as f32).collect();
            b.iter(|| {
                let mut tape = Tape::new();
                let logits = model.forward(&mut tape, g, &feats).expect("edges");
                let ll = tape.bernoulli_log_prob(logits, &actions);
                model.params().zero_grad();
                tape.backward(ll);
                std::hint::black_box(tape.len())
            })
        });

        group.bench_with_input(BenchmarkId::new("rollout_reward", &label), &g, |b, g| {
            let probs = model.predict_probs_with_features(g, &feats);
            let policy = CoarseningPolicy::from_config(&model.config);
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            b.iter(|| {
                let decisions = policy.decode(&probs, DecodeMode::Sample, &mut rng);
                let c = policy.apply(g, &rates, &cluster, &decisions, &probs);
                let w = c.coarse.to_weighted();
                let mut prng = ChaCha8Rng::seed_from_u64(2);
                let part = spg_partition::kway_partition(
                    &w,
                    cluster.devices.min(c.coarse.num_nodes().max(1)),
                    &spg_partition::PartitionConfig::default(),
                    &mut prng,
                );
                let placement =
                    spg_graph::Placement::lift(&spg_graph::Placement::new(part), &c.node_map);
                std::hint::black_box(spg_sim::reward::relative_throughput_with_rates(
                    g, &cluster, &placement, &rates,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gnn);
criterion_main!(benches);
