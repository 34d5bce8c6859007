//! The `train-large` workload: `ReinforceTrainer` in process.
//!
//! A run repeats rounds of a fresh trainer (default `TrainOptions`,
//! fixed seed) for [`EPOCHS`] epochs on the same [`GRAPHS`] Large
//! graphs. Rounds keep the measured work stationary (a long single run
//! would drift as the reward cache fills and rewards converge), give a
//! fixed epoch count for `train_reward`, and let every round check the
//! previous one bit for bit.

use crate::trace::Recorder;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_core::{CoarsenConfig, CoarsenModel, MetisCoarsePlacer, ReinforceTrainer, TrainOptions};
use spg_gen::{DatasetSpec, Setting};
use spg_graph::StreamGraph;
use spg_obs::{probe, Event, TelemetrySink};
use std::time::Instant;

/// Training graphs per round.
pub const GRAPHS: usize = 8;
/// Distinct graph sets the timed rounds cycle through, so a run's
/// epoch times average over many graphs, not one seed's eight.
pub const SETS: usize = 24;
/// Epochs per round.
pub const EPOCHS: usize = 5;
/// Fewest epochs an untraced run measures: enough for ten beyond p90.
pub const MIN_EPOCHS: usize = 110;
/// Model and placer seed of every round.
const TRAIN_SEED: u64 = 7;

/// One round's per-epoch `(mean_reward, mean_best, steps)`.
pub type RoundStats = Vec<(u64, u64, usize)>;

pub fn trainer(graphs: &[StreamGraph], sink: TelemetrySink) -> ReinforceTrainer<MetisCoarsePlacer> {
    let spec = DatasetSpec::for_setting(Setting::Large);
    let mut rng = ChaCha8Rng::seed_from_u64(TRAIN_SEED);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
    ReinforceTrainer::builder(model, MetisCoarsePlacer::new(TRAIN_SEED))
        .graphs(graphs.to_vec())
        .cluster(spec.cluster())
        .source_rate(spec.source_rate)
        .options(TrainOptions::new().seed(TRAIN_SEED))
        .telemetry(sink)
        .build()
}

/// Run one round; returns the epoch wall times (ms) and the stats.
pub fn round(graphs: &[StreamGraph], sink: TelemetrySink) -> (Vec<f64>, RoundStats) {
    let mut t = trainer(graphs, sink);
    let mut times = Vec::with_capacity(EPOCHS);
    let mut stats = Vec::with_capacity(EPOCHS);
    for _ in 0..EPOCHS {
        let t0 = Instant::now();
        let s = t.train_epoch();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        stats.push((s.mean_reward.to_bits(), s.mean_best.to_bits(), s.steps));
    }
    (times, stats)
}

/// Per-epoch layer numbers from a traced round's telemetry stream.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub forward_ms: f64,
    pub backprop_ms: f64,
    pub rollout_ms: f64,
    pub partition_ms: f64,
    pub rollout_occupancy: f64,
    pub reward_cache_hit_ratio: f64,
    pub kway_us_per_call: f64,
    pub sim_us_per_call: f64,
}

impl Layers {
    /// Field-wise mean over rounds.
    pub fn mean(all: &[Layers]) -> Layers {
        let n = all.len().max(1) as f64;
        let avg = |f: fn(&Layers) -> f64| all.iter().map(f).sum::<f64>() / n;
        Layers {
            forward_ms: avg(|l| l.forward_ms),
            backprop_ms: avg(|l| l.backprop_ms),
            rollout_ms: avg(|l| l.rollout_ms),
            partition_ms: avg(|l| l.partition_ms),
            rollout_occupancy: avg(|l| l.rollout_occupancy),
            reward_cache_hit_ratio: avg(|l| l.reward_cache_hit_ratio),
            kway_us_per_call: avg(|l| l.kway_us_per_call),
            sim_us_per_call: avg(|l| l.sim_us_per_call),
        }
    }
}

/// Read the trainer's own spans, counters and histograms (nothing is
/// added to the trainer to get them).
pub fn layers(lines: &[String], epochs: usize) -> Result<Layers, String> {
    let (mut fwd, mut back, mut roll) = (0u64, 0u64, 0u64);
    let mut counters: std::collections::BTreeMap<String, u64> = Default::default();
    let mut sample_us = 0.0;
    let mut workers = 1.0;
    for line in lines {
        match Event::parse(line)? {
            Event::SpanClose { name, dur_us, .. } => match name.as_str() {
                "step.forward" => fwd += dur_us,
                "step.backprop" => back += dur_us,
                "step.rollout" => roll += dur_us,
                _ => {}
            },
            Event::Counter { name, value, .. } => *counters.entry(name).or_default() += value,
            Event::Hist { name, value, .. } if name == "rollout.sample_us" => sample_us += value,
            Event::Gauge { name, value, .. } if name == "rollout.workers" => workers = value,
            _ => {}
        }
    }
    let c = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let per_call = |us: &str, calls: &str| {
        if c(calls) > 0.0 {
            c(us) / c(calls)
        } else {
            0.0
        }
    };
    let e = epochs.max(1) as f64;
    let lookups = c("cache.hits") + c("cache.misses");
    Ok(Layers {
        forward_ms: fwd as f64 / 1e3 / e,
        backprop_ms: back as f64 / 1e3 / e,
        rollout_ms: roll as f64 / 1e3 / e,
        partition_ms: c("partition.kway.us") / 1e3 / e,
        rollout_occupancy: if roll > 0 {
            (sample_us / (workers * roll as f64)).min(1.0)
        } else {
            0.0
        },
        reward_cache_hit_ratio: if lookups > 0.0 {
            c("cache.hits") / lookups
        } else {
            0.0
        },
        kway_us_per_call: per_call("partition.kway.us", "partition.kway.calls"),
        sim_us_per_call: per_call("sim.analytic.us", "sim.analytic.calls"),
    })
}

/// A traced round: the trainer's telemetry into a memory sink, with the
/// process-wide partition/simulator probes timing. Epoch spans also go
/// into `rec` so the trace file holds the round.
pub fn traced_round(
    graphs: &[StreamGraph],
    rec: &mut Recorder,
) -> Result<(Vec<f64>, RoundStats, Layers), String> {
    probe::enable_timing();
    let sink = TelemetrySink::memory();
    let mut t = trainer(graphs, sink.clone());
    let mut times = Vec::with_capacity(EPOCHS);
    let mut stats = Vec::with_capacity(EPOCHS);
    for epoch in 0..EPOCHS {
        rec.open("train.epoch", epoch as u64);
        let t0 = Instant::now();
        let s = t.train_epoch();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        rec.close();
        stats.push((s.mean_reward.to_bits(), s.mean_best.to_bits(), s.steps));
    }
    sink.flush();
    let layers = layers(&sink.lines(), EPOCHS)?;
    Ok((times, stats, layers))
}
