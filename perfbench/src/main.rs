//! The repository benchmark: allocation latency and capacity, warm
//! re-allocation, and training throughput, with per-layer tracing.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --spg <path>
//! ```
//!
//! Serving workloads run the release `spg serve` (default flags except
//! `--setting`) as a child process and drive it from this process with
//! at most two threads and two connections. `train-large` drives
//! `ReinforceTrainer` in process. Every output is checked; the last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics untraced, per-layer metrics with
//! `--trace 1`). The process exits nonzero when any check fails.
//! `perfbench/NOTES.md` says why each workload exists.

mod client;
mod host;
mod inputs;
mod server;
mod stats;
mod trace;
mod train;

use client::{Controller, Record};
use inputs::ChainTemplate;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use server::{Drained, Server};
use spg_core::checkpoint::Checkpoint;
use spg_core::{CoarsenConfig, CoarsenModel, MetisCoarsePlacer, ReinforceTrainer, TrainOptions};
use spg_gen::{DatasetSpec, Setting};
use spg_graph::wire::{AllocResponse, WireResponse};
use spg_graph::{ClusterSpec, GraphDelta, Placement, StreamGraph, TupleRates};
use spg_obs::{percentile, Event, TelemetrySink};
use stats::{backlog_growing, windowed_p90, ProbeOutcome, RateSearch, Timing};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Recorder, Replayer};

/// Set-ups per run; `setup_s` is their median, so a burst of host
/// contention during one or two of them does not move it.
/// `realloc-drift`, whose set-up is about forty times longer, makes
/// fewer.
const SETUPS: usize = 9;
const DRIFT_SETUPS: usize = 3;
/// Seed of the serving checkpoint's training (fixed, so the model under
/// test is the same for every benchmark seed).
const FIXTURE_SEED: u64 = 7;
/// Shares of an open-loop run spent at the fixed nominal rate and in
/// the saturation phase; the rest goes to the rate search.
const NOMINAL_SHARE: f64 = 0.45;
const SATURATION_SHARE: f64 = 0.3;
/// Where the rate search starts, as a share of the saturation phase's
/// throughput: below capacity, because a probe far above it is costly
/// (an overloaded hot path queues tens of thousands of lines).
const SEARCH_START: f64 = 0.7;
/// Rate-search growth factor and resolution (finer than any bound).
const SEARCH_GROWTH: f64 = 1.15;
const SEARCH_RESOLUTION: f64 = 0.03;
/// Closed-loop controllers give up on a response after this long.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);
/// Requests (or ops) replayed in process by a traced run.
const REPLAY_LIMIT: usize = 400;

/// End-to-end metrics, printed by every untraced run, in this order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("reward_mean", "ratio"),
];

/// Per-layer metrics, printed by every traced run, in this order. A
/// layer the workload does not run reports 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("wire.parse_us", "us"),
    ("wire.serialize_us", "us"),
    ("lru.fingerprint_us", "us"),
    ("lru.hit_ratio", "ratio"),
    ("serve.batch_mean", "count"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("serve.errors", "count"),
    ("graph.features_us", "us"),
    ("core.encode_us", "us"),
    ("core.encode_gflops", "GFLOP/s"),
    ("core.coarsen_us", "us"),
    ("core.coarsen_ratio", "ratio"),
    ("partition.place_us", "us"),
    ("partition.realloc_us", "us"),
    ("partition.warm_ratio", "ratio"),
    ("sim.reward_us", "us"),
    ("train.forward_ms", "ms"),
    ("train.backprop_ms", "ms"),
    ("train.rollout_ms", "ms"),
    ("train.partition_ms", "ms"),
    ("train.rollout_occupancy", "ratio"),
    ("train.reward_cache_hit_ratio", "ratio"),
    ("gen.lag_p90_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("replay.requests", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    AllocLarge,
    AllocSmallHot,
    ReallocDrift,
    TrainLarge,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::AllocLarge,
        Workload::AllocSmallHot,
        Workload::ReallocDrift,
        Workload::TrainLarge,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::AllocLarge => "alloc-large",
            Workload::AllocSmallHot => "alloc-small-hot",
            Workload::ReallocDrift => "realloc-drift",
            Workload::TrainLarge => "train-large",
        }
    }
}

/// How an open-loop workload is offered and judged.
struct OpenSpec {
    setting: Setting,
    /// Fixed offered rate of the latency phase (req/s), about a quarter
    /// of the capacity measured on the reference host.
    nominal_rate: f64,
    /// The p90 latency limit `max_rps` must meet (ms).
    p90_limit_ms: f64,
    /// Requests kept outstanding per connection in the saturation
    /// phase: enough to fill an encoder batch, fewer in all than the
    /// replica's queue of 64 holds, so none is refused.
    window: usize,
    /// Length of one rate-search probe.
    probe: Duration,
    /// Windows a probe's p90 is judged over ([`windowed_p90`]): several
    /// where latencies are sub-millisecond, so one stall of the shared
    /// host does not decide the verdict.
    windows: usize,
}

fn open_spec(w: Workload) -> OpenSpec {
    match w {
        Workload::AllocLarge => OpenSpec {
            setting: Setting::Large,
            nominal_rate: 30.0,
            p90_limit_ms: 50.0,
            window: 4,
            probe: Duration::from_millis(1800),
            windows: 3,
        },
        _ => OpenSpec {
            setting: Setting::Small,
            nominal_rate: 10_000.0,
            p90_limit_ms: 5.0,
            window: 16,
            probe: Duration::from_millis(1000),
            windows: 5,
        },
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spg: PathBuf,
    root: PathBuf,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <alloc-large|alloc-small-hot|realloc-drift|\
train-large> --seed <n> --seconds <s> --trace <0|1> --spg <path to spg> [--root <repo>]";

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace, mut spg) =
            (None, None, None, None, None);
        let mut root = PathBuf::from(".");
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".to_string());
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    })
                }
                "--spg" => spg = Some(PathBuf::from(value)),
                "--root" => root = PathBuf::from(value),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let out = root.join("perfbench").join("out");
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            spg: spg.ok_or("--spg is required")?,
            root,
            out,
        })
    }
}

/// Everything a run prints and decides.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn problem(&mut self, msg: String) {
        if self.problems.len() < 20 {
            eprintln!("CHECK FAILED: {msg}");
        }
        self.problems.push(msg);
    }

    /// The final JSON line over `names`.
    fn json(&mut self, names: &[(&'static str, &'static str)]) -> String {
        let mut parts = Vec::new();
        for &(name, unit) in names {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                self.problem(format!("metric {name} is not finite ({value})"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            parts.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
        }
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            parts.join(",")
        )
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let host = host::fingerprint();
    let digest = host::source_digest(&args.root);
    println!(
        "stamp: commit {} | source {digest} | seed {} | host {host}",
        host::commit(&args.root),
        args.seed
    );
    let cpu_before = host::cpu_times();
    let mut report = Report::default();
    let mut rec = Recorder::default();
    let run = match args.workload {
        Workload::AllocLarge | Workload::AllocSmallHot => {
            run_open(&args, open_spec(args.workload), &mut report, &mut rec)
        }
        Workload::ReallocDrift => run_drift(&args, &mut report, &mut rec),
        Workload::TrainLarge => run_train(&args, &mut report, &mut rec),
    };
    if let Err(e) = run {
        eprintln!("benchmark failed: {e}");
        return ExitCode::FAILURE;
    }
    let steal = cpu_before
        .zip(host::cpu_times())
        .map(|(before, after)| host::steal_share(before, after));
    if let Some(steal) = steal {
        println!(
            "host: steal {:.1}% of CPU time during the run",
            steal * 100.0
        );
    }
    if args.trace {
        let path = args.out.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match std::fs::write(&path, rec.to_jsonl()) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                rec.spans.len(),
                path.display()
            ),
            Err(e) => report.problem(format!("write {}: {e}", path.display())),
        }
    } else {
        compare_with_reference(&args, &report, &host, steal.unwrap_or(0.0));
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in names {
        println!(
            "metric {name} = {:.6} {unit}",
            report.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!(
        "checks: {}",
        if report.problems.is_empty() {
            "all passed".to_string()
        } else {
            format!("{} FAILED", report.problems.len())
        }
    );
    let line = report.json(names);
    println!("{line}");
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Steal above which a run is reported as not comparable.
const MAX_STEAL: f64 = 0.05;

/// Report this run against `perfbench/reference.json` when both come
/// from the same, uncontended host; a result from another host, or
/// from a host whose hypervisor stole more than [`MAX_STEAL`] of the
/// CPU time, is not comparable. Informational only: it never changes
/// the exit code.
fn compare_with_reference(args: &Args, report: &Report, host: &str, steal: f64) {
    let path = args.root.join("perfbench").join("reference.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        println!("reference: none at {}", path.display());
        return;
    };
    let Ok(value) = serde_json::from_str::<serde_json::Value>(&text) else {
        println!("reference: unreadable {}", path.display());
        return;
    };
    let ref_host = value
        .field("host")
        .ok()
        .and_then(|v| match v {
            serde_json::Value::Str(s) => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_default();
    if ref_host != host {
        println!("reference: not comparable (recorded on `{ref_host}`)");
        return;
    }
    if steal > MAX_STEAL {
        println!(
            "reference: not comparable (host contended: steal {:.1}%)",
            steal * 100.0
        );
        return;
    }
    let Ok(medians) = value
        .field("medians")
        .and_then(|m| m.field(args.workload.name()))
    else {
        println!("reference: no medians for {}", args.workload.name());
        return;
    };
    for &(name, _) in &END_TO_END {
        let (Some(now), Ok(Ok(then))) = (report.metrics.get(name), medians.field(name).map(f64_of))
        else {
            continue;
        };
        println!(
            "reference: {name} {now:.4} vs {then:.4} ({:+.1}%)",
            (now / then - 1.0) * 100.0
        );
    }
}

fn f64_of(v: &serde_json::Value) -> Result<f64, String> {
    <f64 as serde::Deserialize>::deserialize(v).map_err(|e| e.to_string())
}

/// Nearest-rank median.
fn median_of(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

// ---------------------------------------------------------------------
// Serving: shared pieces
// ---------------------------------------------------------------------

/// Train the serving checkpoint (fixed seed, a few epochs on Small
/// graphs) and save it inside the checkout.
fn fixture(out: &Path) -> Result<PathBuf, String> {
    let spec = DatasetSpec::for_setting(Setting::Small);
    let graphs = inputs::graphs(Setting::Small, 8, FIXTURE_SEED, 0xF1);
    let mut rng = ChaCha8Rng::seed_from_u64(FIXTURE_SEED);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
    let mut t = ReinforceTrainer::builder(model, MetisCoarsePlacer::new(FIXTURE_SEED))
        .graphs(graphs)
        .cluster(spec.cluster())
        .source_rate(spec.source_rate)
        .options(TrainOptions::new().seed(FIXTURE_SEED))
        .build();
    for _ in 0..3 {
        t.train_epoch();
    }
    let path = out.join("fixture.json");
    Checkpoint::from_model(&t.into_model())
        .save(&path)
        .map_err(|e| format!("save {}: {e}", path.display()))?;
    Ok(path)
}

/// splitmix64: per-request draws without storing them.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The answer a check expects context for: the graph placed, its
/// device count and source rate.
struct Expect<'a> {
    graph: &'a StreamGraph,
    devices: usize,
    rate: f64,
}

/// Check one answered placement: shape, device range, and the reported
/// relative throughput against an in-process simulation, bit for bit.
fn check_answer(
    report: &mut Report,
    what: &str,
    e: &Expect,
    resp: &AllocResponse,
    base: ClusterSpec,
) {
    if resp.placement.len() != e.graph.num_nodes() {
        report.problem(format!(
            "{what}: placement has {} entries for {} nodes",
            resp.placement.len(),
            e.graph.num_nodes()
        ));
        return;
    }
    if let Some(d) = resp.placement.iter().find(|&&d| d as usize >= e.devices) {
        report.problem(format!(
            "{what}: device {d} out of range ({} devices)",
            e.devices
        ));
        return;
    }
    let cluster = ClusterSpec {
        devices: e.devices,
        ..base
    };
    let rates = TupleRates::compute(e.graph, e.rate);
    let want = spg_sim::reward::relative_throughput_with_rates(
        e.graph,
        &cluster,
        &Placement::new(resp.placement.clone()),
        &rates,
    );
    if want.to_bits() != resp.relative_throughput.to_bits() {
        report.problem(format!(
            "{what}: relative_throughput {} but the simulator gives {want}",
            resp.relative_throughput
        ));
    }
}

/// The failure of a request that got no answer within the drain time.
const NO_RESPONSE: &str = "no-response";

/// One phase's requests, sorted into outcomes.
struct Phase {
    name: String,
    rate: f64,
    /// The request index of each record.
    index: Vec<usize>,
    sent: usize,
    ok: usize,
    /// Failures by named error (or `no-response`).
    errors: BTreeMap<String, usize>,
    /// Latency (ms) of answered requests, in send order.
    lat_ms: Vec<f64>,
    /// Latency (ms) of every request in send order, a failed one
    /// counting as infinite.
    all_ms: Vec<f64>,
    /// How late the generator sent each request (ms).
    lag_ms: Vec<f64>,
    answers: Vec<Option<AllocResponse>>,
    elapsed: f64,
}

impl Phase {
    fn failed(&self) -> usize {
        self.sent - self.ok
    }

    fn print(&self) {
        let errors: Vec<String> = self
            .errors
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        // A closed-loop phase has no offered rate (0).
        let offered = if self.rate > 0.0 {
            format!("@ {:.1}/s", self.rate)
        } else {
            "(closed loop)".to_string()
        };
        println!(
            "phase {} {offered}: sent {}, ok {}, failed {} [{}], {:.2}s",
            self.name,
            self.sent,
            self.ok,
            self.failed(),
            errors.join(" "),
            self.elapsed
        );
        if let Some(t) = Timing::of(&self.lat_ms) {
            println!("  {}", t.line("latency", "ms"));
        }
        if let Some(t) = Timing::of(&self.lag_ms).filter(|_| self.rate > 0.0) {
            println!("  {}", t.line("generator lag", "ms"));
        }
    }
}

fn sort_out(
    name: &str,
    rate: f64,
    records: Vec<(usize, Record)>,
    elapsed: f64,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase {
        name: name.to_string(),
        rate,
        index: records.iter().map(|(i, _)| *i).collect(),
        sent: records.len(),
        ok: 0,
        errors: BTreeMap::new(),
        lat_ms: Vec::new(),
        all_ms: Vec::with_capacity(records.len()),
        lag_ms: Vec::new(),
        answers: Vec::with_capacity(records.len()),
        elapsed,
    };
    for (_, r) in records {
        phase
            .lag_ms
            .push(r.sent.saturating_duration_since(r.due).as_secs_f64() * 1e3);
        phase.all_ms.push(f64::INFINITY);
        let Some((at, line)) = r.reply else {
            *phase.errors.entry(NO_RESPONSE.to_string()).or_default() += 1;
            phase.answers.push(None);
            continue;
        };
        match WireResponse::parse(&line) {
            Ok(WireResponse::Ok(resp)) => {
                phase.ok += 1;
                let ms = at.saturating_duration_since(r.due).as_secs_f64() * 1e3;
                phase.lat_ms.push(ms);
                *phase.all_ms.last_mut().expect("pushed above") = ms;
                phase.answers.push(Some(resp));
            }
            Ok(WireResponse::Err(e)) => {
                *phase.errors.entry(e.error).or_default() += 1;
                phase.answers.push(None);
            }
            Err(e) => {
                report.problem(format!(
                    "{name}: unparseable response ({e}): {}",
                    client::truncate(&line)
                ));
                *phase.errors.entry("unparseable".to_string()).or_default() += 1;
                phase.answers.push(None);
            }
        }
    }
    phase
}

/// Queue-wait p90 and encoder-batch fill from the server's own
/// `--metrics` stream (read after it drained).
struct ServerStream {
    queue_wait_p90_ms: f64,
    misses_per_encode: f64,
}

fn read_server_stream(path: &Path, drained: &Drained) -> Result<ServerStream, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut waits = Vec::new();
    let (mut encodes, mut reallocs) = (0u64, 0u64);
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match Event::parse(line)? {
            Event::Hist { name, value, .. } if name == "serve.queue_wait_ms" => waits.push(value),
            Event::SpanClose { name, .. } if name == "serve.encode" => encodes += 1,
            Event::SpanClose { name, .. } if name == "serve.realloc" => reallocs += 1,
            _ => {}
        }
    }
    let misses = drained
        .count("misses")
        .unwrap_or(0)
        .saturating_sub(reallocs);
    Ok(ServerStream {
        queue_wait_p90_ms: if waits.is_empty() {
            0.0
        } else {
            percentile(&waits, 90.0)
        },
        misses_per_encode: if encodes > 0 {
            misses as f64 / encodes as f64
        } else {
            0.0
        },
    })
}

/// Layer numbers from an in-process replay.
fn replay_layers(report: &mut Report, replayer: &Replayer) {
    let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median_of(&v) };
    let rec = &replayer.rec;
    report.set("wire.parse_us", med(rec.self_us("wire.parse")));
    report.set("wire.serialize_us", med(rec.self_us("wire.serialize")));
    report.set("lru.fingerprint_us", med(rec.self_us("lru.fingerprint")));
    report.set("graph.features_us", med(rec.self_us("graph.features")));
    report.set("core.encode_us", med(rec.self_us("core.encode")));
    report.set("core.coarsen_us", med(rec.self_us("core.coarsen")));
    report.set("partition.place_us", med(rec.self_us("partition.place")));
    report.set(
        "partition.realloc_us",
        med(rec.self_us("partition.realloc")),
    );
    report.set("sim.reward_us", med(rec.self_us("sim.reward")));
    let (flops, ns) = replayer
        .encode
        .iter()
        .fold((0.0, 0u64), |(f, n), &(fl, t)| (f + fl, n + t));
    report.set(
        "core.encode_gflops",
        if ns > 0 { flops / ns as f64 } else { 0.0 },
    );
    report.set(
        "core.coarsen_ratio",
        if replayer.coarsen_ratio.is_empty() {
            0.0
        } else {
            replayer.coarsen_ratio.iter().sum::<f64>() / replayer.coarsen_ratio.len() as f64
        },
    );
    report.set("replay.requests", rec.dur_us("request").len() as f64);
    // Every layer's share of a request, for the reader.
    let requests = rec.dur_us("request");
    let n = requests.len().max(1) as f64;
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, t) in rec.spans.iter().zip(rec.self_times()) {
        *by_layer.entry(s.name).or_default() += t as f64 / 1e3;
    }
    let total: f64 = by_layer.values().sum();
    println!(
        "replay: {} requests, mean self time per request by layer:",
        requests.len()
    );
    for (name, us) in &by_layer {
        println!(
            "  {name:<18} {:>10.2} us  {:>5.1}%",
            us / n,
            100.0 * us / total.max(1e-9)
        );
    }
}

/// Compare a replayed answer with the server's.
fn check_replay(report: &mut Report, what: &str, got: (Vec<u32>, f64), server: &AllocResponse) {
    if got.0 != server.placement || got.1.to_bits() != server.relative_throughput.to_bits() {
        report.problem(format!(
            "{what}: in-process replay differs from the server's answer"
        ));
    }
}

// ---------------------------------------------------------------------
// Open-loop workloads: alloc-large, alloc-small-hot
// ---------------------------------------------------------------------

/// The request set of an open-loop workload.
struct OpenInputs {
    graphs: Vec<StreamGraph>,
    bodies: Vec<String>,
    /// The fixed quality set, answered during warm-up.
    quality: Vec<StreamGraph>,
    quality_bodies: Vec<String>,
    /// Rate override of the setting's rate per request (`alloc-large`),
    /// or none (`alloc-small-hot` sends the working set as is).
    vary_rate: bool,
    base_rate: f64,
    devices: usize,
    seed: u64,
}

impl OpenInputs {
    fn build(w: Workload, seed: u64) -> Result<OpenInputs, String> {
        let (setting, n, vary_rate) = match w {
            Workload::AllocLarge => (Setting::Large, inputs::LARGE_POOL, true),
            _ => (Setting::Small, inputs::HOT_SET, false),
        };
        let spec = DatasetSpec::for_setting(setting);
        let graphs = inputs::graphs(setting, n, seed, 0xA1);
        let bodies: Vec<String> = graphs.iter().map(inputs::graph_body).collect();
        inputs::check_splice(&graphs[0], &bodies[0])?;
        let quality = inputs::graphs(setting, inputs::QUALITY_SET, inputs::QUALITY_SEED, 0xA1);
        let quality_bodies = quality.iter().map(inputs::graph_body).collect();
        Ok(OpenInputs {
            graphs,
            bodies,
            quality,
            quality_bodies,
            vary_rate,
            base_rate: spec.source_rate,
            devices: spec.devices,
            seed,
        })
    }

    /// Request `i` of phase `phase`: its graph and rate override.
    fn pick(&self, phase: u64, i: usize) -> (usize, Option<f64>) {
        let h = mix(self.seed ^ mix(phase << 40 ^ i as u64));
        let g = (h % self.graphs.len() as u64) as usize;
        let rate = self
            .vary_rate
            .then(|| self.base_rate * (0.9 + 0.2 * unit(mix(h))));
        (g, rate)
    }

    fn id(phase: u64, i: usize) -> String {
        format!("p{phase}-{i}")
    }

    fn line(&self, phase: u64, i: usize) -> String {
        let (g, rate) = self.pick(phase, i);
        inputs::alloc_line(&Self::id(phase, i), &self.bodies[g], rate)
    }

    /// The warm-up: the quality set, then (hot workload) the working
    /// set in order, so every entry lands in the LRU.
    fn warmup_lines(&self, w: Workload) -> Vec<String> {
        let mut lines: Vec<String> = self
            .quality_bodies
            .iter()
            .enumerate()
            .map(|(i, body)| inputs::alloc_line(&format!("q-{i}"), body, None))
            .collect();
        if w == Workload::AllocSmallHot {
            lines.extend(
                self.bodies
                    .iter()
                    .enumerate()
                    .map(|(i, body)| inputs::alloc_line(&Self::id(PHASE_WARMUP, i), body, None)),
            );
        }
        lines
    }
}

/// The phase tags of an open-loop run.
const PHASE_WARMUP: u64 = 0;
const PHASE_NOMINAL: u64 = 1;
const PHASE_UNTRACED: u64 = 2;
const PHASE_VERIFY: u64 = 3;
const PHASE_PING: u64 = 4;
const PHASE_SATURATE: u64 = 5;
const PHASE_PROBE0: u64 = 10;

/// A started, warmed server and what its warm-up answered.
struct OpenSetup {
    inputs: OpenInputs,
    model: PathBuf,
    server: Server,
    /// Answers to the quality set, in order.
    quality: Vec<AllocResponse>,
    secs: f64,
}

/// Start a server and warm it with [`OpenInputs::warmup_lines`].
fn setup_open(
    args: &Args,
    w: Workload,
    spec: &OpenSpec,
    metrics: Option<&Path>,
) -> Result<OpenSetup, String> {
    let t0 = Instant::now();
    let inputs = OpenInputs::build(w, args.seed)?;
    let model = fixture(&args.out)?;
    let server = Server::start(&args.spg, &model, spec.setting.slug(), metrics)?;
    let mut c =
        Controller::connect(server.addr, CALL_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let mut quality = Vec::with_capacity(inputs.quality.len());
    for (i, line) in inputs.warmup_lines(w).iter().enumerate() {
        let (reply, _) = c.call(line).map_err(|e| format!("warm-up: {e}"))?;
        match WireResponse::parse(&reply) {
            Ok(WireResponse::Ok(resp)) if i < inputs.quality.len() => quality.push(resp),
            Ok(WireResponse::Ok(_)) => {}
            _ => {
                return Err(format!(
                    "warm-up request failed: {}",
                    client::truncate(&reply)
                ))
            }
        }
    }
    Ok(OpenSetup {
        inputs,
        model,
        server,
        quality,
        secs: t0.elapsed().as_secs_f64(),
    })
}

/// Check the quality-set answers; returns their mean relative throughput.
fn check_quality(
    report: &mut Report,
    inputs: &OpenInputs,
    answers: &[AllocResponse],
    base: ClusterSpec,
) -> f64 {
    for (i, resp) in answers.iter().enumerate() {
        let e = Expect {
            graph: &inputs.quality[i],
            devices: inputs.devices,
            rate: inputs.base_rate,
        };
        check_answer(report, &format!("quality request {i}"), &e, resp, base);
    }
    answers.iter().map(|r| r.relative_throughput).sum::<f64>() / answers.len().max(1) as f64
}

/// One closed-loop request, to see the server answer promptly again
/// after a probe before the next one starts.
fn ping(server: &Server, inputs: &OpenInputs, k: usize) -> Result<(), String> {
    let mut c =
        Controller::connect(server.addr, CALL_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let (reply, _) = c
        .call(&inputs.line(PHASE_PING, k))
        .map_err(|e| format!("ping: {e}"))?;
    match WireResponse::parse(&reply) {
        Ok(WireResponse::Ok(_)) => Ok(()),
        _ => Err(format!("ping failed: {}", client::truncate(&reply))),
    }
}

/// Offer `rate` for `secs` seconds as phase `phase`.
fn open_phase(
    server: &Server,
    inputs: &OpenInputs,
    name: &str,
    phase: u64,
    rate: f64,
    secs: f64,
    report: &mut Report,
) -> Result<Phase, String> {
    let count = ((rate * secs).ceil() as usize).max(1);
    let t0 = Instant::now();
    let records = client::open_loop(server.addr, rate, count, &|i| inputs.line(phase, i), &|i| {
        OpenInputs::id(phase, i)
    })?;
    Ok(sort_out(
        name,
        rate,
        records,
        t0.elapsed().as_secs_f64(),
        report,
    ))
}

/// Check every answer of a phase; identical requests (same graph and
/// rate) must get bitwise-identical answers.
fn check_open_phase(
    report: &mut Report,
    inputs: &OpenInputs,
    phase_tag: u64,
    phase: &Phase,
    seen: &mut HashMap<(usize, u64), (Vec<u32>, u64)>,
    base: ClusterSpec,
) {
    for (&i, resp) in phase.index.iter().zip(&phase.answers) {
        let Some(resp) = resp else { continue };
        if resp.id != OpenInputs::id(phase_tag, i) {
            report.problem(format!("{}: answer {i} carries id {}", phase.name, resp.id));
            continue;
        }
        let (g, rate) = inputs.pick(phase_tag, i);
        let rate = rate.unwrap_or(inputs.base_rate);
        let key = (g, rate.to_bits());
        let answer = (resp.placement.clone(), resp.relative_throughput.to_bits());
        match seen.get(&key) {
            Some(prev) if *prev != answer => report.problem(format!(
                "{}: request {i} (graph {g}) answered differently from an identical request",
                phase.name
            )),
            Some(_) => {}
            None => {
                let e = Expect {
                    graph: &inputs.graphs[g],
                    devices: inputs.devices,
                    rate,
                };
                check_answer(report, &phase.name, &e, resp, base);
                seen.insert(key, answer);
            }
        }
    }
}

/// Judge a phase as a rate-search probe. Generator lag is already in
/// every latency (timed from the due time); a lag of half the limit
/// means the rate was not really offered. The backlog test needs growth
/// of half the limit within the phase, above noise.
fn probe_outcome(phase: &Phase, spec: &OpenSpec) -> ProbeOutcome {
    let lag_limit = spec.p90_limit_ms / 2.0;
    ProbeOutcome {
        rate: phase.rate,
        sent: phase.sent,
        answered: phase.sent - phase.errors.get(NO_RESPONSE).copied().unwrap_or(0),
        p90: windowed_p90(&phase.all_ms, spec.windows),
        backlog: backlog_growing(&phase.lat_ms, spec.p90_limit_ms / 2.0),
        client_limited: !phase.lag_ms.is_empty() && percentile(&phase.lag_ms, 90.0) > lag_limit,
    }
}

fn run_open(
    args: &Args,
    spec: OpenSpec,
    report: &mut Report,
    rec: &mut Recorder,
) -> Result<(), String> {
    let w = args.workload;
    let base = DatasetSpec::for_setting(spec.setting).cluster();
    let nominal_secs = args.seconds * NOMINAL_SHARE;
    let mut untraced_p50 = None;
    let setup = if args.trace {
        // The untraced reference: same phase, server without telemetry.
        let plain = setup_open(args, w, &spec, None)?;
        let phase = open_phase(
            &plain.server,
            &plain.inputs,
            "untraced",
            PHASE_UNTRACED,
            spec.nominal_rate,
            nominal_secs,
            report,
        )?;
        phase.print();
        untraced_p50 = Timing::of(&phase.lat_ms).map(|t| t.p50);
        plain.server.shutdown()?;
        setup_open(args, w, &spec, Some(&args.out.join("server-metrics.jsonl")))?
    } else {
        let mut times = Vec::with_capacity(SETUPS);
        let mut last: Option<OpenSetup> = None;
        let mut before: Option<Vec<AllocResponse>> = None;
        for _ in 0..SETUPS {
            // Each set-up starts alone: the previous server has drained
            // and its inputs are freed.
            if let Some(prev) = last.take() {
                prev.server.shutdown()?;
                before = Some(prev.quality);
            }
            let next = setup_open(args, w, &spec, None)?;
            times.push(next.secs);
            if before
                .take()
                .is_some_and(|q| !same_answers(&q, &next.quality))
            {
                report
                    .problem("a restarted server answered the quality set differently".to_string());
            }
            last = Some(next);
        }
        println!("setup: {times:?} s, median {:.4} s", median_of(&times));
        report.set("setup_s", median_of(&times));
        last.expect("at least one set-up")
    };
    let OpenSetup {
        inputs,
        model,
        server,
        quality,
        ..
    } = setup;
    let reward = check_quality(report, &inputs, &quality, base);
    println!(
        "{} reward_mean = {reward:.6} over the {} quality-set answers",
        w.name(),
        quality.len()
    );
    report.set("reward_mean", reward);

    // Fixed nominal rate: the gated latency numbers.
    let nominal = open_phase(
        &server,
        &inputs,
        "nominal",
        PHASE_NOMINAL,
        spec.nominal_rate,
        nominal_secs,
        report,
    )?;
    nominal.print();
    report.attempted += nominal.sent as u64;
    report.failed += nominal.failed() as u64;
    // The gated latencies: the plain nearest-rank p50 and p90 over the
    // answered requests of the phase. Failures are counted in `failed`
    // by name: counted as infinitely late, they would leave the p90
    // without a value whenever over a tenth are refused, which a burst
    // of host contention can cause.
    let t = Timing::of(&nominal.lat_ms).ok_or("no request of the nominal phase was answered")?;
    if let Some(all) = Timing::of(&nominal.all_ms) {
        println!(
            "  {} (diagnostic)",
            all.line("latency, failures infinite", "ms")
        );
    }
    report.set("p50_ms", t.p50);
    report.set("p90_ms", t.p90);
    let mut errors: BTreeMap<String, usize> = nominal.errors.clone();
    let mut seen = HashMap::new();
    check_open_phase(report, &inputs, PHASE_NOMINAL, &nominal, &mut seen, base);

    // Saturation: `window` requests outstanding per connection, the
    // next sent as each answer arrives. Answers per second is the gated
    // throughput.
    let t0 = Instant::now();
    let records = client::saturate(
        server.addr,
        spec.window,
        args.seconds * SATURATION_SHARE,
        &|i| inputs.line(PHASE_SATURATE, i),
        &|i| OpenInputs::id(PHASE_SATURATE, i),
    )?;
    let first_send = records.iter().map(|(_, r)| r.sent).min();
    let last_answer = records
        .iter()
        .filter_map(|(_, r)| r.reply.as_ref().map(|x| x.0))
        .max();
    let saturate = sort_out(
        "saturation",
        0.0,
        records,
        t0.elapsed().as_secs_f64(),
        report,
    );
    saturate.print();
    check_open_phase(report, &inputs, PHASE_SATURATE, &saturate, &mut seen, base);
    let busy = first_send
        .zip(last_answer)
        .map_or(0.0, |(a, b)| b.saturating_duration_since(a).as_secs_f64());
    let answers_per_s = if busy > 0.0 {
        saturate.ok as f64 / busy
    } else {
        0.0
    };
    // Closed, so no backlog can grow; the p90 limit is reported, not
    // enforced (a missed limit shows here and in the rate search).
    let within = Timing::of(&saturate.all_ms).is_some_and(|t| t.p90 <= spec.p90_limit_ms);
    println!(
        "{} throughput_per_s = {answers_per_s:.1} 1/s ({} ok answers in {busy:.3} s, \
         {} outstanding per connection; p90 {} the {} ms limit)",
        w.name(),
        saturate.ok,
        spec.window,
        if within { "within" } else { "OVER" },
        spec.p90_limit_ms
    );
    report.set("throughput_per_s", answers_per_s);
    report.attempted += saturate.sent as u64;
    report.failed += saturate.failed() as u64;
    for (k, v) in &saturate.errors {
        *errors.entry(k.clone()).or_default() += v;
    }

    // Rate search (diagnostic), from below the saturation throughput.
    let start = (SEARCH_START * answers_per_s).max(spec.nominal_rate);
    let mut search = RateSearch::new(start, SEARCH_GROWTH, SEARCH_RESOLUTION);
    let budget_end = Instant::now()
        + Duration::from_secs_f64(args.seconds * (1.0 - NOMINAL_SHARE - SATURATION_SHARE));
    let mut tag = PHASE_PROBE0;
    let mut resolved = true;
    while let Some(rate) = search.next_rate() {
        if Instant::now() + spec.probe > budget_end {
            resolved = false;
            break;
        }
        let name = format!("probe{}", tag - PHASE_PROBE0);
        let phase = open_phase(
            &server,
            &inputs,
            &name,
            tag,
            rate,
            spec.probe.as_secs_f64(),
            report,
        )?;
        check_open_phase(report, &inputs, tag, &phase, &mut seen, base);
        let o = probe_outcome(&phase, &spec);
        let pass = o.passes(spec.p90_limit_ms);
        phase.print();
        println!(
            "  probe verdict: {} (p90 {:.3} ms vs limit {} ms, backlog {}, client-limited {})",
            if pass { "pass" } else { "fail" },
            o.p90,
            spec.p90_limit_ms,
            o.backlog,
            o.client_limited
        );
        for (k, v) in &phase.errors {
            *errors.entry(k.clone()).or_default() += v;
        }
        search.record(rate, pass);
        ping(&server, &inputs, (tag - PHASE_PROBE0) as usize)?;
        tag += 1;
    }
    // A run too short for any probe falls back on the nominal phase,
    // itself a probe at a lower rate.
    let nominal_passed = probe_outcome(&nominal, &spec).passes(spec.p90_limit_ms);
    let max_rps = search
        .best()
        .or(nominal_passed.then_some(spec.nominal_rate))
        .unwrap_or(0.0);
    if max_rps == 0.0 {
        eprintln!("warning: no probed rate met the limit");
    }
    println!(
        "{} max_rps = {max_rps:.1} 1/s (diagnostic; p90 limit {} ms, {})",
        w.name(),
        spec.p90_limit_ms,
        if resolved {
            "resolved"
        } else {
            "search budget ran out before the resolution"
        }
    );

    // Identical requests, sent again: bitwise-identical answers.
    let mut c =
        Controller::connect(server.addr, CALL_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    for i in 0..16.min(nominal.sent) {
        let (g, rate) = inputs.pick(PHASE_NOMINAL, i);
        let line = inputs::alloc_line(&OpenInputs::id(PHASE_VERIFY, i), &inputs.bodies[g], rate);
        let (reply, _) = c.call(&line).map_err(|e| format!("verify: {e}"))?;
        match (WireResponse::parse(&reply), &nominal.answers[i]) {
            (Ok(WireResponse::Ok(again)), Some(first)) => {
                if !same_answers(std::slice::from_ref(first), std::slice::from_ref(&again)) {
                    report.problem(format!(
                        "repeat of nominal request {i} answered differently"
                    ));
                }
            }
            (Ok(WireResponse::Ok(_)), None) => {}
            _ => report.problem(format!(
                "repeat of nominal request {i} failed: {}",
                client::truncate(&reply)
            )),
        }
    }
    drop(c);

    let gen_lag = if nominal.lag_ms.is_empty() {
        0.0
    } else {
        percentile(&nominal.lag_ms, 90.0)
    };
    let drained = server.shutdown()?;
    for l in &drained.lines {
        println!("server: {l}");
    }
    let total_errors: usize = errors.values().sum();
    println!(
        "{} failed requests over all phases: {total_errors} {errors:?}",
        w.name()
    );
    if !args.trace {
        return Ok(());
    }

    // Traced run: the server's own counters, then the in-process replay.
    let stream = read_server_stream(&args.out.join("server-metrics.jsonl"), &drained)?;
    let (hits, misses) = (
        drained.count("hits").unwrap_or(0),
        drained.count("misses").unwrap_or(0),
    );
    report.set("lru.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    report.set("serve.batch_mean", stream.misses_per_encode);
    report.set("serve.queue_wait_p90_ms", stream.queue_wait_p90_ms);
    report.set("serve.errors", total_errors as f64);
    report.set("gen.lag_p90_ms", gen_lag);
    if let Some(before) = untraced_p50 {
        report.set("trace.overhead_pct", (t.p50 / before - 1.0) * 100.0);
    }
    let ckpt = Checkpoint::load(&model).map_err(|e| format!("load fixture: {e}"))?;
    let mut replayer = Replayer::new(ckpt.into_model(), base, inputs.base_rate);
    // The server saw the warm-up first; so does the replay's LRU.
    for (i, line) in inputs.warmup_lines(w).iter().enumerate() {
        replayer.replay(u64::MAX - i as u64, line)?;
    }
    replayer.reset_trace();
    for i in 0..nominal.sent.min(REPLAY_LIMIT) {
        let got = replayer.replay(i as u64, &inputs.line(PHASE_NOMINAL, i))?;
        if let Some(server_answer) = &nominal.answers[i] {
            check_replay(report, &format!("nominal request {i}"), got, server_answer);
        }
    }
    replay_layers(report, &replayer);
    let in_process_ms = median_of(&replayer.rec.dur_us("request")) / 1e3;
    report.set("serve.residual_ms", t.p50 - in_process_ms);
    println!(
        "residual: client p50 {:.4} ms - in-process p50 {in_process_ms:.4} ms",
        t.p50
    );
    *rec = std::mem::take(&mut replayer.rec);
    Ok(())
}

/// Same placements and bitwise-same relative throughputs.
fn same_answers(a: &[AllocResponse], b: &[AllocResponse]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.placement == y.placement
                && x.relative_throughput.to_bits() == y.relative_throughput.to_bits()
        })
}

// ---------------------------------------------------------------------
// Closed loop: realloc-drift
// ---------------------------------------------------------------------

/// One closed-loop operation as a controller saw it.
#[derive(Debug, Clone, PartialEq)]
enum OpKind {
    Alloc,
    /// The empty-delta replay of the chain's alloc.
    Replay,
    /// Realloc step `k` (1-based).
    Step(usize),
}

struct Op {
    chain: usize,
    kind: OpKind,
    rtt_ms: f64,
    done: Instant,
    /// The request line, kept for a controller's first ops in a traced
    /// run (Large lines are ~130 KB each).
    line: Option<String>,
    reply: String,
}

/// The rate a chain instance starts from.
fn chain_rate(seed: u64, tag: u64, chain: usize) -> f64 {
    1e4 * (0.9 + 0.2 * unit(mix(seed ^ mix(tag << 40 ^ chain as u64))))
}

/// Walk chain instances `first, first + CONNECTIONS, ...` until
/// `deadline`, keeping the request lines of the first `keep` ops;
/// returns every op and the first failure, if any.
#[allow(clippy::too_many_arguments)]
fn controller(
    addr: SocketAddr,
    templates: &[ChainTemplate],
    seed: u64,
    tag: u64,
    first: usize,
    deadline: Instant,
    keep: usize,
    max_chains: Option<usize>,
) -> (Vec<Op>, Vec<String>) {
    let mut ops = Vec::new();
    let mut failures = Vec::new();
    let mut c = match Controller::connect(addr, CALL_TIMEOUT) {
        Ok(c) => c,
        Err(e) => return (ops, vec![format!("connect: {e}")]),
    };
    let mut chain = first;
    'chains: while Instant::now() < deadline && max_chains.is_none_or(|m| chain < m) {
        let t = &templates[chain % templates.len()];
        let rates = inputs::chain_rates(t, chain_rate(seed, tag, chain));
        let id = format!("d{tag}-c{chain}");
        let mut prior: Vec<u32> = Vec::new();
        let steps = 2 + inputs::CHAIN_STEPS;
        for s in 0..steps {
            if s > 0 && Instant::now() >= deadline {
                break 'chains;
            }
            let (kind, line) = match s {
                0 => (
                    OpKind::Alloc,
                    inputs::alloc_line(&id, &t.bodies[0], Some(rates[0])),
                ),
                1 => (
                    OpKind::Replay,
                    inputs::realloc_line(
                        &id,
                        &t.bodies[0],
                        &prior,
                        &GraphDelta::default(),
                        rates[0],
                        t.devices[0],
                    ),
                ),
                _ => {
                    let k = s - 1;
                    let delta = inputs::instance_delta(t, &rates, k);
                    (
                        OpKind::Step(k),
                        inputs::realloc_line(
                            &format!("{id}-{k}"),
                            &t.bodies[k - 1],
                            &prior,
                            &delta,
                            rates[k - 1],
                            t.devices[k - 1],
                        ),
                    )
                }
            };
            let (reply, rtt) = match c.call(&line) {
                Ok(r) => r,
                Err(e) => {
                    failures.push(format!("chain {chain} op {s}: {e}"));
                    break 'chains;
                }
            };
            let placement = match WireResponse::parse(&reply) {
                Ok(WireResponse::Ok(r)) => Some(r.placement),
                _ => None,
            };
            ops.push(Op {
                chain,
                kind,
                rtt_ms: rtt.as_secs_f64() * 1e3,
                done: Instant::now(),
                line: (ops.len() < keep).then_some(line),
                reply,
            });
            match placement {
                Some(p) => {
                    if s != 1 {
                        prior = p;
                    }
                }
                // A failed op ends its chain: the next request needs
                // the placement it did not get.
                None => break,
            }
        }
        chain += client::CONNECTIONS;
    }
    (ops, failures)
}

/// Run both controllers for `secs`; ops sorted by completion.
fn drift_phase(
    addr: SocketAddr,
    templates: &[ChainTemplate],
    seed: u64,
    tag: u64,
    secs: f64,
    keep: usize,
) -> Result<(Vec<Op>, f64), String> {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let run = |first| controller(addr, templates, seed, tag, first, deadline, keep, None);
    let ((mut a, fa), (b, fb)) = std::thread::scope(|s| {
        let other = s.spawn(|| run(1));
        let mine = run(0);
        (
            mine,
            other
                .join()
                .unwrap_or_else(|_| (Vec::new(), vec!["controller thread panicked".to_string()])),
        )
    });
    if let Some(f) = fa.into_iter().chain(fb).next() {
        return Err(format!("closed loop: {f}"));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    a.extend(b);
    a.sort_by_key(|op| op.done);
    Ok((a, elapsed))
}

/// Check every op: answers, empty-delta byte identity, bitwise reward.
/// Returns (ok, failed, warm, full, every answer's relative throughput).
fn check_drift(
    report: &mut Report,
    templates: &[ChainTemplate],
    seed: u64,
    tag: u64,
    ops: &[Op],
    base: ClusterSpec,
) -> (usize, usize, usize, usize, Vec<f64>) {
    let (mut ok, mut failed, mut warm, mut full) = (0, 0, 0, 0);
    let mut rewards = Vec::new();
    let mut alloc_reply: HashMap<usize, &str> = HashMap::new();
    for op in ops {
        let t = &templates[op.chain % templates.len()];
        let rates = inputs::chain_rates(t, chain_rate(seed, tag, op.chain));
        let resp = match WireResponse::parse(&op.reply) {
            Ok(WireResponse::Ok(r)) => r,
            Ok(WireResponse::Err(e)) => {
                failed += 1;
                eprintln!(
                    "chain {} {:?} failed: {} {}",
                    op.chain, op.kind, e.error, e.detail
                );
                continue;
            }
            Err(e) => {
                failed += 1;
                report.problem(format!("chain {}: unparseable response ({e})", op.chain));
                continue;
            }
        };
        ok += 1;
        let id = format!("d{tag}-c{}", op.chain);
        let (k, want_id) = match op.kind {
            OpKind::Alloc => {
                alloc_reply.insert(op.chain, &op.reply);
                (0, id)
            }
            OpKind::Replay => {
                if alloc_reply.get(&op.chain) != Some(&op.reply.as_str()) {
                    report.problem(format!(
                        "chain {}: empty-delta realloc did not return the prior bytes",
                        op.chain
                    ));
                }
                (0, id)
            }
            OpKind::Step(k) => {
                match resp.realloc.as_deref() {
                    Some("warm") => warm += 1,
                    Some("full") => full += 1,
                    other => report.problem(format!(
                        "chain {} step {k}: path marker {other:?}",
                        op.chain
                    )),
                }
                let expect_full = t.steps[k - 1].over_threshold;
                if (resp.realloc.as_deref() == Some("full")) != expect_full {
                    report.problem(format!(
                        "chain {} step {k}: took the {:?} path against churn",
                        op.chain, resp.realloc
                    ));
                }
                (k, format!("{id}-{k}"))
            }
        };
        if resp.id != want_id {
            report.problem(format!(
                "chain {}: answer carries id {} for {want_id}",
                op.chain, resp.id
            ));
            continue;
        }
        let e = Expect {
            graph: &t.graphs[k],
            devices: t.devices[k],
            rate: rates[k],
        };
        check_answer(
            report,
            &format!("chain {} op {:?}", op.chain, op.kind),
            &e,
            &resp,
            base,
        );
        rewards.push(resp.relative_throughput);
    }
    (ok, failed, warm, full, rewards)
}

/// A started server warmed by the quality chains.
struct DriftSetup {
    templates: Vec<ChainTemplate>,
    quality: Vec<ChainTemplate>,
    model: PathBuf,
    server: Server,
    /// The quality chains' ops, in order.
    quality_ops: Vec<Op>,
    secs: f64,
}

/// Chain tags: the quality set, the measured phase, the untraced
/// reference of a traced run.
const TAG_QUALITY: u64 = 0;
const TAG_MEASURED: u64 = 1;
const TAG_UNTRACED: u64 = 2;

/// Build the chain templates, start a server and walk the quality
/// chains on it (one controller, in order).
fn setup_drift(args: &Args, metrics: Option<&Path>) -> Result<DriftSetup, String> {
    let t0 = Instant::now();
    let spec = DatasetSpec::for_setting(Setting::Large);
    // Templates are built on two threads (the host has two CPUs); each
    // is deterministic in its own index, so the split changes nothing.
    let templates_of = |seed: u64, n: usize| -> Vec<ChainTemplate> {
        let graphs = inputs::graphs(Setting::Large, n, seed, 0xD1);
        let build = |part: &[StreamGraph], first: usize| -> Vec<ChainTemplate> {
            part.iter()
                .enumerate()
                .map(|(i, g)| {
                    let seed = mix(seed ^ (first + i) as u64);
                    inputs::chain_template(g.clone(), spec.devices, spec.source_rate, seed)
                })
                .collect()
        };
        let half = n.div_ceil(2);
        let (a, b) = graphs.split_at(half);
        std::thread::scope(|s| {
            let second = s.spawn(|| build(b, half));
            let mut all = build(a, 0);
            all.extend(second.join().expect("template thread panicked"));
            all
        })
    };
    let templates = templates_of(args.seed, inputs::CHAIN_TEMPLATES);
    let quality = templates_of(inputs::QUALITY_SEED, inputs::QUALITY_CHAINS);
    inputs::check_splice(&templates[0].graphs[0], &templates[0].bodies[0])?;
    let model = fixture(&args.out)?;
    let server = Server::start(&args.spg, &model, "large", metrics)?;
    let mut quality_ops = Vec::new();
    let forever = t0 + Duration::from_secs(3600);
    for chain in 0..quality.len() {
        let (ops, failures) = controller(
            server.addr,
            &quality,
            inputs::QUALITY_SEED,
            TAG_QUALITY,
            chain,
            forever,
            0,
            Some(chain + 1),
        );
        if let Some(f) = failures.first() {
            return Err(format!("warm-up: {f}"));
        }
        quality_ops.extend(ops);
    }
    if quality_ops.len() != quality.len() * (2 + inputs::CHAIN_STEPS) {
        return Err("a quality chain did not complete".to_string());
    }
    Ok(DriftSetup {
        templates,
        quality,
        model,
        server,
        quality_ops,
        secs: t0.elapsed().as_secs_f64(),
    })
}

fn run_drift(args: &Args, report: &mut Report, rec: &mut Recorder) -> Result<(), String> {
    let base = DatasetSpec::for_setting(Setting::Large).cluster();
    let mut untraced_p50 = None;
    let setup = if args.trace {
        let plain = setup_drift(args, None)?;
        let (ops, _) = drift_phase(
            plain.server.addr,
            &plain.templates,
            args.seed,
            TAG_UNTRACED,
            args.seconds * 0.3,
            0,
        )?;
        let lat: Vec<f64> = ops.iter().map(|o| o.rtt_ms).collect();
        untraced_p50 = Timing::of(&lat).map(|t| t.p50);
        plain.server.shutdown()?;
        setup_drift(args, Some(&args.out.join("server-metrics.jsonl")))?
    } else {
        let mut times = Vec::with_capacity(DRIFT_SETUPS);
        let mut last: Option<DriftSetup> = None;
        let mut before: Option<Vec<String>> = None;
        for _ in 0..DRIFT_SETUPS {
            // Each set-up starts alone: the previous server has drained
            // and its inputs are freed.
            if let Some(prev) = last.take() {
                prev.server.shutdown()?;
                before = Some(prev.quality_ops.into_iter().map(|o| o.reply).collect());
            }
            let next = setup_drift(args, None)?;
            times.push(next.secs);
            if before
                .take()
                .is_some_and(|q| q.iter().ne(next.quality_ops.iter().map(|o| &o.reply)))
            {
                report.problem(
                    "a restarted server answered the quality chains differently".to_string(),
                );
            }
            last = Some(next);
        }
        println!("setup: {times:?} s, median {:.4} s", median_of(&times));
        report.set("setup_s", median_of(&times));
        last.expect("at least one set-up")
    };
    let DriftSetup {
        templates,
        quality,
        model,
        server,
        quality_ops,
        ..
    } = setup;
    let (_, qfailed, _, _, qrewards) = check_drift(
        report,
        &quality,
        inputs::QUALITY_SEED,
        TAG_QUALITY,
        &quality_ops,
        base,
    );
    if qfailed > 0 {
        report.problem(format!("{qfailed} quality-chain ops failed"));
    }
    let reward = qrewards.iter().sum::<f64>() / qrewards.len().max(1) as f64;
    println!(
        "realloc-drift reward_mean = {reward:.6} over the {} quality-chain answers",
        qrewards.len()
    );
    report.set("reward_mean", reward);

    let secs = if args.trace {
        args.seconds * 0.5
    } else {
        args.seconds
    };
    let (ops, elapsed) = drift_phase(
        server.addr,
        &templates,
        args.seed,
        TAG_MEASURED,
        secs,
        if args.trace {
            REPLAY_LIMIT / client::CONNECTIONS
        } else {
            0
        },
    )?;
    let (ok, failed, warm, full, _) =
        check_drift(report, &templates, args.seed, TAG_MEASURED, &ops, base);
    report.attempted += ops.len() as u64;
    report.failed += failed as u64;
    let lat: Vec<f64> = ops.iter().map(|o| o.rtt_ms).collect();
    let t = Timing::of(&lat).ok_or("no closed-loop op completed")?;
    println!(
        "phase closed-loop: {} controllers, sent {}, ok {ok}, failed {failed}, {elapsed:.2}s; \
         reallocs warm {warm}, full {full}",
        client::CONNECTIONS,
        ops.len()
    );
    println!("  {}", t.line("round trip", "ms"));
    for (name, pick) in [
        (
            "alloc",
            &(|k: &OpKind| *k == OpKind::Alloc) as &dyn Fn(&OpKind) -> bool,
        ),
        ("empty-delta", &|k: &OpKind| *k == OpKind::Replay),
        ("realloc", &|k: &OpKind| matches!(k, OpKind::Step(_))),
    ] {
        let l: Vec<f64> = ops
            .iter()
            .filter(|o| pick(&o.kind))
            .map(|o| o.rtt_ms)
            .collect();
        if let Some(t) = Timing::of(&l) {
            println!("  {}", t.line(name, "ms"));
        }
    }
    let ops_per_s = ok as f64 / elapsed;
    println!("realloc-drift ops_per_s = {ops_per_s:.2} 1/s (completed ops)");
    report.set("p50_ms", t.p50);
    report.set("p90_ms", t.p90);
    report.set("throughput_per_s", ops_per_s);
    let drained = server.shutdown()?;
    for l in &drained.lines {
        println!("server: {l}");
    }
    if !args.trace {
        return Ok(());
    }

    let stream = read_server_stream(&args.out.join("server-metrics.jsonl"), &drained)?;
    let (hits, misses) = (
        drained.count("hits").unwrap_or(0),
        drained.count("misses").unwrap_or(0),
    );
    report.set("lru.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    report.set("serve.batch_mean", stream.misses_per_encode);
    report.set("serve.queue_wait_p90_ms", stream.queue_wait_p90_ms);
    report.set("serve.errors", failed as f64);
    // Over realloc steps only: the empty-delta replay takes neither path.
    report.set(
        "partition.warm_ratio",
        warm as f64 / (warm + full).max(1) as f64,
    );
    if let Some(before) = untraced_p50 {
        report.set("trace.overhead_pct", (t.p50 / before - 1.0) * 100.0);
    }
    let ckpt = Checkpoint::load(&model).map_err(|e| format!("load fixture: {e}"))?;
    let mut replayer = Replayer::new(
        ckpt.into_model(),
        base,
        DatasetSpec::for_setting(Setting::Large).source_rate,
    );
    let kept = ops
        .iter()
        .filter_map(|op| op.line.as_deref().map(|line| (op, line)));
    for (i, (op, line)) in kept.enumerate() {
        let got = replayer.replay(i as u64, line)?;
        if let Ok(WireResponse::Ok(resp)) = WireResponse::parse(&op.reply) {
            check_replay(
                report,
                &format!("chain {} {:?}", op.chain, op.kind),
                got,
                &resp,
            );
        }
    }
    replay_layers(report, &replayer);
    let in_process_ms = median_of(&replayer.rec.dur_us("request")) / 1e3;
    report.set("serve.residual_ms", t.p50 - in_process_ms);
    *rec = std::mem::take(&mut replayer.rec);
    Ok(())
}

// ---------------------------------------------------------------------
// In process: train-large
// ---------------------------------------------------------------------

fn run_train(args: &Args, report: &mut Report, rec: &mut Recorder) -> Result<(), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut sets: Vec<Vec<StreamGraph>> = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let pool = inputs::graphs(Setting::Large, train::GRAPHS * train::SETS, args.seed, 0x71);
        sets = pool
            .chunks(train::GRAPHS)
            .map(<[StreamGraph]>::to_vec)
            .collect();
        drop(train::trainer(&sets[0], TelemetrySink::disabled()));
        times.push(t0.elapsed().as_secs_f64());
    }
    println!("setup: {times:?} s, median {:.4} s", median_of(&times));
    report.set("setup_s", median_of(&times));

    // The quality round: fixed graphs, so `train_reward` does not move
    // with `--seed`. Untimed; run again after the timed rounds, it must
    // train bit-identically.
    let quality = inputs::graphs(Setting::Large, train::GRAPHS, inputs::QUALITY_SEED, 0x71);
    let (_, quality_stats) = train::round(&quality, TelemetrySink::disabled());

    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds * 0.5
    } else {
        args.seconds
    });
    let t0 = Instant::now();
    let mut epochs: Vec<f64> = Vec::new();
    let mut steps = 0;
    let mut rounds = 0;
    // Untraced runs keep going until the epoch p90 has enough samples
    // beyond it, even past `--seconds`.
    let min_epochs = if args.trace { 1 } else { train::MIN_EPOCHS };
    while epochs.len() < min_epochs || t0.elapsed() < budget {
        let (times, stats) = train::round(&sets[rounds % sets.len()], TelemetrySink::disabled());
        epochs.extend(times);
        steps += stats.iter().map(|s| s.2).sum::<usize>();
        rounds += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let (_, again) = train::round(&quality, TelemetrySink::disabled());
    if again != quality_stats {
        report.problem("the quality round trained differently the second time".to_string());
    }
    report.attempted += epochs.len() as u64;
    let t = Timing::of(&epochs).expect("epochs ran");
    let busy: f64 = epochs.iter().sum::<f64>() / 1e3;
    let reward = f64::from_bits(quality_stats.last().expect("epochs per round > 0").0);
    println!(
        "phase train: {rounds} rounds x {} epochs, each round on {} new Large graphs, {steps} graph steps, {elapsed:.2}s",
        train::EPOCHS,
        train::GRAPHS,
    );
    println!("  {}", t.line("epoch", "ms"));
    println!(
        "train-large epoch_ms = {:.3} ms, train_reward = {reward} (last epoch of the quality round)",
        t.p50
    );
    if !(reward.is_finite() && (0.0..=1.0).contains(&reward)) {
        report.problem(format!("train_reward {reward} outside [0, 1]"));
    }
    report.set("p50_ms", t.p50);
    report.set("p90_ms", t.p90);
    report.set("throughput_per_s", steps as f64 / busy);
    report.set("reward_mean", reward);
    if !args.trace {
        return Ok(());
    }

    // Traced rounds walk the same sets from the start, so the overhead
    // compares like with like.
    let mut traced = Vec::new();
    let mut all: Vec<train::Layers> = Vec::new();
    let t1 = Instant::now();
    while all.is_empty() || t1.elapsed() < budget {
        let (times, _, l) = train::traced_round(&sets[all.len() % sets.len()], rec)?;
        traced.extend(times);
        all.push(l);
    }
    let same_rounds = &epochs[..(all.len() * train::EPOCHS).min(epochs.len())];
    let l = train::Layers::mean(&all);
    report.set("train.forward_ms", l.forward_ms);
    report.set("train.backprop_ms", l.backprop_ms);
    report.set("train.rollout_ms", l.rollout_ms);
    report.set("train.partition_ms", l.partition_ms);
    report.set("train.rollout_occupancy", l.rollout_occupancy);
    report.set("train.reward_cache_hit_ratio", l.reward_cache_hit_ratio);
    report.set("partition.place_us", l.kway_us_per_call);
    report.set("sim.reward_us", l.sim_us_per_call);
    report.set(
        "trace.overhead_pct",
        (median_of(&traced) / median_of(same_rounds) - 1.0) * 100.0,
    );
    println!(
        "traced epoch split: forward {:.2} ms, rollout {:.2} ms, backprop {:.2} ms, partition {:.2} ms",
        l.forward_ms, l.rollout_ms, l.backprop_ms, l.partition_ms
    );
    Ok(())
}
