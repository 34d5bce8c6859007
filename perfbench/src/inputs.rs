//! Workload inputs, all derived from the benchmark seed.
//!
//! Request lines are assembled from pre-rendered pieces: rendering a
//! Large graph costs the client milliseconds, which would otherwise be
//! charged to the load generator on every send. The graph part of each
//! line is rendered once by the wire types themselves; only the id, the
//! rate and (for reallocs) the prior placement and delta are spliced in
//! per request. `check_splice` proves once per piece that a spliced
//! line parses back to the intended request.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spg_gen::{drift_scenario, generate_graph, DatasetSpec, Setting};
use spg_graph::wire::{parse_request, AllocRequest, ReallocRequest, WireRequest};
use spg_graph::{Channel, GraphDelta, StreamGraph, DEFAULT_CHURN_THRESHOLD};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Seed of the fixed quality set. `reward_mean` is measured on it, so
/// the metric does not move with `--seed` and any change to a placement
/// moves it; the timed traffic comes from `--seed`.
pub const QUALITY_SEED: u64 = 0x5EED_0F0A;
/// Graphs in the quality set of an open-loop workload.
pub const QUALITY_SET: usize = 32;
/// Drift chains in the quality set of `realloc-drift`.
pub const QUALITY_CHAINS: usize = 4;
/// Distinct graphs behind the all-miss Large traffic; a request also
/// draws its own source rate, so no two requests share a fingerprint.
pub const LARGE_POOL: usize = 64;
/// The hot working set: well under the replica's 256-entry LRU.
pub const HOT_SET: usize = 192;
/// Distinct base graphs behind the drift chains.
pub const CHAIN_TEMPLATES: usize = 128;
/// Realloc steps per chain; every fourth is built over the churn
/// threshold so the full fallback runs beside the warm path.
pub const CHAIN_STEPS: usize = 8;
/// Share of nodes+edges a "rewire" step touches (above the threshold).
const REWIRE_CHURN: f64 = 0.3;

/// Seeds of the generator streams, kept apart per use.
fn stream_seed(seed: u64, tag: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag
}

/// `n` graphs of `setting` from the benchmark seed.
pub fn graphs(setting: Setting, n: usize, seed: u64, tag: u64) -> Vec<StreamGraph> {
    let spec = DatasetSpec::for_setting(setting);
    let base = stream_seed(seed, tag);
    (0..n)
        .map(|i| generate_graph(&spec, base.wrapping_add(i as u64)))
        .collect()
}

/// The `","graph":{...}` part of a request line for `graph`, rendered
/// by [`AllocRequest::to_line`].
pub fn graph_body(graph: &StreamGraph) -> String {
    let line = AllocRequest {
        id: String::new(),
        graph: graph.clone(),
        source_rate: None,
        devices: None,
        v: Some(2),
        deadline_ms: None,
    }
    .to_line();
    let start = r#"{"id":""#.len();
    let end = line
        .rfind(r#","v":2}"#)
        .expect("a v2 request line ends with its version");
    line[start..end].to_string()
}

/// A v2 alloc line; `rate` `None` inherits the server's setting rate.
pub fn alloc_line(id: &str, body: &str, rate: Option<f64>) -> String {
    let mut line = String::with_capacity(body.len() + 64);
    line.push_str(r#"{"id":""#);
    line.push_str(id);
    line.push_str(body);
    if let Some(rate) = rate {
        let _ = write!(line, r#","source_rate":{rate}"#);
    }
    line.push_str(r#","v":2}"#);
    line
}

/// A v2 realloc line of `body`'s graph from `prior` through `delta`.
pub fn realloc_line(
    id: &str,
    body: &str,
    prior: &[u32],
    delta: &GraphDelta,
    rate: f64,
    devices: usize,
) -> String {
    let mut line = String::with_capacity(body.len() + 8 * prior.len() + 256);
    line.push_str(r#"{"id":""#);
    line.push_str(id);
    line.push_str(body);
    line.push_str(r#","prior_placement":["#);
    for (i, d) in prior.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{d}");
    }
    line.push_str(r#"],"delta":"#);
    line.push_str(&serde_json::to_string(delta).expect("deltas render"));
    let _ = write!(line, r#","source_rate":{rate},"devices":{devices},"v":2}}"#);
    line
}

/// Prove that spliced lines parse back to the requests they stand for.
pub fn check_splice(graph: &StreamGraph, body: &str) -> Result<(), String> {
    let line = alloc_line("probe", body, Some(12345.678));
    match parse_request(&line) {
        Ok(WireRequest::Alloc(req))
            if req.id == "probe"
                && &req.graph == graph
                && req.source_rate == Some(12345.678)
                && req.v == Some(2) => {}
        other => return Err(format!("spliced alloc line parses as {other:?}")),
    }
    let prior: Vec<u32> = (0..graph.num_nodes() as u32).map(|v| v % 3).collect();
    let delta = GraphDelta {
        source_rate: Some(2.5e4),
        ..GraphDelta::default()
    };
    let want = ReallocRequest {
        id: "probe".to_string(),
        graph: graph.clone(),
        prior_placement: prior.clone(),
        delta: delta.clone(),
        source_rate: Some(1e4),
        devices: Some(7),
        v: Some(2),
        deadline_ms: None,
    };
    let line = realloc_line("probe", body, &prior, &delta, 1e4, 7);
    match parse_request(&line) {
        Ok(WireRequest::Realloc(req)) if req == want => Ok(()),
        other => Err(format!("spliced realloc line parses as {other:?}")),
    }
}

/// One drift step of a chain template.
#[derive(Debug, Clone)]
pub struct Step {
    /// The delta, with any rate ramp stripped out: the ramp is a factor
    /// applied to each chain instance's own rate.
    pub delta: GraphDelta,
    pub ramp: Option<f64>,
    /// Built over the churn threshold (full fallback expected).
    pub over_threshold: bool,
}

/// A drift chain over one base graph: graphs `g_0..=g_L`, the device
/// count after each step, the steps, and the rendered graph bodies of
/// `g_0..g_L-1` (the graphs that travel as a realloc's prior).
#[derive(Debug, Clone)]
pub struct ChainTemplate {
    pub graphs: Vec<StreamGraph>,
    pub devices: Vec<usize>,
    pub steps: Vec<Step>,
    pub bodies: Vec<String>,
}

/// Remove and re-add `REWIRE_CHURN` worth of distinct edges with
/// perturbed payloads: topology-preserving, but over the churn
/// threshold, so the server must take the full path.
fn rewire(graph: &StreamGraph, rng: &mut ChaCha8Rng) -> GraphDelta {
    let edges = graph.edge_list();
    let mut count: HashMap<_, usize> = HashMap::with_capacity(edges.len());
    for &e in edges {
        *count.entry(e).or_default() += 1;
    }
    let mut unique: Vec<usize> = (0..edges.len())
        .filter(|&e| count[&edges[e]] == 1)
        .collect();
    let want = ((REWIRE_CHURN * (graph.num_nodes() + graph.num_edges()) as f64) / 2.0).ceil();
    let want = (want as usize).min(unique.len());
    // Partial Fisher-Yates: the first `want` entries are the pick.
    for i in 0..want {
        let j = rng.gen_range(i..unique.len());
        unique.swap(i, j);
    }
    unique.truncate(want);
    unique.sort_unstable();
    let mut delta = GraphDelta::default();
    for e in unique {
        let ch = graph.channels()[e];
        delta.remove_edges.push(edges[e]);
        delta.add_edges.push(edges[e]);
        delta.add_channels.push(Channel {
            payload: ch.payload * rng.gen_range(0.8..1.25),
            ..ch
        });
    }
    delta
}

/// Build a chain template over `base` for a cluster of `devices` at
/// `rate`. Deterministic in `seed`.
pub fn chain_template(base: StreamGraph, devices: usize, rate: f64, seed: u64) -> ChainTemplate {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut graphs = vec![base];
    let mut devs = vec![devices];
    let mut steps = Vec::with_capacity(CHAIN_STEPS);
    let mut bodies = Vec::with_capacity(CHAIN_STEPS);
    for k in 1..=CHAIN_STEPS {
        let prior = graphs.last().expect("chain starts with its base");
        let d = *devs.last().expect("chain starts with its devices");
        bodies.push(graph_body(prior));
        let over_threshold = k % 4 == 0;
        let mut delta = if over_threshold {
            rewire(prior, &mut rng)
        } else {
            drift_scenario(prior, d, rate, rng.gen()).delta
        };
        let ramp = delta.source_rate.take().map(|r| r / rate);
        let churn = delta.churn(prior);
        assert_eq!(
            churn > DEFAULT_CHURN_THRESHOLD,
            over_threshold,
            "step {k}: churn {churn} on the wrong side of the threshold"
        );
        let applied = delta.apply(prior).expect("drift deltas apply");
        devs.push(delta.devices.unwrap_or(d));
        graphs.push(applied.graph);
        steps.push(Step {
            delta,
            ramp,
            over_threshold,
        });
    }
    ChainTemplate {
        graphs,
        devices: devs,
        steps,
        bodies,
    }
}

/// Instance rates along a chain: `rates[k]` is the source rate of
/// `g_k` when the chain starts at `rate0`.
pub fn chain_rates(t: &ChainTemplate, rate0: f64) -> Vec<f64> {
    let mut rates = vec![rate0];
    for step in &t.steps {
        let prev = *rates.last().expect("non-empty");
        rates.push(step.ramp.map_or(prev, |f| prev * f));
    }
    rates
}

/// The delta of step `k` (1-based) for an instance with `rates`.
pub fn instance_delta(t: &ChainTemplate, rates: &[f64], k: usize) -> GraphDelta {
    let step = &t.steps[k - 1];
    let mut delta = step.delta.clone();
    if step.ramp.is_some() {
        delta.source_rate = Some(rates[k]);
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spliced_lines_parse_back() {
        for g in graphs(Setting::Small, 4, 1, 0) {
            check_splice(&g, &graph_body(&g)).unwrap();
        }
    }

    #[test]
    fn chains_put_one_step_in_four_over_the_threshold() {
        let base = graphs(Setting::Medium, 1, 3, 0).remove(0);
        let t = chain_template(base, 10, 1e4, 9);
        assert_eq!(t.graphs.len(), CHAIN_STEPS + 1);
        assert_eq!(t.bodies.len(), CHAIN_STEPS);
        let over = t.steps.iter().filter(|s| s.over_threshold).count();
        assert_eq!(over * 4, CHAIN_STEPS);
        let rates = chain_rates(&t, 1e4);
        assert!(rates.windows(2).all(|w| w[1] >= w[0]));
        for k in 1..=CHAIN_STEPS {
            let delta = instance_delta(&t, &rates, k);
            let applied = delta.apply(&t.graphs[k - 1]).unwrap();
            assert_eq!(applied.graph, t.graphs[k]);
        }
    }
}
