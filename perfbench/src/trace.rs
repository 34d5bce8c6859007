//! Per-layer tracing by in-process replay.
//!
//! The traced run sends its requests to the server like the untraced
//! one, then replays the same request lines in this process through
//! each layer's public functions, in the order a replica calls them,
//! recording one span per call. The program itself is not changed: the
//! spans sit around the calls, here in the benchmark.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_core::policy::{CoarseningPolicy, DecodeMode};
use spg_core::{BatchUnion, CoarsePlacer, CoarsenModel, InferenceScratch, MetisCoarsePlacer};
use spg_graph::features::{EDGE_FEATURES, NODE_FEATURES};
use spg_graph::wire::{parse_request, AllocResponse, WireRequest};
use spg_graph::{ClusterSpec, GraphFeatures, Placement, StreamGraph, TupleRates};
use spg_partition::{realloc_decide, IncrementalConfig, ReallocDecision};
use spg_serve::{realloc_fingerprint, request_fingerprint, LruCache, ServeConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Spans kept in memory, written out when the run ends.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let i = self.open.pop().expect("close matches an open span");
        self.spans[i].end_ns = self.now();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, req);
        let out = f();
        self.close();
        out
    }

    /// Each span's duration minus the part its children cover (ns).
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self times (µs) of every span called `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e3)
            .collect()
    }

    /// Durations (µs) of every span called `name`.
    pub fn dur_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// JSONL, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, parent, s.req
            );
        }
        out
    }
}

/// Multiply-adds of one encoder + collapse-head forward, counted from
/// the model's layer shapes (2 FLOPs per multiply-add; activations,
/// gathers and means are not counted).
pub fn encode_flops(model: &CoarsenModel, nodes: usize, edges: usize) -> f64 {
    if edges == 0 {
        return 0.0;
    }
    let c = &model.config;
    let (n, e) = (nodes as f64, edges as f64);
    let (m, eh, hh) = (c.hidden as f64, c.edge_hidden as f64, c.head_hidden as f64);
    let (nf, ef) = (NODE_FEATURES as f64, EDGE_FEATURES as f64);
    let input = n * nf * m;
    // Per hop and direction: the message MLP over edges, the update
    // over nodes.
    let hop = 2.0 * (e * (m + ef) * m + n * 2.0 * m * m);
    let head = 2.0 * n * 2.0 * m * m + e * ef * eh + e * ((2.0 * m + eh) * hh + hh);
    2.0 * (input + c.hops as f64 * hop + head)
}

/// Replays request lines through the layers a replica runs, with a
/// span around each call, and returns what the replica would answer.
pub struct Replayer {
    model: CoarsenModel,
    policy: CoarseningPolicy,
    placer: MetisCoarsePlacer,
    cache: LruCache<(Vec<u32>, f64)>,
    union: BatchUnion,
    scratch: InferenceScratch,
    cluster: ClusterSpec,
    rate: f64,
    pub rec: Recorder,
    /// FLOPs and nanoseconds of every encode.
    pub encode: Vec<(f64, u64)>,
    /// Coarse over fine node counts of every coarsening.
    pub coarsen_ratio: Vec<f64>,
}

impl Replayer {
    /// A replayer with a replica's defaults (placer seed, LRU size).
    pub fn new(model: CoarsenModel, cluster: ClusterSpec, rate: f64) -> Self {
        let defaults = ServeConfig::default();
        Replayer {
            policy: CoarseningPolicy::from_config(&model.config),
            model,
            placer: MetisCoarsePlacer::new(defaults.seed),
            cache: LruCache::new(defaults.cache_capacity),
            union: BatchUnion::new(),
            scratch: InferenceScratch::new(),
            cluster,
            rate,
            rec: Recorder::default(),
            encode: Vec::new(),
            coarsen_ratio: Vec::new(),
        }
    }

    /// Forget the spans and counts recorded so far (after a warm-up).
    pub fn reset_trace(&mut self) {
        self.rec = Recorder::default();
        self.encode.clear();
        self.coarsen_ratio.clear();
    }

    /// Replay one line as request `req`; returns the placement and the
    /// relative throughput a replica answers with.
    pub fn replay(&mut self, req: u64, line: &str) -> Result<(Vec<u32>, f64), String> {
        self.rec.open("request", req);
        let out = self.replay_inner(req, line);
        self.rec.close();
        out
    }

    fn replay_inner(&mut self, req: u64, line: &str) -> Result<(Vec<u32>, f64), String> {
        let parsed = self
            .rec
            .time("wire.parse", req, || parse_request(line))
            .map_err(|e| format!("replayed line does not parse: {e}"))?;
        let (id, answer) = match parsed {
            WireRequest::Alloc(r) => {
                let devices = r.devices.unwrap_or(self.cluster.devices);
                let rate = r.source_rate.unwrap_or(self.rate);
                let fp = self.rec.time("lru.fingerprint", req, || {
                    request_fingerprint(&r.graph, devices, rate)
                });
                let answer = match self.lookup(req, fp) {
                    Some(hit) => hit,
                    None => {
                        let answer = self.solo(req, &r.graph, devices, rate, fp);
                        self.cache.insert(fp, answer.clone());
                        answer
                    }
                };
                (r.id, answer)
            }
            WireRequest::Realloc(r) => {
                let devices = r.devices.unwrap_or(self.cluster.devices);
                let rate = r.source_rate.unwrap_or(self.rate);
                let fp = self.rec.time("lru.fingerprint", req, || {
                    realloc_fingerprint(&r.graph, &r.prior_placement, &r.delta, devices, rate)
                });
                let answer = match self.lookup(req, fp) {
                    Some(hit) => hit,
                    None => {
                        let base = ClusterSpec {
                            devices,
                            ..self.cluster
                        };
                        let decision = self.rec.time("partition.realloc", req, || {
                            realloc_decide(
                                &r.graph,
                                &r.prior_placement,
                                &r.delta,
                                &base,
                                rate,
                                &IncrementalConfig::default(),
                            )
                        });
                        let answer = match decision.map_err(|e| format!("realloc: {e}"))? {
                            ReallocDecision::Unchanged { relative } => {
                                (r.prior_placement.clone(), relative)
                            }
                            ReallocDecision::Warm {
                                placement,
                                relative,
                                ..
                            } => (placement.as_slice().to_vec(), relative),
                            ReallocDecision::Full {
                                graph,
                                devices,
                                source_rate,
                            } => {
                                let key = request_fingerprint(&graph, devices, source_rate);
                                self.solo(req, &graph, devices, source_rate, key)
                            }
                        };
                        self.cache.insert(fp, answer.clone());
                        answer
                    }
                };
                (r.id, answer)
            }
            WireRequest::Shutdown => return Err("replayed a shutdown line".to_string()),
        };
        self.rec.time("wire.serialize", req, || {
            AllocResponse {
                id,
                placement: answer.0.clone(),
                relative_throughput: answer.1,
                cached: false,
                v: Some(2),
                shard: Some(0),
                realloc: None,
            }
            .to_line()
        });
        Ok(answer)
    }

    fn lookup(&mut self, req: u64, fp: u64) -> Option<(Vec<u32>, f64)> {
        let cache = &mut self.cache;
        self.rec.time("lru.lookup", req, || cache.get(fp).cloned())
    }

    /// The replica's miss pipeline for one graph.
    fn solo(
        &mut self,
        req: u64,
        graph: &StreamGraph,
        devices: usize,
        rate: f64,
        key: u64,
    ) -> (Vec<u32>, f64) {
        let cluster = ClusterSpec {
            devices,
            ..self.cluster
        };
        let (rates, feats) = self.rec.time("graph.features", req, || {
            let rates = TupleRates::compute(graph, rate);
            let feats = GraphFeatures::extract_with_rates(graph, &cluster, &rates);
            (rates, feats)
        });
        let t0 = Instant::now();
        let (model, union, scratch) = (&self.model, &mut self.union, &mut self.scratch);
        let probs = self.rec.time("core.encode", req, || {
            model.predict_probs_batch_with(union, scratch, Some(&[key]), &[(graph, &feats)])
        });
        self.encode.push((
            encode_flops(&self.model, graph.num_nodes(), graph.num_edges()),
            t0.elapsed().as_nanos() as u64,
        ));
        let policy = &self.policy;
        let coarsening = self.rec.time("core.coarsen", req, || {
            let mut rng = ChaCha8Rng::seed_from_u64(key);
            let decisions = policy.decode(&probs[0], DecodeMode::Greedy, &mut rng);
            policy.apply(graph, &rates, &cluster, &decisions, &probs[0])
        });
        self.coarsen_ratio
            .push(coarsening.coarse.num_nodes() as f64 / graph.num_nodes() as f64);
        let placer = &self.placer;
        let coarse = self.rec.time("partition.place", req, || {
            placer.place_coarse(&coarsening.coarse, &cluster)
        });
        let placement = self.rec.time("graph.lift", req, || {
            Placement::lift(&coarse, &coarsening.node_map)
        });
        let relative = self.rec.time("sim.reward", req, || {
            spg_sim::reward::relative_throughput_with_rates(graph, &cluster, &placement, &rates)
        });
        (placement.as_slice().to_vec(), relative)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::default();
        rec.open("outer", 1);
        rec.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        rec.close();
        let selfs = rec.self_times();
        let outer = rec.spans[0].end_ns - rec.spans[0].start_ns;
        let inner = rec.spans[1].end_ns - rec.spans[1].start_ns;
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(selfs[0], outer - inner);
        assert_eq!(selfs[1], inner);
        assert!(inner >= 3_000_000);
        assert_eq!(rec.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn flops_grow_with_the_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = CoarsenModel::new(spg_core::CoarsenConfig::default(), &mut rng);
        assert_eq!(encode_flops(&model, 10, 0), 0.0);
        let small = encode_flops(&model, 10, 12);
        let large = encode_flops(&model, 400, 480);
        assert!(small > 0.0 && (large / small - 40.0).abs() < 1.0);
    }
}
