//! Timing-mode experiments: paper-sized gradient traffic through the
//! packet-level simulator, measuring steady-state per-iteration time and
//! its component breakdown for every strategy of the paper's evaluation.

use std::io::Write;
use std::sync::Arc;

use iswitch_core::{
    AggregationMode, AggregationRole, CodecKind, ExtensionConfig, IswitchExtension,
};
use iswitch_netsim::{
    build_fattree, build_star, build_tree, build_tree3, host_ip, EgressQueue, Fattree,
    FattreeShape, Host, HostApp, LinkId, LinkSpec, LossModel, NodeId, PortId, ShardedSim,
    SimDuration, SimTime, Simulator, SwitchExtension, SwitchRole, TopologyConfig,
};
use iswitch_obs::{JsonValue, Timeseries, Trace, TraceEvent};
use iswitch_rl::{paper_model, Algorithm};
use serde::{Deserialize, Serialize};

use crate::apps::{
    AsyncPsServer, AsyncPsWorker, BackgroundFlow, IswAsyncWorker, IswSyncWorker, IterSpans,
    RingWorker, SyncPsServer, SyncPsWorker,
};
use crate::compute_model::{CommCosts, ComputeModel};
use crate::gradient_source::SyntheticGradients;
use crate::transport::{make_transport, TransportKind, TransportStats};

/// A distributed-training strategy from the paper's evaluation (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Synchronous centralized parameter server (baseline "PS").
    SyncPs,
    /// Synchronous Ring-AllReduce ("AR").
    SyncAr,
    /// Synchronous in-switch aggregation ("iSW").
    SyncIsw,
    /// Asynchronous parameter server ("Async PS").
    AsyncPs,
    /// Asynchronous in-switch aggregation with the three-stage pipeline
    /// ("Async iSW").
    AsyncIsw,
}

impl Strategy {
    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::SyncPs => "PS",
            Strategy::SyncAr => "AR",
            Strategy::SyncIsw => "iSW",
            Strategy::AsyncPs => "Async PS",
            Strategy::AsyncIsw => "Async iSW",
        }
    }

    /// Whether this is an asynchronous strategy.
    pub fn is_async(self) -> bool {
        matches!(self, Strategy::AsyncPs | Strategy::AsyncIsw)
    }
}

/// Configuration of one timing experiment.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Benchmark algorithm (fixes the model size and compute model).
    pub algorithm: Algorithm,
    /// Strategy under test.
    pub strategy: Strategy,
    /// Number of training workers.
    pub workers: usize,
    /// `Some(k)` builds the two-layer ToR/Core tree with `k` workers per
    /// rack (paper §5.3 uses 3); `None` builds the single-switch star.
    pub workers_per_rack: Option<usize>,
    /// With `workers_per_rack` set, `Some(f)` inserts an aggregation
    /// switch layer grouping `f` racks per AGG (the full three-level
    /// hierarchy of Fig. 10). `None` keeps ToRs directly under the core.
    pub racks_per_agg: Option<usize>,
    /// Iterations to measure (after warmup).
    pub iterations: usize,
    /// Iterations discarded as warmup.
    pub warmup: usize,
    /// Physical network parameters.
    pub topo: TopologyConfig,
    /// Host software costs.
    pub comm: CommCosts,
    /// Staleness bound `S` for asynchronous strategies.
    pub staleness_bound: u32,
    /// Output-scheduling ablation for iSwitch strategies (the paper's
    /// design is on-the-fly; Fig. 8a's conventional scheme for comparison).
    pub aggregation_mode: AggregationMode,
    /// Overrides the aggregation threshold `H` on iSwitch switches (the
    /// `SetH` partial-aggregation ablation). `None` keeps `H` = children.
    pub threshold_override: Option<u16>,
    /// `Some(shape)` builds the *sharded* fat-tree instead of the
    /// single-simulator topologies: one simulation domain per AGG subtree
    /// plus one for the core, connected by cross-domain AGG↔Core uplinks
    /// (see [`iswitch_netsim::ShardedSim`]). `workers` must equal
    /// `shape.workers()` and the strategy must be [`Strategy::SyncIsw`].
    /// `workers_per_rack`/`racks_per_agg` are ignored — the shape already
    /// fixes the hierarchy.
    pub fattree: Option<FattreeShape>,
    /// Worker threads driving a sharded (`fattree`) run. Results are
    /// byte-identical for every value; threads > 1 only changes wall-clock
    /// time. Ignored by the single-simulator topologies.
    pub threads: usize,
    /// Per-packet random loss probability on edge links (failure
    /// injection). iSwitch workers recover via `Help`/`FBcast`.
    pub edge_loss: f64,
    /// Safety cap on simulator events (panics past it instead of hanging);
    /// `None` = unlimited. Useful when exploring extreme loss regimes
    /// where recovery traffic can compound.
    pub event_limit: Option<u64>,
    /// Wire policy of every worker: reliability and congestion reaction
    /// (`GoBack` reproduces the pre-transport behaviour bit-for-bit).
    pub transport: TransportKind,
    /// `Some(q)` installs a bounded egress queue (tail-drop + ECN marking)
    /// on every edge and uplink direction. `None` keeps the legacy
    /// infinite FIFOs.
    pub queue: Option<EgressQueue>,
    /// Incast workload: zeroes compute jitter so all workers flush their
    /// gradients into the switch simultaneously — the synchronized-burst
    /// pattern that loads egress queues hardest.
    pub incast: bool,
    /// Number of background cross-traffic sources sharing the switch
    /// (star topology only). Each blasts deterministic bursts at a
    /// dedicated sink host appended after the protocol hosts.
    pub background_flows: usize,
    /// Aggregation codec of the iSwitch strategies: how gradient values
    /// are laid out on the wire and summed inside the switch.
    /// [`CodecKind::F32`] reproduces the legacy format bit-for-bit; the
    /// quantized codecs shrink contribution packets (and so serialization
    /// time) at a bounded precision cost. Ignored by the PS/AR baselines,
    /// which aggregate on hosts.
    pub codec: CodecKind,
    /// Host-aggregation fallback for the iSwitch strategies: a contribution
    /// denied an aggregation slot (per-tenant slot grant or buffer budget
    /// exhausted) completes its round through DRAM-resident host aggregation
    /// — numerically identical, but charged
    /// [`iswitch_core::HOST_PATH_LATENCY_FACTOR`]× the datapath latency —
    /// instead of being dropped for the transport to recover. Multi-tenant
    /// runs enable this; the default `false` keeps the legacy
    /// drop-on-overflow behaviour bit-for-bit.
    pub host_fallback: bool,
    /// Seeded slot-leak bug on every iSwitch switch (chaos-harness
    /// both-ways testing): completed rounds never release their slot, so
    /// occupancy and demand only grow. Never enable outside
    /// fault-injection tests.
    pub slot_leak_bug: bool,
    /// Seed for compute-time jitter.
    pub seed: u64,
}

impl TimingConfig {
    /// The paper's main-cluster setup: 4 workers on one switch, S = 3.
    pub fn main_cluster(algorithm: Algorithm, strategy: Strategy) -> Self {
        TimingConfig {
            algorithm,
            strategy,
            workers: 4,
            workers_per_rack: None,
            racks_per_agg: None,
            iterations: 30,
            warmup: 3,
            topo: TopologyConfig::default(),
            comm: CommCosts::default(),
            staleness_bound: 3,
            aggregation_mode: AggregationMode::OnTheFly,
            threshold_override: None,
            fattree: None,
            threads: 1,
            edge_loss: 0.0,
            event_limit: None,
            transport: TransportKind::GoBack,
            queue: None,
            incast: false,
            background_flows: 0,
            codec: CodecKind::F32,
            host_fallback: false,
            slot_leak_bug: false,
            seed: 0x5117c4,
        }
    }

    /// The paper-style incast setup: `workers` hosts on one switch with
    /// shallow egress queues, zero compute jitter (all flushes collide),
    /// and the given transport handling the fallout.
    pub fn incast(algorithm: Algorithm, strategy: Strategy, transport: TransportKind) -> Self {
        let mut cfg = TimingConfig::main_cluster(algorithm, strategy);
        cfg.incast = true;
        cfg.queue = Some(EgressQueue::shallow());
        cfg.transport = transport;
        cfg
    }

    /// Whether packets can disappear on edge links (random loss or a
    /// bounded queue that tail-drops), i.e. whether recovery timers and
    /// stale-round flushes must be armed.
    pub fn lossy(&self) -> bool {
        self.edge_loss > 0.0 || self.queue.is_some()
    }

    /// The compute model for this run: per-algorithm calibration, with
    /// jitter zeroed under the incast workload.
    pub(crate) fn compute_model(&self) -> ComputeModel {
        let mut model = ComputeModel::for_algorithm(self.algorithm);
        if self.incast {
            model.jitter = 0.0;
        }
        model
    }

    /// The transport instance every worker of this run gets.
    pub(crate) fn make_transport(&self) -> Box<dyn crate::transport::Transport> {
        make_transport(self.transport, self.topo.edge.bandwidth_bps)
    }
}

/// Mean per-iteration breakdown (the paper's Fig. 4 / Fig. 12 spans).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Breakdown {
    /// Local gradient computing.
    pub compute: SimDuration,
    /// Gradient aggregation (network + in-switch/in-server summation).
    pub aggregation: SimDuration,
    /// Weight update.
    pub update: SimDuration,
}

impl Breakdown {
    /// Total iteration time.
    pub fn total(&self) -> SimDuration {
        self.compute + self.aggregation + self.update
    }

    /// Fraction of the iteration spent in gradient aggregation.
    pub fn aggregation_share(&self) -> f64 {
        self.aggregation.as_secs_f64() / self.total().as_secs_f64()
    }
}

/// Result of one timing experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimingResult {
    /// Mean per-iteration time (sync: worker iteration; async: interval
    /// between weight updates, the paper's §5.2 definition).
    pub per_iteration: SimDuration,
    /// Component breakdown (sync strategies only; async reports totals).
    pub breakdown: Breakdown,
    /// Staleness samples of committed gradients (async strategies).
    pub staleness: Vec<u32>,
    /// Fraction of pushed gradients discarded for exceeding the staleness
    /// bound (async PS only; iSwitch's bound check happens *before* the
    /// commit, so nothing is wasted on the wire).
    pub discard_fraction: f64,
    /// Iterations actually measured.
    pub iterations_measured: usize,
    /// Transport activity summed over all workers: recovery traffic
    /// (`Help`s, NACKs, retransmits) and congestion-control reactions
    /// (ECN echoes seen, rate cuts taken).
    #[serde(default)]
    pub transport: TransportStats,
}

impl TimingResult {
    /// Mean staleness, if async.
    pub fn mean_staleness(&self) -> Option<f64> {
        if self.staleness.is_empty() {
            None
        } else {
            Some(
                self.staleness.iter().map(|&s| s as f64).sum::<f64>() / self.staleness.len() as f64,
            )
        }
    }
}

/// Observability capture accumulated while a timing run executes.
///
/// `trace` is `None` for perf-sampling runs ([`run_timing_perf`]): leaving
/// the simulator's trace sink unset keeps the packet hot path free of any
/// event-assembly cost, so wall-clock measurements reflect the engine, not
/// the instrumentation.
pub(crate) struct RunObs {
    pub(crate) metrics: Option<JsonValue>,
    pub(crate) want_metrics: bool,
    pub(crate) trace: Option<Arc<Trace>>,
    pub(crate) timeseries: Option<Arc<Timeseries>>,
    pub(crate) perf: Option<PerfSample>,
}

/// Raw engine-side counters of one timing run, captured for benchmark
/// harnesses (`perfgate`). All fields are deterministic for a fixed
/// [`TimingConfig`]: they come from the seeded simulation, not the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfSample {
    /// Discrete events processed by the simulator.
    pub events: u64,
    /// Packets handed to links (includes packets dropped by loss/faults).
    pub packets_sent: u64,
    /// Packets delivered to a device callback.
    pub packets_delivered: u64,
    /// Final simulation clock in nanoseconds.
    pub sim_ns: u64,
    /// Packets ECN-CE marked by egress queues.
    #[serde(default)]
    pub ecn_marked: u64,
    /// Packets tail-dropped by full egress queues.
    #[serde(default)]
    pub dropped_queue: u64,
    /// Packets dropped on administratively-down links.
    #[serde(default)]
    pub dropped_link_down: u64,
    /// Simulated nanoseconds domains spent stalled at lookahead barriers
    /// (sharded runs; 0 otherwise).
    #[serde(default)]
    pub barrier_stall_ns: u64,
    /// Lookahead epochs executed (sharded runs; 0 otherwise).
    #[serde(default)]
    pub epochs: u64,
}

/// How the trace of an observed run is captured.
///
/// The default keeps every event in memory (fine for test-sized runs).
/// Long runs should bound the buffer and/or stream to a sink so memory
/// stays flat; the streaming sink sees every event even when the in-memory
/// buffer drops its oldest.
#[derive(Default)]
pub struct TraceOptions {
    /// Maximum events retained in memory (`None` = unbounded). Overflow
    /// evicts the oldest event and bumps the trace's `dropped` counter.
    pub capacity: Option<usize>,
    /// Streaming JSONL sink receiving every event as it is recorded.
    pub stream: Option<Box<dyn Write + Send>>,
    /// Counter-track telemetry sink. When set, the engine samples per-link
    /// queue/ECN/drop tracks on the sink's cadence, the sharded engine adds
    /// per-domain epoch tracks, and workers/switches add transport and
    /// codec tracks (see `iswitch_obs::timeseries`). `None` = no sampling,
    /// zero overhead.
    pub timeseries: Option<Arc<Timeseries>>,
}

/// Machine-readable capture of one timing run: the summary result plus the
/// simulation's full metrics snapshot and the causal trace — run/worker
/// metadata, per-hop packet lifecycle events, worker phase spans
/// (LGC = local gradient computing, GA = gradient aggregation, LWU = local
/// weight update — the paper's Fig. 11 decomposition), switch aggregation
/// windows, and one `iteration`/`update` summary event per iteration.
pub struct TimingObservation {
    /// The summary [`run_timing`] would have returned.
    pub result: TimingResult,
    /// Engine + per-switch metrics snapshot
    /// ([`Simulator::metrics_json`]): link backlog histograms, queue
    /// depths, aggregation latencies, Help/flush counters.
    pub metrics: JsonValue,
    /// The causal trace. Export with [`Trace::to_jsonl`]; events appear in
    /// record order, not sorted by timestamp.
    pub trace: Arc<Trace>,
    /// The counter-track telemetry captured during the run, when
    /// [`TraceOptions::timeseries`] supplied a sink.
    pub timeseries: Option<Arc<Timeseries>>,
}

impl TimingObservation {
    /// Renders the whole observation (minus the trace, which is a separate
    /// JSONL artifact) as one deterministic JSON document.
    pub fn report_json(&self) -> JsonValue {
        let b = &self.result.breakdown;
        let mut stages = JsonValue::empty_object();
        stages.insert("lgc_ns", JsonValue::UInt(b.compute.as_nanos()));
        stages.insert("ga_ns", JsonValue::UInt(b.aggregation.as_nanos()));
        stages.insert("lwu_ns", JsonValue::UInt(b.update.as_nanos()));
        let mut summary = JsonValue::empty_object();
        summary.insert(
            "per_iteration_ns",
            JsonValue::UInt(self.result.per_iteration.as_nanos()),
        );
        summary.insert(
            "iterations_measured",
            JsonValue::UInt(self.result.iterations_measured as u64),
        );
        summary.insert(
            "aggregation_share",
            JsonValue::Float(self.result.breakdown.aggregation_share()),
        );
        summary.insert(
            "discard_fraction",
            JsonValue::Float(self.result.discard_fraction),
        );
        if let Some(s) = self.result.mean_staleness() {
            summary.insert("mean_staleness", JsonValue::Float(s));
        }
        let t = &self.result.transport;
        let mut transport = JsonValue::empty_object();
        transport.insert("help_requests", JsonValue::UInt(t.help_requests));
        transport.insert("nacks_sent", JsonValue::UInt(t.nacks_sent));
        transport.insert("retransmits", JsonValue::UInt(t.retransmits));
        transport.insert("ecn_echoes", JsonValue::UInt(t.ecn_echoes));
        transport.insert("rate_cuts", JsonValue::UInt(t.rate_cuts));
        let mut trace_stats = JsonValue::empty_object();
        trace_stats.insert("recorded", JsonValue::UInt(self.trace.recorded()));
        trace_stats.insert("dropped", JsonValue::UInt(self.trace.dropped()));
        trace_stats.insert("write_errors", JsonValue::UInt(self.trace.write_errors()));
        let mut root = JsonValue::empty_object();
        root.insert("summary", summary);
        root.insert("stages", stages);
        root.insert("transport", transport);
        root.insert("trace", trace_stats);
        if let Some(ts) = &self.timeseries {
            let mut series = JsonValue::empty_object();
            series.insert("interval_ns", JsonValue::UInt(ts.interval_ns()));
            series.insert("tracks", JsonValue::UInt(ts.track_count() as u64));
            series.insert("samples", JsonValue::UInt(ts.sample_count()));
            root.insert("timeseries", series);
        }
        root.insert("metrics", self.metrics.clone());
        root
    }
}

pub(crate) fn model_bytes(alg: Algorithm) -> u64 {
    paper_model(alg).bytes() as u64
}

pub(crate) fn grad_len(alg: Algorithm) -> usize {
    paper_model(alg).param_count()
}

/// Collectives per iteration: one per constituent network (DDPG's dual
/// model aggregates actor and critic separately).
pub(crate) fn messages(alg: Algorithm) -> u64 {
    paper_model(alg).networks.len() as u64
}

/// Splits `workers` into racks of at most `per_rack`.
fn rack_sizes(workers: usize, per_rack: usize) -> Vec<usize> {
    assert!(per_rack > 0);
    let mut left = workers;
    let mut out = Vec::new();
    while left > 0 {
        let take = left.min(per_rack);
        out.push(take);
        left -= take;
    }
    out
}

/// Runs one timing experiment.
///
/// # Panics
///
/// Panics on degenerate configurations (zero workers/iterations).
pub fn run_timing(cfg: &TimingConfig) -> TimingResult {
    dispatch(cfg, None)
}

/// Runs one timing experiment and captures its full observability export
/// (metrics snapshot + per-iteration stage trace) alongside the summary.
///
/// # Panics
///
/// Panics on degenerate configurations (zero workers/iterations).
pub fn run_timing_observed(cfg: &TimingConfig) -> TimingObservation {
    run_timing_observed_with(cfg, TraceOptions::default())
}

/// Like [`run_timing_observed`] with explicit control over trace capture:
/// bound the in-memory buffer and/or stream every event to a JSONL sink.
///
/// # Panics
///
/// Panics on degenerate configurations (zero workers/iterations).
pub fn run_timing_observed_with(cfg: &TimingConfig, opts: TraceOptions) -> TimingObservation {
    let mut trace = match opts.capacity {
        Some(cap) => Trace::bounded(cap),
        None => Trace::new(),
    };
    if let Some(sink) = opts.stream {
        trace = trace.with_writer(sink);
    }
    let mut obs = RunObs {
        metrics: None,
        want_metrics: true,
        trace: Some(Arc::new(trace)),
        timeseries: opts.timeseries,
        perf: None,
    };
    let result = dispatch(cfg, Some(&mut obs));
    let trace = obs.trace.expect("observed runs keep their trace");
    trace.flush();
    TimingObservation {
        result,
        metrics: obs.metrics.unwrap_or_else(JsonValue::empty_object),
        trace,
        timeseries: obs.timeseries,
    }
}

/// Runs one timing experiment and returns the engine's raw event/packet
/// counters alongside the summary, with **no tracing attached**: the packet
/// hot path runs exactly as in [`run_timing`], so wall-clock time measured
/// around this call is an honest engine benchmark. Used by the `perfgate`
/// benchmark gate.
///
/// # Panics
///
/// Panics on degenerate configurations (zero workers/iterations).
pub fn run_timing_perf(cfg: &TimingConfig) -> (TimingResult, PerfSample) {
    let mut obs = RunObs {
        metrics: None,
        want_metrics: false,
        trace: None,
        timeseries: None,
        perf: None,
    };
    let result = dispatch(cfg, Some(&mut obs));
    let perf = obs.perf.expect("every strategy captures a perf sample");
    (result, perf)
}

fn dispatch(cfg: &TimingConfig, mut obs: Option<&mut RunObs>) -> TimingResult {
    assert!(
        cfg.workers >= 2,
        "distributed training needs at least two workers"
    );
    assert!(cfg.iterations > 0, "must measure at least one iteration");
    assert!(
        cfg.background_flows == 0 || (cfg.workers_per_rack.is_none() && cfg.fattree.is_none()),
        "background flows attach to the single-switch star topology"
    );
    // Install the configured egress queue on the physical specs once, so
    // every topology builder below picks it up.
    let cfg = &{
        let mut cfg = cfg.clone();
        if let Some(q) = cfg.queue {
            cfg.topo.edge.queue = Some(q);
            cfg.topo.uplink.queue = Some(q);
        }
        cfg
    };
    if let Some(shape) = cfg.fattree {
        assert_eq!(
            cfg.workers,
            shape.workers(),
            "fat-tree runs derive the worker count from the shape: set \
             workers = aggs * racks_per_agg * hosts_per_rack"
        );
        assert_eq!(
            cfg.strategy,
            Strategy::SyncIsw,
            "the sharded fat-tree currently runs only the SyncIsw strategy"
        );
        emit_run_meta(cfg, &mut obs);
        return run_sync_isw_sharded(cfg, obs);
    }
    emit_run_meta(cfg, &mut obs);
    match cfg.strategy {
        Strategy::SyncPs => run_sync_ps(cfg, obs),
        Strategy::SyncAr => run_sync_ar(cfg, obs),
        Strategy::SyncIsw => run_sync_isw(cfg, obs),
        Strategy::AsyncPs => run_async_ps(cfg, obs),
        Strategy::AsyncIsw => run_async_isw(cfg, obs),
    }
}

/// Builds either a star or a tree over the given worker apps (plus an
/// optional trailing server app placed in the first rack), returning the
/// worker node ids (and the server node id last, when present).
pub(crate) fn build_plain_topology(
    sim: &mut Simulator,
    mut worker_apps: Vec<Box<dyn HostApp>>,
    server_app: Option<Box<dyn HostApp>>,
    cfg: &TimingConfig,
) -> (Vec<iswitch_netsim::NodeId>, Option<iswitch_netsim::NodeId>) {
    match cfg.workers_per_rack {
        None => {
            let has_server = server_app.is_some();
            if let Some(s) = server_app {
                worker_apps.push(s);
            }
            let n_protocol = worker_apps.len();
            append_background(&mut worker_apps, cfg);
            let star = build_star(sim, worker_apps, None, &cfg.topo);
            let mut nodes = star.hosts;
            nodes.truncate(n_protocol);
            let server = if has_server { nodes.pop() } else { None };
            (nodes, server)
        }
        Some(per_rack) => {
            let sizes = rack_sizes(cfg.workers, per_rack);
            let mut apps = worker_apps.into_iter();
            let mut racks: Vec<Vec<Box<dyn HostApp>>> = sizes
                .iter()
                .map(|&k| (0..k).map(|_| apps.next().expect("enough apps")).collect())
                .collect();
            // The PS server joins the first rack (extra port on ToR 0).
            let has_server = server_app.is_some();
            if let Some(s) = server_app {
                racks[0].push(s);
            }
            let tree = build_tree(sim, racks, &mut |_| None, &cfg.topo);
            let mut nodes: Vec<_> = tree.hosts.iter().flatten().copied().collect();
            let server = if has_server {
                // Last host of rack 0 is the server; remove it from the
                // flattened worker list (it sits at index sizes[0]).
                let idx = rack_sizes(cfg.workers, per_rack)[0];
                Some(nodes.remove(idx))
            } else {
                None
            };
            (nodes, server)
        }
    }
}

/// Appends `cfg.background_flows` bursting sources plus one counting sink
/// to a star topology's app list. Sources stagger deterministically off
/// the run seed; the burst budget scales with the run length so the
/// cross traffic spans the measured window yet always drains (the
/// simulator still reaches idle).
pub(crate) fn append_background(apps: &mut Vec<Box<dyn HostApp>>, cfg: &TimingConfig) {
    if cfg.background_flows == 0 {
        return;
    }
    let sink_ip = host_ip(0, apps.len() + cfg.background_flows);
    let bursts = (cfg.warmup + cfg.iterations) as u64 * 8;
    for j in 0..cfg.background_flows {
        apps.push(Box::new(BackgroundFlow::source(
            sink_ip,
            cfg.seed.wrapping_add(j as u64),
            bursts,
        )));
    }
    apps.push(Box::new(BackgroundFlow::sink()));
}

/// The IP a host at flattened position `i` has (accounting for rack layout
/// and the optional server slot).
pub(crate) fn server_ip(cfg: &TimingConfig) -> iswitch_netsim::IpAddr {
    match cfg.workers_per_rack {
        None => host_ip(0, cfg.workers),
        Some(per_rack) => host_ip(0, rack_sizes(cfg.workers, per_rack)[0]),
    }
}

pub(crate) fn collect_sync_result<T: HostApp>(
    sim: &mut Simulator,
    workers: &[iswitch_netsim::NodeId],
    warmup: usize,
    obs: Option<&mut RunObs>,
    log_of: impl Fn(&T) -> &crate::apps::IterLog,
    stats_of: impl Fn(&T) -> TransportStats,
) -> TimingResult {
    let apps: Vec<&T> = workers
        .iter()
        .map(|&w| sim.device::<Host>(w).app::<T>())
        .collect();
    let logs: Vec<&crate::apps::IterLog> = apps.iter().map(|a| log_of(a)).collect();
    let transport = apps
        .iter()
        .fold(TransportStats::default(), |acc, a| acc.merged(stats_of(a)));
    summarize_sync_logs(&logs, warmup, obs, transport)
}

/// Like [`collect_sync_result`] for a sharded fat-tree: workers live in
/// per-pod domains, in the same flattened (pod-major) order.
fn collect_sync_result_sharded<T: HostApp>(
    sharded: &ShardedSim,
    ft: &Fattree,
    warmup: usize,
    obs: Option<&mut RunObs>,
    log_of: impl Fn(&T) -> &crate::apps::IterLog,
    stats_of: impl Fn(&T) -> TransportStats,
) -> TimingResult {
    let apps: Vec<&T> = ft
        .all_hosts()
        .map(|(d, n)| sharded.domain(d).device::<Host>(n).app::<T>())
        .collect();
    let logs: Vec<&crate::apps::IterLog> = apps.iter().map(|a| log_of(a)).collect();
    let transport = apps
        .iter()
        .fold(TransportStats::default(), |acc, a| acc.merged(stats_of(a)));
    summarize_sync_logs(&logs, warmup, obs, transport)
}

/// Folds per-worker iteration logs into the mean breakdown, emitting one
/// `iteration` trace event per logged iteration when a trace is attached.
fn summarize_sync_logs(
    logs: &[&crate::apps::IterLog],
    warmup: usize,
    mut obs: Option<&mut RunObs>,
    transport: TransportStats,
) -> TimingResult {
    let mut spans: Vec<IterSpans> = Vec::new();
    let mut measured = 0;
    for (widx, log) in logs.iter().enumerate() {
        if let Some(trace) = obs.as_deref_mut().and_then(|o| o.trace.as_deref()) {
            for (i, (span, end)) in log.spans().iter().zip(log.end_times()).enumerate() {
                trace.record(
                    TraceEvent::new(end.as_nanos(), "iteration")
                        .with_u64("worker", widx as u64)
                        .with_u64("iter", i as u64)
                        .with_str("phase", if i < warmup { "warmup" } else { "measure" })
                        .with_u64("lgc_ns", span.compute.as_nanos())
                        .with_u64("ga_ns", span.aggregation.as_nanos())
                        .with_u64("lwu_ns", span.update.as_nanos())
                        .with_u64("total_ns", span.total().as_nanos()),
                );
            }
        }
        spans.push(log.mean_after(warmup));
        measured += log.len().saturating_sub(warmup);
    }
    let n = spans.len() as u64;
    let mean = |f: fn(&IterSpans) -> SimDuration| {
        SimDuration::from_nanos(spans.iter().map(|s| f(s).as_nanos()).sum::<u64>() / n)
    };
    let breakdown = Breakdown {
        compute: mean(|s| s.compute),
        aggregation: mean(|s| s.aggregation),
        update: mean(|s| s.update),
    };
    TimingResult {
        per_iteration: breakdown.total(),
        breakdown,
        staleness: Vec::new(),
        discard_fraction: 0.0,
        iterations_measured: measured,
        transport,
    }
}

/// Snapshots the simulation's metrics registry and raw engine counters
/// into the capture, if any.
pub(crate) fn capture_metrics(sim: &Simulator, obs: &mut Option<&mut RunObs>) {
    if let Some(obs) = obs.as_deref_mut() {
        if obs.want_metrics {
            obs.metrics = Some(sim.metrics_json());
        }
        let stats = sim.stats();
        obs.perf = Some(PerfSample {
            events: stats.events_processed,
            packets_sent: stats.packets_sent,
            packets_delivered: stats.packets_delivered,
            sim_ns: sim.now().as_nanos(),
            ecn_marked: stats.packets_ecn_marked,
            dropped_queue: stats.packets_dropped_queue,
            dropped_link_down: stats.packets_dropped_link_down,
            barrier_stall_ns: stats.barrier_stall_ns,
            epochs: stats.epochs,
        });
    }
}

/// [`capture_metrics`] for a sharded run: merged registry, summed engine
/// counters, and the maximum domain clock.
fn capture_metrics_sharded(sharded: &ShardedSim, obs: &mut Option<&mut RunObs>) {
    if let Some(obs) = obs.as_deref_mut() {
        if obs.want_metrics {
            obs.metrics = Some(sharded.metrics_json());
        }
        let stats = sharded.stats();
        obs.perf = Some(PerfSample {
            events: stats.events_processed,
            packets_sent: stats.packets_sent,
            packets_delivered: stats.packets_delivered,
            sim_ns: sharded.now().as_nanos(),
            ecn_marked: stats.packets_ecn_marked,
            dropped_queue: stats.packets_dropped_queue,
            dropped_link_down: stats.packets_dropped_link_down,
            barrier_stall_ns: stats.barrier_stall_ns,
            epochs: stats.epochs,
        });
    }
}

/// Hands the capture's trace and telemetry sinks (if wanted) to the
/// simulator so hosts, links, and switches record causal events and
/// counter tracks as the run executes.
pub(crate) fn attach_trace(sim: &mut Simulator, obs: &Option<&mut RunObs>) {
    if let Some(trace) = obs.as_deref().and_then(|o| o.trace.as_ref()) {
        sim.set_trace(Arc::clone(trace));
    }
    if let Some(ts) = obs.as_deref().and_then(|o| o.timeseries.as_ref()) {
        sim.set_timeseries(Arc::clone(ts));
    }
}

/// Records run-level metadata at the head of the trace: the experiment
/// shape (one `run` event) and the worker index ↔ IPv4 mapping (one
/// `worker` event each) that analyzers use to resolve the `worker`
/// attribute causal events carry (the address as `u32`).
pub(crate) fn emit_run_meta(cfg: &TimingConfig, obs: &mut Option<&mut RunObs>) {
    let Some(trace) = obs.as_deref_mut().and_then(|o| o.trace.as_deref()) else {
        return;
    };
    let mut run_ev = TraceEvent::new(0, "run")
        .with_str("strategy", cfg.strategy.label())
        .with_str("algorithm", &cfg.algorithm.to_string())
        .with_u64("workers", cfg.workers as u64)
        .with_u64("iterations", cfg.iterations as u64)
        .with_u64("warmup", cfg.warmup as u64)
        .with_u64("seed", cfg.seed);
    if cfg.codec != CodecKind::F32 {
        // Only non-default codecs appear: f32 runs keep the exact byte
        // layout of pre-codec trace artifacts.
        run_ev = run_ev.with_str("codec", cfg.codec.label());
    }
    if let Some(shape) = cfg.fattree {
        // Sharded runs only: existing (non-fattree) traces keep their exact
        // byte layout. `threads` is deliberately omitted — artifacts must
        // not depend on how many threads executed the run.
        run_ev = run_ev
            .with_u64("pods", shape.aggs as u64)
            .with_u64("racks_per_pod", shape.racks_per_agg as u64)
            .with_u64("hosts_per_rack", shape.hosts_per_rack as u64);
    }
    trace.record(run_ev);
    for (i, ip) in worker_ips(cfg).iter().enumerate() {
        trace.record(
            TraceEvent::new(0, "worker")
                .with_u64("index", i as u64)
                .with_u64("addr", u64::from(ip.as_u32()))
                .with_str("ip", &ip.to_string()),
        );
    }
    if matches!(cfg.strategy, Strategy::SyncPs | Strategy::AsyncPs) {
        let ip = server_ip(cfg);
        trace.record(
            TraceEvent::new(0, "host")
                .with_str("role", "server")
                .with_u64("addr", u64::from(ip.as_u32()))
                .with_str("ip", &ip.to_string()),
        );
    }
}

fn run_sync_ps(cfg: &TimingConfig, mut obs: Option<&mut RunObs>) -> TimingResult {
    let bytes = model_bytes(cfg.algorithm);
    let model = cfg.compute_model();
    let total_iters = cfg.warmup + cfg.iterations;
    let mut sim = Simulator::new();
    attach_trace(&mut sim, &obs);
    let srv_ip = server_ip(cfg);
    let worker_apps: Vec<Box<dyn HostApp>> = (0..cfg.workers)
        .map(|w| {
            Box::new(
                SyncPsWorker::new(
                    srv_ip,
                    bytes,
                    messages(cfg.algorithm),
                    total_iters,
                    model.clone(),
                    cfg.comm.clone(),
                    cfg.seed.wrapping_add(w as u64),
                )
                .with_transport(cfg.make_transport()),
            ) as Box<dyn HostApp>
        })
        .collect();
    let worker_ips: Vec<_> = worker_ips(cfg);
    let server = Box::new(SyncPsServer::new(
        worker_ips,
        bytes,
        messages(cfg.algorithm),
        model,
        cfg.comm.clone(),
        cfg.seed.wrapping_add(0xFF),
    ));
    let (workers, _server) = build_plain_topology(&mut sim, worker_apps, Some(server), cfg);
    sim.run_until_idle();
    capture_metrics(&sim, &mut obs);
    collect_sync_result::<SyncPsWorker>(
        &mut sim,
        &workers,
        cfg.warmup,
        obs,
        |a| a.log(),
        |a| a.transport_stats(),
    )
}

/// Worker IPs in flattened order for the current layout.
pub(crate) fn worker_ips(cfg: &TimingConfig) -> Vec<iswitch_netsim::IpAddr> {
    if let Some(shape) = cfg.fattree {
        // Pod-major global racks, exactly like build_tree3/build_fattree.
        return (0..shape.racks())
            .flat_map(|r| (0..shape.hosts_per_rack).map(move |i| host_ip(r, i)))
            .collect();
    }
    match cfg.workers_per_rack {
        None => (0..cfg.workers).map(|i| host_ip(0, i)).collect(),
        Some(per_rack) => {
            let sizes = rack_sizes(cfg.workers, per_rack);
            let mut out = Vec::new();
            for (r, &k) in sizes.iter().enumerate() {
                for i in 0..k {
                    out.push(host_ip(r, i));
                }
            }
            out
        }
    }
}

fn run_sync_ar(cfg: &TimingConfig, mut obs: Option<&mut RunObs>) -> TimingResult {
    let bytes = model_bytes(cfg.algorithm);
    let model = cfg.compute_model();
    let total_iters = cfg.warmup + cfg.iterations;
    let ips = worker_ips(cfg);
    let mut sim = Simulator::new();
    attach_trace(&mut sim, &obs);
    let worker_apps: Vec<Box<dyn HostApp>> = (0..cfg.workers)
        .map(|w| {
            Box::new(
                RingWorker::new(
                    w,
                    cfg.workers,
                    ips[(w + 1) % cfg.workers],
                    bytes,
                    messages(cfg.algorithm),
                    total_iters,
                    model.clone(),
                    cfg.comm.clone(),
                    cfg.seed.wrapping_add(w as u64),
                )
                .with_transport(cfg.make_transport()),
            ) as Box<dyn HostApp>
        })
        .collect();
    let (workers, _) = build_plain_topology(&mut sim, worker_apps, None, cfg);
    sim.run_until_idle();
    capture_metrics(&sim, &mut obs);
    collect_sync_result::<RingWorker>(
        &mut sim,
        &workers,
        cfg.warmup,
        obs,
        |a| a.log(),
        |a| a.transport_stats(),
    )
}

/// Bytes one worker pushes per round under `codec` — the serialization
/// term of the recovery/stale-flush timeout formulas. F32 keeps the
/// legacy `len * 4` payload bound exactly (timeout values feed replay
/// identity); the quantized codecs sum their real per-segment packet
/// sizes, so smaller wire formats get proportionally tighter timers.
pub(crate) fn codec_wire_bytes(codec: CodecKind, len: usize) -> usize {
    if codec == CodecKind::F32 {
        return len * 4;
    }
    let elems = codec.elems_per_segment();
    let c = codec.codec();
    let mut bytes = (len / elems) * c.contribution_bytes(elems);
    if !len.is_multiple_of(elems) {
        bytes += c.contribution_bytes(len % elems);
    }
    bytes
}

/// What [`build_isw_topology`] produced: the worker nodes plus the
/// fault-plan targets of the deployment (worker edge links) and every
/// accelerator-bearing switch (grant installation / churn-reset targets).
pub(crate) struct IswTopology {
    /// Worker host nodes in flattened order.
    pub workers: Vec<NodeId>,
    /// Edge link of each worker, index-aligned with `workers`.
    pub worker_links: Vec<LinkId>,
    /// Every switch carrying an [`IswitchExtension`], root-first (core,
    /// then AGGs, then ToRs; a star has just its one switch).
    pub switches: Vec<NodeId>,
}

/// Applies the multi-tenant datapath flags to an extension config: the
/// host-aggregation fallback path and the seeded slot-leak bug. Both
/// default off, leaving single-tenant configs bit-for-bit unchanged.
fn apply_tenant_flags(mut ext_cfg: ExtensionConfig, cfg: &TimingConfig) -> ExtensionConfig {
    if cfg.host_fallback {
        ext_cfg = ext_cfg.with_host_fallback();
    }
    if cfg.slot_leak_bug {
        ext_cfg = ext_cfg.with_slot_leak_bug();
    }
    ext_cfg
}

/// Builds the iSwitch topology (star or tree with accelerators installed)
/// over the given worker apps.
pub(crate) fn build_isw_topology(
    sim: &mut Simulator,
    worker_apps: Vec<Box<dyn HostApp>>,
    cfg: &TimingConfig,
    len: usize,
) -> IswTopology {
    let tune = |mut ext_cfg: ExtensionConfig, cfg: &TimingConfig| {
        ext_cfg.mode = cfg.aggregation_mode;
        ext_cfg.codec = cfg.codec;
        if let Some(h) = cfg.threshold_override {
            ext_cfg.threshold = h;
        }
        if cfg.lossy() {
            // Expire partial rounds stuck on a lost contribution (round
            // tags keep expired flushes from polluting newer rounds).
            let age = SimDuration::serialization(
                codec_wire_bytes(cfg.codec, len),
                cfg.topo.edge.bandwidth_bps,
            ) + SimDuration::from_millis(2);
            ext_cfg.stale_flush = Some(age);
        }
        apply_tenant_flags(ext_cfg, cfg)
    };
    match cfg.workers_per_rack {
        None => {
            // Child ports are the *workers* only: background hosts sit on
            // higher ports and must stay ordinary FIB traffic, never
            // counted toward the aggregation threshold.
            let n = cfg.workers;
            let child_ports: Vec<PortId> = (0..n).map(PortId::new).collect();
            let ext = IswitchExtension::new(tune(ExtensionConfig::for_star(child_ports, len), cfg));
            let star = build_star(sim, worker_apps, Some(Box::new(ext)), &cfg.topo);
            let mut workers = star.hosts;
            workers.truncate(n);
            let mut worker_links = star.host_links;
            worker_links.truncate(n);
            IswTopology {
                workers,
                worker_links,
                switches: vec![star.switch],
            }
        }
        Some(per_rack) => {
            let sizes = rack_sizes(cfg.workers, per_rack);
            let mut apps = worker_apps.into_iter();
            let racks: Vec<Vec<Box<dyn HostApp>>> = sizes
                .iter()
                .map(|&k| (0..k).map(|_| apps.next().expect("enough apps")).collect())
                .collect();
            let n_racks = sizes.len();
            match cfg.racks_per_agg {
                None => {
                    let mut mk_ext = |role: SwitchRole| -> Option<Box<dyn SwitchExtension>> {
                        // The threshold/mode ablations target the
                        // single-switch deployment; hierarchical thresholds
                        // stay child-counts so every level completes
                        // consistently.
                        let ext = match role {
                            SwitchRole::Tor(r) => IswitchExtension::new(apply_tenant_flags(
                                ExtensionConfig::for_tree_level(
                                    AggregationRole::Intermediate {
                                        uplink: PortId::new(sizes[r]),
                                    },
                                    (0..sizes[r]).map(PortId::new).collect(),
                                    len,
                                )
                                .with_codec(cfg.codec),
                                cfg,
                            )),
                            SwitchRole::Core => IswitchExtension::new(apply_tenant_flags(
                                ExtensionConfig::for_tree_level(
                                    AggregationRole::Root,
                                    (0..n_racks).map(PortId::new).collect(),
                                    len,
                                )
                                .with_codec(cfg.codec),
                                cfg,
                            )),
                            SwitchRole::Agg(_) => {
                                unreachable!("two-level trees have no aggregation layer")
                            }
                        };
                        Some(Box::new(ext))
                    };
                    let tree = build_tree(sim, racks, &mut mk_ext, &cfg.topo);
                    let mut switches = vec![tree.core];
                    switches.extend_from_slice(&tree.tors);
                    IswTopology {
                        workers: tree.hosts.into_iter().flatten().collect(),
                        worker_links: tree.host_links.into_iter().flatten().collect(),
                        switches,
                    }
                }
                Some(fanout) => {
                    let fanout = fanout.max(1);
                    let mut racks = racks.into_iter();
                    let mut grouped: Vec<Vec<Vec<Box<dyn HostApp>>>> = Vec::new();
                    let mut group_sizes: Vec<usize> = Vec::new();
                    let mut i = 0;
                    while i < n_racks {
                        let take = fanout.min(n_racks - i);
                        grouped.push((0..take).map(|_| racks.next().expect("racks")).collect());
                        group_sizes.push(take);
                        i += take;
                    }
                    let n_aggs = grouped.len();
                    let mut mk_ext = |role: SwitchRole| -> Option<Box<dyn SwitchExtension>> {
                        let ext = match role {
                            SwitchRole::Tor(r) => IswitchExtension::new(apply_tenant_flags(
                                ExtensionConfig::for_tree_level(
                                    AggregationRole::Intermediate {
                                        uplink: PortId::new(sizes[r]),
                                    },
                                    (0..sizes[r]).map(PortId::new).collect(),
                                    len,
                                )
                                .with_codec(cfg.codec),
                                cfg,
                            )),
                            SwitchRole::Agg(a) => IswitchExtension::new(apply_tenant_flags(
                                ExtensionConfig::for_tree_level(
                                    AggregationRole::Intermediate {
                                        uplink: PortId::new(group_sizes[a]),
                                    },
                                    (0..group_sizes[a]).map(PortId::new).collect(),
                                    len,
                                )
                                .with_codec(cfg.codec),
                                cfg,
                            )),
                            SwitchRole::Core => IswitchExtension::new(apply_tenant_flags(
                                ExtensionConfig::for_tree_level(
                                    AggregationRole::Root,
                                    (0..n_aggs).map(PortId::new).collect(),
                                    len,
                                )
                                .with_codec(cfg.codec),
                                cfg,
                            )),
                        };
                        Some(Box::new(ext))
                    };
                    let tree3 = build_tree3(sim, grouped, &mut mk_ext, &cfg.topo);
                    let mut switches = vec![tree3.core];
                    switches.extend_from_slice(&tree3.aggs);
                    switches.extend(tree3.tors.iter().flatten().copied());
                    IswTopology {
                        workers: tree3.hosts.into_iter().flatten().flatten().collect(),
                        worker_links: tree3.host_links.into_iter().flatten().flatten().collect(),
                        switches,
                    }
                }
            }
        }
    }
}

pub(crate) fn apply_event_limit(sim: &mut Simulator, cfg: &TimingConfig) {
    if let Some(limit) = cfg.event_limit {
        sim.set_event_limit(limit);
    }
}

fn run_sync_isw(cfg: &TimingConfig, mut obs: Option<&mut RunObs>) -> TimingResult {
    let len = grad_len(cfg.algorithm);
    let model = cfg.compute_model();
    let total_iters = cfg.warmup + cfg.iterations;
    let mut cfg = cfg.clone();
    // Loss recovery: retry somewhat after a full round would normally
    // complete (serialization up + broadcast down + jitter headroom).
    // Round tags make premature retries harmless and the worker caps each
    // retry's Help batch, so the timeout only trades recovery latency.
    let help_timeout = SimDuration::serialization(
        codec_wire_bytes(cfg.codec, len),
        cfg.topo.edge.bandwidth_bps,
    ) * 3
        + SimDuration::from_millis(3);
    if cfg.edge_loss > 0.0 {
        cfg.topo.edge.loss = LossModel::Random {
            probability: cfg.edge_loss,
            seed: cfg.seed,
        };
    }
    let mut sim = Simulator::new();
    attach_trace(&mut sim, &obs);
    apply_event_limit(&mut sim, &cfg);
    let synthetic = SyntheticGradients::ones(len);
    let mut worker_apps: Vec<Box<dyn HostApp>> = (0..cfg.workers)
        .map(|w| {
            let mut worker = IswSyncWorker::new(
                &synthetic,
                messages(cfg.algorithm),
                total_iters,
                model.clone(),
                cfg.comm.clone(),
                cfg.seed.wrapping_add(w as u64),
            )
            .with_codec(cfg.codec)
            .with_transport(cfg.make_transport());
            if cfg.lossy() {
                worker = worker.with_help_timeout(help_timeout);
            }
            Box::new(worker) as Box<dyn HostApp>
        })
        .collect();
    append_background(&mut worker_apps, &cfg);
    let workers = build_isw_topology(&mut sim, worker_apps, &cfg, len).workers;
    sim.run_until_idle();
    capture_metrics(&sim, &mut obs);
    collect_sync_result::<IswSyncWorker>(
        &mut sim,
        &workers,
        cfg.warmup,
        obs,
        |a| a.log(),
        |a| a.transport_stats(),
    )
}

/// The AGG↔Core links of the sharded fat-tree: uplink bandwidth with the
/// longer propagation of inter-pod fibre runs (paper §3.4 scales beyond a
/// single rack). The propagation is also the conservative lookahead bound
/// of the sharded engine, so the longer fibre directly widens the parallel
/// epochs.
fn core_uplink_spec(topo: &TopologyConfig) -> LinkSpec {
    let mut spec = topo.uplink.clone();
    spec.propagation = spec.propagation.max(SimDuration::from_micros(5));
    spec
}

/// [`run_sync_isw`] over the sharded fat-tree: one simulation domain per
/// AGG subtree plus the core, executed by `cfg.threads` workers. The
/// switch extensions and port layout match [`build_isw_topology`]'s
/// three-level tree exactly; only the execution is partitioned.
fn run_sync_isw_sharded(cfg: &TimingConfig, mut obs: Option<&mut RunObs>) -> TimingResult {
    let shape = cfg.fattree.expect("sharded runs carry a fat-tree shape");
    let len = grad_len(cfg.algorithm);
    let model = cfg.compute_model();
    let total_iters = cfg.warmup + cfg.iterations;
    let mut cfg = cfg.clone();
    let help_timeout = SimDuration::serialization(
        codec_wire_bytes(cfg.codec, len),
        cfg.topo.edge.bandwidth_bps,
    ) * 3
        + SimDuration::from_millis(3);
    if cfg.edge_loss > 0.0 {
        cfg.topo.edge.loss = LossModel::Random {
            probability: cfg.edge_loss,
            seed: cfg.seed,
        };
    }
    let synthetic = SyntheticGradients::ones(len);
    // Flat worker apps in pod-major order, then grouped into (pod, rack).
    let mut flat: Vec<Box<dyn HostApp>> = (0..shape.workers())
        .map(|w| {
            let mut worker = IswSyncWorker::new(
                &synthetic,
                messages(cfg.algorithm),
                total_iters,
                model.clone(),
                cfg.comm.clone(),
                cfg.seed.wrapping_add(w as u64),
            )
            .with_codec(cfg.codec)
            .with_transport(cfg.make_transport());
            if cfg.lossy() {
                worker = worker.with_help_timeout(help_timeout);
            }
            Box::new(worker) as Box<dyn HostApp>
        })
        .collect();
    let mut apps: Vec<Vec<Vec<Box<dyn HostApp>>>> = Vec::with_capacity(shape.aggs);
    let mut rest = flat.drain(..);
    for _ in 0..shape.aggs {
        let mut pod = Vec::with_capacity(shape.racks_per_agg);
        for _ in 0..shape.racks_per_agg {
            pod.push((&mut rest).take(shape.hosts_per_rack).collect());
        }
        apps.push(pod);
    }
    drop(rest);
    let tune = |mut ext_cfg: ExtensionConfig| {
        ext_cfg.mode = cfg.aggregation_mode;
        ext_cfg.codec = cfg.codec;
        if cfg.lossy() {
            let age = SimDuration::serialization(
                codec_wire_bytes(cfg.codec, len),
                cfg.topo.edge.bandwidth_bps,
            ) + SimDuration::from_millis(2);
            ext_cfg.stale_flush = Some(age);
        }
        apply_tenant_flags(ext_cfg, &cfg)
    };
    let mut mk_ext = |role: SwitchRole| -> Option<Box<dyn SwitchExtension>> {
        let ext = match role {
            SwitchRole::Tor(_) => IswitchExtension::new(tune(ExtensionConfig::for_tree_level(
                AggregationRole::Intermediate {
                    uplink: PortId::new(shape.hosts_per_rack),
                },
                (0..shape.hosts_per_rack).map(PortId::new).collect(),
                len,
            ))),
            SwitchRole::Agg(_) => IswitchExtension::new(tune(ExtensionConfig::for_tree_level(
                AggregationRole::Intermediate {
                    uplink: PortId::new(shape.racks_per_agg),
                },
                (0..shape.racks_per_agg).map(PortId::new).collect(),
                len,
            ))),
            SwitchRole::Core => IswitchExtension::new(tune(ExtensionConfig::for_tree_level(
                AggregationRole::Root,
                (0..shape.aggs).map(PortId::new).collect(),
                len,
            ))),
        };
        Some(Box::new(ext))
    };
    let mut sharded = ShardedSim::new();
    let ft = build_fattree(
        &mut sharded,
        apps,
        &mut mk_ext,
        &cfg.topo,
        &core_uplink_spec(&cfg.topo),
    );
    if let Some(limit) = cfg.event_limit {
        sharded.set_event_limit(limit);
    }
    if let Some(trace) = obs.as_deref().and_then(|o| o.trace.as_ref()) {
        sharded.set_trace(Arc::clone(trace));
    }
    if let Some(ts) = obs.as_deref().and_then(|o| o.timeseries.as_ref()) {
        sharded.set_timeseries(Arc::clone(ts));
    }
    sharded.run(cfg.threads);
    capture_metrics_sharded(&sharded, &mut obs);
    collect_sync_result_sharded::<IswSyncWorker>(
        &sharded,
        &ft,
        cfg.warmup,
        obs,
        |a| a.log(),
        |a| a.transport_stats(),
    )
}

/// Mean interval between consecutive update timestamps after warmup.
pub(crate) fn mean_update_interval(times: &[SimTime], warmup: usize) -> (SimDuration, usize) {
    assert!(
        times.len() > warmup + 1,
        "need more than {warmup} + 1 updates, got {}",
        times.len()
    );
    let tail = &times[warmup..];
    let span = tail.last().expect("non-empty").duration_since(tail[0]);
    let n = tail.len() - 1;
    (span / n as u64, n)
}

/// Runs an open-ended async simulation until `target_updates` have been
/// observed by `count` (or the event cap trips).
fn run_async_until(
    sim: &mut Simulator,
    target_updates: usize,
    mut count: impl FnMut(&mut Simulator) -> usize,
) {
    let slice = SimDuration::from_millis(200);
    let mut t = SimTime::ZERO;
    for _ in 0..100_000 {
        t += slice;
        sim.run_until(t);
        if count(sim) >= target_updates {
            return;
        }
    }
    panic!("async simulation failed to reach {target_updates} updates");
}

/// Emits one `update` event per observed weight-update timestamp.
pub(crate) fn trace_updates(obs: &mut Option<&mut RunObs>, times: &[SimTime], warmup: usize) {
    if let Some(trace) = obs.as_deref_mut().and_then(|o| o.trace.as_deref()) {
        for (i, t) in times.iter().enumerate() {
            let mut ev = TraceEvent::new(t.as_nanos(), "update")
                .with_u64("index", i as u64)
                .with_str("phase", if i < warmup { "warmup" } else { "measure" });
            if i > 0 {
                ev = ev.with_u64("interval_ns", t.duration_since(times[i - 1]).as_nanos());
            }
            trace.record(ev);
        }
    }
}

fn run_async_ps(cfg: &TimingConfig, mut obs: Option<&mut RunObs>) -> TimingResult {
    let bytes = model_bytes(cfg.algorithm);
    let model = cfg.compute_model();
    let mut sim = Simulator::new();
    attach_trace(&mut sim, &obs);
    let srv_ip = server_ip(cfg);
    let worker_apps: Vec<Box<dyn HostApp>> = (0..cfg.workers)
        .map(|w| {
            Box::new(
                AsyncPsWorker::new(
                    srv_ip,
                    bytes,
                    messages(cfg.algorithm),
                    model.clone(),
                    cfg.comm.clone(),
                    cfg.seed.wrapping_add(w as u64),
                    None,
                )
                .with_transport(cfg.make_transport()),
            ) as Box<dyn HostApp>
        })
        .collect();
    let server = Box::new(AsyncPsServer::new(
        bytes,
        messages(cfg.algorithm),
        model,
        cfg.comm.clone(),
        cfg.staleness_bound,
        cfg.seed.wrapping_add(0xFF),
    ));
    let (workers, server_node) = build_plain_topology(&mut sim, worker_apps, Some(server), cfg);
    let server_node = server_node.expect("async PS has a server");
    let target = cfg.warmup + cfg.iterations + 1;
    run_async_until(&mut sim, target, |sim| {
        sim.device::<Host>(server_node)
            .app::<AsyncPsServer>()
            .update_times
            .len()
    });
    capture_metrics(&sim, &mut obs);
    let transport = workers.iter().fold(TransportStats::default(), |acc, &w| {
        acc.merged(
            sim.device::<Host>(w)
                .app::<AsyncPsWorker>()
                .transport_stats(),
        )
    });
    let app = sim.device::<Host>(server_node).app::<AsyncPsServer>();
    trace_updates(&mut obs, &app.update_times, cfg.warmup);
    let (per_iteration, measured) = mean_update_interval(&app.update_times, cfg.warmup);
    let pushed = app.staleness().len() as f64 + app.discarded() as f64;
    TimingResult {
        per_iteration,
        breakdown: Breakdown {
            compute: SimDuration::ZERO,
            aggregation: per_iteration,
            update: SimDuration::ZERO,
        },
        staleness: app.staleness().to_vec(),
        discard_fraction: if pushed > 0.0 {
            app.discarded() as f64 / pushed
        } else {
            0.0
        },
        iterations_measured: measured,
        transport,
    }
}

fn run_async_isw(cfg: &TimingConfig, mut obs: Option<&mut RunObs>) -> TimingResult {
    let len = grad_len(cfg.algorithm);
    let model = cfg.compute_model();
    let mut sim = Simulator::new();
    attach_trace(&mut sim, &obs);
    let synthetic = SyntheticGradients::ones(len);
    let mut worker_apps: Vec<Box<dyn HostApp>> = (0..cfg.workers)
        .map(|w| {
            Box::new(
                IswAsyncWorker::new(
                    &synthetic,
                    messages(cfg.algorithm),
                    model.clone(),
                    cfg.comm.clone(),
                    cfg.staleness_bound,
                    cfg.seed.wrapping_add(w as u64),
                    None,
                )
                .with_codec(cfg.codec)
                .with_transport(cfg.make_transport()),
            ) as Box<dyn HostApp>
        })
        .collect();
    append_background(&mut worker_apps, cfg);
    let workers = build_isw_topology(&mut sim, worker_apps, cfg, len).workers;
    let probe = workers[0];
    let target = cfg.warmup + cfg.iterations + 1;
    run_async_until(&mut sim, target, |sim| {
        sim.device::<Host>(probe)
            .app::<IswAsyncWorker>()
            .update_times()
            .len()
    });
    capture_metrics(&sim, &mut obs);
    let mut staleness = Vec::new();
    let mut transport = TransportStats::default();
    for &w in &workers {
        let app = sim.device::<Host>(w).app::<IswAsyncWorker>();
        staleness.extend_from_slice(app.staleness());
        transport = transport.merged(app.transport_stats());
    }
    let app = sim.device::<Host>(probe).app::<IswAsyncWorker>();
    trace_updates(&mut obs, app.update_times(), cfg.warmup);
    let (per_iteration, measured) = mean_update_interval(app.update_times(), cfg.warmup);
    TimingResult {
        per_iteration,
        breakdown: Breakdown {
            compute: SimDuration::ZERO,
            aggregation: per_iteration,
            update: SimDuration::ZERO,
        },
        staleness,
        discard_fraction: 0.0,
        iterations_measured: measured,
        transport,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(alg: Algorithm, strategy: Strategy) -> TimingConfig {
        let mut cfg = TimingConfig::main_cluster(alg, strategy);
        cfg.iterations = 8;
        cfg.warmup = 2;
        cfg
    }

    #[test]
    fn sync_isw_beats_ps_on_every_benchmark() {
        for alg in Algorithm::ALL {
            let ps = run_timing(&quick(alg, Strategy::SyncPs));
            let isw = run_timing(&quick(alg, Strategy::SyncIsw));
            assert!(
                isw.per_iteration < ps.per_iteration,
                "{alg}: iSW {} !< PS {}",
                isw.per_iteration,
                ps.per_iteration
            );
        }
    }

    #[test]
    fn ar_beats_ps_on_big_models_but_loses_on_small() {
        let ar_dqn = run_timing(&quick(Algorithm::Dqn, Strategy::SyncAr));
        let ps_dqn = run_timing(&quick(Algorithm::Dqn, Strategy::SyncPs));
        assert!(
            ar_dqn.per_iteration < ps_dqn.per_iteration,
            "AR should win on DQN"
        );

        let ar_ppo = run_timing(&quick(Algorithm::Ppo, Strategy::SyncAr));
        let ps_ppo = run_timing(&quick(Algorithm::Ppo, Strategy::SyncPs));
        assert!(
            ar_ppo.per_iteration > ps_ppo.per_iteration,
            "AR should lose on PPO: AR {} vs PS {}",
            ar_ppo.per_iteration,
            ps_ppo.per_iteration
        );
    }

    #[test]
    fn sync_ps_dqn_matches_calibration_anchor() {
        // Table 4: DQN Sync-PS ≈ 81.6 ms/iteration. The simulator should
        // land within 35% of the anchor without per-strategy tuning.
        let r = run_timing(&quick(Algorithm::Dqn, Strategy::SyncPs));
        let ms = r.per_iteration.as_millis_f64();
        assert!(
            (50.0..115.0).contains(&ms),
            "DQN PS per-iteration {ms:.1} ms"
        );
        // Aggregation dominates (Fig. 4).
        assert!(r.breakdown.aggregation_share() > 0.5);
    }

    #[test]
    fn async_isw_updates_faster_than_async_ps_on_dqn() {
        let ps = run_timing(&quick(Algorithm::Dqn, Strategy::AsyncPs));
        let isw = run_timing(&quick(Algorithm::Dqn, Strategy::AsyncIsw));
        assert!(
            isw.per_iteration < ps.per_iteration,
            "async iSW {} !< async PS {}",
            isw.per_iteration,
            ps.per_iteration
        );
    }

    #[test]
    fn async_staleness_respects_bound() {
        let r = run_timing(&quick(Algorithm::Ppo, Strategy::AsyncIsw));
        assert!(!r.staleness.is_empty());
        assert!(
            r.staleness.iter().all(|&s| s <= 3),
            "bound violated: {:?}",
            r.staleness
        );
        let r = run_timing(&quick(Algorithm::Ppo, Strategy::AsyncPs));
        assert!(r.staleness.iter().all(|&s| s <= 3));
    }

    #[test]
    fn tree_topology_runs_all_strategies() {
        for strategy in [
            Strategy::SyncPs,
            Strategy::SyncAr,
            Strategy::SyncIsw,
            Strategy::AsyncPs,
            Strategy::AsyncIsw,
        ] {
            let mut cfg = quick(Algorithm::Ppo, strategy);
            cfg.workers = 6;
            cfg.workers_per_rack = Some(3);
            let r = run_timing(&cfg);
            assert!(r.per_iteration > SimDuration::ZERO, "{strategy:?}");
        }
    }

    #[test]
    fn on_the_fly_beats_store_and_forward() {
        // The in-system version of Fig. 8: conventional aggregation delays
        // the whole result behind the final arrival plus a full summation.
        let mut cfg = quick(Algorithm::A2c, Strategy::SyncIsw);
        let otf = run_timing(&cfg);
        cfg.aggregation_mode = AggregationMode::StoreAndForward;
        let saf = run_timing(&cfg);
        assert!(
            otf.breakdown.aggregation < saf.breakdown.aggregation,
            "on-the-fly {} !< store-and-forward {}",
            otf.breakdown.aggregation,
            saf.breakdown.aggregation
        );
    }

    #[test]
    fn lower_threshold_shortens_async_update_interval() {
        // SetH partial aggregation: H=2 broadcasts after two contributions,
        // so updates land more often than with H=4.
        let mut cfg = quick(Algorithm::Ppo, Strategy::AsyncIsw);
        cfg.threshold_override = Some(2);
        let h2 = run_timing(&cfg);
        cfg.threshold_override = Some(4);
        let h4 = run_timing(&cfg);
        assert!(
            h2.per_iteration < h4.per_iteration,
            "H=2 {} !< H=4 {}",
            h2.per_iteration,
            h4.per_iteration
        );
    }

    #[test]
    fn tight_staleness_bound_forces_discards_on_async_ps() {
        // With S = 0 every gradient computed while another update landed
        // is discarded; with 4 overlapping workers that is most of them.
        let mut cfg = quick(Algorithm::Ppo, Strategy::AsyncPs);
        cfg.staleness_bound = 0;
        let r = run_timing(&cfg);
        assert!(r.staleness.iter().all(|&s| s == 0));
        assert!(
            r.discard_fraction > 0.2,
            "expected heavy discards at S=0, got {:.2}",
            r.discard_fraction
        );

        let mut loose = quick(Algorithm::Ppo, Strategy::AsyncPs);
        loose.staleness_bound = 8;
        let l = run_timing(&loose);
        assert!(l.discard_fraction < r.discard_fraction);
    }

    #[test]
    fn sync_isw_survives_packet_loss() {
        // Failure injection: with Help/FBcast recovery the run completes
        // every iteration, paying a bounded latency overhead.
        let mut cfg = quick(Algorithm::Ppo, Strategy::SyncIsw);
        cfg.edge_loss = 1e-3;
        let lossy = run_timing(&cfg);
        cfg.edge_loss = 0.0;
        let clean = run_timing(&cfg);
        assert_eq!(lossy.iterations_measured, clean.iterations_measured);
        assert!(
            lossy.per_iteration >= clean.per_iteration,
            "loss cannot make iterations faster"
        );
        // Recovery is bounded: even at 1e-3 loss the overhead stays small.
        assert!(
            lossy.per_iteration.as_secs_f64() < 4.0 * clean.per_iteration.as_secs_f64(),
            "recovery overhead too large: {} vs {}",
            lossy.per_iteration,
            clean.per_iteration
        );
    }

    #[test]
    fn three_level_hierarchy_runs_and_stays_close_to_two_level() {
        // 12 workers: 4 racks of 3 under the core (two-level) vs the same
        // racks grouped 2-per-AGG (three-level). One extra switch level
        // costs a couple of hops, not an iteration.
        let mut cfg = quick(Algorithm::Ppo, Strategy::SyncIsw);
        cfg.workers = 12;
        cfg.workers_per_rack = Some(3);
        let two = run_timing(&cfg);
        cfg.racks_per_agg = Some(2);
        let three = run_timing(&cfg);
        assert!(three.per_iteration >= two.per_iteration);
        assert!(
            three.per_iteration.as_secs_f64() < 1.2 * two.per_iteration.as_secs_f64(),
            "an extra level should cost hops, not iterations: {} vs {}",
            three.per_iteration,
            two.per_iteration
        );
    }

    #[test]
    fn sharded_fattree_is_thread_count_invariant() {
        // The tentpole determinism claim at the runner level: the full
        // observability export (summary + merged metrics + merged trace)
        // is byte-identical no matter how many threads executed the run.
        let shape = FattreeShape {
            aggs: 2,
            racks_per_agg: 2,
            hosts_per_rack: 2,
        };
        let mut cfg = quick(Algorithm::Ppo, Strategy::SyncIsw);
        cfg.workers = shape.workers();
        cfg.fattree = Some(shape);
        let mut exports = Vec::new();
        for threads in [1, 2, 4] {
            cfg.threads = threads;
            let obs = run_timing_observed(&cfg);
            assert!(obs.result.per_iteration > SimDuration::ZERO);
            exports.push((obs.report_json().render(), obs.trace.to_jsonl()));
        }
        assert_eq!(exports[0], exports[1], "threads=1 vs threads=2 differ");
        assert_eq!(exports[0], exports[2], "threads=1 vs threads=4 differ");
    }

    /// Steps a SyncIsw run event by event and returns, per switch, the
    /// most aggregates its `Help` cache ever held, plus the root's emitted
    /// segment count.
    fn peak_cached_results(cfg: &TimingConfig) -> (Vec<usize>, u64) {
        let len = grad_len(cfg.algorithm);
        let synthetic = SyntheticGradients::ones(len);
        let apps: Vec<Box<dyn HostApp>> = (0..cfg.workers)
            .map(|w| {
                Box::new(IswSyncWorker::new(
                    &synthetic,
                    messages(cfg.algorithm),
                    cfg.warmup + cfg.iterations,
                    cfg.compute_model(),
                    cfg.comm.clone(),
                    cfg.seed.wrapping_add(w as u64),
                )) as Box<dyn HostApp>
            })
            .collect();
        let mut sim = Simulator::new();
        let switches = build_isw_topology(&mut sim, apps, cfg, len).switches;
        fn accel(sim: &Simulator, sw: NodeId) -> &iswitch_core::Accelerator {
            sim.device::<iswitch_netsim::Switch>(sw)
                .extension::<IswitchExtension>()
                .accelerator()
        }
        let mut peak = vec![0; switches.len()];
        while sim.step() {
            for (peak, &sw) in peak.iter_mut().zip(&switches) {
                *peak = (*peak).max(accel(&sim, sw).cached_results());
            }
        }
        (peak, accel(&sim, switches[0]).stats().segments_emitted)
    }

    #[test]
    fn help_caches_hold_at_most_two_rounds() {
        // Results retire once every child has moved past their round, so
        // a long run keeps the in-flight window, not every round it ran.
        let mut star = quick(Algorithm::Ppo, Strategy::SyncIsw);
        star.iterations = 30;
        let mut tree3 = star.clone();
        tree3.workers = 8;
        tree3.workers_per_rack = Some(2);
        tree3.racks_per_agg = Some(2);
        for (name, cfg) in [("star", star), ("tree3", tree3)] {
            let segments = cfg.codec.num_segments(grad_len(cfg.algorithm));
            let rounds = (cfg.warmup + cfg.iterations) as u64 * messages(cfg.algorithm);
            let (peak, emitted) = peak_cached_results(&cfg);
            assert_eq!(emitted, rounds * segments as u64, "{name}: run incomplete");
            for (sw, &cached) in peak.iter().enumerate() {
                assert!(cached > 0, "{name}: switch {sw} cached nothing");
                assert!(
                    cached <= 2 * segments,
                    "{name}: switch {sw} held {cached} cached results, \
                     more than two rounds of {segments} segments"
                );
            }
        }
    }

    #[test]
    fn sharded_fattree_matches_tree3_iteration_scale() {
        // Same hierarchy, different execution: the sharded fat-tree only
        // lengthens the AGG↔Core fibre (5 µs vs 1 µs propagation), so its
        // per-iteration time must sit within a few percent of the
        // single-simulator three-level tree.
        let shape = FattreeShape {
            aggs: 2,
            racks_per_agg: 2,
            hosts_per_rack: 3,
        };
        let mut sharded = quick(Algorithm::Ppo, Strategy::SyncIsw);
        sharded.workers = shape.workers();
        sharded.fattree = Some(shape);
        let s = run_timing(&sharded);

        let mut tree3 = quick(Algorithm::Ppo, Strategy::SyncIsw);
        tree3.workers = shape.workers();
        tree3.workers_per_rack = Some(shape.hosts_per_rack);
        tree3.racks_per_agg = Some(shape.racks_per_agg);
        let t = run_timing(&tree3);

        let ratio = s.per_iteration.as_secs_f64() / t.per_iteration.as_secs_f64();
        assert!(
            (1.0..1.10).contains(&ratio),
            "sharded {} vs tree3 {} (ratio {ratio:.3})",
            s.per_iteration,
            t.per_iteration
        );
        assert_eq!(s.iterations_measured, t.iterations_measured);
    }

    #[test]
    fn rack_sizes_splits_evenly() {
        assert_eq!(rack_sizes(12, 3), vec![3, 3, 3, 3]);
        assert_eq!(rack_sizes(7, 3), vec![3, 3, 1]);
        assert_eq!(rack_sizes(2, 3), vec![2]);
    }

    #[test]
    fn incast_completes_under_every_transport() {
        // The incast workload (zero jitter, shallow egress queues) must
        // finish every iteration under each reliability scheme, and each
        // run must be deterministic: the same config twice yields a
        // byte-identical performance sample.
        for kind in TransportKind::ALL {
            let mut cfg = TimingConfig::incast(Algorithm::Ppo, Strategy::SyncIsw, kind);
            cfg.iterations = 4;
            cfg.warmup = 1;
            let (result, perf) = run_timing_perf(&cfg);
            assert!(
                result.per_iteration > SimDuration::ZERO,
                "{kind}: incast round never completed"
            );
            assert_eq!(
                result.iterations_measured,
                cfg.iterations * cfg.workers,
                "{kind}: lost iterations under incast"
            );
            let (_, perf2) = run_timing_perf(&cfg);
            assert_eq!(perf, perf2, "{kind}: incast run is not deterministic");
        }
    }

    #[test]
    fn ecn_marks_fire_under_incast_queues() {
        // H workers flushing simultaneously into one shallow egress queue
        // must push occupancy past the ECN threshold: the switch echoes CE
        // marks onto the result path and DCQCN's rate controller reacts.
        let mut cfg = TimingConfig::incast(Algorithm::Ppo, Strategy::SyncIsw, TransportKind::Dcqcn);
        cfg.iterations = 4;
        cfg.warmup = 1;
        let r = run_timing(&cfg);
        assert!(
            r.transport.ecn_echoes > 0,
            "incast onto a shallow queue should produce CE echoes"
        );
        assert!(
            r.transport.rate_cuts > 0,
            "DCQCN must cut its rate on CE echoes"
        );
    }

    #[test]
    fn background_flows_share_links_without_breaking_aggregation() {
        // Cross traffic loads the shared egress links but must never be
        // counted toward the aggregation threshold; the protocol still
        // completes every iteration, only slower (or equal) than unloaded.
        let mut clean = quick(Algorithm::Ppo, Strategy::SyncIsw);
        clean.iterations = 4;
        clean.warmup = 1;
        let unloaded = run_timing(&clean);

        let mut cfg = clean.clone();
        cfg.background_flows = 2;
        let loaded = run_timing(&cfg);
        assert_eq!(loaded.iterations_measured, unloaded.iterations_measured);
        assert!(
            loaded.per_iteration >= unloaded.per_iteration,
            "cross traffic cannot speed the protocol up: {} < {}",
            loaded.per_iteration,
            unloaded.per_iteration
        );
    }

    #[test]
    fn incast_is_thread_count_invariant() {
        // The sharded engine with egress queues: occupancy is computed
        // from sender-side backlog, so the incast workload must stay
        // byte-identical across worker thread counts.
        let shape = FattreeShape {
            aggs: 2,
            racks_per_agg: 2,
            hosts_per_rack: 2,
        };
        for kind in TransportKind::ALL {
            let mut cfg = TimingConfig::incast(Algorithm::Ppo, Strategy::SyncIsw, kind);
            cfg.workers = shape.workers();
            cfg.fattree = Some(shape);
            cfg.iterations = 3;
            cfg.warmup = 1;
            let mut samples = Vec::new();
            for threads in [1, 2, 4] {
                cfg.threads = threads;
                samples.push(run_timing_perf(&cfg).1);
            }
            assert_eq!(samples[0], samples[1], "{kind}: threads=1 vs threads=2");
            assert_eq!(samples[0], samples[2], "{kind}: threads=1 vs threads=4");
        }
    }
}
