//! The four workloads: what each sub-run calls, and the fingerprint and
//! counters read back from its public result types.

use std::panic::{catch_unwind, AssertUnwindSafe};

use iswitch_cluster::{
    run_cosim, run_multi_tenant_perf, run_timing_perf, CosimConfig, MultiJobConfig, PerfSample,
    Strategy, TenantSpec, TimingConfig, TransportKind, TransportStats,
};
use iswitch_core::CodecKind;
use iswitch_netsim::{FattreeShape, SimDuration};
use iswitch_rl::Algorithm;

/// Workload names, in report order.
pub const NAMES: [&str; 4] = [
    "tree3-strategies",
    "fattree-incast",
    "tenant-churn",
    "cosim-train",
];

/// The sharded fat-tree of `fattree-incast`: 4 pods of 2 racks of 2 hosts.
pub const FATTREE_SHAPE: FattreeShape = FattreeShape {
    aggs: 4,
    racks_per_agg: 2,
    hosts_per_rack: 2,
};

/// Threads of the traced run's parallel copy of `fattree-incast` and
/// `tenant-churn`. Their timed passes run on one thread: on a 2-vCPU
/// shared host the 2-thread wall time spread up to 42 % between runs
/// whenever the hypervisor stole time from either vCPU.
pub const PARALLEL_THREADS: usize = 2;

/// One call into the simulator. A workload holds a handful, so the
/// variants' size difference costs nothing.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Job {
    /// `run_timing_perf`.
    Timing(TimingConfig),
    /// `run_multi_tenant_perf`.
    Tenants(MultiJobConfig),
    /// `run_cosim`.
    Cosim(CosimConfig),
}

/// A named sub-run of a workload.
#[derive(Clone)]
pub struct SubRun {
    /// Name, unique within the workload (`ps`, `go-back`, `ppo/f32`, ...).
    pub name: String,
    /// The call.
    pub job: Job,
}

impl SubRun {
    /// Training workers the sub-run simulates.
    pub fn workers(&self) -> usize {
        match &self.job {
            Job::Timing(cfg) => cfg.workers,
            Job::Tenants(cfg) => cfg.tenants.iter().map(|t| t.job.workers).sum(),
            Job::Cosim(cfg) => cfg.workers,
        }
    }

    /// The same sub-run driven by `threads` host threads.
    pub fn with_threads(&self, threads: usize) -> SubRun {
        let mut s = self.clone();
        match &mut s.job {
            Job::Timing(cfg) => cfg.threads = threads,
            Job::Tenants(cfg) => cfg.threads = threads,
            Job::Cosim(_) => {}
        }
        s
    }
}

/// Engine counters of a sub-run, summed over its simulations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub events: u64,
    pub packets_sent: u64,
    pub packets_delivered: u64,
    pub ecn_marked: u64,
    pub dropped_queue: u64,
    pub epochs: u64,
    pub barrier_stall_ns: u64,
    pub transport: TransportStats,
    pub slot_denials: u64,
    pub fallback_rounds: u64,
    pub switch_rounds: u64,
}

impl Counts {
    fn add_perf(&mut self, p: &PerfSample, t: TransportStats) {
        self.events += p.events;
        self.packets_sent += p.packets_sent;
        self.packets_delivered += p.packets_delivered;
        self.ecn_marked += p.ecn_marked;
        self.dropped_queue += p.dropped_queue;
        self.epochs += p.epochs;
        self.barrier_stall_ns += p.barrier_stall_ns;
        self.transport = self.transport.merged(t);
    }

    /// Element-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.packets_sent += o.packets_sent;
        self.packets_delivered += o.packets_delivered;
        self.ecn_marked += o.ecn_marked;
        self.dropped_queue += o.dropped_queue;
        self.epochs += o.epochs;
        self.barrier_stall_ns += o.barrier_stall_ns;
        self.transport = self.transport.merged(o.transport);
        self.slot_denials += o.slot_denials;
        self.fallback_rounds += o.fallback_rounds;
        self.switch_rounds += o.switch_rounds;
    }
}

/// What a sub-run returned: its fingerprint and counters.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Deterministic summary compared against the expected value.
    pub fingerprint: String,
    /// Engine counters (zero for co-simulation, which exposes none).
    pub counts: Counts,
    /// `CosimResult::ref_error_mean`, for quantized co-simulation.
    pub ref_error: Option<f64>,
    /// Gradient computations a co-simulation made (workers × iterations).
    pub gradient_calls: u64,
}

fn timing_fingerprint(p: &PerfSample, per_iteration_ns: u64) -> String {
    format!(
        "events={} packets_sent={} packets_delivered={} sim_ns={} per_iteration_ns={}",
        p.events, p.packets_sent, p.packets_delivered, p.sim_ns, per_iteration_ns
    )
}

/// FNV-1a over the bit patterns of `values`.
fn hash_f32s(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Runs one sub-run. A panic inside the simulator is caught and returned
/// as `Err` with its message, so it counts as a failed sub-run.
pub fn execute(job: &Job) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| execute_inner(job))).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned())
    })
}

fn execute_inner(job: &Job) -> Outcome {
    let mut out = Outcome::default();
    match job {
        Job::Timing(cfg) => {
            let (result, perf) = run_timing_perf(cfg);
            out.counts.add_perf(&perf, result.transport);
            out.fingerprint = timing_fingerprint(&perf, result.per_iteration.as_nanos());
        }
        Job::Tenants(cfg) => {
            let run = run_multi_tenant_perf(cfg);
            let mut parts = Vec::new();
            for t in &run.tenants {
                out.counts.add_perf(&t.perf, t.observation.result.transport);
                out.counts.slot_denials += t.slot_denials;
                out.counts.fallback_rounds += t.fallback_rounds;
                out.counts.switch_rounds += t.switch_rounds;
                parts.push(format!(
                    "{}:{}",
                    t.name,
                    timing_fingerprint(&t.perf, t.observation.result.per_iteration.as_nanos())
                        .replace(' ', ",")
                ));
            }
            out.fingerprint = parts.join(" ");
        }
        Job::Cosim(cfg) => {
            let r = run_cosim(cfg);
            out.ref_error = r.ref_error_mean;
            out.gradient_calls = (r.iterations * cfg.workers) as u64;
            out.fingerprint = format!(
                "iterations={} updates={} reward_bits={:08x} ref_error_bits={:016x} params_fnv={:016x}",
                r.iterations,
                r.updates,
                r.final_average_reward.to_bits(),
                r.ref_error_mean.map_or(0, f64::to_bits),
                hash_f32s(&r.params),
            );
        }
    }
    out
}

const STRATEGIES: [(Strategy, &str); 5] = [
    (Strategy::SyncPs, "ps"),
    (Strategy::SyncAr, "ar"),
    (Strategy::SyncIsw, "isw"),
    (Strategy::AsyncPs, "async-ps"),
    (Strategy::AsyncIsw, "async-isw"),
];

/// The 8-worker ToR/AGG/Core tree of `tree3-strategies`.
pub fn tree3_config(strategy: Strategy, codec: CodecKind, seed: u64) -> TimingConfig {
    let mut cfg = TimingConfig::main_cluster(Algorithm::A2c, strategy);
    cfg.workers = 8;
    cfg.workers_per_rack = Some(2);
    cfg.racks_per_agg = Some(2);
    cfg.iterations = 5;
    cfg.warmup = 1;
    cfg.codec = codec;
    cfg.seed = seed;
    cfg
}

/// Perfgate's `incast/{kind}/t1` cell: DQN SyncIsw on the sharded
/// fat-tree with shallow ECN queues and synchronized flushes.
pub fn incast_config(kind: TransportKind, seed: u64) -> TimingConfig {
    let mut cfg = TimingConfig::incast(Algorithm::Dqn, Strategy::SyncIsw, kind);
    cfg.fattree = Some(FATTREE_SHAPE);
    cfg.workers = FATTREE_SHAPE.workers();
    cfg.iterations = 3;
    cfg.warmup = 1;
    cfg.seed = seed;
    cfg
}

/// Algorithms of the tenants, in tenant-id order.
pub const TENANT_ALGS: [(Algorithm, &str); 4] = [
    (Algorithm::Ppo, "ppo"),
    (Algorithm::A2c, "a2c"),
    (Algorithm::Dqn, "dqn"),
    (Algorithm::Ddpg, "ddpg"),
];

/// Four SyncIsw tenants on 4-worker stars sharing a 96-slot fabric. PPO
/// holds a quota, DDPG joins at 40 ms and A2C's switches reset at 60 ms.
pub fn tenant_config(seed: u64) -> MultiJobConfig {
    let specs = TENANT_ALGS
        .iter()
        .enumerate()
        .map(|(i, &(alg, label))| {
            let mut job = TimingConfig::main_cluster(alg, Strategy::SyncIsw);
            job.iterations = 12;
            job.warmup = 2;
            job.seed = seed;
            let spec = TenantSpec::new(label, i as u64 + 1, job);
            match label {
                "ppo" => spec.with_quota(16, 1 << 24),
                "a2c" => spec.with_reset_at(SimDuration::from_millis(60)),
                "ddpg" => spec.with_join_at(SimDuration::from_millis(40)),
                _ => spec,
            }
        })
        .collect();
    let mut cfg = MultiJobConfig::new(specs);
    cfg.fabric.slots = 96;
    cfg
}

/// The lite co-simulation of one algorithm on the 3-worker star, with a
/// fixed iteration budget and no early stop.
pub fn cosim_config(alg: Algorithm, codec: CodecKind, iterations: usize, seed: u64) -> CosimConfig {
    let mut cfg = CosimConfig::lite(alg, Strategy::SyncIsw);
    cfg.iterations = iterations;
    cfg.target_reward = None;
    cfg.codec = codec;
    cfg.seed = seed;
    cfg
}

/// Algorithm, codec and iteration budget of each co-simulation sub-run.
/// The budgets give each sub-run roughly the same host time.
pub const COSIM_RUNS: [(Algorithm, &str, CodecKind, usize); 4] = [
    (Algorithm::Ppo, "ppo", CodecKind::F32, 50),
    (Algorithm::A2c, "a2c", CodecKind::FixedPoint, 1_500),
    (Algorithm::Dqn, "dqn", CodecKind::F32, 500),
    (Algorithm::Ddpg, "ddpg", CodecKind::BlockFloat, 300),
];

/// The sub-runs of `workload` under `seed`, or `None` for an unknown
/// workload name.
pub fn plan(workload: &str, seed: u64) -> Option<Vec<SubRun>> {
    let sub = |name: String, job: Job| SubRun { name, job };
    let runs = match workload {
        "tree3-strategies" => {
            let mut runs: Vec<SubRun> = STRATEGIES
                .iter()
                .map(|&(s, label)| {
                    sub(
                        label.to_owned(),
                        Job::Timing(tree3_config(s, CodecKind::F32, seed)),
                    )
                })
                .collect();
            for codec in [
                CodecKind::FixedPoint,
                CodecKind::BlockFloat,
                CodecKind::TopK,
            ] {
                runs.push(sub(
                    format!("isw/{codec}"),
                    Job::Timing(tree3_config(Strategy::SyncIsw, codec, seed)),
                ));
            }
            runs
        }
        "fattree-incast" => TransportKind::ALL
            .iter()
            .map(|&k| sub(k.to_string(), Job::Timing(incast_config(k, seed))))
            .collect(),
        "tenant-churn" => vec![sub("x4".to_owned(), Job::Tenants(tenant_config(seed)))],
        "cosim-train" => COSIM_RUNS
            .iter()
            .map(|&(alg, label, codec, iterations)| {
                sub(
                    format!("{label}/{codec}"),
                    Job::Cosim(cosim_config(alg, codec, iterations, seed)),
                )
            })
            .collect(),
        _ => return None,
    };
    Some(runs)
}
