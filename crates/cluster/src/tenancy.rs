//! Multi-tenant scheduling: several independent training jobs sharing one
//! switch fabric's aggregation resources.
//!
//! The paper's deployment model gives the whole in-switch datapath to one
//! training job. Production switches do not have that luxury: many jobs —
//! each with its own model size, strategy, transport, and codec — contend
//! for the same aggregation slots and accumulator bytes (the
//! flexible-switch line of work and SwitchAgg both make this argument).
//! This module generalizes the SwitchML-style slot pool of
//! [`iswitch_core::Accelerator`] into that shared, arbitrated resource.
//!
//! ## Execution model
//!
//! Every tenant runs its *own* [`Simulator`] over its own virtual topology
//! — exactly the simulation its job would run solo — stamped with the
//! tenant's id ([`Simulator::set_tenant`]) so every causal trace event
//! attributes to it. What the tenants share is the *fabric*: a pool of
//! aggregation slots and accumulator bytes ([`FabricConfig`]) arbitrated at
//! fixed simulated-time **epoch barriers**. At each barrier the arbiter
//! harvests every tenant's previous-epoch slot demand
//! ([`iswitch_core::Accelerator::take_demand_peak`]), computes per-tenant
//! grants (guaranteed quota first, then a deterministic water-fill of the
//! leftover toward demand, then the entire remainder split round-robin so
//! the whole pool is always assigned), and installs them on every switch of
//! the tenant's topology. Between barriers a tenant only ever reads its own
//! grant, so tenants can be driven on parallel threads with bit-identical
//! results at any thread count.
//!
//! A tenant whose contribution is denied a slot (grant or byte budget
//! exhausted) completes the round through **host aggregation**: the same
//! codec-native arithmetic in switch DRAM, numerically identical but
//! charged [`iswitch_core::HOST_PATH_LATENCY_FACTOR`]× the datapath
//! latency. Slower, never wrong.
//!
//! ## Elastic churn
//!
//! Tenants drive the paper's §3.2 control actions at production rates:
//! a tenant **joins** when the global clock passes its
//! [`TenantSpec::join_at`] (its local clock starts there, so its artifacts
//! are independent of *when* it joined), **leaves** when its job completes
//! (its guaranteed quota returns to the pool at the next barrier), and
//! **resets** mid-run when [`TenantSpec::reset_at`] schedules a switch
//! restart (a fault-plan timer carrying
//! [`iswitch_core::FAULT_RESET_TOKEN`], after which the workers re-`Join`
//! and recover by retransmission).

use std::sync::Arc;

use iswitch_core::{IswitchExtension, FAULT_RESET_TOKEN};
use iswitch_netsim::{
    FaultAction, FaultPlan, Host, HostApp, LossModel, NodeId, SimDuration, SimTime, Simulator,
    Switch,
};
use iswitch_obs::{JsonValue, Trace};

use crate::apps::{
    AsyncPsServer, AsyncPsWorker, IswAsyncWorker, IswSyncWorker, RingWorker, SyncPsServer,
    SyncPsWorker,
};
use crate::gradient_source::SyntheticGradients;
use crate::timing_runner::{
    append_background, apply_event_limit, attach_trace, build_isw_topology, build_plain_topology,
    capture_metrics, codec_wire_bytes, collect_sync_result, emit_run_meta, grad_len,
    mean_update_interval, messages, model_bytes, server_ip, trace_updates, worker_ips, Breakdown,
    PerfSample, RunObs, Strategy, TimingConfig, TimingObservation, TimingResult,
};
use crate::transport::TransportStats;

/// Guaranteed minimum fabric share of one tenant. Zero means best-effort:
/// the tenant only receives what the demand-driven water-fill and the
/// equal split of the leftover give it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Aggregation slots reserved on every switch of the tenant's
    /// topology, granted before any best-effort distribution.
    pub slots: u32,
    /// Accumulator bytes reserved on every switch of the tenant's
    /// topology.
    pub bytes: usize,
}

/// The shared switch fabric the tenants contend for: per-switch slot and
/// byte pools, and the cadence of the arbitration barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Aggregation slots each physical switch offers across all tenants.
    pub slots: u32,
    /// Accumulator bytes each physical switch offers across all tenants.
    pub buffer_bytes: usize,
    /// Simulated time between arbitration barriers.
    pub epoch: SimDuration,
}

impl Default for FabricConfig {
    fn default() -> Self {
        // Effectively uncontended: pools far larger than any single job
        // uses, so grants never bind unless the caller shrinks them.
        FabricConfig {
            slots: 1 << 16,
            buffer_bytes: 1 << 40,
            epoch: SimDuration::from_millis(10),
        }
    }
}

/// One tenant: a training job plus its fabric share and churn schedule.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable tenant name (artifact file naming).
    pub name: String,
    /// Non-zero tenant id stamped into every causal packet of the
    /// tenant's simulation (standing in for a VLAN/overlay tag). Must be
    /// unique within a [`MultiJobConfig`].
    pub id: u64,
    /// The tenant's training job. `fattree` must be `None`: multi-tenant
    /// runs use the single-simulator topologies (threads parallelize
    /// across tenants instead of across fat-tree pods).
    pub job: TimingConfig,
    /// Guaranteed fabric share.
    pub quota: TenantQuota,
    /// Global simulated time at which the tenant joins (its local clock
    /// starts at this instant; earlier barriers skip it entirely).
    pub join_at: SimDuration,
    /// `Some(t)` restarts every switch of the tenant's topology at local
    /// time `t`: the accelerator state resets (paper §3.2 `Reset`) and
    /// the workers recover via retransmission.
    pub reset_at: Option<SimDuration>,
}

impl TenantSpec {
    /// A tenant running `job` with best-effort quota, joining at time
    /// zero. Enables the host-fallback path — the multi-tenant correctness
    /// contract is *slower but never wrong*, so a denied slot must
    /// complete through host aggregation rather than drop.
    pub fn new(name: impl Into<String>, id: u64, mut job: TimingConfig) -> Self {
        job.host_fallback = true;
        TenantSpec {
            name: name.into(),
            id,
            job,
            quota: TenantQuota::default(),
            join_at: SimDuration::ZERO,
            reset_at: None,
        }
    }

    /// Sets the guaranteed quota.
    pub fn with_quota(mut self, slots: u32, bytes: usize) -> Self {
        self.quota = TenantQuota { slots, bytes };
        self
    }

    /// Sets the join time (elastic churn: the tenant arrives mid-run).
    pub fn with_join_at(mut self, at: SimDuration) -> Self {
        self.join_at = at;
        self
    }

    /// Schedules a switch restart at tenant-local time `at`.
    pub fn with_reset_at(mut self, at: SimDuration) -> Self {
        self.reset_at = Some(at);
        self
    }
}

/// A multi-tenant run: the tenants, the fabric they share, and how many
/// OS threads drive them between barriers.
#[derive(Debug, Clone)]
pub struct MultiJobConfig {
    /// The tenants, in a fixed order that all arbitration follows.
    pub tenants: Vec<TenantSpec>,
    /// The shared fabric.
    pub fabric: FabricConfig,
    /// Worker threads driving tenants between barriers. Results are
    /// byte-identical for every value; more threads only change
    /// wall-clock time.
    pub threads: usize,
}

impl MultiJobConfig {
    /// A run of `tenants` over the default (uncontended) fabric.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        MultiJobConfig {
            tenants,
            fabric: FabricConfig::default(),
            threads: 1,
        }
    }
}

/// One tenant's complete outcome: the same observation a solo
/// [`crate::run_timing_observed`] run would produce, plus the tenant's
/// fabric accounting.
pub struct TenantRun {
    /// Tenant name (from the spec).
    pub name: String,
    /// Tenant id (from the spec).
    pub id: u64,
    /// Summary result, metrics snapshot, and causal trace of the
    /// tenant's job.
    pub observation: TimingObservation,
    /// Raw engine counters of the tenant's simulation.
    pub perf: PerfSample,
    /// Contributions denied an aggregation slot (summed over the
    /// tenant's switches); each completed through the host path instead.
    pub slot_denials: u64,
    /// Rounds that completed through host aggregation.
    pub fallback_rounds: u64,
    /// Rounds that completed on the in-switch datapath.
    pub switch_rounds: u64,
    /// The tenant's local clock when its job finished.
    pub finished_at: SimTime,
}

impl TenantRun {
    /// Fraction of completed rounds that fell back to host aggregation.
    pub fn fallback_fraction(&self) -> f64 {
        let total = self.fallback_rounds + self.switch_rounds;
        if total == 0 {
            0.0
        } else {
            self.fallback_rounds as f64 / total as f64
        }
    }
}

/// Outcome of [`run_multi_tenant`]: per-tenant runs (spec order) plus a
/// fabric-level arbitration report.
pub struct MultiTenantOutcome {
    /// Per-tenant outcomes, in spec order.
    pub tenants: Vec<TenantRun>,
    /// Deterministic JSON summary of the fabric: pool sizes, barriers
    /// executed, and per-tenant demand/grant/denial accounting. This is a
    /// *run-level* artifact — grant values never leak into per-tenant
    /// artifacts, which stay byte-identical to solo runs whenever the
    /// grants never bind.
    pub fabric_report: JsonValue,
}

/// How one tenant's simulation detects completion.
#[derive(Clone, Copy)]
enum Driver {
    /// Synchronous job: done when the event queue empties.
    Sync(SyncKind),
    /// Async parameter server: done when the server has observed the
    /// target number of weight updates. Checked on the same 200 ms
    /// cadence as the solo async driver, so the stop state is identical.
    AsyncPs { server: NodeId, target: usize },
    /// Async iSwitch: done when the probe worker (worker 0) has observed
    /// the target number of updates.
    AsyncIsw { probe: NodeId, target: usize },
}

#[derive(Clone, Copy)]
enum SyncKind {
    Ps,
    Ar,
    Isw,
}

/// The solo async driver's completion-check cadence
/// (`run_async_until`'s slice). Multi-tenant async tenants check
/// completion only at local times that are multiples of this, so they
/// stop in exactly the state their solo run would.
const ASYNC_CHECK: SimDuration = SimDuration::from_millis(200);

/// Hard cap on arbitration barriers (mirrors the solo async driver's
/// 100 000-slice cap; epochs may be much shorter than slices).
const MAX_BARRIERS: u64 = 2_000_000;

/// One tenant's built, drivable simulation.
struct TenantJob {
    name: String,
    id: u64,
    join_at: SimDuration,
    quota: TenantQuota,
    warmup: usize,
    strategy: Strategy,
    sim: Simulator,
    obs: RunObs,
    driver: Driver,
    workers: Vec<NodeId>,
    /// Accelerator-bearing switches (empty for PS/AR tenants, which hold
    /// no fabric resources).
    switches: Vec<NodeId>,
    done: bool,
    local_now: SimTime,
    next_check: SimTime,
    /// Last harvested slot-demand peak (max over the tenant's switches).
    demand: u32,
    /// Maximum demand peak seen over the whole run (reporting).
    demand_max: u32,
    /// Currently installed grants (fabric accounting only).
    grant_slots: u32,
    grant_bytes: usize,
}

impl TenantJob {
    fn contends(&self) -> bool {
        !self.done && !self.switches.is_empty()
    }

    /// Max slot-demand peak over the tenant's switches, re-arming each.
    fn harvest_demand(&mut self) {
        let mut peak = 0;
        for &sw in &self.switches {
            let accel = self
                .sim
                .device_mut::<Switch>(sw)
                .extension_mut::<IswitchExtension>()
                .accelerator_mut();
            peak = peak.max(accel.take_demand_peak());
        }
        self.demand = peak;
        self.demand_max = self.demand_max.max(peak);
    }

    /// Installs `slots`/`bytes` grants on every switch of the tenant.
    fn install_grant(&mut self, slots: u32, bytes: usize) {
        self.grant_slots = slots;
        self.grant_bytes = bytes;
        for &sw in &self.switches {
            self.sim
                .device_mut::<Switch>(sw)
                .extension_mut::<IswitchExtension>()
                .accelerator_mut()
                .set_grant(Some(slots), Some(bytes));
        }
    }

    /// Drives the simulation to local time `deadline`, marking completion.
    fn drive(&mut self, deadline: SimTime) {
        match self.driver {
            Driver::Sync(_) => {
                self.sim.run_until(deadline);
                self.local_now = deadline;
                if self.sim.is_idle() {
                    self.done = true;
                    self.finish();
                }
            }
            Driver::AsyncPs { server, target } => {
                while self.local_now < deadline && !self.done {
                    let step = self.next_check.min(deadline);
                    self.sim.run_until(step);
                    self.local_now = step;
                    if step == self.next_check {
                        let n = self
                            .sim
                            .device::<Host>(server)
                            .app::<AsyncPsServer>()
                            .update_times
                            .len();
                        if n >= target {
                            self.done = true;
                            self.finish();
                        }
                        self.next_check += ASYNC_CHECK;
                    }
                }
            }
            Driver::AsyncIsw { probe, target } => {
                while self.local_now < deadline && !self.done {
                    let step = self.next_check.min(deadline);
                    self.sim.run_until(step);
                    self.local_now = step;
                    if step == self.next_check {
                        let n = self
                            .sim
                            .device::<Host>(probe)
                            .app::<IswAsyncWorker>()
                            .update_times()
                            .len();
                        if n >= target {
                            self.done = true;
                            self.finish();
                        }
                        self.next_check += ASYNC_CHECK;
                    }
                }
            }
        }
    }

    /// Records completion ("leave" churn): the local finish time.
    fn finish(&mut self) {
        self.local_now = self.sim.now();
    }

    /// Sums an accelerator-stat field over the tenant's switches.
    fn sum_accel(&self, f: impl Fn(&iswitch_core::AcceleratorStats) -> u64) -> u64 {
        self.switches
            .iter()
            .map(|&sw| {
                f(self
                    .sim
                    .device::<Switch>(sw)
                    .extension::<IswitchExtension>()
                    .accelerator()
                    .stats())
            })
            .sum()
    }
}

/// Runs a multi-tenant experiment with full observability: every tenant
/// gets its own causal trace and metrics snapshot, exactly as
/// [`crate::run_timing_observed`] would produce solo.
///
/// # Panics
///
/// Panics on invalid configurations: no tenants, duplicate/zero tenant
/// ids, quota sums exceeding the fabric pools, a `fattree` job, or a
/// zero epoch.
pub fn run_multi_tenant(cfg: &MultiJobConfig) -> MultiTenantOutcome {
    run_multi(cfg, true)
}

/// [`run_multi_tenant`] with **no tracing attached**: the packet hot path
/// runs exactly as in a solo [`crate::run_timing`], so wall-clock time
/// measured around this call is an honest engine benchmark (`perfgate`'s
/// contended-switch cells).
pub fn run_multi_tenant_perf(cfg: &MultiJobConfig) -> MultiTenantOutcome {
    run_multi(cfg, false)
}

fn validate(cfg: &MultiJobConfig) {
    assert!(!cfg.tenants.is_empty(), "a multi-tenant run needs tenants");
    assert!(
        cfg.fabric.epoch > SimDuration::ZERO,
        "the arbitration epoch must be positive"
    );
    let mut ids: Vec<u64> = cfg.tenants.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        cfg.tenants.len(),
        "tenant ids must be unique within a run"
    );
    assert!(
        cfg.tenants.iter().all(|t| t.id != 0),
        "tenant id 0 is reserved for single-tenant runs"
    );
    for t in &cfg.tenants {
        assert!(
            t.job.fattree.is_none(),
            "multi-tenant runs use the single-simulator topologies; \
             threads parallelize across tenants, not fat-tree pods"
        );
    }
    let slot_sum: u64 = cfg.tenants.iter().map(|t| u64::from(t.quota.slots)).sum();
    assert!(
        slot_sum <= u64::from(cfg.fabric.slots),
        "guaranteed slot quotas ({slot_sum}) exceed the fabric pool ({})",
        cfg.fabric.slots
    );
    let byte_sum: u128 = cfg.tenants.iter().map(|t| t.quota.bytes as u128).sum();
    assert!(
        byte_sum <= cfg.fabric.buffer_bytes as u128,
        "guaranteed byte quotas exceed the fabric pool"
    );
}

fn run_multi(cfg: &MultiJobConfig, observed: bool) -> MultiTenantOutcome {
    validate(cfg);
    let mut jobs: Vec<TenantJob> = cfg
        .tenants
        .iter()
        .map(|spec| build_tenant(spec, observed))
        .collect();

    let epoch = cfg.fabric.epoch;
    let mut global = SimDuration::ZERO;
    let mut barriers: u64 = 0;
    // Initial grants (zero demand): quotas plus the equal leftover split,
    // installed before the first event runs so the fabric is never
    // ungated.
    arbitrate(&mut jobs, &cfg.fabric, global + epoch);
    while jobs.iter().any(|j| !j.done) {
        global += epoch;
        barriers += 1;
        assert!(
            barriers <= MAX_BARRIERS,
            "multi-tenant run failed to finish within {MAX_BARRIERS} barriers"
        );
        drive_epoch(&mut jobs, global, cfg.threads.max(1));
        for j in jobs.iter_mut().filter(|j| j.contends()) {
            j.harvest_demand();
        }
        arbitrate(&mut jobs, &cfg.fabric, global + epoch);
    }

    let mut tenants = Vec::with_capacity(jobs.len());
    let mut tenant_rows = Vec::with_capacity(jobs.len());
    for mut j in jobs {
        let result = collect(&mut j);
        let perf = j.obs.perf.take().expect("every tenant captures perf");
        let trace = j.obs.trace.take().unwrap_or_else(|| Arc::new(Trace::new()));
        trace.flush();
        let observation = TimingObservation {
            result,
            metrics: j.obs.metrics.take().unwrap_or_else(JsonValue::empty_object),
            trace,
            timeseries: j.obs.timeseries.take(),
        };
        let slot_denials = j.sum_accel(|s| s.slot_denials);
        let fallback_rounds = j.sum_accel(|s| s.fallback_rounds);
        let switch_rounds = j
            .sum_accel(|s| s.segments_emitted)
            .saturating_sub(fallback_rounds);
        let mut row = JsonValue::empty_object();
        row.insert("name", JsonValue::Str(j.name.clone()));
        row.insert("id", JsonValue::UInt(j.id));
        row.insert("strategy", JsonValue::Str(j.strategy.label().into()));
        row.insert("join_at_ns", JsonValue::UInt(j.join_at.as_nanos()));
        row.insert("finished_at_ns", JsonValue::UInt(j.local_now.as_nanos()));
        row.insert("quota_slots", JsonValue::UInt(u64::from(j.quota.slots)));
        row.insert("quota_bytes", JsonValue::UInt(j.quota.bytes as u64));
        row.insert("grant_slots", JsonValue::UInt(u64::from(j.grant_slots)));
        row.insert("grant_bytes", JsonValue::UInt(j.grant_bytes as u64));
        row.insert("demand_peak", JsonValue::UInt(u64::from(j.demand_max)));
        row.insert("slot_denials", JsonValue::UInt(slot_denials));
        row.insert("fallback_rounds", JsonValue::UInt(fallback_rounds));
        row.insert("switch_rounds", JsonValue::UInt(switch_rounds));
        tenant_rows.push(row);
        tenants.push(TenantRun {
            name: j.name.clone(),
            id: j.id,
            observation,
            perf,
            slot_denials,
            fallback_rounds,
            switch_rounds,
            finished_at: j.local_now,
        });
    }

    let mut fabric = JsonValue::empty_object();
    fabric.insert("slots", JsonValue::UInt(u64::from(cfg.fabric.slots)));
    fabric.insert(
        "buffer_bytes",
        JsonValue::UInt(cfg.fabric.buffer_bytes as u64),
    );
    fabric.insert("epoch_ns", JsonValue::UInt(epoch.as_nanos()));
    fabric.insert("barriers", JsonValue::UInt(barriers));
    let mut report = JsonValue::empty_object();
    report.insert("fabric", fabric);
    report.insert("tenants", JsonValue::Array(tenant_rows));
    MultiTenantOutcome {
        tenants,
        fabric_report: report,
    }
}

/// Drives every joined, unfinished tenant to local time
/// `global - join_at`, partitioned over `threads` OS threads. Each thread
/// touches a disjoint set of tenants and the arbiter only runs at
/// barriers, so results are byte-identical at any thread count.
fn drive_epoch(jobs: &mut [TenantJob], global: SimDuration, threads: usize) {
    fn drive_part(part: &mut [TenantJob], global: SimDuration) {
        for j in part.iter_mut() {
            if j.done || global <= j.join_at {
                continue;
            }
            let deadline = SimTime::ZERO + (global - j.join_at);
            j.drive(deadline);
        }
    }
    if threads <= 1 || jobs.len() <= 1 {
        drive_part(jobs, global);
        return;
    }
    let chunk = jobs.len().div_ceil(threads);
    std::thread::scope(|s| {
        for part in jobs.chunks_mut(chunk) {
            s.spawn(move || drive_part(part, global));
        }
    });
}

/// Computes and installs per-tenant grants for the epoch ending at
/// `horizon`. Contending tenants that will be active during that epoch
/// split the pool: guaranteed quotas first, then a deterministic
/// water-fill of the leftover toward each tenant's harvested demand (in
/// spec order), then the entire remainder round-robin — the pool is
/// always fully assigned, so an uncontended tenant's grant is far above
/// anything it can use and never binds (which is what keeps uncontended
/// multi-tenant runs byte-identical to solo runs).
fn arbitrate(jobs: &mut [TenantJob], fabric: &FabricConfig, horizon: SimDuration) {
    let active: Vec<usize> = jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.contends() && j.join_at < horizon)
        .map(|(i, _)| i)
        .collect();
    if active.is_empty() {
        return;
    }
    let n = active.len() as u64;

    // Slots: quota floor, demand water-fill, then round-robin remainder.
    let mut grant: Vec<u64> = active
        .iter()
        .map(|&i| u64::from(jobs[i].quota.slots))
        .collect();
    let mut want: Vec<u64> = active
        .iter()
        .zip(&grant)
        .map(|(&i, &g)| u64::from(jobs[i].demand).saturating_sub(g))
        .collect();
    let mut leftover = u64::from(fabric.slots) - grant.iter().sum::<u64>();
    loop {
        let unmet = want.iter().filter(|&&w| w > 0).count() as u64;
        if unmet == 0 || leftover == 0 {
            break;
        }
        let share = (leftover / unmet).max(1);
        for k in 0..grant.len() {
            if want[k] == 0 {
                continue;
            }
            let g = share.min(want[k]).min(leftover);
            want[k] -= g;
            grant[k] += g;
            leftover -= g;
            if leftover == 0 {
                break;
            }
        }
    }
    let base = leftover / n;
    let rem = leftover % n;
    for (k, g) in grant.iter_mut().enumerate() {
        *g += base + u64::from((k as u64) < rem);
    }

    // Bytes: quota floor plus the equal split of the leftover (no byte
    // demand signal exists; the slot grant is the contended axis).
    let byte_floor: Vec<usize> = active.iter().map(|&i| jobs[i].quota.bytes).collect();
    let byte_leftover = fabric.buffer_bytes - byte_floor.iter().sum::<usize>();
    let bbase = byte_leftover / n as usize;
    let brem = byte_leftover % n as usize;

    for (k, &i) in active.iter().enumerate() {
        let slots = u32::try_from(grant[k]).unwrap_or(u32::MAX);
        let bytes = byte_floor[k] + bbase + usize::from(k < brem);
        jobs[i].install_grant(slots, bytes);
    }
}

/// Builds one tenant's simulation: the exact build phase its solo runner
/// would execute (same apps, same seeds, same topology, same trace
/// metadata), stopped just short of driving it.
fn build_tenant(spec: &TenantSpec, observed: bool) -> TenantJob {
    let cfg = &{
        let mut cfg = spec.job.clone();
        if let Some(q) = cfg.queue {
            cfg.topo.edge.queue = Some(q);
            cfg.topo.uplink.queue = Some(q);
        }
        cfg
    };
    assert!(
        cfg.workers >= 2,
        "distributed training needs at least two workers"
    );
    assert!(cfg.iterations > 0, "must measure at least one iteration");
    assert!(
        cfg.background_flows == 0 || cfg.workers_per_rack.is_none(),
        "background flows attach to the single-switch star topology"
    );
    let mut obs = RunObs {
        metrics: None,
        want_metrics: observed,
        trace: observed.then(|| Arc::new(Trace::new())),
        timeseries: None,
        perf: None,
    };
    emit_run_meta(cfg, &mut Some(&mut obs));
    let mut job = match cfg.strategy {
        Strategy::SyncPs => build_sync_ps(spec, cfg, &mut obs),
        Strategy::SyncAr => build_sync_ar(spec, cfg, &mut obs),
        Strategy::SyncIsw => build_sync_isw(spec, cfg, &mut obs),
        Strategy::AsyncPs => build_async_ps(spec, cfg, &mut obs),
        Strategy::AsyncIsw => build_async_isw(spec, cfg, &mut obs),
    };
    if let Some(at) = spec.reset_at {
        assert!(
            !job.switches.is_empty(),
            "reset churn targets iSwitch switches; tenant {} has none",
            spec.name
        );
        let mut plan = FaultPlan::new();
        for &sw in &job.switches {
            plan.push(
                SimTime::ZERO + at,
                FaultAction::InjectTimer {
                    node: sw,
                    token: FAULT_RESET_TOKEN,
                },
            );
        }
        job.sim.install_fault_plan(&plan);
    }
    job.obs = obs;
    job
}

/// Shared [`TenantJob`] scaffolding for the per-strategy builders.
fn new_job(spec: &TenantSpec, cfg: &TimingConfig, sim: Simulator, driver: Driver) -> TenantJob {
    TenantJob {
        name: spec.name.clone(),
        id: spec.id,
        join_at: spec.join_at,
        quota: spec.quota,
        warmup: cfg.warmup,
        strategy: cfg.strategy,
        sim,
        // Placeholder: `build_tenant` installs the real capture after the
        // builder returns (the builders only need its trace for
        // `attach_trace`, which they take by parameter instead).
        obs: RunObs {
            metrics: None,
            want_metrics: false,
            trace: None,
            timeseries: None,
            perf: None,
        },
        driver,
        workers: Vec::new(),
        switches: Vec::new(),
        done: false,
        local_now: SimTime::ZERO,
        next_check: SimTime::ZERO + ASYNC_CHECK,
        demand: 0,
        demand_max: 0,
        grant_slots: 0,
        grant_bytes: 0,
    }
}

fn build_sync_ps(spec: &TenantSpec, cfg: &TimingConfig, obs: &mut RunObs) -> TenantJob {
    let bytes = model_bytes(cfg.algorithm);
    let model = cfg.compute_model();
    let total_iters = cfg.warmup + cfg.iterations;
    let mut sim = Simulator::new();
    sim.set_tenant(spec.id);
    attach_trace(&mut sim, &Some(obs));
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
    let server = Box::new(SyncPsServer::new(
        worker_ips(cfg),
        bytes,
        messages(cfg.algorithm),
        model,
        cfg.comm.clone(),
        cfg.seed.wrapping_add(0xFF),
    ));
    let (workers, _server) = build_plain_topology(&mut sim, worker_apps, Some(server), cfg);
    let mut job = new_job(spec, cfg, sim, Driver::Sync(SyncKind::Ps));
    job.workers = workers;
    job
}

fn build_sync_ar(spec: &TenantSpec, cfg: &TimingConfig, obs: &mut RunObs) -> TenantJob {
    let bytes = model_bytes(cfg.algorithm);
    let model = cfg.compute_model();
    let total_iters = cfg.warmup + cfg.iterations;
    let ips = worker_ips(cfg);
    let mut sim = Simulator::new();
    sim.set_tenant(spec.id);
    attach_trace(&mut sim, &Some(obs));
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
    let mut job = new_job(spec, cfg, sim, Driver::Sync(SyncKind::Ar));
    job.workers = workers;
    job
}

fn build_sync_isw(spec: &TenantSpec, cfg: &TimingConfig, obs: &mut RunObs) -> TenantJob {
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
    let mut sim = Simulator::new();
    sim.set_tenant(spec.id);
    attach_trace(&mut sim, &Some(obs));
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
    let topo = build_isw_topology(&mut sim, worker_apps, &cfg, len);
    let mut job = new_job(spec, &cfg, sim, Driver::Sync(SyncKind::Isw));
    job.workers = topo.workers;
    job.switches = topo.switches;
    job
}

fn build_async_ps(spec: &TenantSpec, cfg: &TimingConfig, obs: &mut RunObs) -> TenantJob {
    let bytes = model_bytes(cfg.algorithm);
    let model = cfg.compute_model();
    let mut sim = Simulator::new();
    sim.set_tenant(spec.id);
    attach_trace(&mut sim, &Some(obs));
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
    let mut job = new_job(
        spec,
        cfg,
        sim,
        Driver::AsyncPs {
            server: server_node,
            target,
        },
    );
    job.workers = workers;
    job
}

fn build_async_isw(spec: &TenantSpec, cfg: &TimingConfig, obs: &mut RunObs) -> TenantJob {
    let len = grad_len(cfg.algorithm);
    let model = cfg.compute_model();
    let mut sim = Simulator::new();
    sim.set_tenant(spec.id);
    attach_trace(&mut sim, &Some(obs));
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
    let topo = build_isw_topology(&mut sim, worker_apps, cfg, len);
    let probe = topo.workers[0];
    let target = cfg.warmup + cfg.iterations + 1;
    let mut job = new_job(spec, cfg, sim, Driver::AsyncIsw { probe, target });
    job.workers = topo.workers;
    job.switches = topo.switches;
    job
}

/// Collects one finished tenant's [`TimingResult`], mirroring the solo
/// runners' post-run phase (metrics capture first, then per-strategy
/// summarization — the trace-event order solo artifacts have).
fn collect(j: &mut TenantJob) -> TimingResult {
    let mut obs_opt = Some(&mut j.obs);
    capture_metrics(&j.sim, &mut obs_opt);
    let warmup = j.warmup;
    match j.driver {
        Driver::Sync(SyncKind::Ps) => collect_sync_result::<SyncPsWorker>(
            &mut j.sim,
            &j.workers,
            warmup,
            obs_opt,
            |a| a.log(),
            |a| a.transport_stats(),
        ),
        Driver::Sync(SyncKind::Ar) => collect_sync_result::<RingWorker>(
            &mut j.sim,
            &j.workers,
            warmup,
            obs_opt,
            |a| a.log(),
            |a| a.transport_stats(),
        ),
        Driver::Sync(SyncKind::Isw) => collect_sync_result::<IswSyncWorker>(
            &mut j.sim,
            &j.workers,
            warmup,
            obs_opt,
            |a| a.log(),
            |a| a.transport_stats(),
        ),
        Driver::AsyncPs { server, .. } => {
            let transport = j.workers.iter().fold(TransportStats::default(), |acc, &w| {
                acc.merged(
                    j.sim
                        .device::<Host>(w)
                        .app::<AsyncPsWorker>()
                        .transport_stats(),
                )
            });
            let app = j.sim.device::<Host>(server).app::<AsyncPsServer>();
            trace_updates(&mut obs_opt, &app.update_times, warmup);
            let (per_iteration, measured) = mean_update_interval(&app.update_times, warmup);
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
        Driver::AsyncIsw { probe, .. } => {
            let mut staleness = Vec::new();
            let mut transport = TransportStats::default();
            for &w in &j.workers {
                let app = j.sim.device::<Host>(w).app::<IswAsyncWorker>();
                staleness.extend_from_slice(app.staleness());
                transport = transport.merged(app.transport_stats());
            }
            let app = j.sim.device::<Host>(probe).app::<IswAsyncWorker>();
            trace_updates(&mut obs_opt, app.update_times(), warmup);
            let (per_iteration, measured) = mean_update_interval(app.update_times(), warmup);
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iswitch_rl::Algorithm;

    fn quick(alg: Algorithm, strategy: Strategy) -> TimingConfig {
        let mut cfg = TimingConfig::main_cluster(alg, strategy);
        cfg.iterations = 6;
        cfg.warmup = 2;
        cfg
    }

    /// Per-tenant artifacts: the full observation report plus the trace.
    fn artifacts(out: &MultiTenantOutcome) -> Vec<(String, String)> {
        out.tenants
            .iter()
            .map(|t| {
                (
                    t.observation.report_json().render(),
                    t.observation.trace.to_jsonl(),
                )
            })
            .collect()
    }

    #[test]
    fn uncontended_tenants_match_their_solo_runs_byte_for_byte() {
        // The tentpole isolation claim: when quotas never bind, a tenant
        // sharing the fabric produces artifacts byte-identical to the
        // same job running alone on a dedicated switch.
        let a = TenantSpec::new("ppo-isw", 1, quick(Algorithm::Ppo, Strategy::SyncIsw));
        let b = TenantSpec::new("dqn-async", 2, quick(Algorithm::Dqn, Strategy::AsyncIsw));
        let shared = run_multi_tenant(&MultiJobConfig::new(vec![a.clone(), b.clone()]));
        let solo_a = run_multi_tenant(&MultiJobConfig::new(vec![a]));
        let solo_b = run_multi_tenant(&MultiJobConfig::new(vec![b]));
        let shared_art = artifacts(&shared);
        assert_eq!(shared_art[0], artifacts(&solo_a)[0], "tenant A perturbed");
        assert_eq!(shared_art[1], artifacts(&solo_b)[0], "tenant B perturbed");
        assert_eq!(shared.tenants[0].slot_denials, 0);
        assert_eq!(shared.tenants[1].slot_denials, 0);
    }

    #[test]
    fn contended_fabric_denies_slots_and_still_completes() {
        // Two iSwitch jobs on a fabric with almost no slots: rounds fall
        // back to host aggregation (slower, never dropped) and every
        // iteration still completes.
        let mut cfg = MultiJobConfig::new(vec![
            TenantSpec::new("t1", 1, quick(Algorithm::Ppo, Strategy::SyncIsw)),
            TenantSpec::new("t2", 2, quick(Algorithm::A2c, Strategy::SyncIsw)),
        ]);
        cfg.fabric.slots = 2;
        let out = run_multi_tenant(&cfg);
        let denials: u64 = out.tenants.iter().map(|t| t.slot_denials).sum();
        let fallbacks: u64 = out.tenants.iter().map(|t| t.fallback_rounds).sum();
        assert!(denials > 0, "a 2-slot fabric must deny some contributions");
        assert!(
            fallbacks > 0,
            "denied rounds must complete on the host path"
        );
        for t in &out.tenants {
            assert!(
                t.observation.result.iterations_measured > 0,
                "{}: contention lost iterations",
                t.name
            );
        }
    }

    #[test]
    fn contended_tree_run_covers_all_five_strategies() {
        // Acceptance criterion: a contended run over tree-topology tenants
        // completes under all five strategies, with per-tenant artifacts
        // byte-identical run-twice and across 1/2/4 driver threads.
        let mk = |threads: usize| {
            let tree = |alg, strat| {
                let mut cfg = quick(alg, strat);
                cfg.workers_per_rack = Some(3);
                cfg
            };
            let mut cfg = MultiJobConfig::new(vec![
                TenantSpec::new("sync-isw", 1, tree(Algorithm::Ppo, Strategy::SyncIsw))
                    .with_quota(8, 1 << 20),
                TenantSpec::new("async-isw", 2, tree(Algorithm::Dqn, Strategy::AsyncIsw)),
                TenantSpec::new("sync-ps", 3, tree(Algorithm::A2c, Strategy::SyncPs)),
                TenantSpec::new("sync-ar", 4, tree(Algorithm::Ddpg, Strategy::SyncAr)),
                TenantSpec::new("async-ps", 5, quick(Algorithm::Ppo, Strategy::AsyncPs)),
            ]);
            cfg.fabric.slots = 16; // well under the two isw tenants' joint demand
            cfg.threads = threads;
            cfg
        };
        let base = run_multi_tenant(&mk(1));
        assert!(
            base.tenants.iter().any(|t| t.slot_denials > 0),
            "the 16-slot fabric should be contended"
        );
        for t in &base.tenants {
            assert!(
                t.observation.result.iterations_measured > 0,
                "{}: no iterations measured under contention",
                t.name
            );
        }
        let base_art = artifacts(&base);
        let again = run_multi_tenant(&mk(1));
        assert_eq!(base_art, artifacts(&again), "run-twice artifacts differ");
        for threads in [2, 4] {
            let out = run_multi_tenant(&mk(threads));
            assert_eq!(
                base_art,
                artifacts(&out),
                "artifacts differ at {threads} threads"
            );
            assert_eq!(
                base.fabric_report.render(),
                out.fabric_report.render(),
                "fabric report differs at {threads} threads"
            );
        }
    }

    #[test]
    fn contended_run_is_deterministic_and_thread_invariant() {
        let mk = |threads: usize| {
            let mut cfg = MultiJobConfig::new(vec![
                TenantSpec::new("t1", 1, quick(Algorithm::Ppo, Strategy::SyncIsw)),
                TenantSpec::new("t2", 2, quick(Algorithm::A2c, Strategy::SyncIsw))
                    .with_quota(2, 1 << 20),
            ]);
            cfg.fabric.slots = 4;
            cfg.threads = threads;
            cfg
        };
        let base = run_multi_tenant(&mk(1));
        let again = run_multi_tenant(&mk(1));
        assert_eq!(
            artifacts(&base),
            artifacts(&again),
            "run-twice artifacts differ"
        );
        assert_eq!(
            base.fabric_report.render(),
            again.fabric_report.render(),
            "run-twice fabric reports differ"
        );
        for threads in [2, 4] {
            let t = run_multi_tenant(&mk(threads));
            assert_eq!(
                artifacts(&base),
                artifacts(&t),
                "threads=1 vs threads={threads} differ"
            );
        }
    }

    #[test]
    fn churn_join_leave_reset_completes() {
        // Tenant 2 joins 50 ms in, tenant 1 restarts its switch mid-run
        // (paper §3.2 Reset); both finish and measure every iteration.
        let cfg = MultiJobConfig::new(vec![
            TenantSpec::new("steady", 1, quick(Algorithm::Ppo, Strategy::SyncIsw))
                .with_reset_at(SimDuration::from_millis(40)),
            TenantSpec::new("late", 2, quick(Algorithm::A2c, Strategy::SyncIsw))
                .with_join_at(SimDuration::from_millis(50)),
        ]);
        let out = run_multi_tenant(&cfg);
        for t in &out.tenants {
            assert!(t.observation.result.iterations_measured > 0, "{}", t.name);
        }
    }

    #[test]
    fn late_join_artifacts_are_join_time_invariant() {
        // A tenant's artifacts depend on its own local clock, not on when
        // it joined the shared fabric (when quotas never bind).
        let job = quick(Algorithm::Ppo, Strategy::SyncIsw);
        let steady = TenantSpec::new("steady", 1, quick(Algorithm::Dqn, Strategy::SyncIsw));
        let at_zero = MultiJobConfig::new(vec![
            steady.clone(),
            TenantSpec::new("late", 2, job.clone()),
        ]);
        let late = MultiJobConfig::new(vec![
            steady,
            TenantSpec::new("late", 2, job).with_join_at(SimDuration::from_millis(70)),
        ]);
        let a = run_multi_tenant(&at_zero);
        let b = run_multi_tenant(&late);
        assert_eq!(
            artifacts(&a)[1],
            artifacts(&b)[1],
            "join time leaked into the tenant's artifacts"
        );
    }

    #[test]
    fn ps_and_ar_tenants_hold_no_fabric_resources() {
        let mut cfg = MultiJobConfig::new(vec![
            TenantSpec::new("ps", 1, quick(Algorithm::Ppo, Strategy::SyncPs)),
            TenantSpec::new("ar", 2, quick(Algorithm::Ppo, Strategy::SyncAr)),
            TenantSpec::new("isw", 3, quick(Algorithm::Ppo, Strategy::SyncIsw)),
        ]);
        cfg.fabric.slots = 8;
        let out = run_multi_tenant(&cfg);
        // Host-side strategies never touch the slot pool.
        assert_eq!(out.tenants[0].slot_denials, 0);
        assert_eq!(out.tenants[1].slot_denials, 0);
        for t in &out.tenants {
            assert!(t.observation.result.iterations_measured > 0, "{}", t.name);
        }
    }

    #[test]
    fn quota_shields_a_small_tenant_from_a_leaky_neighbour() {
        // Both-ways test of the isolation invariant's mechanism: a
        // slot-leaking neighbour inflates its demand and soaks up the
        // best-effort pool. Without a guaranteed quota the victim's
        // rounds get denied; with one they never are.
        // The A2c job's demand grows without bound once it leaks; the Ppo
        // victim peaks at ~29 concurrent rounds, so a 32-slot quota on a
        // 40-slot fabric covers it while the leak soaks the best-effort rest.
        let mut leaky_job = quick(Algorithm::A2c, Strategy::SyncIsw);
        leaky_job.slot_leak_bug = true;
        let victim_job = quick(Algorithm::Ppo, Strategy::SyncIsw);

        let mut unprotected = MultiJobConfig::new(vec![
            TenantSpec::new("leaky", 1, leaky_job.clone()),
            TenantSpec::new("victim", 2, victim_job.clone()),
        ]);
        unprotected.fabric.slots = 40;
        let out = run_multi_tenant(&unprotected);
        assert!(
            out.tenants[1].slot_denials > 0,
            "without a quota the leak should starve the victim"
        );

        let mut protected = MultiJobConfig::new(vec![
            TenantSpec::new("leaky", 1, leaky_job),
            TenantSpec::new("victim", 2, victim_job).with_quota(32, 1 << 24),
        ]);
        protected.fabric.slots = 40;
        let out = run_multi_tenant(&protected);
        assert_eq!(
            out.tenants[1].slot_denials, 0,
            "a guaranteed quota must shield the victim"
        );
    }
}
