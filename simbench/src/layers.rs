//! The traced run: a counted, an untraced and a traced pass of the
//! workload, the layer probes, and the per-layer metrics built from them.

use std::collections::BTreeMap;

use iswitch_cluster::{Strategy, TransportKind};
use iswitch_core::CodecKind;
use iswitch_obs::JsonValue;
use iswitch_rl::{paper_model, Algorithm};

use crate::expect::Checker;
use crate::host::Stopwatch;
use crate::probes::{self, Fabric};
use crate::spans::Recorder;
use crate::workloads::{self, execute, Counts, Job, SubRun, PARALLEL_THREADS};
use crate::{print_result, run_pass, Metric, Pass, BYTES_PER_MB};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("netsim.events", "count"),
    ("netsim.packets_sent", "count"),
    ("netsim.packets_delivered", "count"),
    ("netsim.ecn_marked", "count"),
    ("netsim.dropped_queue", "count"),
    ("netsim.delivery_ratio", "ratio"),
    ("netsim.events_per_cpu_s", "1/s"),
    ("netsim.fwd_ns_per_event", "ns"),
    ("shard.epochs", "count"),
    ("shard.barrier_stall_ms", "ms"),
    ("shard.events_per_epoch", "count"),
    ("shard.cpu_t2_over_t1", "ratio"),
    ("core.ingest_ns_per_pkt.f32", "ns"),
    ("core.ingest_ns_per_pkt.fixed-point", "ns"),
    ("core.ingest_ns_per_pkt.block-float", "ns"),
    ("core.ingest_ns_per_pkt.top-k", "ns"),
    ("core.encode_ns_per_seg.f32", "ns"),
    ("core.encode_ns_per_seg.fixed-point", "ns"),
    ("core.encode_ns_per_seg.block-float", "ns"),
    ("core.encode_ns_per_seg.top-k", "ns"),
    ("core.ns_per_event.f32", "ns"),
    ("core.ns_per_event.fixed-point", "ns"),
    ("core.ns_per_event.block-float", "ns"),
    ("core.ns_per_event.top-k", "ns"),
    ("apps.ns_per_event.ps", "ns"),
    ("apps.ns_per_event.ar", "ns"),
    ("apps.ns_per_event.isw", "ns"),
    ("apps.ns_per_event.async-ps", "ns"),
    ("apps.ns_per_event.async-isw", "ns"),
    ("transport.help_requests", "count"),
    ("transport.nacks_sent", "count"),
    ("transport.retransmits", "count"),
    ("transport.ecn_echoes", "count"),
    ("transport.rate_cuts", "count"),
    ("transport.retransmit_ratio", "ratio"),
    ("transport.nack_cpu_over_goback", "ratio"),
    ("tenancy.slot_denials", "count"),
    ("tenancy.fallback_rounds", "count"),
    ("tenancy.switch_rounds", "count"),
    ("tenancy.switch_round_ratio", "ratio"),
    ("tenancy.ns_per_event_over_solo", "ratio"),
    ("rl.grad_ms.ppo", "ms"),
    ("rl.grad_ms.a2c", "ms"),
    ("rl.grad_ms.dqn", "ms"),
    ("rl.grad_ms.ddpg", "ms"),
    ("tensor.matmul_ns", "ns"),
    ("cosim.sim_share", "ratio"),
    ("cosim.agg_rel_err", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("obs.trace_bytes_per_event", "B"),
    ("mem.allocs_per_event", "count"),
    ("mem.peak_live_mb_per_worker", "MB"),
];

/// Packets every host sends in the forwarding probe.
const FWD_PACKETS: u32 = 2_000;

/// CPU time each gradient probe runs for, at least.
const GRAD_PROBE_NS: u64 = 100_000_000;

/// Per-layer values, plus the reason for each metric left unmeasured.
struct Layers {
    values: BTreeMap<String, f64>,
    unmeasured: BTreeMap<&'static str, &'static str>,
}

impl Layers {
    fn set(&mut self, name: impl Into<String>, v: f64) {
        let name = name.into();
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, v);
    }

    fn skip(&mut self, prefix: &str, why: &'static str) {
        for (n, _) in PER_LAYER {
            if n.starts_with(prefix) && !self.values.contains_key(n) {
                self.unmeasured.entry(n).or_insert(why);
            }
        }
    }
}

fn ns_per_event(cpu_ns: u64, events: u64) -> f64 {
    cpu_ns as f64 / events.max(1) as f64
}

/// The traced run of `workload`; prints the per-layer table and the
/// result line, and writes the spans to `simbench-out/`.
pub fn traced(
    workload: &str,
    seed: u64,
    setup_s: f64,
    runs: Vec<SubRun>,
    mut checker: Checker,
    corrupt: bool,
) {
    if corrupt {
        checker.corrupt();
    }
    // `memory` counts allocations (and warms up), `a` is untraced and `b`
    // traced; the timing metrics come from `b`, its cost from `b` vs `a`.
    let memory = run_pass(&runs, &mut checker, true, None);
    let a = run_pass(&runs, &mut checker, false, None);
    let mut rec = Recorder::new();
    let root = rec.enter("workload", workload);
    let b = run_pass(&runs, &mut checker, false, Some(&mut rec));
    let mut attempted = 3 * runs.len();
    let mut failed = memory.failed() + a.failed() + b.failed();
    let mut l = Layers {
        values: BTreeMap::new(),
        unmeasured: BTreeMap::new(),
    };

    // Thread identity: the sharded and multi-tenant workloads on
    // `PARALLEL_THREADS` threads must give the 1-thread fingerprints.
    let mut cpu_parallel = BTreeMap::new();
    if matches!(workload, "fattree-incast" | "tenant-churn") {
        for (i, run) in runs.iter().enumerate() {
            let parallel = run.with_threads(PARALLEL_THREADS);
            let id = rec.enter("identity.parallel", &run.name);
            let sw = Stopwatch::start();
            let result = execute(&parallel.job);
            cpu_parallel.insert(run.name.clone(), sw.stop().cpu_ns);
            rec.exit(id, Vec::new());
            attempted += 1;
            let same = matches!((&result, &a.subs[i].result),
                (Ok(x), Ok(y)) if x.fingerprint == y.fingerprint);
            if !same {
                eprintln!(
                    "FAIL {}: fingerprint differs at {PARALLEL_THREADS} threads",
                    run.name
                );
                failed += 1;
            }
        }
    }

    let mut total = Counts::default();
    for m in &b.subs {
        if let Ok(o) = &m.result {
            total.add(&o.counts);
        }
    }
    let cpu_b: u64 = b.subs.iter().map(|m| m.elapsed.cpu_ns).sum();
    let sub = |name: &str| -> Option<(u64, Counts)> {
        let i = runs.iter().position(|r| r.name == name)?;
        let m = &b.subs[i];
        Some((m.elapsed.cpu_ns, m.result.as_ref().ok()?.counts))
    };

    // netsim, transport and mem counts from the traced pass.
    if workload != "cosim-train" {
        l.set("netsim.events", total.events as f64);
        l.set("netsim.packets_sent", total.packets_sent as f64);
        l.set("netsim.packets_delivered", total.packets_delivered as f64);
        l.set("netsim.ecn_marked", total.ecn_marked as f64);
        l.set("netsim.dropped_queue", total.dropped_queue as f64);
        l.set(
            "netsim.delivery_ratio",
            total.packets_delivered as f64 / total.packets_sent.max(1) as f64,
        );
        l.set(
            "netsim.events_per_cpu_s",
            total.events as f64 / (cpu_b.max(1) as f64 / 1e9),
        );
        let t = total.transport;
        l.set("transport.help_requests", t.help_requests as f64);
        l.set("transport.nacks_sent", t.nacks_sent as f64);
        l.set("transport.retransmits", t.retransmits as f64);
        l.set("transport.ecn_echoes", t.ecn_echoes as f64);
        l.set("transport.rate_cuts", t.rate_cuts as f64);
        l.set(
            "transport.retransmit_ratio",
            t.retransmits as f64 / total.packets_sent.max(1) as f64,
        );
        let allocs: u64 = memory.subs.iter().map(|m| m.alloc.calls).sum();
        l.set(
            "mem.allocs_per_event",
            allocs as f64 / total.events.max(1) as f64,
        );
    }
    let per_worker = runs
        .iter()
        .zip(&memory.subs)
        .map(|(r, m)| m.alloc.peak_live as f64 / BYTES_PER_MB / r.workers() as f64)
        .fold(0.0, f64::max);
    l.set("mem.peak_live_mb_per_worker", per_worker);

    // Forwarding through the workload's fabric, no switch extension.
    let fabric = match workload {
        "tree3-strategies" => Fabric::Tree3,
        "fattree-incast" => Fabric::Fattree,
        "tenant-churn" => Fabric::Star(4),
        _ => Fabric::Star(3),
    };
    let fwd = rec.time("probe.netsim.forwarding", &format!("{fabric:?}"), || {
        probes::forwarding(fabric, FWD_PACKETS)
    });
    l.set(
        "netsim.fwd_ns_per_event",
        ns_per_event(fwd.cpu_ns, fwd.events),
    );

    // Sharded engine.
    if workload == "fattree-incast" {
        l.set("shard.epochs", total.epochs as f64);
        l.set(
            "shard.barrier_stall_ms",
            total.barrier_stall_ns as f64 / 1e6,
        );
        l.set(
            "shard.events_per_epoch",
            total.events as f64 / total.epochs.max(1) as f64,
        );
        let goback = TransportKind::GoBack.to_string();
        if let (Some((cpu1, _)), Some(cpu2)) = (sub(&goback), cpu_parallel.get(&goback)) {
            l.set("shard.cpu_t2_over_t1", *cpu2 as f64 / cpu1.max(1) as f64);
        }
        if let (Some((nack, _)), Some((gb, _))) =
            (sub(&TransportKind::Nack.to_string()), sub(&goback))
        {
            l.set(
                "transport.nack_cpu_over_goback",
                nack as f64 / gb.max(1) as f64,
            );
        }
    }
    if workload == "tenant-churn" {
        if let (Some((cpu1, _)), Some(cpu2)) = (sub("x4"), cpu_parallel.get("x4")) {
            l.set("shard.cpu_t2_over_t1", *cpu2 as f64 / cpu1.max(1) as f64);
        }
    }

    // Switch datapath and codecs.
    let (alg, fan_in) = match workload {
        "tree3-strategies" => (Some(Algorithm::A2c), 2),
        "fattree-incast" => (Some(Algorithm::Dqn), 2),
        "tenant-churn" => (Some(Algorithm::Dqn), 4),
        _ => (None, 3),
    };
    let len = match alg {
        Some(a) => paper_model(a).param_count(),
        None => workloads::COSIM_RUNS
            .iter()
            .map(|&(a, _, _, _)| probes::lite_gradient(a, seed).len())
            .max()
            .expect("co-simulation runs"),
    };
    let real = probes::lite_gradient(Algorithm::Dqn, seed);
    for codec in CodecKind::ALL {
        let name = codec.label();
        let per_round = codec.num_segments(len) * fan_in;
        let rounds = 40_000usize.div_ceil(per_round).clamp(2, 64) as u32;
        let ns = rec.time("probe.core.ingest", name, || {
            probes::ingest_ns_per_pkt(codec, len, fan_in, rounds)
        });
        l.set(format!("core.ingest_ns_per_pkt.{name}"), ns);
        let segs = real.len().div_ceil(codec.codec().elems_per_segment());
        let reps = 20_000usize.div_ceil(segs).max(1) as u32;
        let ns = rec.time("probe.core.encode", name, || {
            probes::encode_ns_per_seg(codec, &real, reps)
        });
        l.set(format!("core.encode_ns_per_seg.{name}"), ns);
    }
    match workload {
        "tree3-strategies" => {
            for codec in CodecKind::ALL {
                let name = match codec {
                    CodecKind::F32 => "isw".to_owned(),
                    c => format!("isw/{c}"),
                };
                if let Some((cpu, c)) = sub(&name) {
                    l.set(
                        format!("core.ns_per_event.{}", codec.label()),
                        ns_per_event(cpu, c.events),
                    );
                }
            }
            for s in ["ps", "ar", "isw", "async-ps", "async-isw"] {
                if let Some((cpu, c)) = sub(s) {
                    l.set(
                        format!("apps.ns_per_event.{s}"),
                        ns_per_event(cpu, c.events),
                    );
                }
            }
        }
        "fattree-incast" => {
            if let Some((cpu, c)) = sub(&TransportKind::GoBack.to_string()) {
                l.set("core.ns_per_event.f32", ns_per_event(cpu, c.events));
            }
        }
        "tenant-churn" => {
            if let Some((cpu, c)) = sub("x4") {
                l.set("core.ns_per_event.f32", ns_per_event(cpu, c.events));
            }
        }
        _ => {}
    }

    // Tenancy: the contended run against each job run alone.
    if workload == "tenant-churn" {
        l.set("tenancy.slot_denials", total.slot_denials as f64);
        l.set("tenancy.fallback_rounds", total.fallback_rounds as f64);
        l.set("tenancy.switch_rounds", total.switch_rounds as f64);
        l.set(
            "tenancy.switch_round_ratio",
            total.switch_rounds as f64
                / (total.switch_rounds + total.fallback_rounds).max(1) as f64,
        );
        let (mut solo_cpu, mut solo_events) = (0u64, 0u64);
        for spec in workloads::tenant_config(seed).tenants {
            let id = rec.enter("probe.tenancy.solo", &spec.name);
            let sw = Stopwatch::start();
            let out = execute(&Job::Timing(spec.job));
            solo_cpu += sw.stop().cpu_ns;
            let events = out.map(|o| o.counts.events).unwrap_or(0);
            solo_events += events;
            rec.exit(id, vec![("events", events)]);
        }
        if let Some((cpu, c)) = sub("x4") {
            l.set(
                "tenancy.ns_per_event_over_solo",
                ns_per_event(cpu, c.events) / ns_per_event(solo_cpu, solo_events),
            );
        }
    }

    // RL gradients and the tensor kernel under them.
    let mut grad = BTreeMap::new();
    for (alg, name) in workloads::TENANT_ALGS {
        let ms = rec.time("probe.rl.compute_gradient", name, || {
            probes::grad_ms(alg, seed, GRAD_PROBE_NS)
        });
        grad.insert(name, ms);
        l.set(format!("rl.grad_ms.{name}"), ms);
    }
    let mm = rec.time("probe.tensor.matmul", "64x256x256", || {
        probes::matmul_ns(64, 256, 256, 200)
    });
    l.set("tensor.matmul_ns", mm);

    if workload == "cosim-train" {
        let mut grad_ms_total = 0.0;
        let mut errs = Vec::new();
        for (run, m) in runs.iter().zip(&b.subs) {
            let (Job::Cosim(cfg), Ok(o)) = (&run.job, &m.result) else {
                continue;
            };
            let name = workloads::TENANT_ALGS
                .iter()
                .find(|(a, _)| *a == cfg.algorithm)
                .map(|(_, n)| *n)
                .expect("every algorithm is listed");
            grad_ms_total += grad[name] * o.gradient_calls as f64;
            if cfg.codec != CodecKind::F32 {
                errs.extend(o.ref_error);
            }
        }
        l.set(
            "cosim.sim_share",
            1.0 - grad_ms_total / (cpu_b as f64 / 1e6),
        );
        if !errs.is_empty() {
            l.set(
                "cosim.agg_rel_err",
                errs.iter().sum::<f64>() / errs.len() as f64,
            );
        }
    }

    // Tracing cost on a shortened copy of the workload's first iSwitch
    // sub-run.
    let obs_cfg = match workload {
        "tree3-strategies" => Some(workloads::tree3_config(
            Strategy::SyncIsw,
            CodecKind::F32,
            seed,
        )),
        "fattree-incast" => Some(workloads::incast_config(TransportKind::GoBack, seed)),
        "tenant-churn" => Some(workloads::tenant_config(seed).tenants[2].job.clone()),
        _ => None,
    };
    if let Some(mut cfg) = obs_cfg {
        cfg.iterations = 1;
        cfg.warmup = 1;
        let cost = rec.time("probe.obs.trace", "observed-vs-perf", || {
            probes::trace_cost(&cfg)
        });
        l.set("obs.trace_overhead", cost.overhead);
        l.set("obs.trace_bytes_per_event", cost.bytes_per_event);
    }

    rec.exit(root, vec![("events", total.events)]);

    if workload == "cosim-train" {
        let why = "run_cosim exposes no engine counters and has no traced variant";
        for prefix in [
            "netsim.events",
            "netsim.packets",
            "netsim.ecn",
            "netsim.dropped",
        ] {
            l.skip(prefix, why);
        }
        for prefix in [
            "netsim.delivery",
            "transport.",
            "obs.",
            "mem.allocs",
            "core.ns_per",
        ] {
            l.skip(prefix, why);
        }
    }
    if workload == "tenant-churn" {
        let why = "tenancy couples per-tenant simulators, not ShardedSim domains";
        for prefix in ["shard.epochs", "shard.barrier", "shard.events"] {
            l.skip(prefix, why);
        }
    }
    if matches!(workload, "tree3-strategies" | "cosim-train") {
        l.skip("shard.", "the workload runs one simulator on one thread");
    }
    l.skip("", "this workload does not run the layer");

    let overhead = b.wall_ns() as f64 / a.wall_ns().max(1) as f64 - 1.0;
    report(
        workload, seed, setup_s, &a, &b, overhead, &rec, &l, attempted, failed,
    );
}

#[allow(clippy::too_many_arguments)]
fn report(
    workload: &str,
    seed: u64,
    setup_s: f64,
    a: &Pass,
    b: &Pass,
    overhead: f64,
    rec: &Recorder,
    l: &Layers,
    attempted: usize,
    failed: usize,
) {
    println!(
        "simbench {workload} seed {seed:#x} traced: untraced pass {:.4} s, traced pass {:.4} s \
         (recorder overhead {:+.2}%), setup {:.4} s",
        a.wall_ns() as f64 / 1e9,
        b.wall_ns() as f64 / 1e9,
        overhead * 100.0,
        setup_s
    );
    println!("{:<36} {:>6} {:>16}", "per-layer metric", "unit", "value");
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = l.values.get(name).copied().unwrap_or(0.0);
        match l.unmeasured.get(name) {
            Some(why) => println!("{name:<36} {unit:>6} {:>16}  not measured: {why}", "-"),
            None => println!("{name:<36} {unit:>6} {value:>16.6}"),
        }
        metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
        });
    }

    let mut doc = JsonValue::empty_object();
    doc.insert("workload", JsonValue::Str(workload.to_owned()));
    doc.insert("seed", JsonValue::UInt(seed));
    doc.insert("recorder_overhead", JsonValue::Float(overhead));
    let mut per_layer = JsonValue::empty_object();
    for m in &metrics {
        if !l.unmeasured.contains_key(m.name.as_str()) {
            per_layer.insert(&m.name, JsonValue::Float(m.value));
        }
    }
    doc.insert("per_layer", per_layer);
    let mut not = JsonValue::empty_object();
    for (n, why) in &l.unmeasured {
        not.insert(n, JsonValue::Str((*why).to_owned()));
    }
    doc.insert("not_measured", not);
    doc.insert("spans", rec.to_json(workload));
    let dir = std::path::Path::new("simbench-out");
    let path = dir.join(format!("trace-{workload}-{seed:x}.json"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.render())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("simbench: cannot write {}: {e}", path.display()),
    }
    print_result(failed == 0, attempted, failed, &metrics);
}
