//! Layer probes: small programs of the benchmark's own that time one
//! layer's public calls in isolation, sized like the workload that runs
//! them.

use std::any::Any;
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use iswitch_cluster::{run_timing_observed_with, run_timing_perf, TimingConfig, TraceOptions};
use iswitch_core::{Accelerator, AcceleratorConfig, CodecKind, EncodedGradient};
use iswitch_netsim::{
    build_fattree, build_star, build_tree3, host_ip, HostApp, HostCtx, IpAddr, Packet, ShardedSim,
    SimDuration, Simulator, TopologyConfig,
};
use iswitch_obs::Timeseries;
use iswitch_rl::{make_lite_agent, Algorithm, LocalReplica};
use iswitch_tensor::Tensor;

use crate::host::Stopwatch;

/// Deterministic pseudo-random values in `[-1, 1)` (SplitMix64).
pub fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// The fabric a forwarding probe blasts packets through.
#[derive(Debug, Clone, Copy)]
pub enum Fabric {
    /// One switch with this many hosts.
    Star(usize),
    /// The 8-host ToR/AGG/Core tree (2 AGGs × 2 racks × 2 hosts).
    Tree3,
    /// The sharded 16-host fat-tree, run on one thread.
    Fattree,
}

/// Sends a fixed train of packets to one peer at start and drops what
/// arrives. No switch extension sees them: pure forwarding.
struct Blaster {
    peer: IpAddr,
    packets: u32,
}

const BLAST_PAYLOAD: usize = 1_400;

impl HostApp for Blaster {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        for _ in 0..self.packets {
            let pkt =
                Packet::udp(ctx.ip(), self.peer, 9, 9, 0).with_payload(vec![0u8; BLAST_PAYLOAD]);
            ctx.send(pkt);
        }
    }

    fn on_packet(&mut self, _ctx: &mut HostCtx<'_, '_>, _pkt: Packet) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Host apps for `ips`, each sending `packets` packets to the host half
/// the list away.
fn blasters(ips: &[IpAddr], packets: u32) -> Vec<Box<dyn HostApp>> {
    let n = ips.len();
    (0..n)
        .map(|i| {
            Box::new(Blaster {
                peer: ips[(i + n / 2) % n],
                packets,
            }) as Box<dyn HostApp>
        })
        .collect()
}

/// Result of one forwarding probe.
pub struct Forwarding {
    /// Engine events processed.
    pub events: u64,
    /// Host CPU time, ns.
    pub cpu_ns: u64,
}

/// Builds `fabric` from the public topology builders, sends `packets`
/// packets from every host, and runs the engine to idle. Only the run is
/// timed.
pub fn forwarding(fabric: Fabric, packets: u32) -> Forwarding {
    let cfg = TopologyConfig::default();
    let nest = |ips: Vec<IpAddr>, aggs: usize, racks: usize| -> Vec<Vec<Vec<Box<dyn HostApp>>>> {
        let mut apps = blasters(&ips, packets).into_iter();
        (0..aggs)
            .map(|_| {
                (0..racks)
                    .map(|_| apps.by_ref().take(ips.len() / (aggs * racks)).collect())
                    .collect()
            })
            .collect()
    };
    let tree_ips = |aggs: usize, racks: usize, hosts: usize| -> Vec<IpAddr> {
        (0..aggs * racks)
            .flat_map(|r| (0..hosts).map(move |h| host_ip(r, h)))
            .collect()
    };
    match fabric {
        Fabric::Star(n) => {
            let ips: Vec<IpAddr> = (0..n).map(|h| host_ip(0, h)).collect();
            let mut sim = Simulator::new();
            build_star(&mut sim, blasters(&ips, packets), None, &cfg);
            let sw = Stopwatch::start();
            sim.run_until_idle();
            let e = sw.stop();
            Forwarding {
                events: sim.stats().events_processed,
                cpu_ns: e.cpu_ns,
            }
        }
        Fabric::Tree3 => {
            let mut sim = Simulator::new();
            build_tree3(&mut sim, nest(tree_ips(2, 2, 2), 2, 2), &mut |_| None, &cfg);
            let sw = Stopwatch::start();
            sim.run_until_idle();
            let e = sw.stop();
            Forwarding {
                events: sim.stats().events_processed,
                cpu_ns: e.cpu_ns,
            }
        }
        Fabric::Fattree => {
            // The runner's AGG↔Core uplink: 40 GbE with inter-pod fibre.
            let mut core = cfg.uplink.clone();
            core.propagation = core.propagation.max(SimDuration::from_micros(5));
            let mut sharded = ShardedSim::new();
            build_fattree(
                &mut sharded,
                nest(tree_ips(4, 2, 2), 4, 2),
                &mut |_| None,
                &cfg,
                &core,
            );
            let sw = Stopwatch::start();
            sharded.run(1);
            let e = sw.stop();
            Forwarding {
                events: sharded.stats().events_processed,
                cpu_ns: e.cpu_ns,
            }
        }
    }
}

/// Host ns per packet of the switch datapath's ingest: the codec's
/// `decode_meta` plus `Accelerator::ingest_wire`, over `rounds` rounds of
/// `fan_in` workers' encoded `len`-element gradients, arriving
/// segment-major so every slot completes as its last contribution lands.
pub fn ingest_ns_per_pkt(codec: CodecKind, len: usize, fan_in: usize, rounds: u32) -> f64 {
    let encoded: Vec<EncodedGradient> = (0..fan_in)
        .map(|w| EncodedGradient::with_codec(host_ip(0, w), &values(len, w as u64), codec, 0))
        .collect();
    let segments = codec.num_segments(len);
    let mut accel =
        Accelerator::with_codec(AcceleratorConfig::default(), segments, fan_in as u16, codec);
    let mut ns = 0u64;
    let mut packets = 0u64;
    for round in 0..rounds {
        let trains: Vec<Vec<Packet>> = encoded.iter().map(|e| e.packets_round(round)).collect();
        let sw = Stopwatch::start();
        for seg in 0..segments {
            for train in &trains {
                let pkt = &train[seg];
                let meta = codec
                    .codec()
                    .decode_meta(&pkt.payload)
                    .expect("well-formed contribution");
                black_box(accel.ingest_wire(meta, &pkt.payload));
            }
        }
        ns += sw.stop().cpu_ns;
        packets += (segments * fan_in) as u64;
    }
    ns as f64 / packets as f64
}

/// Host ns per segment of `AggregationCodec::encode_contribution` over
/// `values`, cut into the codec's segments, `reps` times.
pub fn encode_ns_per_seg(codec: CodecKind, values: &[f32], reps: u32) -> f64 {
    let c = codec.codec();
    let per = c.elems_per_segment();
    let sw = Stopwatch::start();
    let mut segs = 0u64;
    for _ in 0..reps {
        for (i, chunk) in values.chunks(per).enumerate() {
            black_box(
                c.encode_contribution(i as u64, black_box(chunk))
                    .expect("finite values encode"),
            );
            segs += 1;
        }
    }
    sw.stop().cpu_ns as f64 / segs as f64
}

/// A lite agent's real gradient, for encoding probes and tensor sizing.
pub fn lite_gradient(alg: Algorithm, seed: u64) -> Vec<f32> {
    LocalReplica::new(make_lite_agent(alg, seed)).compute_gradient()
}

/// Host ms per `LocalReplica::compute_gradient` call of `alg`'s lite
/// agent: calls after one warm-up call until `min_cpu_ns` of CPU time
/// and at least three calls have passed.
pub fn grad_ms(alg: Algorithm, seed: u64, min_cpu_ns: u64) -> f64 {
    let mut replica = LocalReplica::new(make_lite_agent(alg, seed));
    black_box(replica.compute_gradient());
    let sw = Stopwatch::start();
    let mut calls = 0u32;
    loop {
        black_box(replica.compute_gradient());
        calls += 1;
        let cpu = sw.stop().cpu_ns;
        if calls >= 3 && cpu >= min_cpu_ns {
            return cpu as f64 / 1e6 / f64::from(calls);
        }
    }
}

/// Host ns per `Tensor::matmul` of a `rows × k` by `k × cols` product.
pub fn matmul_ns(rows: usize, k: usize, cols: usize, reps: u32) -> f64 {
    let a = Tensor::from_vec(values(rows * k, 1)).reshape(&[rows, k]);
    let b = Tensor::from_vec(values(k * cols, 2)).reshape(&[k, cols]);
    let sw = Stopwatch::start();
    for _ in 0..reps {
        black_box(a.matmul(black_box(&b)));
    }
    sw.stop().cpu_ns as f64 / f64::from(reps)
}

/// A `Write` sink that keeps only a byte count.
struct ByteCounter(Arc<AtomicU64>);

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Result of the tracing probe.
pub struct TraceCost {
    /// CPU of the traced run over CPU of the same run untraced.
    pub overhead: f64,
    /// Streamed trace bytes per engine event.
    pub bytes_per_event: f64,
}

/// Runs `cfg` untraced (`run_timing_perf`) and then under
/// `run_timing_observed_with`, the trace streamed to a byte-counting
/// sink with a 1024-event memory buffer, plus a default-interval
/// timeseries.
pub fn trace_cost(cfg: &TimingConfig) -> TraceCost {
    let sw = Stopwatch::start();
    let (_, perf) = run_timing_perf(cfg);
    let plain = sw.stop().cpu_ns;
    let bytes = Arc::new(AtomicU64::new(0));
    let opts = TraceOptions {
        capacity: Some(1024),
        stream: Some(Box::new(ByteCounter(Arc::clone(&bytes)))),
        timeseries: Some(Arc::new(Timeseries::default())),
    };
    let sw = Stopwatch::start();
    black_box(run_timing_observed_with(cfg, opts));
    let traced = sw.stop().cpu_ns;
    TraceCost {
        overhead: traced as f64 / plain.max(1) as f64,
        bytes_per_event: bytes.load(Relaxed) as f64 / perf.events.max(1) as f64,
    }
}
