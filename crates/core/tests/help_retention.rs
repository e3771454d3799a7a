//! How long a switch keeps aggregates for `Help`: until every child has
//! sent data of a later round, and not one round less.
//!
//! Scripted workers put contributions and `Help` requests on the wire at
//! fixed times, so each test pins down exactly which requests the result
//! cache can still serve.

use std::any::Any;

use iswitch_core::{
    control_packet, gradient_packets_round, tag_round, ControlMessage, ExtensionConfig,
    IswitchExtension, FLOATS_PER_SEGMENT, UPSTREAM_IP,
};
use iswitch_netsim::{
    build_star, HostApp, HostCtx, NodeId, Packet, PortId, SimDuration, SimTime, Simulator, Switch,
    TopologyConfig,
};

/// Two segments per round.
const LEN: usize = 2 * FLOATS_PER_SEGMENT;

#[derive(Clone, Copy)]
enum Step {
    /// Push a full contribution tagged with this round.
    Data(u32),
    /// Ask for one result segment `(round, index)`.
    Help(u32, u64),
}

/// Sends each step at its time and counts the `Help` replies addressed to
/// it (broadcast results go to the broadcast address instead).
struct Timeline {
    steps: Vec<(u64, Step)>,
    help_replies: usize,
}

impl Timeline {
    fn boxed(steps: &[(u64, Step)]) -> Box<dyn HostApp> {
        Box::new(Timeline {
            steps: steps.to_vec(),
            help_replies: 0,
        })
    }
}

impl HostApp for Timeline {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        for (i, &(at_us, _)) in self.steps.iter().enumerate() {
            ctx.set_timer(SimDuration::from_micros(at_us), i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, token: u64) {
        match self.steps[token as usize].1 {
            Step::Data(round) => {
                for pkt in gradient_packets_round(ctx.ip(), &[1.0; LEN], round) {
                    ctx.send(pkt);
                }
            }
            Step::Help(round, idx) => {
                let seg = tag_round(idx, round);
                ctx.send(control_packet(
                    ctx.ip(),
                    UPSTREAM_IP,
                    &ControlMessage::Help { seg },
                ));
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Packet) {
        if pkt.ip.dst == ctx.ip() && iswitch_core::decode_data_meta(&pkt).is_some() {
            self.help_replies += 1;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A star of one switch over `workers`, aggregating `threshold`
/// contributions per segment.
fn star(workers: Vec<Box<dyn HostApp>>, threshold: u16) -> (Simulator, NodeId, Vec<NodeId>) {
    let ports = (0..workers.len()).map(PortId::new).collect();
    let ext =
        IswitchExtension::new(ExtensionConfig::for_star(ports, LEN).with_threshold(threshold));
    let mut sim = Simulator::new();
    let star = build_star(
        &mut sim,
        workers,
        Some(Box::new(ext)),
        &TopologyConfig::default(),
    );
    (sim, star.switch, star.hosts)
}

fn ext(sim: &Simulator, switch: NodeId) -> &IswitchExtension {
    sim.device::<Switch>(switch).extension::<IswitchExtension>()
}

fn replies(sim: &Simulator, host: NodeId) -> usize {
    sim.device::<iswitch_netsim::Host>(host)
        .app::<Timeline>()
        .help_replies
}

#[test]
fn help_for_a_round_a_child_is_still_on_is_served() {
    use Step::*;
    // A moves on to round 1 while B still waits on round 0: B's Help for
    // round 0 must be served. Once B sends round 1 too, round 0 retires.
    let a = Timeline::boxed(&[(0, Data(0)), (100, Data(1))]);
    let b = Timeline::boxed(&[
        (0, Data(0)),
        (200, Help(0, 1)),
        (300, Data(1)),
        (400, Help(0, 0)),
    ]);
    let (mut sim, switch, hosts) = star(vec![a, b], 2);
    sim.run_until(SimTime::from_nanos(250_000));
    assert_eq!(
        replies(&sim, hosts[1]),
        1,
        "round 0 retired while B was on it"
    );
    assert_eq!(ext(&sim, switch).accelerator().cached_results(), 2);
    sim.run_until_idle();
    assert_eq!(ext(&sim, switch).stats().help_served, 1);
    assert_eq!(replies(&sim, hosts[1]), 1, "round 0 outlived both children");
    // Only round 1's two aggregates remain.
    let accel = ext(&sim, switch).accelerator();
    assert_eq!(accel.cached_results(), 2);
    assert!(accel.last_result(tag_round(0, 1)).is_some());
}

#[test]
fn a_silent_child_pins_every_round_until_it_sends() {
    use Step::*;
    // H = 2 of three children: A and B complete rounds on their own while
    // C stays silent, so nothing may retire until C sends.
    let rounds: Vec<(u64, Step)> = (0..4).map(|r| (100 * r as u64, Data(r))).collect();
    let a = Timeline::boxed(&rounds);
    let b = Timeline::boxed(&rounds);
    let c = Timeline::boxed(&[(1_000, Data(3))]);
    let (mut sim, switch, _) = star(vec![a, b, c], 2);
    sim.run_until(SimTime::from_nanos(900_000));
    assert_eq!(ext(&sim, switch).accelerator().cached_results(), 4 * 2);
    sim.run_until_idle();
    // C's first packet sets the floor at round 3.
    assert_eq!(ext(&sim, switch).accelerator().cached_results(), 2);
}

#[test]
fn retention_crosses_the_round_tag_wrap() {
    use Step::*;
    // Rounds 0xFFFE, 0xFFFF, 0, 1: after the wrap, round 0 is newer than
    // 0xFFFF. B's Help for 0xFFFF, sent while A is already on round 0,
    // must be served; afterwards only round 1 remains.
    let a = Timeline::boxed(&[
        (0, Data(0xFFFE)),
        (100, Data(0xFFFF)),
        (200, Data(0)),
        (400, Data(1)),
    ]);
    let b = Timeline::boxed(&[
        (0, Data(0xFFFE)),
        (100, Data(0xFFFF)),
        (250, Help(0xFFFF, 0)),
        (300, Data(0)),
        (400, Data(1)),
    ]);
    let (mut sim, switch, hosts) = star(vec![a, b], 2);
    sim.run_until_idle();
    assert_eq!(replies(&sim, hosts[1]), 1);
    let accel = ext(&sim, switch).accelerator();
    assert_eq!(accel.cached_results(), 2);
    assert!(accel.last_result(tag_round(1, 1)).is_some());
}
