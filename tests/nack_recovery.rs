//! Pins a lossy NACK run whose recovery paths actually fire.
//!
//! Every perfgate and benchmark incast cell is lossless, so none of them
//! sends a NACK or a `Help`. This run drops one edge packet in a thousand:
//! the NACK transport must detect the gaps, request the lost results from
//! the switch cache, and land on exactly the counters pinned below, which
//! rescanning the whole missing list on every arrival also produces.
//! Equivalent to
//! `iswitch-sim timing --workers 8 --incast --transport nack
//! --edge-loss 1e-3 --iterations 20`.

use iswitch::cluster::{run_timing, Strategy, TimingConfig, TransportKind, TransportStats};
use iswitch::netsim::EgressQueue;
use iswitch::rl::Algorithm;

fn lossy_nack_incast() -> TimingConfig {
    let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
    cfg.workers = 8;
    cfg.iterations = 20;
    cfg.edge_loss = 1e-3;
    cfg.transport = TransportKind::Nack;
    cfg.incast = true;
    cfg.queue.get_or_insert(EgressQueue::shallow());
    cfg
}

#[test]
fn lossy_nack_incast_pins_transport_counters() {
    let r = run_timing(&lossy_nack_incast());
    assert_eq!(
        r.transport,
        TransportStats {
            help_requests: 3,
            nacks_sent: 461,
            retransmits: 0,
            ecn_echoes: 0,
            rate_cuts: 0,
        }
    );
}
