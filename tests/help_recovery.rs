//! Pins the switch-side `Help` counters of a lossy go-back tree run.
//!
//! Switches drop cached results once every child has moved past their
//! round. The retention rule must never drop a result a worker can still
//! ask for: a rule that retires too early turns served `Help` requests into
//! misses and changes the counters pinned below. Tree ToRs answer their
//! workers' `Help`; the core never receives one. Equivalent to
//! `iswitch-sim timing --algorithm ppo --strategy isw --workers 4
//! --per-rack 2 --edge-loss 5e-3 --iterations 15`.

use iswitch::cluster::{run_timing_observed, Strategy, TimingConfig};
use iswitch::rl::Algorithm;

fn lossy_goback_tree() -> TimingConfig {
    let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
    cfg.workers_per_rack = Some(2);
    cfg.iterations = 15;
    cfg.edge_loss = 5e-3;
    cfg
}

#[test]
fn lossy_goback_tree_pins_help_cache_counters() {
    let obs = run_timing_observed(&lossy_goback_tree());
    let counters = obs
        .metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("the report carries the counter registry");
    let count = |node: usize, name: &str| {
        counters
            .get(&format!("core.switch.n{node:03}.{name}"))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("switch n{node:03} exports {name}"))
    };
    // (node, help_served, help_missed): the core, then the two ToRs.
    let got: Vec<(usize, u64, u64)> = [0, 1, 4]
        .into_iter()
        .map(|n| (n, count(n, "help_served"), count(n, "help_missed")))
        .collect();
    assert_eq!(got, [(0, 0, 0), (1, 701, 45), (4, 123, 34)]);
    assert_eq!(obs.result.transport.help_requests, 911);
}
