//! The correctness check: every sub-run's fingerprint against the value
//! stored for its seed, or, for a seed with nothing stored, against the
//! same sub-run's first fingerprint in this process (run-twice identity).

use std::collections::BTreeMap;

use iswitch_obs::JsonValue;

use crate::workloads::{Outcome, SubRun};

/// The stored fingerprints, one line per sub-run:
/// `<seed hex> <workload> <sub-run> <fingerprint>`.
const EXPECTED: &str = include_str!("../expected.txt");

/// Perfgate's checked-in baseline; `fattree-incast` runs its
/// `incast/{transport}/t1` cells and must reproduce their rows.
const PERFGATE: &str = include_str!("../../crates/bench/baselines/perfgate.json");

/// The expected-fingerprints file, for `--write-expected`.
pub const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt");

/// Parses `EXPECTED` into `(seed, workload, sub-run) → fingerprint`.
fn stored() -> BTreeMap<(u64, String, String), String> {
    parse(EXPECTED)
}

fn parse(text: &str) -> BTreeMap<(u64, String, String), String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.splitn(4, ' ');
            let mut field = || it.next().expect("four fields per expected line");
            let seed = u64::from_str_radix(field().trim_start_matches("0x"), 16)
                .expect("hex seed in expected line");
            let (w, s, f) = (field().to_owned(), field().to_owned(), field().to_owned());
            ((seed, w, s), f)
        })
        .collect()
}

/// Perfgate's fingerprint of its `incast/{kind}/t1/s{seed:x}` cell, in
/// this benchmark's fingerprint format.
fn perfgate_row(kind: &str, seed: u64) -> Option<String> {
    let doc = JsonValue::parse(PERFGATE).expect("perfgate baseline parses");
    let id = format!("incast/{kind}/t1/s{seed:x}");
    let row = doc
        .get("cells")?
        .as_array()?
        .iter()
        .find(|c| c.get("id").and_then(JsonValue::as_str) == Some(id.as_str()))?;
    let f = |k: &str| row.get(k).and_then(JsonValue::as_u64);
    Some(format!(
        "events={} packets_sent={} packets_delivered={} sim_ns={} per_iteration_ns={}",
        f("events")?,
        f("packets_sent")?,
        f("packets_delivered")?,
        f("sim_ns")?,
        f("per_iteration_ns")?
    ))
}

/// Per-sub-run expectations of one workload run.
pub struct Checker {
    /// Every value a sub-run's fingerprint must equal. Empty means
    /// run-twice mode: the first fingerprint seen becomes the value.
    expected: Vec<Vec<String>>,
    /// Whether the fingerprints came from the stored file.
    pub stored: bool,
}

impl Checker {
    /// Expectations for `runs` of `workload` under `seed`.
    pub fn new(workload: &str, seed: u64, runs: &[SubRun]) -> Checker {
        let table = stored();
        let found: Option<Vec<Vec<String>>> = runs
            .iter()
            .map(|r| {
                let v = table.get(&(seed, workload.to_owned(), r.name.clone()))?;
                let mut want = vec![v.clone()];
                if workload == "fattree-incast" {
                    want.push(perfgate_row(&r.name, seed)?);
                }
                Some(want)
            })
            .collect();
        match found {
            Some(expected) => Checker {
                expected,
                stored: true,
            },
            None => Checker {
                expected: vec![Vec::new(); runs.len()],
                stored: false,
            },
        }
    }

    /// Replaces sub-run 0's first expected value with a wrong one, so a
    /// correct program must fail the check (the anti-placebo run).
    pub fn corrupt(&mut self) {
        let first = &mut self.expected[0];
        match first.first_mut() {
            Some(v) => v.push_str(" corrupted=1"),
            None => first.push("corrupted=1".to_owned()),
        }
    }

    /// Checks sub-run `i`'s result: it must not have panicked and its
    /// fingerprint must equal every expected value. Prints a line for a
    /// failure and returns whether it passed.
    pub fn check(&mut self, i: usize, name: &str, result: &Result<Outcome, String>) -> bool {
        let fp = match result {
            Ok(o) => &o.fingerprint,
            Err(msg) => {
                eprintln!("FAIL {name}: panicked: {msg}");
                return false;
            }
        };
        let want = &mut self.expected[i];
        if want.is_empty() {
            want.push(fp.clone());
            return true;
        }
        match want.iter().find(|w| *w != fp) {
            None => true,
            Some(w) => {
                eprintln!("FAIL {name}: fingerprint\n  got      {fp}\n  expected {w}");
                false
            }
        }
    }
}

/// Rewrites the stored fingerprints of `(seed, workload)` with `rows`
/// (`(sub-run, fingerprint)`), keeping every other line.
pub fn write(seed: u64, workload: &str, rows: &[(String, String)]) -> std::io::Result<()> {
    // The file on disk, not the copy compiled in: earlier writes of this
    // build must survive.
    let mut table = parse(&std::fs::read_to_string(EXPECTED_PATH)?);
    table.retain(|(s, w, _), _| !(*s == seed && w == workload));
    for (sub, fp) in rows {
        table.insert((seed, workload.to_owned(), sub.clone()), fp.clone());
    }
    let mut text = String::from(
        "# Expected sub-run fingerprints: <seed hex> <workload> <sub-run> <fingerprint>.\n\
         # Regenerate with --write-expected after a deliberate change in behaviour.\n",
    );
    for ((s, w, sub), fp) in &table {
        text.push_str(&format!("{s:#x} {w} {sub} {fp}\n"));
    }
    std::fs::write(EXPECTED_PATH, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{execute, Job};
    use iswitch_cluster::{Strategy, TimingConfig};
    use iswitch_rl::Algorithm;

    fn small_run() -> SubRun {
        let mut cfg = TimingConfig::main_cluster(Algorithm::A2c, Strategy::SyncIsw);
        cfg.iterations = 2;
        cfg.warmup = 1;
        SubRun {
            name: "isw".to_owned(),
            job: Job::Timing(cfg),
        }
    }

    #[test]
    fn run_twice_mode_passes_a_deterministic_run() {
        let run = small_run();
        let mut c = Checker::new("none", 1, std::slice::from_ref(&run));
        assert!(!c.stored);
        for _ in 0..2 {
            assert!(c.check(0, &run.name, &execute(&run.job)));
        }
    }

    #[test]
    fn wrong_expected_value_fails_the_check() {
        let run = small_run();
        let mut c = Checker::new("none", 1, std::slice::from_ref(&run));
        c.corrupt();
        assert!(!c.check(0, &run.name, &execute(&run.job)));
    }

    #[test]
    fn stored_fattree_rows_match_perfgate() {
        let table = stored();
        for kind in ["go-back", "nack", "dcqcn"] {
            let key = (0x5117c4, "fattree-incast".to_owned(), kind.to_owned());
            assert_eq!(table.get(&key), perfgate_row(kind, 0x5117c4).as_ref());
        }
    }
}
