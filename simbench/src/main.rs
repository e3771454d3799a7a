//! `simbench` — the end-to-end and per-layer benchmark of the iSwitch
//! simulator. See `README.md` in this directory for every workload and
//! metric.
//!
//! ```text
//! simbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//!          [--corrupt-expected] [--write-expected]
//! ```
//!
//! An untraced run (`--trace 0`) makes one pass over the workload's
//! sub-runs that counts allocations, then repeats timed passes back to
//! back for `--seconds` and reports the end-to-end metrics. A traced run
//! (`--trace 1`) makes a counted, an untraced and a traced pass plus the
//! layer probes, and reports the per-layer metrics.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod alloc;
mod expect;
mod host;
mod layers;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::process::exit;
use std::time::Instant;

use iswitch_core::EncodedGradient;
use iswitch_netsim::host_ip;
use iswitch_rl::{make_lite_agent_scaled, paper_model, LocalReplica};

use expect::Checker;
use host::{Elapsed, Stopwatch};
use workloads::{execute, Job, Outcome, SubRun};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The repo-wide experiment seed; expected fingerprints are stored for it.
const DEFAULT_SEED: u64 = 0x5117c4;

/// Each batch of set-up repetitions lasts at least this long; an untraced
/// run makes one batch before every pass, so the repetitions spread over
/// the whole measuring time. `setup_s` is the median repetition.
const SETUP_BATCH_S: f64 = 0.03;

/// Fewest measured passes of an untraced run, however short `--seconds`.
const MIN_PASSES: usize = 3;

const BYTES_PER_MB: f64 = 1e6;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
    write_expected: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("simbench: {msg}");
    eprintln!(
        "usage: simbench --workload <{}> [--seed <n|0xhex>] [--seconds <s>] [--trace 0|1] \
         [--corrupt-expected] [--write-expected]",
        workloads::NAMES.join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        corrupt: false,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => {
                let v = value();
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                args.seed = parsed.unwrap_or_else(|_| usage(&format!("bad seed {v}")));
            }
            "--seconds" => {
                let v = value();
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage(&format!("bad seconds {v}")));
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    v => usage(&format!("bad trace flag {v}")),
                }
            }
            "--corrupt-expected" => args.corrupt = true,
            "--write-expected" => args.write_expected = true,
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if workloads::plan(&args.workload, args.seed).is_none() {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

/// Builds one workload run's inputs: the sub-run plan, the expected
/// fingerprints, and what every sub-run constructs before its first
/// simulated event — each worker's encoded gradient train (timing runs)
/// and the live lite agents (co-simulation).
fn prepare(workload: &str, seed: u64) -> (Vec<SubRun>, Checker) {
    let runs = workloads::plan(workload, seed).expect("workload validated");
    let checker = Checker::new(workload, seed, &runs);
    for run in &runs {
        let timing: Vec<_> = match &run.job {
            Job::Timing(cfg) => vec![cfg.clone()],
            Job::Tenants(cfg) => cfg.tenants.iter().map(|t| t.job.clone()).collect(),
            Job::Cosim(cfg) => {
                for w in 0..cfg.workers {
                    let agent = make_lite_agent_scaled(
                        cfg.algorithm,
                        cfg.seed.wrapping_add(w as u64),
                        cfg.lr_scale,
                    );
                    std::hint::black_box(LocalReplica::new(agent));
                }
                Vec::new()
            }
        };
        for cfg in timing {
            let grad = probes::values(paper_model(cfg.algorithm).param_count(), cfg.seed);
            std::hint::black_box(EncodedGradient::with_codec(
                host_ip(0, 0),
                &grad,
                cfg.codec,
                0,
            ));
        }
    }
    (runs, checker)
}

/// One batch of set-up repetitions, at least one and at least
/// [`SETUP_BATCH_S`] long: the seconds of each, and the inputs of the
/// last.
fn setup_batch(workload: &str, seed: u64) -> (Vec<f64>, Vec<SubRun>, Checker) {
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let (runs, checker) = prepare(workload, seed);
        secs.push(t.elapsed().as_secs_f64());
        if secs.iter().sum::<f64>() >= SETUP_BATCH_S {
            return (secs, runs, checker);
        }
    }
}

/// One sub-run as measured.
pub struct Measured {
    pub elapsed: Elapsed,
    pub alloc: alloc::AllocDelta,
    pub result: Result<Outcome, String>,
    pub ok: bool,
}

/// One pass over every sub-run of the workload.
pub struct Pass {
    pub subs: Vec<Measured>,
}

impl Pass {
    pub fn wall_ns(&self) -> u64 {
        self.subs.iter().map(|m| m.elapsed.wall_ns).sum()
    }
    pub fn cpu_ns(&self) -> u64 {
        self.subs.iter().map(|m| m.elapsed.cpu_ns).sum()
    }
    pub fn alloc_bytes(&self) -> u64 {
        self.subs.iter().map(|m| m.alloc.bytes).sum()
    }
    pub fn peak_live(&self) -> u64 {
        self.subs
            .iter()
            .map(|m| m.alloc.peak_live)
            .max()
            .unwrap_or(0)
    }
    pub fn events(&self) -> u64 {
        self.subs
            .iter()
            .filter_map(|m| m.result.as_ref().ok())
            .map(|o| o.counts.events)
            .sum()
    }
    pub fn failed(&self) -> usize {
        self.subs.iter().filter(|m| !m.ok).count()
    }
}

/// Runs every sub-run once, checking each fingerprint. With
/// `count_allocs`, each sub-run's allocations are counted (which costs
/// time, so timed passes leave it off). With a recorder, each sub-run
/// gets a span carrying its counts.
pub fn run_pass(
    runs: &[SubRun],
    checker: &mut Checker,
    count_allocs: bool,
    mut rec: Option<&mut spans::Recorder>,
) -> Pass {
    let mut subs = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let span = rec.as_deref_mut().map(|r| r.enter("subrun", &run.name));
        if count_allocs {
            alloc::start();
        }
        let sw = Stopwatch::start();
        let result = execute(&run.job);
        let elapsed = sw.stop();
        let alloc = if count_allocs {
            alloc::stop()
        } else {
            alloc::AllocDelta::default()
        };
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
            let c = result.as_ref().map(|o| o.counts).unwrap_or_default();
            r.exit(
                id,
                vec![
                    ("events", c.events),
                    ("packets_sent", c.packets_sent),
                    ("packets_delivered", c.packets_delivered),
                    ("ecn_marked", c.ecn_marked),
                    ("dropped_queue", c.dropped_queue),
                    ("epochs", c.epochs),
                    ("retransmits", c.transport.retransmits),
                    ("slot_denials", c.slot_denials),
                ],
            );
        }
        let ok = checker.check(i, &run.name, &result);
        subs.push(Measured {
            elapsed,
            alloc,
            result,
            ok,
        });
    }
    Pass { subs }
}

/// A metric of the final JSON line.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// `v` as a JSON number with every digit Rust prints for it.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

fn untraced(args: &Args) {
    let (mut setup, runs, mut checker) = setup_batch(&args.workload, args.seed);
    if args.corrupt {
        checker.corrupt();
    }
    println!(
        "simbench {} seed {:#x}: {} sub-runs, expected fingerprints {}",
        args.workload,
        args.seed,
        runs.len(),
        if checker.stored {
            "stored"
        } else {
            "from the first pass (run-twice identity)"
        }
    );
    // The first pass counts allocations and warms up; only the passes
    // after it are timed. Another pass starts only while it is expected
    // to end within the measuring time, so a run lasts `--seconds`
    // whatever the pass length.
    let start = Instant::now();
    let memory = run_pass(&runs, &mut checker, true, None);
    let rss = host::peak_rss_bytes() as f64 / BYTES_PER_MB;
    let mut passes = Vec::new();
    loop {
        let spent = start.elapsed().as_secs_f64();
        let per_pass = spent / (passes.len() + 1) as f64;
        if passes.len() >= MIN_PASSES && spent + per_pass > args.seconds {
            break;
        }
        setup.extend(setup_batch(&args.workload, args.seed).0);
        passes.push(run_pass(&runs, &mut checker, false, None));
    }
    let attempted = (passes.len() + 1) * runs.len();
    let failed = memory.failed() + passes.iter().map(Pass::failed).sum::<usize>();

    let col = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let wall = col(&|p| p.wall_ns() as f64 / 1e9);
    let cpu = col(&|p| p.cpu_ns() as f64 / 1e9);
    let peak = memory.peak_live() as f64 / BYTES_PER_MB;
    let allocd = memory.alloc_bytes() as f64 / BYTES_PER_MB;
    let ev_rate = col(&|p| p.events() as f64 / (p.cpu_ns().max(1) as f64 / 1e9));

    println!(
        "{:<18} {:>6} {:>14} {:>3} {:>14} {:>14}",
        "metric", "unit", "median", "n", "q1", "q3"
    );
    let row = |name: &str, unit: &str, v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        println!(
            "{name:<18} {unit:>6} {:>14.6} {:>3} {q1:>14.6} {q3:>14.6}",
            stats::median(v),
            v.len()
        );
    };
    row("wall_s", "s", &wall);
    row("cpu_s", "s", &cpu);
    if memory.events() > 0 {
        row("events_per_cpu_s", "1/s", &ev_rate);
    }
    println!(
        "{:<18} {:>6} {:>14.6} {:>3}",
        "setup_s",
        "s",
        stats::median(&setup),
        setup.len()
    );
    println!("{:<18} {:>6} {:>14.6} {:>3}", "peak_live_mb", "MB", peak, 1);
    println!("{:<18} {:>6} {:>14.6} {:>3}", "alloc_mb", "MB", allocd, 1);
    println!("{:<18} {:>6} {:>14.6} {:>3}", "peak_rss_mb", "MB", rss, 1);
    println!(
        "{:<18} {:>6} {:>14.6} {:>3}",
        "fail_frac",
        "ratio",
        failed as f64 / attempted as f64,
        attempted
    );
    for (i, run) in runs.iter().enumerate() {
        let w: Vec<f64> = passes
            .iter()
            .map(|p| p.subs[i].elapsed.wall_ns as f64 / 1e9)
            .collect();
        let c: Vec<f64> = passes
            .iter()
            .map(|p| p.subs[i].elapsed.cpu_ns as f64 / 1e9)
            .collect();
        println!(
            "  sub-run {:<18} wall {:>8.4} s  cpu {:>8.4} s",
            run.name,
            stats::median(&w),
            stats::median(&c)
        );
    }

    let m = |name: &str, unit, value| Metric {
        name: name.to_owned(),
        unit,
        value,
    };
    print_result(
        failed == 0,
        attempted,
        failed,
        &[
            m("wall_s", "s", stats::median(&wall)),
            m("cpu_s", "s", stats::median(&cpu)),
            m("setup_s", "s", stats::median(&setup)),
            m("peak_live_mb", "MB", peak),
            m("alloc_mb", "MB", allocd),
            m("peak_rss_mb", "MB", rss),
        ],
    );
}

fn write_expected(args: &Args) {
    let runs = workloads::plan(&args.workload, args.seed).expect("workload validated");
    let rows: Vec<(String, String)> = runs
        .iter()
        .map(|r| {
            let o = execute(&r.job).unwrap_or_else(|e| {
                eprintln!("simbench: sub-run {} panicked: {e}", r.name);
                exit(1);
            });
            println!("{} {}", r.name, o.fingerprint);
            (r.name.clone(), o.fingerprint)
        })
        .collect();
    if let Err(e) = expect::write(args.seed, &args.workload, &rows) {
        eprintln!("simbench: cannot write {}: {e}", expect::EXPECTED_PATH);
        exit(1);
    }
    println!("wrote {}", expect::EXPECTED_PATH);
}

fn main() {
    let args = parse_args();
    if args.write_expected {
        write_expected(&args);
    } else if args.trace {
        let (setup, runs, checker) = setup_batch(&args.workload, args.seed);
        let setup_s = stats::median(&setup);
        layers::traced(
            &args.workload,
            args.seed,
            setup_s,
            runs,
            checker,
            args.corrupt,
        );
    } else {
        untraced(&args);
    }
}
