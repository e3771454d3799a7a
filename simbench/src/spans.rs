//! Spans recorded by the traced run around every public call the
//! benchmark makes. They stay in memory and are written once, at the end.

use std::time::Instant;

use iswitch_obs::JsonValue;

use crate::host::process_cpu_ns;

/// One recorded call.
pub struct Span {
    /// Parent span, if nested.
    pub parent: Option<usize>,
    /// What was called (`subrun`, `probe.netsim.fwd`, ...).
    pub name: String,
    /// The sub-run or probe variant (`go-back`, `fixed-point`, ...).
    pub subrun: String,
    /// Wall clock at entry and exit, ns since the recorder started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU time spent inside, ns.
    pub cpu_ns: u64,
    /// Counts read at the span's exit (events, packets, ...).
    pub counts: Vec<(&'static str, u64)>,
    cpu_start: u64,
}

/// The in-memory span recorder.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span, nested under the innermost open one.
    pub fn enter(&mut self, name: &str, subrun: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.to_owned(),
            subrun: subrun.to_owned(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            cpu_ns: 0,
            counts: Vec::new(),
            cpu_start: process_cpu_ns(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) with its counts.
    pub fn exit(&mut self, id: usize, counts: Vec<(&'static str, u64)>) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.t0.elapsed().as_nanos() as u64;
        let cpu = process_cpu_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.cpu_ns = cpu - s.cpu_start;
        s.counts = counts;
    }

    /// Runs `f` inside a span with no counts.
    pub fn time<T>(&mut self, name: &str, subrun: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, subrun);
        let out = f();
        self.exit(id, Vec::new());
        out
    }

    /// The spans as JSON objects, each with its self time: its duration
    /// minus the durations of its direct children.
    pub fn to_json(&self, workload: &str) -> JsonValue {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut o = JsonValue::empty_object();
                o.insert("id", JsonValue::UInt(id as u64));
                o.insert(
                    "parent",
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::UInt(p as u64)),
                );
                o.insert("name", JsonValue::Str(s.name.clone()));
                o.insert("workload", JsonValue::Str(workload.to_owned()));
                o.insert("subrun", JsonValue::Str(s.subrun.clone()));
                o.insert("start_ns", JsonValue::UInt(s.start_ns));
                o.insert("end_ns", JsonValue::UInt(s.end_ns));
                o.insert("wall_ns", JsonValue::UInt(s.end_ns - s.start_ns));
                o.insert(
                    "self_ns",
                    JsonValue::UInt((s.end_ns - s.start_ns).saturating_sub(child_ns[id])),
                );
                o.insert("cpu_ns", JsonValue::UInt(s.cpu_ns));
                let mut counts = JsonValue::empty_object();
                for (k, v) in &s.counts {
                    counts.insert(k, JsonValue::UInt(*v));
                }
                o.insert("counts", counts);
                o
            })
            .collect();
        JsonValue::Array(rows)
    }
}
