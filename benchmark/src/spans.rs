//! In-memory span recording for the traced runs, and the self-time
//! accounting over it.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer (nothing inside the crates is instrumented). A span's name
//! is `<layer>.<what>`; the layer is the crate the call goes into, and
//! `bench.*` spans are the benchmark's own scaffolding (the unit, one
//! evaluation, one tenant). Time a scaffolding span does not hand to a
//! child is *unattributed*: no layer owns it.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (`start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The evaluation (or job) this span belongs to, shared by every span
    /// of that evaluation.
    pub eval: Option<u32>,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// A span recorder for one thread. Spans nest by call order: the span
/// open when another starts is its parent.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str, eval: Option<u32>) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            eval,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span around `f`.
    pub fn span<T>(&mut self, name: &'static str, eval: Option<u32>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, eval);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already finished span (a call timed by someone else)
    /// under the innermost open one.
    pub fn closed(&mut self, name: &'static str, eval: Option<u32>, started: Instant, secs: f64) {
        let start_ns = started.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (secs * 1e9) as u64,
            parent: self.open.last().copied(),
            eval,
        });
    }

    /// Consumes the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span must be closed");
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// How many spans carry the name.
    pub count: usize,
    /// Sum of their durations, seconds.
    pub total: f64,
    /// Sum of their self times, seconds.
    pub self_time: f64,
}

/// Each span's self time in seconds: its duration minus its children's
/// (one thread records, so the children of a span never overlap).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.end_ns.saturating_sub(span.start_ns);
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(span, kids)| {
            let dur = span.end_ns.saturating_sub(span.start_ns);
            dur.saturating_sub(*kids) as f64 / 1e9
        })
        .collect()
}

/// Totals per span name, restricted to the subtree under `root`
/// (inclusive).
pub fn totals_under(spans: &[Span], root: usize) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut inside = vec![false; spans.len()];
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        // Parents always precede their children in the vector.
        inside[i] = i == root || span.parent.is_some_and(|p| inside[p]);
        if inside[i] {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total += span.secs();
            t.self_time += selfs[i];
        }
    }
    out
}

/// The layer of a span name: everything before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// The share of `root`'s duration that some layer owns: one minus the
/// self time of the `bench.*` scaffolding spans under it.
pub fn attributed_frac(spans: &[Span], root: usize) -> f64 {
    let root_secs = spans[root].secs();
    if root_secs <= 0.0 {
        return 0.0;
    }
    let unattributed: f64 = totals_under(spans, root)
        .iter()
        .filter(|(name, _)| layer_of(name) == "bench")
        .map(|(_, t)| t.self_time)
        .sum();
    (1.0 - unattributed / root_secs).clamp(0.0, 1.0)
}

/// Self time per layer under `root`, seconds.
pub fn layer_self_times(spans: &[Span], root: usize) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, t) in totals_under(spans, root) {
        *out.entry(layer_of(name).to_string()).or_insert(0.0) += t.self_time;
    }
    out
}

/// The mean cost of recording one span, seconds, measured on this host
/// right now (an empty span is an `enter` plus an `exit`).
pub fn span_cost_secs() -> f64 {
    const N: usize = 20_000;
    let mut rec = Recorder::new();
    let started = Instant::now();
    for _ in 0..N {
        let id = rec.enter("bench.calibration", None);
        rec.exit(id);
    }
    started.elapsed().as_secs_f64() / N as f64
}

/// Serializes a trace file: the workload, its per-layer self times, and
/// every span.
pub fn trace_json(workload: &str, spans: &[Span], root: usize) -> String {
    use datamime_runtime::json::{push_f64, push_str_escaped};
    let mut out = String::from("{\"workload\":");
    push_str_escaped(&mut out, workload);
    out.push_str(",\"root\":");
    push_f64(&mut out, root as f64);
    out.push_str(",\"layer_self_s\":{");
    for (i, (layer, secs)) in layer_self_times(spans, root).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_escaped(&mut out, layer);
        out.push(':');
        push_f64(&mut out, *secs);
    }
    out.push_str("},\"spans\":[\n");
    for (id, span) in spans.iter().enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"id\":");
        push_f64(&mut out, id as f64);
        out.push_str(",\"name\":");
        push_str_escaped(&mut out, span.name);
        out.push_str(",\"start_ns\":");
        push_f64(&mut out, span.start_ns as f64);
        out.push_str(",\"end_ns\":");
        push_f64(&mut out, span.end_ns as f64);
        out.push_str(",\"parent\":");
        match span.parent {
            Some(p) => push_f64(&mut out, p as f64),
            None => out.push_str("null"),
        }
        out.push_str(",\"eval\":");
        match span.eval {
            Some(e) => push_f64(&mut out, f64::from(e)),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            eval: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("bench.unit", 0, 1_000, None),
            span("bayesopt.suggest", 100, 300, Some(0)),
            span("bench.eval", 300, 900, Some(0)),
            span("apps.build", 300, 700, Some(2)),
            span("loadgen.driver_run", 700, 850, Some(2)),
        ];
        let selfs: Vec<u64> = self_times(&spans)
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(selfs, vec![200, 200, 50, 400, 150]);
        // 250 ns of 1000 sit in scaffolding self time.
        assert!((attributed_frac(&spans, 0) - 0.75).abs() < 1e-9);
        let layers = layer_self_times(&spans, 0);
        assert!((layers["apps"] - 400e-9).abs() < 1e-15);
        assert!((layers["bench"] - 250e-9).abs() < 1e-15);
    }

    #[test]
    fn totals_respect_the_subtree() {
        let spans = vec![
            span("bench.unit", 0, 100, None),
            span("core.instantiate", 0, 40, Some(0)),
            span("bench.pass", 100, 200, None),
            span("core.instantiate", 100, 160, Some(2)),
        ];
        let t = totals_under(&spans, 0);
        assert_eq!(t["core.instantiate"].count, 1);
        assert!((t["core.instantiate"].total - 40e-9).abs() < 1e-15);
        assert!(!t.contains_key("bench.pass"));
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut rec = Recorder::new();
        let unit = rec.enter("bench.unit", None);
        rec.span("bayesopt.suggest", Some(0), || ());
        let job = rec.enter("serve.job", Some(3));
        let started = Instant::now();
        rec.closed("serve.submit", Some(3), started, 0.002);
        rec.exit(job);
        rec.exit(unit);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(
            spans[3].parent,
            Some(2),
            "a closed span hangs under the open one"
        );
        assert_eq!(spans[3].end_ns - spans[3].start_ns, 2_000_000);
        let json = trace_json("w", &spans, 0);
        let parsed = datamime_runtime::json::Json::parse(&json).unwrap();
        assert_eq!(parsed.get("spans").unwrap().as_arr().unwrap().len(), 4);
    }
}
