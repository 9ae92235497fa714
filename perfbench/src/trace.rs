//! In-memory spans for the traced run.
//!
//! A span records a name, start and end, the span that caused it and
//! the pass it belongs to. The benchmark opens spans around its own
//! calls into each layer's public functions; nothing inside the program
//! is instrumented. Spans are kept in memory and written out when the
//! benchmark ends. With tracing off ([`Cx::off`]) a span is one branch
//! around the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::sys;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the tracer.
    pub id: u64,
    /// The enclosing span, `None` for a pass root.
    pub parent: Option<u64>,
    /// The pass the span belongs to.
    pub pass: u32,
    /// Layer-qualified name, e.g. `browser.load_page`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Process CPU seconds used while the span was open, for spans
    /// opened with [`Cx::span_cpu`].
    pub cpu_s: Option<f64>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one benchmark process.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: sys::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The span list; a push leaves it valid at every step, so a lock
    /// poisoned by a panicking pass still holds whole spans.
    fn locked(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.locked().clone()
    }

    /// The spans as a JSON array (the trace file's payload).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let cpu = s
                .cpu_s
                .map_or_else(|| "null".to_owned(), |c| format!("{c}"));
            let _ = write!(
                out,
                "\n{{\"id\": {}, \"parent\": {parent}, \"pass\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"cpu_s\": {cpu}}}",
                s.id, s.pass, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Where a call sits: the tracer (none when tracing is off), the pass
/// and the enclosing span. Cheap to copy into worker closures, so
/// spans opened on pool threads keep their parent link.
#[derive(Debug, Clone, Copy)]
pub struct Cx<'a> {
    tracer: Option<&'a Tracer>,
    pass: u32,
    parent: Option<u64>,
}

impl<'a> Cx<'a> {
    /// Tracing off: spans only run their closure.
    pub fn off() -> Cx<'static> {
        Cx {
            tracer: None,
            pass: 0,
            parent: None,
        }
    }

    /// Tracing on, at the root of pass `pass`.
    pub fn traced(tracer: &'a Tracer, pass: u32) -> Cx<'a> {
        Cx {
            tracer: Some(tracer),
            pass,
            parent: None,
        }
    }

    /// Whether spans are recorded.
    pub fn is_traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(Cx<'a>) -> R) -> R {
        self.record(name, false, f)
    }

    /// [`Cx::span`] that also records the process CPU time used while
    /// the span is open. Only meaningful for spans that nothing else
    /// runs beside, such as a whole builder or engine call.
    pub fn span_cpu<R>(self, name: &'static str, f: impl FnOnce(Cx<'a>) -> R) -> R {
        self.record(name, true, f)
    }

    fn record<R>(self, name: &'static str, cpu: bool, f: impl FnOnce(Cx<'a>) -> R) -> R {
        let Some(tracer) = self.tracer else {
            return f(self);
        };
        // lint:allow(D3): span ids need only be unique; nothing is published through the counter
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let cpu0 = if cpu { sys::process_cpu_s() } else { 0.0 };
        let start_ns = tracer.now_ns();
        let out = f(Cx {
            parent: Some(id),
            ..self
        });
        let end_ns = tracer.now_ns();
        let span = Span {
            id,
            parent: self.parent,
            pass: self.pass,
            name,
            start_ns,
            end_ns,
            cpu_s: cpu.then(|| sys::process_cpu_s() - cpu0),
        };
        tracer.locked().push(span);
        out
    }
}

/// Per-name totals of one pass.
#[derive(Debug, Clone, Default)]
pub struct NameAgg {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, seconds (thread-seconds where spans overlap).
    pub total_s: f64,
    /// Summed self time: duration minus the part its children cover.
    pub self_s: f64,
    /// Summed recorded CPU seconds.
    pub cpu_s: f64,
    /// Every duration, seconds.
    pub durations_s: Vec<f64>,
}

/// The spans of one pass, aggregated by name.
#[derive(Debug, Clone, Default)]
pub struct PassSpans {
    /// Aggregates keyed by span name.
    pub by_name: BTreeMap<&'static str, NameAgg>,
    /// Self time of the pass root: pass time no child span accounts for.
    pub unattributed_s: f64,
}

impl PassSpans {
    /// The aggregate for `name` (empty when no such span ran).
    pub fn get(&self, name: &str) -> NameAgg {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Summed duration of every span whose name starts with `prefix`.
    pub fn total_prefixed(&self, prefix: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, a)| a.total_s)
            .sum()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Aggregate the spans of pass `pass`. The pass root is the span with
/// no parent.
pub fn summarize(spans: &[Span], pass: u32) -> PassSpans {
    let mine: Vec<&Span> = spans.iter().filter(|s| s.pass == pass).collect();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in &mine {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = PassSpans::default();
    for s in &mine {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
        let self_s = s.dur_ns().saturating_sub(covered) as f64 * 1e-9;
        let dur_s = s.dur_ns() as f64 * 1e-9;
        if s.parent.is_none() {
            out.unattributed_s += self_s;
        }
        let agg = out.by_name.entry(s.name).or_default();
        agg.count += 1;
        agg.total_s += dur_s;
        agg.self_s += self_s;
        agg.cpu_s += s.cpu_s.unwrap_or(0.0);
        agg.durations_s.push(dur_s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            pass: 1,
            name,
            start_ns: s,
            end_ns: e,
            cpu_s: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel workers) cover 30..80 of
        // the root's 0..100; a grandchild does not count against the
        // root.
        let spans = vec![
            span(1, None, "pass", 0, 100),
            span(2, Some(1), "a", 30, 60),
            span(3, Some(1), "a", 50, 80),
            span(4, Some(2), "b", 35, 40),
        ];
        let p = summarize(&spans, 1);
        assert!((p.unattributed_s - 50e-9).abs() < 1e-15);
        let a = p.get("a");
        assert_eq!(a.count, 2);
        assert!((a.total_s - 60e-9).abs() < 1e-15);
        assert!((a.self_s - 55e-9).abs() < 1e-15);
        assert_eq!(p.get("missing").count, 0);
    }

    #[test]
    fn spans_link_parents_across_threads() {
        let tracer = Tracer::default();
        let cx = Cx::traced(&tracer, 7);
        cx.span("pass", |cx| {
            std::thread::scope(|s| {
                s.spawn(move || cx.span("worker", |_| ()));
            });
        });
        let spans = tracer.spans();
        let root = spans.iter().find(|s| s.name == "pass").expect("root span");
        let worker = spans
            .iter()
            .find(|s| s.name == "worker")
            .expect("worker span");
        assert_eq!(worker.parent, Some(root.id));
        assert_eq!(worker.pass, 7);
        assert!(tracer.to_json().contains("\"name\": \"worker\""));
    }

    #[test]
    fn off_records_nothing() {
        assert!(!Cx::off().span("x", |cx| cx.is_traced()));
    }
}
