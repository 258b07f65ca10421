//! In-memory spans recorded around the calls the benchmark makes into
//! each layer.
//!
//! A span has a name (`<layer>.<what>`), a run id shared by every span
//! of one operation, a parent, start and end times, and the solver
//! counters ([`SolverStats`]) its thread spent inside it. Spans stay in
//! memory and are written out once, when the run ends. A disabled
//! tracer records nothing, so untraced operations pay one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use nemscmos_spice::stats::{self, SolverStats};

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `spice.tran`.
    pub name: &'static str,
    /// Operation id shared by all spans of one operation.
    pub run: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Solver counters spent on the recording thread inside the span.
    pub stats: SolverStats,
}

impl Span {
    /// The layer: the part of the name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Handle to an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: Option<usize>,
    before: SolverStats,
}

impl Open {
    /// The span's index, to pass as a child's parent.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

/// Span recorder shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span when `on`; a no-op handle otherwise.
    pub fn open(&self, on: bool, name: &'static str, run: u64, parent: Option<usize>) -> Open {
        if !on {
            return Open {
                id: None,
                before: SolverStats::default(),
            };
        }
        let before = stats::snapshot();
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            run,
            parent,
            start_ns,
            end_ns: 0,
            stats: SolverStats::default(),
        });
        Open {
            id: Some(spans.len() - 1),
            before,
        }
    }

    /// Closes `open` on the thread that opened it.
    pub fn close(&self, open: Open) {
        if let Some(id) = open.id {
            let end_ns = self.now_ns();
            let spent = stats::snapshot().delta_since(&open.before);
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans[id].end_ns = end_ns;
            spans[id].stats = spent;
        }
    }

    /// Runs `f` inside a span when `on`.
    pub fn span<R>(
        &self,
        on: bool,
        name: &'static str,
        run: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        let open = self.open(on, name, run, parent);
        let r = f(open.id());
        self.close(open);
        r
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// The I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"newton\":{},\"lu\":{},\"steps\":{},\"rejects\":{},\
                 \"eval_ns\":{},\"solve_ns\":{},\"ordering_ns\":{}}}",
                s.name,
                s.run,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.stats.newton_iterations,
                s.stats.lu_factorizations,
                s.stats.steps_accepted,
                s.stats.step_rejections,
                s.stats.device_eval_ns,
                s.stats.linear_solve_ns,
                s.stats.ordering_ns,
            )?;
        }
        out.flush()
    }
}

/// Seconds of `[start, end)` covered by the union of `intervals`.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time per layer in seconds: each span's duration minus the part
/// of it that its children cover, summed by layer over the spans `pick`
/// selects. `spans` is the whole list, so parent indices stay valid.
pub fn self_time_by_layer(
    spans: &[Span],
    pick: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut by_layer = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children).filter(|(s, _)| pick(s)) {
        let clipped = kids
            .into_iter()
            .map(|(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        let own = s
            .end_ns
            .saturating_sub(s.start_ns)
            .saturating_sub(covered(clipped));
        *by_layer.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            run: 0,
            parent,
            start_ns,
            end_ns,
            stats: SolverStats::default(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("harness.batch", None, 0, 100),
            // Two overlapping children cover [10, 70); a third [80, 90).
            span("spice.job", Some(0), 10, 50),
            span("spice.job", Some(0), 30, 70),
            span("spice.job", Some(0), 80, 90),
        ];
        let t = self_time_by_layer(&spans, |_| true);
        assert!((t["harness"] - 30e-9).abs() < 1e-15);
        assert!((t["spice"] - 90e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::default();
        let v = tracer.span(false, "bench.round", 1, None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(tracer.spans().is_empty());
        tracer.span(true, "bench.round", 2, None, |id| {
            tracer.span(true, "gen.build", 2, id, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 2 && s.end_ns >= s.start_ns));
    }
}
