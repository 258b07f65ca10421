//! The metric registry, the summary statistics every workload shares,
//! and the JSON result line.

use nemscmos_harness::Json;
use nemscmos_numeric::stats::quantile;

/// End-to-end metrics, printed by every workload with `--trace 0`:
/// `(name, unit)`. Their direction and regression bound live in
/// `BENCHMARK.json`; `tests` checks the two lists agree.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core::gen / core::gates
    ("gen.build_ms", "ms"),
    // spice::analysis (transient; characterize = transient + op)
    ("tran.s", "s"),
    ("tran.newton", "count"),
    ("tran.steps", "count"),
    ("tran.rejects", "count"),
    ("tran.accept_ratio", "frac"),
    ("tran.other_s", "s"),
    // devices, batched through spice::stamp
    ("eval.s", "s"),
    ("eval.share", "frac"),
    ("eval.batched", "count"),
    // numeric::sparse, reached through spice::stamp
    ("solve.s", "s"),
    ("solve.lu", "count"),
    ("solve.reuse_ratio", "frac"),
    ("solve.fallbacks", "count"),
    ("solve.bypass", "count"),
    ("solve.fill_nnz", "count"),
    ("order.s", "s"),
    // the same split for each array of sram-array
    ("6t.tran_s", "s"),
    ("6t.eval_s", "s"),
    ("6t.solve_s", "s"),
    ("6t.other_s", "s"),
    ("hybrid.tran_s", "s"),
    ("hybrid.eval_s", "s"),
    ("hybrid.solve_s", "s"),
    ("hybrid.other_s", "s"),
    // numeric::sparse called directly on each array's DC Jacobian
    ("sparse.order_ms", "ms"),
    ("sparse.factor_ms", "ms"),
    ("sparse.refactor_ms", "ms"),
    ("sparse.trisolve_ms", "ms"),
    ("sparse.fill_nnz", "count"),
    // harness
    ("pool.util", "frac"),
    ("pool.overhead_s", "s"),
    ("retry.rescued", "count"),
    // server
    ("server.ack_p50_ms", "ms"),
    ("server.fresh_p50_ms", "ms"),
    ("server.fresh_tail_ms", "ms"),
    ("server.replay_p50_ms", "ms"),
    ("server.hit_ratio", "frac"),
    ("server.rejected", "count"),
    ("server.journal_pending", "count"),
    // self time per layer, from the spans
    ("self.bench_s", "s"),
    ("self.gen_s", "s"),
    ("self.spice_s", "s"),
    ("self.sparse_s", "s"),
    ("self.harness_s", "s"),
    ("self.server_s", "s"),
    // tracing
    ("trace.overhead_frac", "frac"),
];

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [u32; 3] = [95, 90, 75];

/// Samples a reported percentile must leave beyond it.
const BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` (`pct` in 1..=100).
fn nearest_rank(sorted: &[f64], pct: u32) -> (usize, f64) {
    let rank = (pct as usize * sorted.len()).div_ceil(100).max(1);
    (rank, sorted[rank - 1])
}

/// Median of `xs` (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(0.0)
}

/// The highest percentile of the tail ladder that leaves at least ten
/// samples beyond it, as `(percentile, value)`. With too few samples for
/// any of them it reads the median, reported as percentile 50.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    for pct in TAIL_LADDER {
        if v.is_empty() {
            break;
        }
        let (rank, value) = nearest_rank(&v, pct);
        if v.len() - rank >= BEYOND {
            return (pct, value);
        }
    }
    (50, median(xs))
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of process `pid` ("self" for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (array transients, gate jobs, requests).
    pub attempted: u64,
    /// Operations whose result failed or whose oracle rejected it.
    pub failed: u64,
    /// Metric values by name, for the mode that was run.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts one attempted operation and whether it failed, describing
    /// a failure on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: oracle failed: {}", what());
        }
    }

    /// The share of attempted operations that passed.
    pub fn ok_frac(&self) -> f64 {
        ratio((self.attempted - self.failed) as f64, self.attempted as f64)
    }

    /// Renders the result line against `registry`.
    ///
    /// # Errors
    ///
    /// Names a registry metric the workload did not record, or a
    /// recorded metric outside the registry, or a non-finite value.
    pub fn render(&self, registry: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(registry.len());
        for &(name, unit) in registry {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .ok_or(format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            ));
        }
        if let Some((extra, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !registry.iter().any(|(r, _)| r == n))
        {
            return Err(format!("metric {extra} is not in the registry"));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 is rank 190: exactly ten samples beyond it.
        assert_eq!(tail(&xs), (95, 190.0));
        // One sample fewer leaves nine beyond p95 (rank 189 of 199), so
        // p90 (rank 180, nineteen beyond) is the highest allowed.
        assert_eq!(tail(&xs[..199]), (90, 180.0));
        // 40 samples: p75 is rank 30 with ten beyond.
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&forty), (75, 30.0));
        // Too few for any tail percentile: the median.
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50, 2.0));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs), (90, 90.0));
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !name.is_empty() && name.len() <= 64 && name.chars().all(allowed),
                "bad metric name {name:?}"
            );
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name:?} must start with a letter or digit"
            );
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn render_refuses_missing_and_unknown_metrics() {
        let registry = [("a", "s"), ("b", "ms")];
        let mut out = Outcome::default();
        out.set("a", 1.5);
        assert!(out.render(&registry).unwrap_err().contains("b"));
        out.set("b", 2.0);
        let line = out.render(&registry).unwrap();
        assert!(line.starts_with(r#"{"correct":true,"attempted":0,"failed":0,"metrics":{"a""#));
        out.set("c", 0.0);
        assert!(out.render(&registry).unwrap_err().contains("c"));
    }
}
