//! Per-layer metrics derived from the spans of a traced run.

use nemscmos_spice::stats::SolverStats;

use crate::metrics::{ratio, Outcome};
use crate::trace::{self_time_by_layer, Span};

/// Summed duration and solver counters of the spans `pick` selects.
pub fn total(spans: &[Span], pick: impl Fn(&Span) -> bool) -> (f64, SolverStats) {
    spans
        .iter()
        .filter(|s| pick(s))
        .fold((0.0, SolverStats::default()), |(secs, st), s| {
            (secs + s.secs(), st + s.stats)
        })
}

/// The `tran.*`, `eval.*`, `solve.*` and `order.s` metrics from the
/// `spice` spans, per traced operation.
pub fn spice(out: &mut Outcome, spans: &[Span], ops: f64) {
    let (secs, st) = total(spans, |s| s.layer() == "spice");
    let per = |v: f64| ratio(v, ops);
    let eval_s = st.device_eval_ns as f64 * 1e-9;
    let solve_s = st.linear_solve_ns as f64 * 1e-9;
    out.set("tran.s", per(secs));
    out.set("tran.newton", per(st.newton_iterations as f64));
    out.set("tran.steps", per(st.steps_accepted as f64));
    out.set("tran.rejects", per(st.step_rejections as f64));
    out.set(
        "tran.accept_ratio",
        ratio(
            st.steps_accepted as f64,
            (st.steps_accepted + st.step_rejections) as f64,
        ),
    );
    out.set("tran.other_s", per(secs - eval_s - solve_s));
    out.set("eval.s", per(eval_s));
    out.set("eval.share", ratio(eval_s, secs));
    out.set("eval.batched", per(st.batched_evals as f64));
    out.set("solve.s", per(solve_s));
    out.set("solve.lu", per(st.lu_factorizations as f64));
    out.set(
        "solve.reuse_ratio",
        ratio(st.symbolic_reuses as f64, st.lu_factorizations as f64),
    );
    out.set("solve.fallbacks", per(st.refactor_fallbacks as f64));
    out.set("solve.bypass", per(st.bypass_solves as f64));
    out.set("solve.fill_nnz", per(st.fill_nnz as f64));
    out.set("order.s", per(st.ordering_ns as f64 * 1e-9));
}

/// Self time per layer, per traced operation, from the spans `pick`
/// selects. `sparse_s` is the self time of the run's one direct
/// sparse-kernel pass, which is not an operation and is not divided.
pub fn self_times(
    out: &mut Outcome,
    spans: &[Span],
    pick: impl Fn(&Span) -> bool,
    ops: f64,
    sparse_s: f64,
) {
    let by_layer = self_time_by_layer(spans, pick);
    let get = |layer: &str| by_layer.get(layer).copied().unwrap_or(0.0);
    out.set("self.bench_s", ratio(get("bench"), ops));
    out.set("self.gen_s", ratio(get("gen"), ops));
    out.set("self.spice_s", ratio(get("spice"), ops));
    out.set("self.sparse_s", sparse_s);
    out.set("self.harness_s", ratio(get("harness"), ops));
    out.set("self.server_s", ratio(get("server"), ops));
}

/// Every per-layer metric not yet recorded reads 0: the workload does
/// not exercise that layer.
pub fn zero_rest(out: &mut Outcome) {
    for &(name, _) in crate::metrics::PER_LAYER {
        if !out.metrics.iter().any(|(n, _)| *n == name) {
            out.set(name, 0.0);
        }
    }
}
