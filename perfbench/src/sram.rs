//! `sram-array`: the checkerboard-write transient on a 24×24
//! conventional-6T array, then on the same-shape hybrid array.
//!
//! One operation is the pair of transients, run by one thread; `nproc`
//! threads run pairs side by side. Set-up is building the two generated
//! decks. After the timed rounds, one pass calls the sparse kernels
//! directly on each array's DC Jacobian. The stimulus is fixed, so the
//! seed does not change the inputs.

use std::time::Instant;

use nemscmos::gen::{GenDeck, SramArrayGen};
use nemscmos::sram::SramKind;
use nemscmos::tech::Technology;
use nemscmos_numeric::sparse::{min_degree, CscMatrix, SparseLu};
use nemscmos_spice::analysis::op::OpOptions;
use nemscmos_spice::analysis::probe::dc_jacobian;
use nemscmos_spice::analysis::tran::{transient, TranOptions};

use crate::layers;
use crate::metrics::{median, peak_rss_mb, tail, Outcome};
use crate::trace::Tracer;
use crate::Config;

/// Array side length.
const SIDE: usize = 24;

/// One array of the operation: its cell kind, the span around its
/// transient, and its `tran`, `eval`, `solve` and `other` metrics.
struct Array {
    kind: SramKind,
    span: &'static str,
    metrics: [&'static str; 4],
}

const ARRAYS: [Array; 2] = [
    Array {
        kind: SramKind::Conventional,
        span: "spice.tran.6t",
        metrics: ["6t.tran_s", "6t.eval_s", "6t.solve_s", "6t.other_s"],
    },
    Array {
        kind: SramKind::Hybrid,
        span: "spice.tran.hybrid",
        metrics: [
            "hybrid.tran_s",
            "hybrid.eval_s",
            "hybrid.solve_s",
            "hybrid.other_s",
        ],
    },
];

/// Largest relative residual accepted from a direct sparse solve.
const RESIDUAL_LIMIT: f64 = 1e-8;

/// Timed samples of building both decks before the first round. The
/// rounds' own builds overlap the other threads' transients, which made
/// their times bimodal.
const SETUP_SAMPLES: usize = 15;
/// Builds of both decks per thread and set-up sample, after one untimed
/// build that warms the allocator.
const SETUP_BUILDS: usize = 8;

/// Run ids of the direct sparse pass, above every round id.
const SPARSE_RUN: u64 = 1 << 48;

fn build(tech: &Technology, kind: SramKind) -> GenDeck {
    SramArrayGen::new(SIDE, SIDE).with_kind(kind).build(tech)
}

/// Whether every cell holds what the checkerboard write leaves: row 0
/// holds 1 in even columns and 0 in odd ones, every other row keeps its
/// power-on 0. Returns the first offending cell.
fn check_cells(
    deck: &GenDeck,
    res: &nemscmos_spice::result::TranResult,
    vdd: f64,
) -> Result<(), String> {
    let v = |name: &str| -> Result<f64, String> {
        let node = deck
            .circuit
            .find_node(name)
            .ok_or(format!("{}: no node {name}", deck.name))?;
        Ok(res.voltage(node).last_value())
    };
    for r in 0..SIDE {
        for c in 0..SIDE {
            let one = r == 0 && c % 2 == 0;
            let (q, qb) = (v(&format!("q{r}_{c}"))?, v(&format!("qb{r}_{c}"))?);
            let (hi, lo) = if one { (q, qb) } else { (qb, q) };
            if hi < 0.7 * vdd || lo > 0.3 * vdd {
                return Err(format!(
                    "{}: cell ({r},{c}) should hold {} but q={q:.3} V, qb={qb:.3} V",
                    deck.name,
                    u8::from(one)
                ));
            }
        }
    }
    Ok(())
}

/// Infinity-norm relative residual of `A x = b`.
fn rel_residual(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let r = a.mat_vec(x);
    let num = r
        .iter()
        .zip(b)
        .map(|(ri, bi)| (ri - bi).abs())
        .fold(0.0f64, f64::max);
    let den = b.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1e-30);
    num / den
}

/// Calls `f` three times inside one span; returns the fastest call in
/// ms and the last result.
fn kernel<T>(
    tracer: &Tracer,
    on: bool,
    name: &'static str,
    run: u64,
    parent: Option<usize>,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    tracer.span(on, name, run, parent, |_| {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..3 {
            let t = Instant::now();
            out = Some(f());
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        (best, out.expect("three calls ran"))
    })
}

/// Kernel timings (ms) and factor fill, summed over the arrays.
#[derive(Default)]
struct Kernels {
    order_ms: f64,
    factor_ms: f64,
    refactor_ms: f64,
    trisolve_ms: f64,
    fill_nnz: f64,
}

/// Orders, factors, refactors and solves one array's DC Jacobian,
/// adding the timings to `k`; the solve must leave a residual below
/// [`RESIDUAL_LIMIT`].
fn direct_sparse(
    tracer: &Tracer,
    on: bool,
    run: u64,
    mut deck: GenDeck,
    k: &mut Kernels,
) -> Result<(), String> {
    let name = deck.name.clone();
    tracer.span(on, "sparse.pass", run, None, |at| {
        let probe = tracer
            .span(on, "spice.dc_jacobian", run, at, |_| {
                dc_jacobian(&mut deck.circuit, &OpOptions::default())
            })
            .map_err(|e| format!("{name}: operating point failed: {e}"))?;
        let a = CscMatrix::from_triplets(probe.n, probe.n, &probe.entries);
        let b = a.mat_vec(&vec![1.0; probe.n]);
        let (ms, order) = kernel(tracer, on, "sparse.order", run, at, || min_degree(&a));
        k.order_ms += ms;
        let (ms, lu) = kernel(tracer, on, "sparse.factor", run, at, || {
            SparseLu::factor_symbolic_with_order(&a, &order)
        });
        k.factor_ms += ms;
        let mut lu = lu.map_err(|e| format!("{name}: factor failed: {e}"))?;
        k.fill_nnz += lu.factor_nnz() as f64;
        let (ms, refactored) = kernel(tracer, on, "sparse.refactor", run, at, || lu.refactor(&a));
        k.refactor_ms += ms;
        refactored.map_err(|e| format!("{name}: refactor rejected: {e:?}"))?;
        let (ms, x) = kernel(tracer, on, "sparse.trisolve", run, at, || lu.solve(&b));
        k.trisolve_ms += ms;
        let x = x.map_err(|e| format!("{name}: solve failed: {e}"))?;
        let residual = rel_residual(&a, &x, &b);
        if residual.is_finite() && residual < RESIDUAL_LIMIT {
            Ok(())
        } else {
            Err(format!("{name}: direct solve residual {residual:e}"))
        }
    })
}

/// What one worker thread's pairs produced.
#[derive(Default)]
struct Pairs {
    out: Outcome,
    op_s: Vec<f64>,
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
}

/// One worker's loop of pairs until `cfg.seconds` have passed since
/// `started`. Its round `r` has run id `worker << 32 | r`.
fn pairs(cfg: &Config, tracer: &Tracer, tech: &Technology, worker: u64, started: Instant) -> Pairs {
    let mut p = Pairs::default();
    let mut round = 0u64;
    while round < cfg.min_rounds() || started.elapsed().as_secs_f64() < cfg.seconds {
        let on = cfg.traced(round);
        let run = (worker << 32) | round;
        let root = tracer.open(on, "bench.round", run, None);
        let decks: Vec<GenDeck> = ARRAYS
            .iter()
            .map(|array| tracer.span(on, "gen.build", run, root.id(), |_| build(tech, array.kind)))
            .collect();
        let mut secs = 0.0;
        for (mut deck, array) in decks.into_iter().zip(&ARRAYS) {
            let opts = TranOptions {
                dt_max: Some(deck.dt_max),
                ..Default::default()
            };
            let t = Instant::now();
            let res = tracer.span(on, array.span, run, root.id(), |_| {
                transient(&mut deck.circuit, deck.tstop, &opts)
            });
            secs += t.elapsed().as_secs_f64();
            let verdict = res
                .map_err(|e| format!("{}: transient failed: {e}", deck.name))
                .and_then(|res| check_cells(&deck, &res, tech.vdd));
            p.out.check(verdict.is_ok(), || verdict.unwrap_err());
        }
        tracer.close(root);
        p.op_s.push(secs);
        if on {
            p.traced_s.push(secs);
        } else {
            p.untraced_s.push(secs);
        }
        round += 1;
    }
    p
}

/// Runs the workload: `nproc` threads each run pairs. The speed of each
/// vCPU of a shared two-core machine swings by a third over seconds,
/// nearly independently of the other's, so one thread would measure the
/// luck of one vCPU.
pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let tech = Technology::n90();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let build_both = || {
        for array in &ARRAYS {
            std::hint::black_box(build(&tech, array.kind));
        }
    };
    build_both();
    // Every thread builds at once and a sample is their mean build time:
    // one thread measured the vCPU it sat on, and the two vCPUs of a
    // shared machine built at 1.4 and 2.2 ms, trading places within a run.
    let setup_s: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let per_thread: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let t = Instant::now();
                            for _ in 0..SETUP_BUILDS {
                                build_both();
                            }
                            t.elapsed().as_secs_f64() / SETUP_BUILDS as f64
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a set-up build panicked"))
                    .collect()
            });
            per_thread.iter().sum::<f64>() / threads as f64
        })
        .collect();
    let mut all = Pairs::default();
    let started = Instant::now();
    let per_worker: Vec<Pairs> = std::thread::scope(|scope| {
        let tech = &tech;
        let handles: Vec<_> = (0..threads as u64)
            .map(|w| scope.spawn(move || pairs(cfg, tracer, tech, w, started)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a pair worker panicked"))
            .collect()
    });
    for p in per_worker {
        all.out.attempted += p.out.attempted;
        all.out.failed += p.out.failed;
        all.op_s.extend(p.op_s);
        all.traced_s.extend(p.traced_s);
        all.untraced_s.extend(p.untraced_s);
    }
    let Pairs {
        mut out,
        op_s,
        traced_s,
        untraced_s,
    } = all;

    let mut kernels = Kernels::default();
    for (i, array) in ARRAYS.iter().enumerate() {
        let deck = build(&tech, array.kind);
        let verdict = direct_sparse(tracer, cfg.trace, SPARSE_RUN + i as u64, deck, &mut kernels);
        out.check(verdict.is_ok(), || verdict.unwrap_err());
    }

    let op_ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
    let (pct, tail_ms) = tail(&op_ms);
    eprintln!(
        "perfbench: sram-array {SIDE}x{SIDE}: {threads} threads, {} pairs {op_s:.3?} s, \
         tail p{pct} (n={})",
        op_s.len(),
        op_ms.len()
    );
    if !cfg.trace {
        out.set("setup_s", median(&setup_s));
        out.set("peak_rss_mb", peak_rss_mb("self"));
        out.set("ok_frac", out.ok_frac());
        out.set("run_s", median(&op_s));
        // Pairs per second across the threads, from the summed pair
        // times: counting whole pairs in the window would step by one
        // pair in sixteen.
        out.set(
            "ops_per_s",
            threads as f64 * op_s.len() as f64 / op_s.iter().sum::<f64>(),
        );
        out.set("op_p50_ms", median(&op_ms));
        out.set("op_tail_ms", tail_ms);
        return out;
    }

    let spans = tracer.spans();
    let ops = traced_s.len() as f64;
    let round_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.run < SPARSE_RUN)
        .cloned()
        .collect();
    layers::spice(&mut out, &round_spans, ops);
    for array in &ARRAYS {
        let (secs, st) = layers::total(&round_spans, |s| s.name == array.span);
        let eval_s = st.device_eval_ns as f64 * 1e-9;
        let solve_s = st.linear_solve_ns as f64 * 1e-9;
        let values = [secs, eval_s, solve_s, secs - eval_s - solve_s];
        for (name, v) in array.metrics.into_iter().zip(values) {
            out.set(name, v / ops);
        }
    }
    let (gen_s, _) = layers::total(&round_spans, |s| s.layer() == "gen");
    out.set("gen.build_ms", gen_s * 1e3 / ops);
    out.set("sparse.order_ms", kernels.order_ms);
    out.set("sparse.factor_ms", kernels.factor_ms);
    out.set("sparse.refactor_ms", kernels.refactor_ms);
    out.set("sparse.trisolve_ms", kernels.trisolve_ms);
    out.set("sparse.fill_nnz", kernels.fill_nnz);
    let in_pass = |s: &crate::trace::Span| s.run >= SPARSE_RUN;
    let sparse_self = crate::trace::self_time_by_layer(&spans, in_pass)
        .get("sparse")
        .copied()
        .unwrap_or(0.0);
    layers::self_times(&mut out, &spans, |s| !in_pass(s), ops, sparse_self);
    out.set(
        "trace.overhead_frac",
        median(&traced_s) / median(&untraced_s) - 1.0,
    );
    layers::zero_rest(&mut out);
    out
}
