//! `gate-mc`: seeded Monte Carlo over the paper's dynamic OR gate.
//!
//! One round draws every (fan-in, fan-out) pair of the grid once; each
//! draw gives every pull-down branch a bounded V_th shift and becomes
//! two jobs, CMOS and hybrid, with the same shifts. A round is one batch
//! through an explicitly built `Runner` (no cache, no journal, no
//! environment knobs); one operation is one job. Set-up is building the
//! runner and the round's gates.

use std::time::Instant;

use nemscmos::gates::{DynamicOrGate, DynamicOrParams, PdnStyle};
use nemscmos::tech::Technology;
use nemscmos_analysis::pdp::GateFigures;
use nemscmos_harness::{HarnessError, JobOutcome, JobSpec, RetryPolicy, Runner};
use nemscmos_numeric::rng::{Rand64, Xoshiro256pp};

use crate::layers;
use crate::metrics::{median, peak_rss_mb, ratio, tail, Outcome};
use crate::trace::Tracer;
use crate::Config;

const FAN_INS: [usize; 5] = [4, 8, 12, 16, 24];
const FAN_OUTS: [usize; 3] = [1, 4, 8];
/// Largest V_th shift drawn for a pull-down branch (V).
const MAX_SHIFT: f64 = 0.010;

/// Run ids of jobs: round `r`, job `i` → `JOB_RUN + r * 1000 + i`.
const JOB_RUN: u64 = 1 << 32;

/// The jobs of round `round`: draw pairs, CMOS first.
fn draws(seed: u64, round: u64) -> Vec<DynamicOrParams> {
    let mut rng = Xoshiro256pp::for_stream(seed, round);
    let mut params = Vec::new();
    for &fan_in in &FAN_INS {
        for &fan_out in &FAN_OUTS {
            let shifts: Vec<f64> = (0..fan_in)
                .map(|_| MAX_SHIFT * (2.0 * rng.next_f64() - 1.0))
                .collect();
            for style in [PdnStyle::Cmos, PdnStyle::HybridNems] {
                let mut p = DynamicOrParams::new(fan_in, fan_out, style);
                p.pdn_vth_shifts = shifts.clone();
                params.push(p);
            }
        }
    }
    params
}

fn spec(p: &DynamicOrParams) -> JobSpec {
    let style = match p.style {
        PdnStyle::Cmos => "cmos",
        PdnStyle::HybridNems => "hybrid",
    };
    JobSpec::new(
        format!("or{}-fo{}-{style}", p.fan_in, p.fan_out),
        format!(
            "gate-mc v1 style={style} fan_in={} fan_out={} shifts={:?}",
            p.fan_in, p.fan_out, p.pdn_vth_shifts
        ),
    )
}

/// The per-job oracle: a finite delay that ends inside the evaluation
/// window (clock high from a quarter to three quarters of the period).
fn check_job(
    p: &DynamicOrParams,
    t_input_rise: f64,
    r: &Result<GateFigures, HarnessError>,
) -> Result<(), String> {
    let f = r.as_ref().map_err(|e| format!("{}: {e}", spec(p).name))?;
    let window_end = 0.75 * p.period;
    if f.delay.is_finite() && f.delay > 0.0 && t_input_rise + f.delay < window_end {
        Ok(())
    } else {
        Err(format!(
            "{}: delay {:e} s leaves the evaluation window",
            spec(p).name,
            f.delay
        ))
    }
}

/// The pair oracle: the hybrid leaks less than CMOS, is slower at
/// fan-in 4 and faster from fan-in 16 (the paper's crossover).
fn check_pair(fan_in: usize, cmos: &GateFigures, hybrid: &GateFigures) -> Result<(), String> {
    if hybrid.leakage_power >= cmos.leakage_power {
        return Err(format!(
            "or{fan_in}: hybrid leakage {:e} W not below CMOS {:e} W",
            hybrid.leakage_power, cmos.leakage_power
        ));
    }
    let slower = hybrid.delay > cmos.delay;
    if (fan_in <= 4 && !slower) || (fan_in >= 16 && slower) {
        return Err(format!(
            "or{fan_in}: hybrid delay {:e} s vs CMOS {:e} s breaks the crossover",
            hybrid.delay, cmos.delay
        ));
    }
    Ok(())
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let tech = Technology::n90();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut batch_s = Vec::new();
    let mut job_ms = Vec::new();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let (mut util, mut overhead_s, mut rescued) = (Vec::new(), Vec::new(), 0usize);
    let mut unknowns = (usize::MAX, 0usize);
    let started = Instant::now();
    let mut round = 0u64;
    while round < cfg.min_rounds() || started.elapsed().as_secs_f64() < cfg.seconds {
        let on = cfg.traced(round);
        let root = tracer.open(on, "bench.round", round, None);

        let t = Instant::now();
        let runner = Runner::with_config(threads, None, RetryPolicy::default());
        let params = draws(cfg.seed, round);
        let jobs: Vec<JobSpec> = params.iter().map(spec).collect();
        let mut t_input_rise = Vec::with_capacity(params.len());
        for p in &params {
            let mut g = DynamicOrGate::build(&tech, p);
            let n = g.circuit.num_unknowns();
            unknowns = (unknowns.0.min(n), unknowns.1.max(n));
            t_input_rise.push(g.t_input_rise);
        }
        setup_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let batch = tracer.open(on, "harness.batch", round, root.id());
        let (results, report) = runner.run_collect("gate-mc", &jobs, |i, _| {
            let run = JOB_RUN + round * 1000 + i as u64;
            tracer.span(on, "harness.attempt", run, batch.id(), |job| {
                let mut gate = tracer.span(on, "gen.build", run, job, |_| {
                    DynamicOrGate::build(&tech, &params[i])
                });
                tracer
                    .span(on, "spice.characterize", run, job, |_| {
                        gate.characterize(&tech)
                    })
                    .map_err(HarnessError::from)
            })
        });
        tracer.close(batch);
        let wall = t.elapsed().as_secs_f64();
        tracer.close(root);

        let mut verdicts: Vec<Result<(), String>> = params
            .iter()
            .zip(&t_input_rise)
            .zip(&results)
            .map(|((p, &tr), r)| check_job(p, tr, r))
            .collect();
        // A failed pair oracle fails both jobs of the draw.
        for k in (0..params.len()).step_by(2) {
            if let (Ok(cmos), Ok(hybrid)) = (&results[k], &results[k + 1]) {
                if let Err(e) = check_pair(params[k].fan_in, cmos, hybrid) {
                    verdicts[k] = Err(e.clone());
                    verdicts[k + 1] = Err(e);
                }
            }
        }
        for verdict in verdicts {
            out.check(verdict.is_ok(), || verdict.unwrap_err());
        }

        batch_s.push(wall);
        let walls: Vec<f64> = report.jobs.iter().map(|j| j.wall.as_secs_f64()).collect();
        job_ms.extend(walls.iter().map(|s| s * 1e3));
        if on {
            traced_s.push(wall);
            let busy: f64 = walls.iter().sum();
            let batch_wall = report.batch_wall.as_secs_f64();
            util.push(ratio(busy, threads as f64 * batch_wall));
            overhead_s.push(batch_wall - busy / threads as f64);
            rescued += report
                .jobs
                .iter()
                .filter(|j| matches!(j.outcome, JobOutcome::Recovered(_)))
                .count();
        } else {
            untraced_s.push(wall);
        }
        round += 1;
    }

    let (pct, tail_ms) = tail(&job_ms);
    eprintln!(
        "perfbench: gate-mc: {round} batches of {} jobs on {threads} threads, \
         {}..{} unknowns, job tail p{pct} (n={})",
        2 * FAN_INS.len() * FAN_OUTS.len(),
        unknowns.0,
        unknowns.1,
        job_ms.len()
    );
    if !cfg.trace {
        out.set("setup_s", median(&setup_s));
        out.set("peak_rss_mb", peak_rss_mb("self"));
        out.set("ok_frac", out.ok_frac());
        out.set("run_s", median(&batch_s));
        out.set(
            "ops_per_s",
            job_ms.len() as f64 / batch_s.iter().sum::<f64>(),
        );
        out.set("op_p50_ms", median(&job_ms));
        out.set("op_tail_ms", tail_ms);
        return out;
    }

    let spans = tracer.spans();
    let ops = traced_s.len() as f64;
    layers::spice(&mut out, &spans, ops);
    let (gen_s, _) = layers::total(&spans, |s| s.layer() == "gen");
    out.set("gen.build_ms", gen_s * 1e3 / ops);
    out.set("pool.util", median(&util));
    out.set("pool.overhead_s", median(&overhead_s));
    out.set("retry.rescued", rescued as f64 / ops);
    layers::self_times(&mut out, &spans, |_| true, ops, 0.0);
    out.set(
        "trace.overhead_frac",
        median(&traced_s) / median(&untraced_s) - 1.0,
    );
    layers::zero_rest(&mut out);
    out
}
