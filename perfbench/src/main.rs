//! `perfbench`: the repository benchmark.
//!
//! ```sh
//! bash perfbench/run.sh --workload gate-mc --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload for `--seconds`, checks every output with the
//! workload's oracles, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, measured untraced; with `--trace 1`
//! they are the per-layer set, from spans recorded around the calls
//! into each layer (written to `.perfbench/trace-<workload>-<seed>.jsonl`).
//! See `perfbench/NOTES.md` for what each metric means.

mod gatemc;
mod layers;
mod metrics;
mod servermix;
mod sram;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use trace::Tracer;

/// Directory, relative to the repository root, for traces and server
/// run directories.
pub const OUT_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload sram-array|gate-mc|server-mix --seed N \
--seconds S --trace 0|1 [--server-bin PATH]";

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time (s).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `nemscmos-server` binary (server-mix).
    pub server_bin: PathBuf,
}

impl Config {
    /// Whether operation `i` is traced: a traced run alternates
    /// untraced and traced operations, so the two can be compared for
    /// the tracing overhead.
    pub fn traced(&self, i: u64) -> bool {
        self.trace && i % 2 == 1
    }

    /// Operations a run makes however short `--seconds` is: a traced
    /// run needs one of each kind.
    pub fn min_rounds(&self) -> u64 {
        if self.trace {
            2
        } else {
            1
        }
    }
}

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = PathBuf::from("nemscmos-server");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--server-bin" => server_bin = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["sram-array", "gate-mc", "server-mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server_bin,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::default();
    let outcome = match cfg.workload.as_str() {
        "sram-array" => Ok(sram::run(&cfg, &tracer)),
        "gate-mc" => Ok(gatemc::run(&cfg, &tracer)),
        _ => servermix::run(&cfg, &tracer),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    if cfg.trace {
        let path = std::path::Path::new(OUT_DIR)
            .join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let registry = if cfg.trace { PER_LAYER } else { END_TO_END };
    match outcome.render(registry) {
        Ok(line) => {
            for (name, value) in &outcome.metrics {
                let unit = registry.iter().find(|(n, _)| n == name).map_or("", |m| m.1);
                eprintln!("  {name:<24} {value:>14.6} {unit}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::metrics::{END_TO_END, PER_LAYER};
    use nemscmos_harness::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = doc
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect();
        v.sort();
        v
    }

    fn registry(r: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut v: Vec<_> = r
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), registry(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), registry(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, ["sram-array", "gate-mc", "server-mix"]);
    }
}
