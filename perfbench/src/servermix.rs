//! `server-mix`: a closed loop against a spawned `nemscmos-server`.
//!
//! `nproc` clients each submit their next deck only after the last one
//! ended; the server runs `nproc` workers. Each client's stream is drawn
//! from the seed in blocks of 20 with a fixed composition: one repeat of
//! a spec the client already completed; one domino gate and one verify
//! deck from the sets the repository documents for the server (fresh
//! the first time they are sent, replays after); and seventeen fresh
//! Monte-Carlo decks with unique seeds, one of 1000 trials and sixteen
//! of 5000. So about 15% of requests are replays, and the median and the
//! tail both fall inside the 5000-trial class, not on a boundary between
//! two classes.
//!
//! The documented clients send `mc` decks of at most 64 trials. A mix of
//! those is bound by the server layer itself (journal fsyncs, file
//! creation, thread hand-offs), and its throughput swung by 30-40% from
//! run to run on a shared two-vCPU machine. So this mix is bound by the
//! Monte-Carlo compute instead: its end-to-end figures hardly move when
//! admission, journal or replay change, and the per-layer `server.*`
//! metrics judge those. One operation is one request; set-up is
//! spawning the server until it listens, done 31 times in one run
//! directory.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use nemscmos_harness::Json;
use nemscmos_numeric::rng::{Rand64, Xoshiro256pp};
use nemscmos_server::{Response, ServerClient};

use crate::metrics::{median, peak_rss_mb, ratio, tail, Outcome};
use crate::trace::Tracer;
use crate::Config;

/// Server spawns per run; the last one serves the measurement.
const SETUPS: usize = 31;
/// Completed requests after which the server's peak resident set is
/// read, so that a faster server, which serves more requests in the
/// window, does not read as a larger one.
const RSS_AFTER: usize = 1000;
/// Requests a client sends under one name. The server grants each
/// client name 50 million Newton iterations a run, and a 5000-trial deck
/// spends about 17 000: one name for a whole run ran dry after some
/// 3000 requests, which a fast enough machine, or a faster server,
/// reaches in 30 s.
const NAME_EVERY: u64 = 500;
/// Completions per `run_s` sample.
const BLOCK: usize = 160;
/// How long a spawned server may take to start listening.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Domino gates of `EXPERIMENTS.md`, the chaos drill
/// (`crates/bench/src/bin/chaos.rs`) and the deck tests.
const DOMINOS: [(usize, usize); 3] = [(4, 2), (8, 4), (8, 2)];
/// The verify decks the chaos drill sends.
const VERIFY: [&str; 4] = [
    "rc-ladder-pulse",
    "rlc-tank",
    "cmos-inverter",
    "nmos-cascade",
];
/// Slot kinds of one 20-request block.
#[derive(Clone, Copy)]
enum Slot {
    Repeat,
    Domino,
    Verify,
    /// A fresh Monte-Carlo deck of this many trials.
    Mc(usize),
}

const BLOCK_SLOTS: [(Slot, usize); 5] = [
    (Slot::Repeat, 1),
    (Slot::Domino, 1),
    (Slot::Verify, 1),
    (Slot::Mc(1000), 1),
    (Slot::Mc(5000), 16),
];

/// One client's seeded request stream.
struct Stream {
    rng: Xoshiro256pp,
    block: Vec<Slot>,
    done: Vec<String>,
}

impl Stream {
    fn new(seed: u64, client: u64) -> Stream {
        Stream {
            rng: Xoshiro256pp::for_stream(seed, client),
            block: Vec::new(),
            done: Vec::new(),
        }
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.rng.next_u64() % from.len() as u64) as usize]
    }

    fn mc(&mut self, trials: usize) -> String {
        let seed = self.rng.next_u64();
        format!("deck v1 mc trials={trials} seed={seed} sigma=0.05")
    }

    fn next_spec(&mut self) -> String {
        if self.block.is_empty() {
            self.block = BLOCK_SLOTS
                .iter()
                .flat_map(|&(s, n)| std::iter::repeat_n(s, n))
                .collect();
            // Fisher-Yates, so every block has the same composition.
            for i in (1..self.block.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
        }
        let slot = self.block.pop().expect("block refilled above");
        match slot {
            Slot::Repeat if !self.done.is_empty() => {
                let i = (self.rng.next_u64() % self.done.len() as u64) as usize;
                self.done[i].clone()
            }
            // The first block has nothing to repeat yet.
            Slot::Repeat => self.mc(5000),
            Slot::Mc(trials) => self.mc(trials),
            Slot::Domino => {
                let (fan_in, fan_out) = self.pick(&DOMINOS);
                format!("deck v1 domino fan_in={fan_in} fan_out={fan_out}")
            }
            Slot::Verify => format!("deck v1 verify name={}", self.pick(&VERIFY)),
        }
    }
}

/// The server's run directory under [`crate::OUT_DIR`], removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<RunDir, String> {
        let dir = Path::new(crate::OUT_DIR).join(format!("server-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A spawned server, killed and reaped on drop if still running.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    /// Spawns the server in `dir` and waits until it answers `health`.
    /// Returns it with the seconds it took to start listening.
    ///
    /// Every spawn of a run shares one run directory, so only the first
    /// creates the journal and cache; later ones create only the socket.
    /// File creation costs what the file system's state makes it cost:
    /// a spawn into a fresh directory took 2.6 ms in one directory of
    /// the same disk and 1.2 ms in another.
    fn spawn(cfg: &Config, dir: &Path, workers: usize) -> Result<(Server, f64), String> {
        let bin = std::fs::canonicalize(&cfg.server_bin)
            .map_err(|e| format!("server binary {}: {e}", cfg.server_bin.display()))?;
        let t = Instant::now();
        let mut cmd = Command::new(bin);
        // Relative paths inside the run directory keep the socket path
        // short whatever the checkout's path.
        cmd.args(["--socket", "s.sock", "--dir", ".", "--run-id", "bench"])
            .args(["--workers", &workers.to_string()])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        for knob in [
            "NEMSCMOS_HARNESS_DEADLINE_MS",
            "NEMSCMOS_HARNESS_STALL_MS",
            "NEMSCMOS_HARNESS_THREADS",
            "NEMSCMOS_HARNESS_CACHE",
            "NEMSCMOS_HARNESS_CACHE_DIR",
        ] {
            cmd.env_remove(knob);
        }
        let child = cmd.spawn().map_err(|e| format!("spawn server: {e}"))?;
        let server = Server {
            child,
            socket: dir.join("s.sock"),
        };
        let mut conn = loop {
            if let Ok(c) = ServerClient::connect(&server.socket) {
                break c;
            }
            if t.elapsed() > READY_TIMEOUT {
                return Err("server did not start listening in time".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        };
        let listening_s = t.elapsed().as_secs_f64();
        // The connection waits in the listen backlog until the accept
        // loop's next poll, up to 20 ms later. That wait is left out of
        // set-up, which would otherwise read 2 ms or 22 ms by chance.
        conn.health()?;
        Ok((server, listening_s))
    }

    /// Asks for a graceful drain and waits for the process to exit.
    fn stop(mut self) -> Result<(), String> {
        ServerClient::connect(&self.socket)?.shutdown()?;
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        status
            .success()
            .then_some(())
            .ok_or(format!("server exited with {status}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What one request produced.
struct Sample {
    traced: bool,
    fresh: bool,
    ok: bool,
    ack_ms: f64,
    ms: f64,
    done_at: Duration,
}

/// What the clients share: each spec's first result, and the server's
/// peak resident set read after [`RSS_AFTER`] completions.
struct Shared<'a> {
    socket: &'a Path,
    pid: String,
    started: Instant,
    first: Mutex<HashMap<String, String>>,
    completed: AtomicUsize,
    rss_mb: OnceLock<f64>,
}

/// One client's closed loop until `cfg.seconds` have passed.
fn client_loop(
    cfg: &Config,
    tracer: &Tracer,
    shared: &Shared,
    client: u64,
) -> Result<Vec<Sample>, String> {
    let mut conn = ServerClient::connect(shared.socket)?;
    let mut stream = Stream::new(cfg.seed, client);
    let mut samples = Vec::new();
    let mut k = 0u64;
    while k < cfg.min_rounds() || shared.started.elapsed().as_secs_f64() < cfg.seconds {
        let on = cfg.traced(k);
        let run = (client << 32) | k;
        let spec = stream.next_spec();
        let name = format!("bench-{client}-{}", k / NAME_EVERY);
        let t = Instant::now();
        let root = tracer.open(on, "server.request", run, None);
        let accepted = tracer.span(on, "server.submit", run, root.id(), |_| {
            conn.submit(&name, &spec, 1)
        })?;
        let ack_ms = t.elapsed().as_secs_f64() * 1e3;
        let outcome = match accepted {
            Response::Accepted { digest, .. } => {
                tracer
                    .span(on, "server.wait", run, root.id(), |_| conn.wait(&digest))?
                    .0
            }
            other => other,
        };
        tracer.close(root);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let (ok, fresh) = match &outcome {
            Response::Done { source, result, .. } => {
                let bytes = result.render();
                let mut first = shared.first.lock().expect("result map poisoned");
                let same = first.entry(spec.clone()).or_insert_with(|| bytes.clone()) == &bytes;
                if !same {
                    eprintln!("perfbench: oracle failed: replay of {spec:?} differs from its first result");
                }
                (same, source == "run")
            }
            other => {
                eprintln!("perfbench: oracle failed: {spec:?} ended {other:?}");
                (false, false)
            }
        };
        if ok && !stream.done.contains(&spec) {
            stream.done.push(spec);
        }
        if shared.completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER {
            let _ = shared.rss_mb.set(peak_rss_mb(&shared.pid));
        }
        samples.push(Sample {
            traced: on,
            fresh,
            ok,
            ack_ms,
            ms,
            done_at: shared.started.elapsed(),
        });
        k += 1;
    }
    Ok(samples)
}

fn count(health: &Json, path: &[&str]) -> f64 {
    let mut v = health;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return f64::NAN,
        }
    }
    v.as_f64().unwrap_or(f64::NAN)
}

/// Runs the workload.
///
/// # Errors
///
/// The server could not be spawned, reached or stopped.
pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = RunDir::create()?;
    let mut setup_s = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        let (s, secs) = Server::spawn(cfg, &dir.0, workers)?;
        setup_s.push(secs);
        if k + 1 < SETUPS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    eprintln!("perfbench: server-mix: set-up samples {setup_s:.4?} s");

    let shared = Shared {
        socket: &server.socket,
        pid: server.child.id().to_string(),
        started: Instant::now(),
        first: Mutex::new(HashMap::new()),
        completed: AtomicUsize::new(0),
        rss_mb: OnceLock::new(),
    };
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers as u64)
            .map(|c| {
                let shared = &shared;
                scope.spawn(move || client_loop(cfg, tracer, shared, c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    for r in per_client {
        samples.extend(r?);
    }

    let mut out = Outcome::default();
    for s in &samples {
        out.attempted += 1;
        out.failed += u64::from(!s.ok);
    }
    let health = ServerClient::connect(&server.socket)?.health()?;
    let balanced = count(&health, &["accepted"]) == count(&health, &["completed"])
        && count(&health, &["failed"]) == 0.0;
    out.check(balanced, || {
        format!("health counters do not balance: {}", health.render())
    });
    let rss = match shared.rss_mb.get() {
        Some(&mb) => mb,
        None => {
            eprintln!(
                "perfbench: server-mix: fewer than {RSS_AFTER} requests; peak RSS read at the end"
            );
            peak_rss_mb(&shared.pid)
        }
    };
    let pending = count(&health, &["journal", "pending"]);
    server.stop()?;

    let mut done: Vec<Duration> = samples.iter().map(|s| s.done_at).collect();
    done.sort_unstable();
    let blocks: Vec<f64> = done
        .chunks_exact(BLOCK)
        .scan(Duration::ZERO, |prev, c| {
            let last = *c.last().expect("chunks are non-empty");
            let d = (last - *prev).as_secs_f64();
            *prev = last;
            Some(d)
        })
        .collect();
    let all_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let fresh_ms: Vec<f64> = samples.iter().filter(|s| s.fresh).map(|s| s.ms).collect();
    let replay_ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok && !s.fresh)
        .map(|s| s.ms)
        .collect();
    let (pct, tail_ms) = tail(&all_ms);
    let (fresh_pct, fresh_tail) = tail(&fresh_ms);
    eprintln!(
        "perfbench: server-mix: {workers} clients and workers, {} requests ({} fresh, {} replays), \
         tail p{pct} (n={}), fresh tail p{fresh_pct} (n={}), journal pending {pending}",
        samples.len(),
        fresh_ms.len(),
        replay_ms.len(),
        all_ms.len(),
        fresh_ms.len()
    );
    if !cfg.trace {
        out.set("setup_s", median(&setup_s));
        out.set("peak_rss_mb", rss);
        out.set("ok_frac", out.ok_frac());
        out.set("run_s", median(&blocks));
        let wall = done.last().map_or(0.0, Duration::as_secs_f64);
        out.set("ops_per_s", ratio(samples.len() as f64, wall));
        out.set("op_p50_ms", median(&all_ms));
        out.set("op_tail_ms", tail_ms);
        return Ok(out);
    }

    let spans = tracer.spans();
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
    let ops = traced.len() as f64;
    let acks: Vec<f64> = traced.iter().map(|s| s.ack_ms).collect();
    out.set("server.ack_p50_ms", median(&acks));
    out.set("server.fresh_p50_ms", median(&fresh_ms));
    out.set("server.fresh_tail_ms", fresh_tail);
    out.set("server.replay_p50_ms", median(&replay_ms));
    out.set(
        "server.hit_ratio",
        ratio(
            count(&health, &["replayed_journal"]) + count(&health, &["replayed_cache"]),
            count(&health, &["completed"]),
        ),
    );
    let rejected = [
        "queue-full",
        "quota-exhausted",
        "deck-too-large",
        "bad-request",
        "draining",
    ]
    .iter()
    .map(|r| count(&health, &["rejected", r]))
    .sum();
    out.set("server.rejected", rejected);
    out.set("server.journal_pending", pending);
    crate::layers::self_times(&mut out, &spans, |_| true, ops, 0.0);
    let ms = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.ms)
            .collect()
    };
    out.set(
        "trace.overhead_frac",
        median(&ms(true)) / median(&ms(false)) - 1.0,
    );
    crate::layers::zero_rest(&mut out);
    Ok(out)
}
