//! End-to-end protocol benchmark for the `ftagg` stack.
//!
//! ```text
//! protobench --workload <alg1-grid|doubling-fleet|brute-hypercube>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload's executions (topology spec to root decision) in a
//! closed loop for `--seconds`, checks every decision, replays each
//! distinct execution on an engine of its own to count deliveries and
//! cross-check the exact figures, and prints one JSON result as its last
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. Exits 1 if any check failed, 2 on bad arguments.
//! See `README.md` next to this crate.

mod clock;
mod pins;
mod stats;
mod traced;
mod workload;

use netsim::{Runner, RunnerTelemetry, Timeline};
use stats::{lower_median, median, Metric, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workload::{execute, replay, Flow, Layers, Observe, Outcome, Problem, Tracer, Workload};

/// Passes every run makes, however short `--seconds`: enough samples for
/// medians, and a sample count the tail percentile can rely on.
const MIN_PASSES: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number '{value}'"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(pins::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// SplitMix64 step: the `i`-th execution seed of workload seed `seed`.
fn exec_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Times the reference loop (untraced runs, whose figures it scales), then
/// runs one execution, turning a panic into a failed outcome.
fn guarded(w: Workload, seed: u64, tr: Option<Tracer>) -> (Outcome, Option<Problem>) {
    let reference_s = if tr.is_none() { clock::reference_s() } else { 0.0 };
    let (mut outcome, problem) = catch_unwind(AssertUnwindSafe(|| execute(w, seed, tr)))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            (Outcome { error: Some(format!("panic: {msg}")), ..Outcome::default() }, None)
        });
    outcome.reference_s = reference_s;
    (outcome, problem)
}

/// One pass: every execution of the workload once, through the runner.
pub struct Pass {
    pub wall_s: f64,
    pub outcomes: Vec<Outcome>,
    pub tele: Option<RunnerTelemetry>,
}

impl Pass {
    pub fn layers(&self) -> Layers {
        let mut l = Layers::default();
        for o in &self.outcomes {
            l.add(&o.layers);
        }
        l
    }
}

/// The exact figures of one pass, pinned per seed in `pins.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassExact {
    /// The executions' CC, summed.
    pub cc_bits_total: u64,
    pub tc_flooding_rounds: u64,
    pub rounds: u64,
    pub deliveries: u64,
    pub pairs_run: u64,
    pub stages: u64,
}

impl std::fmt::Display for PassExact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cc_bits_total={} tc_flooding_rounds={} protocol.rounds={} engine.deliveries={} \
             protocol.pairs_run={} protocol.stages={}",
            self.cc_bits_total,
            self.tc_flooding_rounds,
            self.rounds,
            self.deliveries,
            self.pairs_run,
            self.stages
        )
    }
}

/// Everything the two metric sets are computed from.
pub struct Run {
    pub workload: Workload,
    pub workers: usize,
    pub passes: Vec<Pass>,
    pub problems: Vec<Problem>,
    /// Replay flow of each execution of a pass, in seed order.
    pub flows: Vec<Flow>,
    /// Replay engine CPU time of each execution.
    pub replay_cpu: Vec<f64>,
    pub exact: PassExact,
    pub failures: Vec<String>,
}

impl Run {
    pub fn pass_flow(&self) -> Flow {
        let mut total = Flow::default();
        for f in &self.flows {
            total.merge(f);
        }
        total
    }

    fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.passes.iter().flat_map(|p| p.outcomes.iter())
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    std::process::exit(bench(&args));
}

fn bench(args: &Args) -> i32 {
    let w = args.workload;
    let sh = w.shape();
    let runner = Runner::new(sh.threads);
    let seeds: Vec<u64> = (0..sh.execs).map(|i| exec_seed(args.seed, i)).collect();
    println!(
        "host: nproc={} arch={} os={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::consts::ARCH,
        std::env::consts::OS
    );
    println!(
        "workload: {} spec={} seed={} executions/pass={} workers={} engine={} trace={}",
        w.name(),
        sh.spec,
        args.seed,
        sh.execs,
        runner.threads(),
        netsim::EngineKind::default().name(),
        u8::from(args.trace)
    );

    // The closed loop: pass after pass until the time is up.
    let tl = args.trace.then(|| Timeline::with_capacity(1 << 20));
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut problems: Vec<Problem> = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed() < budget {
        let t0 = Instant::now();
        let (results, tele) = match &tl {
            None => (runner.run(&seeds, |s| guarded(w, s, None)), None),
            Some(tl) => {
                let (r, t) = runner.run_instrumented_timeline(
                    &seeds,
                    |s, lane| guarded(w, s, Some(Tracer { tl, lane })),
                    tl,
                );
                (r, Some(t))
            }
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let keep = passes.is_empty();
        let mut outcomes = Vec::with_capacity(results.len());
        for (o, p) in results {
            if let (true, Some(p)) = (keep, p) {
                problems.push(p);
            }
            outcomes.push(o);
        }
        passes.push(Pass { wall_s, outcomes, tele });
    }

    let mut failures: Vec<String> = Vec::new();
    for (i, o) in passes.iter().flat_map(|p| p.outcomes.iter().enumerate()) {
        if let Some(e) = &o.error {
            failures.push(format!("execution {i}: {e}"));
        }
    }
    let first: Vec<_> = passes[0].outcomes.iter().map(|o| o.exact).collect();
    for (k, p) in passes.iter().enumerate().skip(1) {
        if p.outcomes.iter().map(|o| o.exact).ne(first.iter().copied()) {
            failures.push(format!(
                "pass {k} differs from pass 0: the executions are not deterministic"
            ));
        }
    }

    // Replay every execution of a pass on the benchmark's own engines.
    let mut flows = Vec::new();
    let mut replay_cpu = Vec::new();
    if problems.len() == seeds.len() {
        for (i, p) in problems.iter().enumerate() {
            match replay(w, p, Observe::Bare) {
                Ok(r) if r.exact == first[i] => {
                    flows.push(r.flow);
                    replay_cpu.push(r.cpu_s);
                }
                Ok(r) => failures.push(format!(
                    "execution {i}: replay {:?} differs from the driver's {:?}",
                    r.exact, first[i]
                )),
                Err(e) => failures.push(format!("execution {i}: replay: {e}")),
            }
        }
    }

    let exact = PassExact {
        cc_bits_total: first.iter().map(|e| e.cc_bits).sum(),
        tc_flooding_rounds: lower_median(&mut first.iter().map(|e| e.tc).collect::<Vec<_>>()),
        rounds: first.iter().map(|e| e.rounds).sum(),
        deliveries: flows.iter().map(|f| f.deliveries).sum(),
        pairs_run: first.iter().map(|e| e.pairs).sum(),
        stages: first.iter().map(|e| e.stages).sum(),
    };
    println!("exact: {exact}");
    match pins::check(w, args.seed, &exact) {
        pins::Verdict::Unpinned => println!("pins: seed {} is not pinned", args.seed),
        pins::Verdict::Match(which) => println!("pins: match the {which} seed"),
        pins::Verdict::Mismatch(which, want) => {
            println!("pins: MISMATCH at the {which} seed, pinned {want}");
            failures.push(format!("pins differ at the {which} seed"));
        }
    }

    let mut run = Run {
        workload: w,
        workers: runner.threads(),
        passes,
        problems,
        flows,
        replay_cpu,
        exact,
        failures,
    };
    let metrics = match &tl {
        None => end_to_end(&run),
        Some(tl) => traced::per_layer(&mut run, tl),
    };
    for f in &run.failures {
        println!("FAILED: {f}");
    }
    let attempted = run.outcomes().count() as u64;
    let failed = run.outcomes().filter(|o| o.error.is_some()).count() as u64;
    let correct = run.failures.is_empty();
    // A failed fidelity check fails the run even when every decision was
    // right; report at least one failure then.
    let failed = if correct { failed } else { failed.max(1) };
    println!("{}", stats::result_json(correct, attempted, failed, &metrics));
    i32::from(!correct)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics (tracing off). Every time is CPU time of the
/// thread that ran the execution (see `clock.rs`), divided by its pass's
/// host slowdown: the median reference loop of the pass over
/// [`clock::REFERENCE_NOMINAL_S`]. Every time and rate is taken over single
/// executions: a pass's total carries every slow stretch of the host, the
/// median execution far less.
fn end_to_end(run: &Run) -> Vec<Metric> {
    let mut slowdowns = Vec::with_capacity(run.passes.len());
    let mut setups = Vec::new();
    let mut decisions = Vec::new();
    let mut raw_decisions = Vec::new();
    // Per-execution rates; execution i of every pass repeats the first
    // pass's execution i, whose deliveries the replay counted.
    let mut node_rounds = Vec::new();
    let mut deliveries = Vec::new();
    for p in &run.passes {
        let refs: Vec<f64> = p.outcomes.iter().map(|o| o.reference_s).collect();
        let slow = median(&mut refs.clone()) / clock::REFERENCE_NOMINAL_S;
        slowdowns.push(slow);
        for (i, o) in p.outcomes.iter().enumerate() {
            setups.push(o.setup_s / slow);
            decisions.push(o.decision_s / slow);
            raw_decisions.push(o.decision_s);
            let exec_s = o.layers.exec / slow;
            node_rounds.push((o.exact.n * o.exact.rounds) as f64 / exec_s);
            if let Some(f) = run.flows.get(i) {
                deliveries.push(f.deliveries as f64 / exec_s);
            }
        }
    }
    let n = decisions.len();
    let p50 = median(&mut decisions);
    let guaranteed = MIN_PASSES * run.passes[0].outcomes.len();
    let (pct, tail) = stats::tail(&mut decisions, guaranteed);
    println!(
        "decision: p50={p50:.6}s tail=p{pct}={tail:.6}s over {n} executions \
         (tail = highest percentile with >= {} samples beyond among the {guaranteed} of \
         {MIN_PASSES} passes)",
        stats::TAIL_BEYOND,
    );
    println!(
        "host: slowdown median {:.4} (min {:.4}, max {:.4}) over {} passes, reference loop \
         nominal {:.4} ms; unscaled decision p50={:.6}s",
        median(&mut slowdowns.clone()),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
        slowdowns.len(),
        clock::REFERENCE_NOMINAL_S * 1e3,
        median(&mut raw_decisions),
    );
    println!(
        "pass: median wall {:.6}s over {} passes (not a metric: wall time swings with the \
         host's load)",
        median(&mut run.passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
        run.passes.len()
    );
    let mut ccs: Vec<u64> = run.passes[0].outcomes.iter().map(|o| o.exact.cc_bits).collect();
    let real = |name, unit, v: f64| Metric { name, unit, value: Value::Real(v) };
    vec![
        real("setup_s", "s", median(&mut setups)),
        real("decision_p50_s", "s", p50),
        real("decision_tail_s", "s", tail),
        real("node_rounds_per_s", "1/s", median(&mut node_rounds)),
        real("deliveries_per_s", "1/s", median(&mut deliveries)),
        real("peak_rss_mb", "MiB", peak_rss_mb()),
        // The fleet's per-instance CCs sit on a few discrete levels: their
        // median jumped between two of them from seed to seed, and their
        // mean moved with the odd Algorithm 1 execution a crash hit hard.
        real("cc_bits", "bits", stats::interquartile_mean(&mut ccs)),
        Metric {
            name: "tc_flooding_rounds",
            unit: "rounds",
            value: Value::Count(run.exact.tc_flooding_rounds),
        },
    ]
}
