//! The traced pass: per-layer figures from the benchmark's own spans around
//! each public call, the runner's telemetry, a strict watchdog over every
//! execution, and one representative execution re-run on the benchmark's
//! own engine under a timeline.

use crate::stats::{median, Metric, Value};
use crate::workload::{replay, Observe, Problem, Workload};
use crate::{Pass, Run};
use caaf::Sum;
use ftagg::tradeoff::{run_tradeoff_monitored, TradeoffConfig};
use ftagg::{decide_envelope, pair_monitor_config, run_pair_with_sink};
use netsim::timeline::STAGES;
use netsim::{self_time, SelfTimeRow, SpanKind, Timeline, Watchdog};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs the library's monitored driver on `p` with the strict watchdog.
/// Returns the violations seen; a strict watchdog panics on the first, which
/// counts as one.
fn watch(w: Workload, p: &Problem) -> u64 {
    let sh = w.shape();
    let inst = &p.inst;
    let run = || match w {
        Workload::Alg1Grid => {
            let cfg = TradeoffConfig { b: sh.b, c: sh.c, f: sh.f, seed: p.coin };
            run_tradeoff_monitored(&Sum, inst, &cfg, true).1.total
        }
        Workload::DoublingFleet => {
            // The doubling driver has no monitored variant, so its stages
            // run here under the pair watchdog (Theorem 3/6 budgets, crash
            // silence, causality, phase discipline). A rejected stage's AGG
            // value is not a decision, so the CAAF envelope judges only the
            // accepted stage's.
            let max_stages = p.model(sh.c).id_bits() + 1;
            let mut offset = 0;
            let mut total = 0;
            for k in 0..max_stages {
                let t = 1 << k;
                let cfg = pair_monitor_config(inst, sh.c, t, true).strict();
                let shifted = inst.schedule.shifted(offset);
                let (rep, mut sink) = run_pair_with_sink(
                    &Sum,
                    inst,
                    shifted,
                    sh.c,
                    t,
                    true,
                    offset,
                    Box::new(Watchdog::new(cfg)),
                );
                total +=
                    sink.as_any_mut().downcast_mut::<Watchdog>().map_or(0, |w| w.finish().total);
                if let (true, Some(value)) = (rep.accepted(), rep.result()) {
                    let envelope = decide_envelope(&Sum, inst, offset);
                    total += u64::from(envelope(rep.rounds, inst.root, value).is_err());
                    break;
                }
                offset += rep.rounds;
            }
            total
        }
        // The brute force has no budget to watch; the library does not
        // monitor it either.
        Workload::BruteHypercube => 0,
    };
    catch_unwind(AssertUnwindSafe(run)).unwrap_or(1)
}

/// Stage shares of round time and the coarse-timeline overhead, from
/// re-running the first execution on the benchmark's own engines.
struct Rerun {
    traced_ratio: f64,
    /// Self time of each of [`STAGES`] as a share of all round time.
    stage_frac: [f64; STAGES.len()],
    rows: Vec<SelfTimeRow>,
}

fn rerun(w: Workload, p: &Problem, bare_s: f64) -> Result<Rerun, String> {
    // Alternate bare and timeline runs until about a second of each.
    let reps = ((1.0 / bare_s.max(1e-3)).ceil() as usize).clamp(1, 9);
    let mut bare = vec![bare_s];
    let mut coarse = Vec::new();
    for rep in 0..reps {
        let tl = Timeline::with_capacity(1 << 20);
        coarse.push(replay(w, p, Observe::Timeline(&tl))?.cpu_s);
        if rep + 1 < reps {
            bare.push(replay(w, p, Observe::Bare)?.cpu_s);
        }
    }
    let traced_ratio = median(&mut coarse) / median(&mut bare);
    let fine = Timeline::with_capacity(1 << 20);
    replay(w, p, Observe::Fine(&fine))?;
    let rows = self_time(&fine.snapshot());
    let round_ns: u64 = rows.iter().filter(|r| r.kind == SpanKind::Round).map(|r| r.total_ns).sum();
    let mut stage_frac = [0.0; STAGES.len()];
    for (i, stage) in STAGES.iter().enumerate() {
        let ns: u64 = rows
            .iter()
            .filter(|r| r.kind == SpanKind::Stage && r.label == *stage)
            .map(|r| r.self_ns)
            .sum();
        stage_frac[i] = ns as f64 / round_ns.max(1) as f64;
    }
    Ok(Rerun { traced_ratio, stage_frac, rows })
}

/// Folds the runner's per-seed trial rows into one, so the profile reads
/// as time inside trials versus time in the layers' spans.
fn merge_trials(rows: Vec<SelfTimeRow>) -> Vec<SelfTimeRow> {
    let (trials, mut rows): (Vec<_>, Vec<_>) =
        rows.into_iter().partition(|r| r.kind == SpanKind::Trial);
    if !trials.is_empty() {
        let mut all = SelfTimeRow {
            kind: SpanKind::Trial,
            label: "trial (all seeds)".into(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        };
        for t in trials {
            all.count += t.count;
            all.total_ns += t.total_ns;
            all.self_ns += t.self_ns;
        }
        rows.push(all);
    }
    rows
}

/// The per-layer metrics, plus the tables the committed artifact holds.
pub fn per_layer(run: &mut Run, tl: &Timeline) -> Vec<Metric> {
    let w = run.workload;
    let execs = run.passes[0].outcomes.len() as f64;

    let mut violations = 0;
    for p in &run.problems {
        violations += watch(w, p);
    }
    if violations > 0 {
        run.failures.push(format!("the strict watchdog saw {violations} violation(s)"));
    }
    let rerun = match run.problems.first().zip(run.replay_cpu.first()) {
        Some((p, &bare)) => match rerun(w, p, bare) {
            Ok(r) => Some(r),
            Err(e) => {
                run.failures.push(format!("re-run: {e}"));
                None
            }
        },
        None => None,
    };
    let frac = |i: usize| rerun.as_ref().map_or(0.0, |r| r.stage_frac[i]);

    let rows = merge_trials(self_time(&tl.snapshot()));
    let trial = rows.iter().find(|r| r.kind == SpanKind::Trial);
    let unattributed = trial.map_or(0.0, |t| t.self_ns as f64 / t.total_ns.max(1) as f64);

    let tele = |f: &dyn Fn(&netsim::RunnerTelemetry) -> f64| {
        median(&mut run.passes.iter().filter_map(|p| p.tele.as_ref()).map(f).collect::<Vec<_>>())
    };
    let workers = run.workers as f64;
    let busy = |t: &netsim::RunnerTelemetry| t.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
    let idle = |t: &netsim::RunnerTelemetry| t.workers.iter().map(|w| w.idle.as_secs_f64()).sum();
    let eff = |t: &netsim::RunnerTelemetry| busy(t) / (workers * t.elapsed.as_secs_f64());

    let layer = |f: fn(&crate::workload::Layers) -> f64| {
        median(&mut run.passes.iter().map(|p: &Pass| f(&p.layers())).collect::<Vec<_>>())
    };
    let first = &run.passes[0];
    let sum = |f: fn(&crate::workload::Outcome) -> u64| first.outcomes.iter().map(f).sum::<u64>();
    let flow = run.pass_flow();
    let fallbacks = first.outcomes.iter().filter(|o| o.exact.fallback).count() as f64;

    let real = |name, unit, v: f64| Metric { name, unit, value: Value::Real(v) };
    let count = |name, v: u64| Metric { name, unit: "count", value: Value::Count(v) };
    let metrics = vec![
        real("graph.build_s", "s", layer(|l| l.build)),
        real("graph.diameter_s", "s", layer(|l| l.diameter)),
        real("adversary.schedule_s", "s", layer(|l| l.schedule)),
        real("adversary.stretch_s", "s", layer(|l| l.stretch)),
        count("adversary.stretch_checks", first.layers().stretch_checks),
        real("config.instance_s", "s", layer(|l| l.instance)),
        real("config.model_s", "s", layer(|l| l.model)),
        real("protocol.exec_s", "s", layer(|l| l.exec)),
        count("protocol.pairs_run", run.exact.pairs_run),
        count("protocol.stages", run.exact.stages),
        real("protocol.fallback_frac", "ratio", fallbacks / execs),
        Metric {
            name: "protocol.agg_bits",
            unit: "bits",
            value: Value::Count(sum(|o| o.agg_bits)),
        },
        Metric {
            name: "protocol.veri_bits",
            unit: "bits",
            value: Value::Count(sum(|o| o.veri_bits)),
        },
        count("protocol.rounds", run.exact.rounds),
        count("engine.node_visits", flow.node_visits),
        count("engine.deliveries", flow.deliveries),
        count("engine.sends", flow.sends),
        real(
            "engine.deliveries_per_visit",
            "ratio",
            flow.deliveries as f64 / flow.node_visits.max(1) as f64,
        ),
        real(
            "engine.idle_round_frac",
            "ratio",
            flow.idle_rounds as f64 / flow.rounds.max(1) as f64,
        ),
        real("engine.absorb_frac", "ratio", frac(netsim::timeline::STAGE_ABSORB)),
        real("engine.scatter_frac", "ratio", frac(netsim::timeline::STAGE_SCATTER)),
        real("engine.send_frac", "ratio", frac(netsim::timeline::STAGE_SEND)),
        real("engine.telemetry_frac", "ratio", frac(netsim::timeline::STAGE_TELEMETRY)),
        count("engine.peak_inflight", flow.peak_inflight),
        real("runner.busy_s", "s", tele(&busy)),
        real("runner.idle_s", "s", tele(&idle)),
        real("runner.steals", "count", tele(&|t| t.steals() as f64)),
        real("runner.parallel_eff", "ratio", tele(&eff)),
        real("runner.trial_p50_ms", "ms", tele(&|t| t.p50_micros() as f64 / 1e3)),
        real("runner.trial_p99_ms", "ms", tele(&|t| t.p99_micros() as f64 / 1e3)),
        real("observers.traced_ratio", "ratio", rerun.as_ref().map_or(0.0, |r| r.traced_ratio)),
        count("observers.watchdog_violations", violations),
        real("observers.unattributed_frac", "ratio", unattributed),
    ];

    print_tables(run, &metrics, &rows, rerun.as_ref());
    metrics
}

/// Prints the per-layer table and the two self-time profiles as markdown.
fn print_tables(run: &Run, metrics: &[Metric], rows: &[SelfTimeRow], rerun: Option<&Rerun>) {
    println!();
    println!("| metric | value | unit |");
    println!("|---|---:|---|");
    for m in metrics {
        println!("| `{}` | {} | {} |", m.name, m.value, m.unit);
    }
    let profile = |title: &str, rows: &[SelfTimeRow]| {
        println!();
        println!("{title}");
        println!();
        println!("| kind | label | count | total_ms | self_ms |");
        println!("|---|---|---:|---:|---:|");
        for r in rows.iter().take(14) {
            println!(
                "| {} | {} | {} | {:.3} | {:.3} |",
                r.kind.as_str(),
                r.label,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6
            );
        }
    };
    profile(
        &format!("Self time over {} traced passes (lane per runner worker):", run.passes.len()),
        rows,
    );
    if let Some(r) = rerun {
        profile("Self time of the first execution re-run with the exact stage split:", &r.rows);
    }
    println!();
}
