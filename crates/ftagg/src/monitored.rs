//! Monitored drivers: run the paper's protocols under a live
//! [`netsim::Watchdog`].
//!
//! The watchdog itself ([`netsim::monitor`]) knows nothing about the
//! protocols — budgets are data and the decision judgment is a closure.
//! This module is the bridge: it parameterizes a [`MonitorConfig`] with
//! the paper's explicit formulas (the Theorem 3/6 wire ceilings exported
//! by [`crate::msg`], windowed by [`PairParams`]'s round layout) and the
//! CAAF correctness envelope of `caaf::oracle`, then runs the standard
//! drivers with the watchdog installed as the engine's sink. The watchdog
//! is passive, so a monitored execution is bit-identical to an
//! unmonitored one — pinned by this module's tests.

use crate::config::Instance;
use crate::msg::{agg_wire_ceiling, veri_wire_ceiling, Envelope};
use crate::pair::{PairNode, PairParams, Tweaks};
use crate::run::{run_pair_with_sink, PairReport};
use caaf::Caaf;
use netsim::{
    AnyEngine, DecideCheck, FailureSchedule, FlightRecorder, FlightRecorderHandle, MonitorConfig,
    MonitorReport, NodeId, Round, TeeSink, Watchdog,
};

/// A [`MonitorConfig`] enforcing one AGG(+VERI) pair's invariants:
///
/// - per-node bits in the AGG window (rounds `1..=7cd+4`) within the
///   Theorem 3 wire ceiling;
/// - per-node bits in the VERI window (the following `5cd+3` rounds)
///   within the Theorem 6 wire ceiling;
/// - per-node bits over the whole pair within their sum — the per-interval
///   budget Theorem 1's CC accounting charges Algorithm 1 for each pair.
pub fn pair_monitor_config(inst: &Instance, c: u32, t: u32, run_veri: bool) -> MonitorConfig {
    let params = PairParams { model: inst.model(c), t, run_veri, tweaks: Tweaks::default() };
    let n = inst.n();
    let mut cfg = MonitorConfig::new(n).budget(
        "AGG (Thm 3)",
        1..=params.agg_rounds(),
        agg_wire_ceiling(n, t),
    );
    if run_veri {
        cfg = cfg
            .budget(
                "VERI (Thm 6)",
                params.agg_rounds() + 1..=params.total_rounds(),
                veri_wire_ceiling(n, t),
            )
            .budget(
                "pair (Thm 1 interval)",
                1..=params.total_rounds(),
                agg_wire_ceiling(n, t) + veri_wire_ceiling(n, t),
            );
    }
    cfg
}

/// The CAAF correctness-envelope judgment for `Decide` events: only the
/// root may decide, and the value must lie in the paper's correct interval
/// for the surviving inputs at the decision round (shifted by
/// `global_offset` when the pair runs inside a later Algorithm 1
/// interval).
pub fn decide_envelope<C: Caaf + 'static>(
    op: &C,
    inst: &Instance,
    global_offset: Round,
) -> DecideCheck {
    let op = op.clone();
    let inst = inst.clone();
    Box::new(move |round, node, value| envelope(&op, &inst, global_offset, round, node, value))
}

fn envelope<C: Caaf>(
    op: &C,
    inst: &Instance,
    global_offset: Round,
    round: Round,
    node: NodeId,
    value: u64,
) -> Result<(), String> {
    if node != inst.root {
        return Err(format!("decision by non-root node {}", node.0));
    }
    let iv = inst.correct_interval(op, global_offset + round);
    if iv.contains(value) {
        Ok(())
    } else {
        Err(format!("outside the CAAF envelope [{}, {}]", iv.lo, iv.hi))
    }
}

/// Judges a finished pair's decision with the CAAF envelope. Only a value
/// Algorithm 1 would output is a decision: with VERI on, an AGG value VERI
/// rejected is discarded, so it is not judged. Its `Decide` event still
/// streams through the watchdog, which checks it for crash silence.
fn judge_decision<C: Caaf>(
    dog: &mut Watchdog,
    op: &C,
    inst: &Instance,
    global_offset: Round,
    report: &PairReport,
) {
    if !report.accepted() {
        return;
    }
    let value = report.result().expect("accepted implies a result");
    if let Err(reason) = envelope(op, inst, global_offset, report.rounds, inst.root, value) {
        dog.reject_decision(report.rounds, inst.root, value, reason);
    }
}

/// A pair execution plus the watchdog's verdict on it.
#[derive(Clone, Debug)]
pub struct MonitoredPair {
    /// The ordinary driver report (identical to the unmonitored run).
    pub report: PairReport,
    /// What the watchdog observed.
    pub monitor: MonitorReport,
}

/// [`crate::run::run_pair_with_schedule`] with a fully armed watchdog:
/// Theorem 3/6 budgets, crash silence, delivery causality, phase
/// discipline, and the CAAF envelope at the decision (an AGG value VERI
/// rejected is no decision and is not judged). `strict` panics on the
/// first violation (tests/CI); otherwise violations are collected in the
/// returned [`MonitorReport`].
#[allow(clippy::too_many_arguments)]
pub fn run_pair_monitored<C: Caaf + 'static>(
    op: &C,
    inst: &Instance,
    schedule: FailureSchedule,
    c: u32,
    t: u32,
    run_veri: bool,
    global_offset: Round,
    strict: bool,
) -> MonitoredPair {
    let mut cfg = pair_monitor_config(inst, c, t, run_veri);
    if strict {
        cfg = cfg.strict();
    }
    let (report, mut sink) = run_pair_with_sink(
        op,
        inst,
        schedule,
        c,
        t,
        run_veri,
        global_offset,
        Box::new(Watchdog::new(cfg)),
    );
    let dog = watchdog(&mut sink);
    judge_decision(dog, op, inst, global_offset, &report);
    MonitoredPair { monitor: dog.finish(), report }
}

/// A monitored pair execution with a black box attached: the report, the
/// watchdog's verdict, and a handle onto the flight recorder that rode
/// along (dump it when `monitor` is dirty — see
/// [`FlightRecorderHandle::dump_once`]).
pub struct RecordedPair {
    /// The ordinary driver report (identical to the unmonitored run).
    pub report: PairReport,
    /// What the watchdog observed.
    pub monitor: MonitorReport,
    /// The black box: the last `ring_rounds` rounds of events, dumpable
    /// as replayable v2 JSONL.
    pub flight: FlightRecorderHandle,
}

/// [`run_pair_monitored`] with a [`FlightRecorder`] teed alongside the
/// watchdog: the recorder retains the last `ring_rounds` rounds of
/// full-fidelity events, so a violating run leaves a replayable artifact.
/// Never strict — a violation should dump the black box, not panic past
/// it.
#[allow(clippy::too_many_arguments)]
pub fn run_pair_recorded<C: Caaf + 'static>(
    op: &C,
    inst: &Instance,
    schedule: FailureSchedule,
    c: u32,
    t: u32,
    run_veri: bool,
    global_offset: Round,
    ring_rounds: usize,
) -> RecordedPair {
    let cfg = pair_monitor_config(inst, c, t, run_veri);
    let recorder = FlightRecorder::new(ring_rounds);
    let flight = recorder.handle();
    let tee = TeeSink::new().with(Box::new(Watchdog::new(cfg))).with(Box::new(recorder));
    let (report, mut sink) =
        run_pair_with_sink(op, inst, schedule, c, t, run_veri, global_offset, Box::new(tee));
    let tee =
        sink.as_any_mut().downcast_mut::<TeeSink>().expect("recorded drivers install a TeeSink");
    let dog = watchdog(&mut tee.sinks_mut()[0]);
    judge_decision(dog, op, inst, global_offset, &report);
    RecordedPair { monitor: dog.finish(), report, flight }
}

/// [`crate::run::run_pair_engine`] under a watchdog, for white-box
/// harnesses (Table 2, the stress suite) that inspect node state after the
/// run: returns the engine, the params, and the watchdog's verdict. The
/// AGG/VERI windows are attributed as phases (as the sink-based driver
/// does), so phase discipline is checked too; no `Decide` event exists on
/// this path, so the envelope judgment does not apply.
pub fn run_pair_engine_monitored<C: Caaf + 'static>(
    op: &C,
    inst: &Instance,
    schedule: FailureSchedule,
    c: u32,
    t: u32,
    run_veri: bool,
    strict: bool,
) -> (AnyEngine<Envelope, PairNode<C>>, PairParams, MonitorReport) {
    let params = PairParams { model: inst.model(c), t, run_veri, tweaks: Tweaks::default() };
    let mut cfg = pair_monitor_config(inst, c, t, run_veri);
    if strict {
        cfg = cfg.strict();
    }
    let op2 = op.clone();
    let inputs = inst.inputs.clone();
    let mut eng: AnyEngine<Envelope, PairNode<C>> =
        AnyEngine::new(inst.engine, inst.graph.clone(), schedule, |v| {
            PairNode::new(params, op2.clone(), v, inputs[v.index()])
        });
    eng.set_sink(Box::new(Watchdog::new(cfg)));
    eng.enter_phase("AGG");
    eng.run(params.agg_rounds());
    eng.exit_phase();
    if run_veri {
        eng.enter_phase("VERI");
        eng.run(params.total_rounds());
        eng.exit_phase();
    }
    let mut sink = eng.take_sink().expect("the watchdog we installed");
    let monitor = watchdog(&mut sink).finish();
    (eng, params, monitor)
}

/// Downcasts a sink handed back by a driver to the [`Watchdog`] installed
/// by this module.
fn watchdog(sink: &mut Box<dyn netsim::TraceSink>) -> &mut Watchdog {
    sink.as_any_mut().downcast_mut::<Watchdog>().expect("monitored drivers install a Watchdog sink")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_pair_with_schedule;
    use caaf::Sum;
    use netsim::{adversary::schedules, topology, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn inst(n: usize) -> Instance {
        Instance::new(
            topology::path(n),
            NodeId(0),
            (1..=n as u64).collect(),
            FailureSchedule::none(),
            n as u64,
        )
        .unwrap()
    }

    #[test]
    fn clean_pair_run_is_clean_and_identical_to_unmonitored() {
        let i = inst(6);
        let m = run_pair_monitored(&Sum, &i, i.schedule.clone(), 1, 1, true, 0, true);
        assert!(m.monitor.is_clean(), "{}", m.monitor.render());
        assert!(m.monitor.sends > 0 && m.monitor.delivers > 0);
        assert_eq!(m.monitor.decides, 1);
        let plain = run_pair_with_schedule(&Sum, &i, i.schedule.clone(), 1, 1, true, 0);
        assert_eq!(m.report.result(), plain.result());
        assert_eq!(m.report.rounds, plain.rounds);
        assert_eq!(m.report.metrics.max_bits(), plain.metrics.max_bits());
        assert_eq!(m.report.metrics.total_bits(), plain.metrics.total_bits());
    }

    #[test]
    fn crashy_pair_runs_stay_clean_under_the_watchdog() {
        // Randomized instances with real crashes: the protocol must never
        // trip a single invariant.
        for seed in 0..12 {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let g = topology::connected_gnp(16, 0.2, &mut rng);
            let s = schedules::random(&g, NodeId(0), 3, 200, &mut rng);
            let i = Instance::new(g, NodeId(0), vec![3; 16], s, 3).unwrap();
            let m = run_pair_monitored(&Sum, &i, i.schedule.clone(), 2, 2, true, 0, false);
            assert!(m.monitor.is_clean(), "seed {seed}: {}", m.monitor.render());
        }
    }

    #[test]
    fn engine_variant_matches_plain_engine_and_is_clean() {
        use crate::run::run_pair_engine;
        let i = inst(5);
        let (eng, params, monitor) =
            run_pair_engine_monitored(&Sum, &i, i.schedule.clone(), 1, 1, true, true);
        assert!(monitor.is_clean(), "{}", monitor.render());
        assert_eq!(eng.round(), params.total_rounds());
        let (plain, _) = run_pair_engine(&Sum, &i, i.schedule.clone(), 1, 1, true);
        assert_eq!(eng.metrics().max_bits(), plain.metrics().max_bits());
        assert_eq!(eng.metrics().total_bits(), plain.metrics().total_bits());
    }

    #[test]
    fn recorded_pair_run_is_identical_and_its_dump_replays() {
        let i = inst(6);
        let r = run_pair_recorded(&Sum, &i, i.schedule.clone(), 1, 1, true, 0, 8);
        assert!(r.monitor.is_clean(), "{}", r.monitor.render());
        let plain = run_pair_with_schedule(&Sum, &i, i.schedule.clone(), 1, 1, true, 0);
        assert_eq!(r.report.result(), plain.result());
        assert_eq!(r.report.metrics.total_bits(), plain.metrics.total_bits());
        // The black box holds the tail of the run and replays as a trace.
        let stats = r.flight.stats();
        assert!(stats.rounds_buffered > 0 && stats.rounds_buffered <= 8);
        assert!(stats.events_buffered > 0);
        let jsonl = r.flight.snapshot_jsonl().expect("segments decode");
        let trace = netsim::Trace::from_jsonl(jsonl.as_bytes()).expect("dump must replay");
        assert_eq!(trace.events().len() as u64, stats.events_buffered);
    }

    #[test]
    fn decide_envelope_rejects_wrong_values() {
        let i = inst(4);
        let check = decide_envelope(&Sum, &i, 0);
        // 1+2+3+4 = 10 is the failure-free aggregate.
        assert!(check(20, NodeId(0), 10).is_ok());
        assert!(check(20, NodeId(0), 11).unwrap_err().contains("envelope"));
        assert!(check(20, NodeId(2), 10).unwrap_err().contains("non-root"));
    }
}
