//! Strict-watchdog coverage over the experiment configurations.
//!
//! The E1/E2 regeneration bins (`fig1_landscape`, `table2_guarantees`) run
//! every execution under the strict invariant watchdog; these tests pin
//! the same property — zero violations of the budget, crash-silence,
//! causality, phase-discipline, and CAAF-envelope invariants — on reduced
//! slices of those configurations so the guarantee is enforced by
//! `cargo test` too, not only by running the bins.

use caaf::Sum;
use ftagg::monitored::run_pair_engine_monitored;
use ftagg::tradeoff::{run_tradeoff_monitored, TradeoffConfig};
use ftagg::Instance;
use ftagg_bench::Env;
use netsim::{adversary::schedules, topology, NodeId, Runner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const C: u32 = 2;

/// Reduced table2-style pair slice: random G(n,p) / cycle / caterpillar
/// instances with random crash schedules, AGG + VERI both monitored in
/// strict mode (a violation panics), lenient report asserted clean too.
/// Uses the engine variant, as the Table 2 bin does: with more failures
/// than `t` the paper gives no correctness guarantee, so the CAAF
/// envelope is not an invariant on this slice.
#[test]
fn strict_watchdog_clean_on_table2_style_pairs() {
    let seeds: Vec<u64> = (0..60).collect();
    let ran = Runner::new(0).run(&seeds, |trial| {
        let mut rng = StdRng::seed_from_u64(0x007A_B1E2 ^ trial);
        let inst = match trial % 3 {
            0 => {
                let g = topology::connected_gnp(18, 0.16, &mut rng);
                let horizon = 26 * u64::from(g.diameter()) + 10;
                let k = rng.gen_range(0..5);
                let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
                let inputs: Vec<u64> = (0..18).map(|_| rng.gen_range(0..32)).collect();
                Instance::new(g, NodeId(0), inputs, s, 31).unwrap()
            }
            1 => {
                let g = topology::cycle(12);
                let horizon = 26 * u64::from(g.diameter()) + 10;
                let k = rng.gen_range(0..4);
                let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
                let inputs: Vec<u64> = (0..12).map(|_| rng.gen_range(0..16)).collect();
                Instance::new(g, NodeId(0), inputs, s, 15).unwrap()
            }
            _ => {
                let g = topology::caterpillar(7, 2);
                let n = g.len();
                let horizon = 26 * u64::from(g.diameter()) + 10;
                let k = rng.gen_range(0..4);
                let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
                let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..8)).collect();
                Instance::new(g, NodeId(0), inputs, s, 7).unwrap()
            }
        };
        if inst.schedule.stretch_factor(&inst.graph, inst.root) > f64::from(C) {
            return false;
        }
        let t = rng.gen_range(0..5);
        let (_eng, _params, monitor) =
            run_pair_engine_monitored(&Sum, &inst, inst.schedule.clone(), C, t, true, true);
        assert!(monitor.is_clean(), "trial {trial}: {}", monitor.render());
        true
    });
    let executed = ran.into_iter().filter(|&x| x).count();
    assert!(executed >= 30, "too many stretch-violating schedules skipped: {executed}");
}

/// Reduced fig1-style tradeoff slice: caterpillar instances across a few
/// TC budgets, the full Algorithm 1 regeneration loop monitored strict.
#[test]
fn strict_watchdog_clean_on_fig1_style_tradeoff_slice() {
    let f_bound = 12;
    let work: Vec<u64> =
        [42u64, 84].iter().flat_map(|&b| (0..3).map(move |t| b * 10 + t)).collect();
    Runner::new(0).run(&work, |item| {
        let b = item / 10;
        let trial = item % 10;
        let env = Env::caterpillar(1000 * b + trial, 24, f_bound, b, C);
        let inst = env.instance();
        let cfg = TradeoffConfig { b, c: C, f: f_bound, seed: trial };
        let (r, monitor) = run_tradeoff_monitored(&Sum, &inst, &cfg, true);
        assert!(r.correct, "b = {b}, trial {trial}: incorrect result");
        assert!(monitor.is_clean(), "b = {b}, trial {trial}: {}", monitor.render());
    });
}

/// A 4×5 grid where four crashes during AGG leave the `t = 1` pair's AGG
/// with a wrong sum (10 of the 20 unit inputs) that VERI then rejects.
fn rejected_wrong_sum() -> Instance {
    let mut s = netsim::FailureSchedule::none();
    for (v, round) in [(1, 12), (2, 9), (3, 13), (4, 14)] {
        s.crash(NodeId(v), round);
    }
    Instance::new(topology::grid(4, 5), NodeId(0), vec![1; 20], s, 1).expect("valid instance")
}

/// An AGG value that VERI rejected is not a decision, so the CAAF envelope
/// does not judge it even in strict mode; its `Decide` event is still
/// audited.
#[test]
fn veri_rejected_value_outside_the_envelope_passes_strict_mode() {
    use ftagg::monitored::{run_pair_monitored, run_pair_recorded};
    let inst = rejected_wrong_sum();
    let m = run_pair_monitored(&Sum, &inst, inst.schedule.clone(), C, 1, true, 0, true);
    let r = &m.report;
    assert_eq!((r.result(), r.verdict, r.correct), (Some(10), Some(false), Some(false)));
    assert!(m.monitor.is_clean(), "{}", m.monitor.render());
    assert_eq!(m.monitor.decides, 1);
    let rec = run_pair_recorded(&Sum, &inst, inst.schedule.clone(), C, 1, true, 0, 8);
    assert!(rec.monitor.is_clean(), "{}", rec.monitor.render());
}

/// With VERI off, the same wrong AGG value is the decision: the envelope
/// flags it, and strict mode panics.
#[test]
fn unverified_wrong_value_still_trips_the_envelope() {
    use ftagg::monitored::run_pair_monitored;
    let inst = rejected_wrong_sum();
    let m = run_pair_monitored(&Sum, &inst, inst.schedule.clone(), C, 1, false, 0, false);
    assert_eq!((m.report.result(), m.report.correct), (Some(10), Some(false)));
    assert_eq!(m.monitor.total, 1, "{}", m.monitor.render());
    assert!(m.monitor.render().contains("outside the CAAF envelope"), "{}", m.monitor.render());
    let strict = std::panic::catch_unwind(|| {
        run_pair_monitored(&Sum, &inst, inst.schedule.clone(), C, 1, false, 0, true)
    });
    assert!(strict.is_err(), "strict mode must panic on a wrong decision");
}
