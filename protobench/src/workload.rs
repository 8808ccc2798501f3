//! The three workloads: how each builds its problems from a topology spec,
//! calls the library's public driver, and replays the same execution on an
//! engine the benchmark builds itself.

use crate::clock::thread_cpu_s;
use caaf::{Caaf, Sum};
use ftagg::baselines::brute::{BruteEnvelope, BruteNode};
use ftagg::baselines::run_brute;
use ftagg::doubling::{run_doubling, DoublingConfig};
use ftagg::interval::IntervalLayout;
use ftagg::msg::Envelope;
use ftagg::pair::{AggOutcome, Tweaks};
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg::{Instance, Model, PairNode, PairParams};
use ftagg_cli::spec::{parse_inputs, parse_topology};
use netsim::adversary::schedules;
use netsim::{
    AnyEngine, Engine, Event, FailureSchedule, NodeId, Round, RoundFlow, SpanKind, Timeline,
    TraceSink,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 1 on a grid under scattered crashes.
    Alg1Grid,
    /// The doubling wrapper over a fleet of random graphs, in parallel.
    DoublingFleet,
    /// The brute-force flood on a hypercube.
    BruteHypercube,
}

/// The fixed parameters of a workload; the seed picks everything else.
pub struct Shape {
    /// Topology spec, in `ftagg-cli` syntax.
    pub spec: &'static str,
    /// Input generator spec, in `ftagg-cli` syntax.
    pub inputs: &'static str,
    /// Stretch constant `c`.
    pub c: u32,
    /// Algorithm 1's TC budget `b` in flooding rounds.
    pub b: u64,
    /// Algorithm 1's edge-failure bound `f`.
    pub f: usize,
    /// Nodes crashed by the doubling fleet's burst.
    pub burst: usize,
    /// Executions per pass.
    pub execs: usize,
    /// Runner workers; 0 means one per core.
    pub threads: usize,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] =
        [Workload::Alg1Grid, Workload::DoublingFleet, Workload::BruteHypercube];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Alg1Grid => "alg1-grid",
            Workload::DoublingFleet => "doubling-fleet",
            Workload::BruteHypercube => "brute-hypercube",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed parameters.
    pub fn shape(self) -> Shape {
        match self {
            // b = 80 gives x = (80 - 4) / 38 = 2 intervals, so t = f.
            Workload::Alg1Grid => Shape {
                spec: "grid:40x40",
                inputs: "random:99",
                c: 2,
                b: 80,
                f: 8,
                burst: 0,
                execs: 10,
                threads: 1,
            },
            Workload::DoublingFleet => Shape {
                spec: "gnp:600x1",
                inputs: "random:99",
                c: 2,
                b: 0,
                f: 0,
                burst: 3,
                execs: 32,
                threads: 0,
            },
            Workload::BruteHypercube => Shape {
                spec: "hypercube:9",
                inputs: "random:99",
                c: 2,
                b: 0,
                f: 0,
                burst: 0,
                execs: 10,
                threads: 1,
            },
        }
    }
}

/// CPU seconds spent in each public call of one execution, plus the number
/// of all-pairs residual-diameter checks the stretch test ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    pub build: f64,
    pub diameter: f64,
    pub schedule: f64,
    pub stretch: f64,
    pub stretch_checks: u64,
    pub instance: f64,
    pub model: f64,
    pub exec: f64,
}

impl Layers {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Layers) {
        self.build += other.build;
        self.diameter += other.diameter;
        self.schedule += other.schedule;
        self.stretch += other.stretch;
        self.stretch_checks += other.stretch_checks;
        self.instance += other.instance;
        self.model += other.model;
        self.exec += other.exec;
    }
}

/// The exact, seed-determined outcome of one execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Exact {
    /// Nodes `N`.
    pub n: u64,
    /// Rounds until the root decided.
    pub rounds: u64,
    /// The paper's CC: the bottleneck node's bits.
    pub cc_bits: u64,
    /// The paper's TC, in flooding rounds.
    pub tc: u64,
    /// AGG+VERI pairs run.
    pub pairs: u64,
    /// Driver stages: doubling stages, Algorithm 1 sub-executions (pairs
    /// plus fallback), or 1 for a brute run.
    pub stages: u64,
    /// Whether the brute-force fallback decided.
    pub fallback: bool,
    /// The root's decision.
    pub result: u64,
}

/// One execution, timed from topology spec to root decision in CPU
/// seconds of the thread that ran it.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub layers: Layers,
    pub setup_s: f64,
    pub decision_s: f64,
    /// CPU seconds of the reference loop, run just before the execution.
    pub reference_s: f64,
    pub exact: Exact,
    /// System-wide bits of the AGG and VERI phases.
    pub agg_bits: u64,
    pub veri_bits: u64,
    /// Why the execution counts as failed, if it does.
    pub error: Option<String>,
}

/// A built problem: the instance the driver runs plus what the replay and
/// the watchdog need to re-run it.
#[derive(Clone, Debug)]
pub struct Problem {
    pub inst: Instance,
    /// Diameter of the topology.
    pub d: u32,
    /// The root's private coin seed (Algorithm 1).
    pub coin: u64,
}

impl Problem {
    /// The model the drivers derive, without recomputing the diameter.
    pub fn model(&self, c: u32) -> Model {
        Model {
            n: self.inst.n(),
            root: self.inst.root,
            d: self.d,
            c,
            max_input: self.inst.max_input,
        }
    }
}

/// Where one execution records its per-call spans (traced pass only).
#[derive(Clone, Copy)]
pub struct Tracer<'a> {
    pub tl: &'a Timeline,
    pub lane: u32,
}

/// Runs `f`, adds its CPU time to `acc`, and records its wall interval as
/// a span.
fn timed<T>(tr: Option<Tracer>, label: &str, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let c0 = thread_cpu_s();
    let out = f();
    *acc += thread_cpu_s() - c0;
    let dt = t0.elapsed();
    if let Some(tr) = tr {
        let ns = dt.as_nanos().min(u128::from(u64::MAX)) as u64;
        tr.tl.record_span(SpanKind::Phase, label, tr.lane, tr.tl.ns_of(t0), ns, None);
    }
    out
}

const ROOT: NodeId = NodeId(0);

/// Crash schedules drawn before giving up on the stretch constraint.
const SCHEDULE_DRAWS: usize = 16;

/// Builds one problem from the workload's spec and `seed`.
fn setup(w: Workload, seed: u64, tr: Option<Tracer>) -> Result<(Problem, Layers), String> {
    let sh = w.shape();
    let mut lay = Layers::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = timed(tr, "graph.build", &mut lay.build, || parse_topology(sh.spec, seed))?;
    // The brute force needs no crash schedule, so it makes no diameter call
    // of its own; its `d` comes from the model below.
    let (schedule, graph_d) = if w == Workload::BruteHypercube {
        (FailureSchedule::none(), None)
    } else {
        let d = timed(tr, "graph.diameter", &mut lay.diameter, || graph.diameter().max(1));
        let mut draws = 0;
        let schedule = loop {
            let s = timed(tr, "adversary.schedule", &mut lay.schedule, || match w {
                // Positions come from the library's budgeted generator and
                // every crash lands at round 2cd, while the first pair's AGG
                // aggregates. With random crash rounds, how many failure
                // floods a pair runs depends on each crash's timing, which
                // swung a pass's CC and deliveries by a fifth from seed to
                // seed; one crash round leaves only the positions to chance.
                Workload::Alg1Grid => {
                    let placed =
                        schedules::random_with_edge_budget(&graph, ROOT, sh.f, 1, &mut rng);
                    let mut s = FailureSchedule::none();
                    for (v, _) in placed.iter() {
                        s.crash(v, 2 * u64::from(sh.c * d));
                    }
                    s
                }
                // After the first stage's tree has formed (round d) and
                // before its aggregation ends, so stage f̂ = 1 is rejected.
                _ => schedules::burst_on_path(
                    &graph,
                    ROOT,
                    sh.burst,
                    u64::from(d) + 1,
                    u64::from(sh.c * d),
                    &mut rng,
                ),
            });
            let mut rounds: Vec<Round> = s.iter().map(|(_, e)| e.round).collect();
            rounds.sort_unstable();
            rounds.dedup();
            lay.stretch_checks += rounds.len() as u64;
            let stretch =
                timed(tr, "adversary.stretch", &mut lay.stretch, || s.stretch_factor(&graph, ROOT));
            if stretch <= f64::from(sh.c) {
                break s;
            }
            draws += 1;
            if draws == SCHEDULE_DRAWS {
                return Err(format!("no crash schedule within stretch {} in {draws} draws", sh.c));
            }
        };
        (schedule, Some(d))
    };
    let (inputs, max_input) = parse_inputs(sh.inputs, graph.len(), seed)?;
    let inst = timed(tr, "config.instance", &mut lay.instance, || {
        Instance::new(graph, ROOT, inputs, schedule, max_input)
    })?;
    let d = timed(tr, "config.model", &mut lay.model, || inst.model(sh.c)).d;
    if graph_d.is_some_and(|g| g != d) {
        return Err(format!("model diameter {d} differs from the graph's {graph_d:?}"));
    }
    if w == Workload::Alg1Grid {
        let layout = IntervalLayout::new(sh.b, sh.c, d)?;
        if layout.x() < 2 {
            return Err(format!("b = {} gives x = {} < 2 intervals", sh.b, layout.x()));
        }
    }
    Ok((Problem { inst, d, coin: seed.rotate_left(17) ^ 0xa076_1d64_78bd_642f }, lay))
}

/// Sums the system-wide bits of every phase labelled `label`.
fn phase_bits(m: &netsim::Metrics, label: &str) -> u64 {
    m.phases().iter().filter(|p| p.label == label).map(|p| p.bits).sum()
}

/// Calls the library's public driver on `p` and judges the outcome.
fn drive(w: Workload, p: &Problem) -> (Exact, u64, u64, Option<String>) {
    let sh = w.shape();
    let inst = &p.inst;
    let n = inst.n() as u64;
    let flooding = |rounds: Round| rounds.div_ceil(u64::from(p.d));
    match w {
        Workload::Alg1Grid => {
            let cfg = TradeoffConfig { b: sh.b, c: sh.c, f: sh.f, seed: p.coin };
            let r = run_tradeoff(&Sum, inst, &cfg);
            let exact = Exact {
                n,
                rounds: r.rounds,
                cc_bits: r.metrics.max_bits(),
                tc: r.flooding_rounds,
                pairs: r.pairs_run as u64,
                stages: r.pairs_run as u64 + u64::from(r.used_fallback),
                fallback: r.used_fallback,
                result: r.result,
            };
            let error = if !r.correct {
                Some(format!("result {} outside the correct interval", r.result))
            } else if r.flooding_rounds > sh.b {
                Some(format!("TC {} exceeds b = {}", r.flooding_rounds, sh.b))
            } else {
                None
            };
            (exact, phase_bits(&r.metrics, "AGG"), phase_bits(&r.metrics, "VERI"), error)
        }
        Workload::DoublingFleet => {
            let cfg = DoublingConfig { c: sh.c, max_stages: p.model(sh.c).id_bits() + 1 };
            let r = run_doubling(&Sum, inst, &cfg);
            let pairs =
                if r.used_fallback { u64::from(cfg.max_stages) } else { u64::from(r.stages) };
            let exact = Exact {
                n,
                rounds: r.rounds,
                cc_bits: r.metrics.max_bits(),
                tc: flooding(r.rounds),
                pairs,
                stages: u64::from(r.stages),
                fallback: r.used_fallback,
                result: r.result,
            };
            let error =
                (!r.correct).then(|| format!("result {} outside the correct interval", r.result));
            (exact, phase_bits(&r.metrics, "AGG"), phase_bits(&r.metrics, "VERI"), error)
        }
        Workload::BruteHypercube => {
            let r = run_brute(&Sum, inst, inst.schedule.clone(), sh.c, 0);
            let exact = Exact {
                n,
                rounds: r.rounds,
                cc_bits: r.metrics.max_bits(),
                tc: flooding(r.rounds),
                pairs: 0,
                stages: 1,
                fallback: false,
                result: r.result,
            };
            let error =
                (!r.correct).then(|| format!("result {} outside the correct interval", r.result));
            (exact, 0, 0, error)
        }
    }
}

/// One execution from topology spec to root decision. Returns the problem
/// too, so the first pass can replay it.
pub fn execute(w: Workload, seed: u64, tr: Option<Tracer>) -> (Outcome, Option<Problem>) {
    let c0 = thread_cpu_s();
    let built = setup(w, seed, tr);
    let setup_s = thread_cpu_s() - c0;
    let (problem, mut layers) = match built {
        Ok(b) => b,
        Err(e) => {
            let error = Some(format!("set-up: {e}"));
            return (Outcome { setup_s, decision_s: setup_s, error, ..Outcome::default() }, None);
        }
    };
    let mut exec = 0.0;
    let (exact, agg_bits, veri_bits, error) =
        timed(tr, "protocol.exec", &mut exec, || drive(w, &problem));
    layers.exec = exec;
    let decision_s = setup_s + exec;
    let outcome = Outcome {
        layers,
        setup_s,
        decision_s,
        reference_s: 0.0,
        exact,
        agg_bits,
        veri_bits,
        error,
    };
    (outcome, Some(problem))
}

/// Per-round flow summed over every engine a replay builds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Flow {
    pub rounds: u64,
    pub node_visits: u64,
    pub deliveries: u64,
    pub sends: u64,
    /// Rounds whose broadcasts enqueued no delivery.
    pub idle_rounds: u64,
    /// Most deliveries enqueued by one round.
    pub peak_inflight: u64,
}

impl Flow {
    fn add(&mut self, row: RoundFlow, n: u64) {
        self.rounds += 1;
        self.node_visits += n;
        self.deliveries += row.deliveries;
        self.sends += row.logical;
        self.idle_rounds += u64::from(row.deliveries == 0);
        self.peak_inflight = self.peak_inflight.max(row.deliveries);
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Flow) {
        self.rounds += other.rounds;
        self.node_visits += other.node_visits;
        self.deliveries += other.deliveries;
        self.sends += other.sends;
        self.idle_rounds += other.idle_rounds;
        self.peak_inflight = self.peak_inflight.max(other.peak_inflight);
    }
}

/// What a replay observes beyond the per-round flow.
#[derive(Clone, Copy)]
pub enum Observe<'a> {
    /// Nothing else.
    Bare,
    /// A timeline (coarse stage split: the node loop is one `absorb`).
    Timeline(&'a Timeline),
    /// A timeline plus a sink that drops every event, which switches the
    /// engine to its exact per-node stage split.
    Fine(&'a Timeline),
}

/// A sink that keeps nothing and declines deliveries.
struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _e: &Event) {}

    fn wants_delivers(&self) -> bool {
        false
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A replayed execution: the exact outcome, the engine flow, and the CPU
/// time spent building and running engines.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    pub exact: Exact,
    pub flow: Flow,
    pub cpu_s: f64,
}

/// Installs the round-flow counter and the requested observers.
macro_rules! observe {
    ($eng:expr, $obs:expr, $flow:expr, $n:expr) => {{
        let flow = Rc::clone($flow);
        let n = $n;
        $eng.stream_rounds(move |row: RoundFlow| flow.borrow_mut().add(row, n));
        match $obs {
            Observe::Bare => {}
            Observe::Timeline(tl) => {
                $eng.set_timeline(tl, 0);
            }
            Observe::Fine(tl) => {
                $eng.set_timeline(tl, 0);
                $eng.set_sink(Box::new(NullSink));
            }
        }
    }};
}

/// Accumulates a replay's engines.
struct Replayer<'a> {
    p: &'a Problem,
    c: u32,
    obs: Observe<'a>,
    flow: Rc<RefCell<Flow>>,
    bits: Vec<u64>,
    cpu_s: f64,
}

impl<'a> Replayer<'a> {
    fn new(p: &'a Problem, c: u32, obs: Observe<'a>) -> Self {
        let n = p.inst.n();
        Replayer { p, c, obs, flow: Rc::default(), bits: vec![0; n], cpu_s: 0.0 }
    }

    fn absorb(&mut self, m: &netsim::Metrics) {
        for (acc, b) in self.bits.iter_mut().zip(m.bits_per_node()) {
            *acc += b;
        }
    }

    /// One AGG+VERI pair as `run_pair_with_schedule` runs it; returns its
    /// rounds and the root's decision if AGG produced one and VERI agreed.
    fn pair(&mut self, schedule: FailureSchedule, t: u32) -> (Round, Option<u64>) {
        let c0 = thread_cpu_s();
        let params = PairParams {
            model: self.p.model(self.c),
            t,
            run_veri: true,
            tweaks: Tweaks::default(),
        };
        let inst = &self.p.inst;
        let inputs = &inst.inputs;
        let mut eng: AnyEngine<Envelope, PairNode<Sum>> =
            AnyEngine::new(inst.engine, inst.graph.clone(), schedule, |v| {
                PairNode::new(params, Sum, v, inputs[v.index()])
            });
        observe!(eng, self.obs, &self.flow, inst.n() as u64);
        eng.enter_phase("AGG");
        eng.run(params.agg_rounds());
        eng.exit_phase();
        eng.enter_phase("VERI");
        eng.run(params.total_rounds());
        eng.exit_phase();
        let root = eng.node(inst.root);
        let decision = match root.agg_outcome() {
            AggOutcome::Result(v) if root.veri_verdict() => Some(v),
            _ => None,
        };
        let rounds = eng.round();
        self.cpu_s += thread_cpu_s() - c0;
        self.absorb(eng.metrics());
        (rounds, decision)
    }

    /// One brute-force flood as `run_brute` runs it.
    fn brute(&mut self, schedule: FailureSchedule) -> (Round, u64) {
        let c0 = thread_cpu_s();
        let model = self.p.model(self.c);
        let (id_bits, value_bits) = (model.id_bits(), Sum.value_bits(model.n, model.max_input));
        let inst = &self.p.inst;
        let (inputs, root) = (&inst.inputs, inst.root);
        let mut eng: Engine<BruteEnvelope, BruteNode> =
            Engine::new(inst.graph.clone(), schedule, |v| {
                BruteNode::new(v, root, inputs[v.index()], id_bits, value_bits)
            });
        observe!(eng, self.obs, &self.flow, inst.n() as u64);
        let run = eng.run(2 * model.cd() + 2);
        let result = eng.node(root).result(&Sum);
        self.cpu_s += thread_cpu_s() - c0;
        self.absorb(eng.metrics());
        (run.rounds, result)
    }

    fn finish(self, rounds: Round, pairs: u64, stages: u64, fallback: bool, result: u64) -> Replay {
        let exact = Exact {
            n: self.p.inst.n() as u64,
            rounds,
            cc_bits: self.bits.iter().copied().max().unwrap_or(0),
            tc: rounds.div_ceil(u64::from(self.p.d)),
            pairs,
            stages,
            fallback,
            result,
        };
        let flow = *self.flow.borrow();
        Replay { exact, flow, cpu_s: self.cpu_s }
    }
}

/// Re-runs the execution of `p` engine by engine, the way the library's
/// driver for `w` does, on engines the benchmark builds itself.
pub fn replay(w: Workload, p: &Problem, obs: Observe) -> Result<Replay, String> {
    let sh = w.shape();
    let mut rp = Replayer::new(p, sh.c, obs);
    let schedule = &p.inst.schedule;
    match w {
        Workload::Alg1Grid => {
            // Algorithm 1, lines 1-6: log N coin draws pick the intervals.
            let model = p.model(sh.c);
            let layout = IntervalLayout::new(sh.b, sh.c, p.d)?;
            let t = layout.t(sh.f);
            let mut rng = StdRng::seed_from_u64(p.coin);
            let draws = u64::from(model.id_bits()).max(1);
            let mut ys: Vec<u64> = (0..draws).map(|_| rng.gen_range(1..=layout.x())).collect();
            ys.sort_unstable();
            ys.dedup();
            let mut pairs = 0;
            for y in ys {
                let offset = layout.pair_offset(y);
                let (rounds, decision) = rp.pair(schedule.shifted(offset), t);
                pairs += 1;
                if let Some(v) = decision {
                    return Ok(rp.finish(offset + rounds, pairs, pairs, false, v));
                }
            }
            let offset = layout.fallback_start() - 1;
            let (rounds, v) = rp.brute(schedule.shifted(offset));
            Ok(rp.finish(offset + rounds, pairs, pairs + 1, true, v))
        }
        Workload::DoublingFleet => {
            let max_stages = p.model(sh.c).id_bits() + 1;
            let mut offset: Round = 0;
            for k in 0..max_stages {
                let (rounds, decision) = rp.pair(schedule.shifted(offset), 1 << k);
                offset += rounds;
                if let Some(v) = decision {
                    let stages = u64::from(k) + 1;
                    return Ok(rp.finish(offset, stages, stages, false, v));
                }
            }
            let (rounds, v) = rp.brute(schedule.shifted(offset));
            let stages = u64::from(max_stages);
            Ok(rp.finish(offset + rounds, stages, stages, true, v))
        }
        Workload::BruteHypercube => {
            let (rounds, v) = rp.brute(schedule.clone());
            Ok(rp.finish(rounds, 0, 1, false, v))
        }
    }
}
