//! Textual specification parsers for the CLI: topologies, input
//! generators, crash schedules, and operators.
//!
//! Grammar (all case-sensitive, parameters colon/`x`/`@`-separated):
//!
//! - topology: `path:N`, `cycle:N`, `star:N`, `complete:N`, `grid:RxC`,
//!   `torus:RxC`, `binary-tree:N`, `caterpillar:SxL`, `broom:HxB`,
//!   `lollipop:KxT`, `hypercube:D`, `wheel:N`, `barbell:KxB`,
//!   `bipartite:AxB`, `random-tree:N`, `gnp:NxP%` (P percent),
//! - inputs: `const:V`, `random:MAX`, `ramp` (node id as input),
//! - crash: `NODE@ROUND` (repeatable),
//! - operator: `sum`, `count`, `max`, `min:TOP`, `or`, `and`, `gcd`,
//!   `modsum:M`.

use caaf::{BoolAnd, BoolOr, Count, Gcd, Max, Min, ModSum, Sum};
use netsim::{topology, FailureSchedule, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A parsed operator choice (closed enum keeps drivers monomorphic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpSpec {
    /// SUM
    Sum(Sum),
    /// COUNT
    Count(Count),
    /// MAX
    Max(Max),
    /// MIN with a domain top
    Min(Min),
    /// Boolean OR
    Or(BoolOr),
    /// Boolean AND
    And(BoolAnd),
    /// GCD
    Gcd(Gcd),
    /// Modular sum
    ModSum(ModSum),
}

impl OpSpec {
    /// Operator name for display.
    pub fn name(&self) -> &'static str {
        match self {
            OpSpec::Sum(_) => "sum",
            OpSpec::Count(_) => "count",
            OpSpec::Max(_) => "max",
            OpSpec::Min(_) => "min",
            OpSpec::Or(_) => "or",
            OpSpec::And(_) => "and",
            OpSpec::Gcd(_) => "gcd",
            OpSpec::ModSum(_) => "modsum",
        }
    }
}

fn parse_pair(s: &str, sep: char) -> Result<(usize, usize), String> {
    let (a, b) =
        s.split_once(sep).ok_or_else(|| format!("expected '{sep}'-separated pair, got '{s}'"))?;
    Ok((
        a.parse().map_err(|_| format!("bad number '{a}'"))?,
        b.parse().map_err(|_| format!("bad number '{b}'"))?,
    ))
}

/// Parses a topology spec (see module docs).
///
/// # Errors
///
/// Returns a message naming the unknown family or malformed parameter,
/// including a size below the family's minimum (every size must be
/// positive; a cycle or torus side needs 3 nodes, a wheel 4, a barbell
/// clique 2, and a hypercube dimension lies in `1..=20`).
pub fn parse_topology(spec: &str, seed: u64) -> Result<Graph, String> {
    let (name, arg) = spec.split_once(':').unwrap_or((spec, ""));
    let num = |s: &str| -> Result<usize, String> {
        s.parse().map_err(|_| format!("bad number '{s}' in '{spec}'"))
    };
    let at_least = |min: usize, v: usize| -> Result<usize, String> {
        if v >= min {
            Ok(v)
        } else {
            Err(format!("'{spec}': {name} sizes must be at least {min}, got {v}"))
        }
    };
    let size = |min: usize| num(arg).and_then(|v| at_least(min, v));
    // Both sizes of an `AxB` pair, the first at least `min_a`, the second
    // at least `min_b`.
    let sizes = |min_a: usize, min_b: usize| -> Result<(usize, usize), String> {
        let (a, b) = parse_pair(arg, 'x')?;
        Ok((at_least(min_a, a)?, at_least(min_b, b)?))
    };
    Ok(match name {
        "path" => topology::path(size(1)?),
        "cycle" => topology::cycle(size(3)?),
        "star" => topology::star(size(1)?),
        "complete" => topology::complete(size(1)?),
        "grid" => {
            let (r, c) = sizes(1, 1)?;
            topology::grid(r, c)
        }
        "torus" => {
            let (r, c) = sizes(3, 3)?;
            topology::torus(r, c)
        }
        "binary-tree" => topology::binary_tree(size(1)?),
        "caterpillar" => {
            let (s, l) = sizes(1, 0)?;
            topology::caterpillar(s, l)
        }
        "broom" => {
            let (h, b) = sizes(1, 0)?;
            topology::broom(h, b)
        }
        "lollipop" => {
            let (k, t) = sizes(1, 0)?;
            topology::lollipop(k, t)
        }
        "hypercube" => {
            let dim = size(1)?;
            if dim > 20 {
                return Err(format!("'{spec}': hypercube dimension must be at most 20"));
            }
            topology::hypercube(dim as u32)
        }
        "wheel" => topology::wheel(size(4)?),
        "barbell" => {
            let (k, b) = sizes(2, 0)?;
            topology::barbell(k, b)
        }
        "bipartite" => {
            let (a, b) = sizes(1, 1)?;
            topology::complete_bipartite(a, b)
        }
        "random-tree" => {
            let mut rng = StdRng::seed_from_u64(seed);
            topology::random_tree(size(1)?, &mut rng)
        }
        "gnp" => {
            let (n, pct) = sizes(1, 0)?;
            if pct > 100 {
                return Err(format!("'{spec}': gnp percent must be at most 100"));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            topology::connected_gnp(n, pct as f64 / 100.0, &mut rng)
        }
        other => return Err(format!("unknown topology family '{other}'")),
    })
}

/// Parses an input generator and produces the `n` inputs.
///
/// # Errors
///
/// Returns a message for unknown generators or malformed values.
pub fn parse_inputs(spec: &str, n: usize, seed: u64) -> Result<(Vec<u64>, u64), String> {
    let (name, arg) = spec.split_once(':').unwrap_or((spec, ""));
    Ok(match name {
        "const" => {
            let v: u64 = arg.parse().map_err(|_| format!("bad value '{arg}'"))?;
            (vec![v; n], v.max(1))
        }
        "random" => {
            let max: u64 = arg.parse().map_err(|_| format!("bad max '{arg}'"))?;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
            ((0..n).map(|_| rng.gen_range(0..=max)).collect(), max.max(1))
        }
        "ramp" => ((0..n as u64).collect(), (n as u64).max(1)),
        other => return Err(format!("unknown input generator '{other}'")),
    })
}

/// Parses repeated `NODE@ROUND` crash specs into a schedule.
///
/// # Errors
///
/// Returns a message for malformed entries.
pub fn parse_crashes(specs: &[String]) -> Result<FailureSchedule, String> {
    let mut s = FailureSchedule::none();
    for c in specs {
        let (node, round) =
            c.split_once('@').ok_or_else(|| format!("crash spec '{c}' must be NODE@ROUND"))?;
        let node: u32 = node.parse().map_err(|_| format!("bad node '{node}'"))?;
        let round: u64 = round.parse().map_err(|_| format!("bad round '{round}'"))?;
        if round == 0 {
            return Err("crash rounds are 1-based".into());
        }
        s.crash(NodeId(node), round);
    }
    Ok(s)
}

/// Parses an operator spec.
///
/// # Errors
///
/// Returns a message for unknown operators or missing parameters.
pub fn parse_op(spec: &str) -> Result<OpSpec, String> {
    let (name, arg) = spec.split_once(':').unwrap_or((spec, ""));
    Ok(match name {
        "sum" => OpSpec::Sum(Sum),
        "count" => OpSpec::Count(Count),
        "max" => OpSpec::Max(Max),
        "min" => {
            let top: u64 = arg.parse().map_err(|_| "min needs min:TOP".to_string())?;
            OpSpec::Min(Min::new(top))
        }
        "or" => OpSpec::Or(BoolOr),
        "and" => OpSpec::And(BoolAnd),
        "gcd" => OpSpec::Gcd(Gcd),
        "modsum" => {
            let m: u64 = arg.parse().map_err(|_| "modsum needs modsum:M".to_string())?;
            OpSpec::ModSum(ModSum::new(m))
        }
        other => return Err(format!("unknown operator '{other}'")),
    })
}

/// Serializes a full scenario (explicit edge-list topology, inputs, and
/// crash schedule) into a one-line-per-field text format that
/// [`parse_scenario`] reads back — the CLI's `--save`/`--load` files.
pub fn format_scenario(graph: &Graph, inputs: &[u64], schedule: &FailureSchedule) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let edges: Vec<String> =
        graph.edges().iter().map(|e| format!("{}-{}", e.lo().0, e.hi().0)).collect();
    let _ = writeln!(out, "nodes {}", graph.len());
    let _ = writeln!(out, "edges {}", edges.join(","));
    let vals: Vec<String> = inputs.iter().map(u64::to_string).collect();
    let _ = writeln!(out, "inputs {}", vals.join(","));
    for (v, e) in schedule.iter() {
        let _ = writeln!(out, "crash {}@{}", v.0, e.round);
    }
    out
}

/// Parses a scenario produced by [`format_scenario`].
///
/// # Errors
///
/// Returns a message describing the first malformed line.
pub fn parse_scenario(text: &str) -> Result<(Graph, Vec<u64>, FailureSchedule), String> {
    let mut n: Option<usize> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut inputs: Vec<u64> = Vec::new();
    let mut crash_specs: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // A key with no value (e.g. "edges" on an edgeless graph) is fine.
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "nodes" => {
                n = Some(rest.parse().map_err(|_| format!("line {}: bad node count", lineno + 1))?);
            }
            "edges" => {
                for pair in rest.split(',').filter(|s| !s.is_empty()) {
                    let (a, b) = pair
                        .split_once('-')
                        .ok_or_else(|| format!("line {}: edge '{pair}' must be A-B", lineno + 1))?;
                    edges.push((
                        a.parse().map_err(|_| format!("bad edge endpoint '{a}'"))?,
                        b.parse().map_err(|_| format!("bad edge endpoint '{b}'"))?,
                    ));
                }
            }
            "inputs" => {
                for v in rest.split(',').filter(|s| !s.is_empty()) {
                    inputs.push(v.parse().map_err(|_| format!("bad input '{v}'"))?);
                }
            }
            "crash" => crash_specs.push(rest.to_string()),
            other => return Err(format!("line {}: unknown key '{other}'", lineno + 1)),
        }
    }
    let n = n.ok_or("missing 'nodes' line")?;
    let graph = Graph::new(n, &edges).map_err(|e| e.to_string())?;
    if inputs.len() != n {
        return Err(format!("expected {n} inputs, got {}", inputs.len()));
    }
    let schedule = parse_crashes(&crash_specs)?;
    Ok((graph, inputs, schedule))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_specs_parse() {
        assert_eq!(parse_topology("path:5", 0).unwrap().len(), 5);
        assert_eq!(parse_topology("grid:3x4", 0).unwrap().len(), 12);
        assert_eq!(parse_topology("hypercube:3", 0).unwrap().len(), 8);
        assert_eq!(parse_topology("caterpillar:4x2", 0).unwrap().len(), 12);
        assert_eq!(parse_topology("bipartite:2x3", 0).unwrap().len(), 5);
        assert!(parse_topology("gnp:20x30", 1).unwrap().is_connected());
        assert!(parse_topology("mesh:4", 0).is_err());
        assert!(parse_topology("grid:4", 0).is_err());
        assert!(parse_topology("path:x", 0).is_err());
    }

    #[test]
    fn random_topologies_are_seeded() {
        let a = parse_topology("random-tree:15", 7).unwrap();
        let b = parse_topology("random-tree:15", 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn input_specs_parse() {
        let (v, max) = parse_inputs("const:9", 4, 0).unwrap();
        assert_eq!(v, vec![9, 9, 9, 9]);
        assert_eq!(max, 9);
        let (v, max) = parse_inputs("ramp", 3, 0).unwrap();
        assert_eq!(v, vec![0, 1, 2]);
        assert_eq!(max, 3);
        let (v, max) = parse_inputs("random:50", 10, 3).unwrap();
        assert!(v.iter().all(|&x| x <= 50));
        assert_eq!(max, 50);
        assert!(parse_inputs("fib", 3, 0).is_err());
    }

    #[test]
    fn crash_specs_parse() {
        let s = parse_crashes(&["3@10".into(), "5@2".into()]).unwrap();
        assert_eq!(s.crash_count(), 2);
        assert!(s.is_dead(NodeId(3), 10));
        assert!(!s.is_dead(NodeId(3), 9));
        assert!(parse_crashes(&["3".into()]).is_err());
        assert!(parse_crashes(&["3@0".into()]).is_err());
        assert!(parse_crashes(&["x@4".into()]).is_err());
    }

    #[test]
    fn scenario_roundtrip() {
        let g = topology::grid(3, 3);
        let inputs: Vec<u64> = (0..9).collect();
        let mut s = FailureSchedule::none();
        s.crash(NodeId(4), 17);
        s.crash(NodeId(7), 3);
        let text = format_scenario(&g, &inputs, &s);
        let (g2, in2, s2) = parse_scenario(&text).unwrap();
        assert_eq!(g2, g);
        assert_eq!(in2, inputs);
        assert_eq!(s2, s);
    }

    #[test]
    fn scenario_parse_errors() {
        assert!(parse_scenario("edges 0-1").is_err()); // missing nodes
        assert!(parse_scenario("nodes 2\nedges 0:1\ninputs 1,2").is_err());
        assert!(parse_scenario("nodes 2\nedges 0-1\ninputs 1").is_err());
        assert!(parse_scenario("nodes 2\nedges 0-1\ninputs 1,2\nwat 3").is_err());
        assert!(parse_scenario("nodes 2\nedges 0-1\ninputs 1,2\ncrash 1@5").is_ok());
        // Comments and blanks are fine.
        assert!(parse_scenario("# hi\n\nnodes 1\nedges \ninputs 0").is_ok());
    }

    #[test]
    fn op_specs_parse() {
        assert_eq!(parse_op("sum").unwrap().name(), "sum");
        assert_eq!(parse_op("min:100").unwrap().name(), "min");
        assert_eq!(parse_op("modsum:7").unwrap().name(), "modsum");
        assert!(parse_op("min").is_err());
        assert!(parse_op("median").is_err());
    }
}
