//! Fidelity pins: the exact figures of one pass at the default seed and at
//! a held-out seed, per workload. A change that only claims speed must
//! leave every one of them unchanged; the benchmark fails on any
//! difference.

use crate::workload::Workload;
use crate::PassExact;

/// The seed the benchmark runs when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, to re-check a claim on.
pub const HELD_OUT_SEED: u64 = 7;

/// `(workload, seed, exact figures)`: cc_bits_total, tc_flooding_rounds,
/// protocol.rounds, engine.deliveries, protocol.pairs_run, protocol.stages.
const PINS: &[(&str, u64, PassExact)] = &[
    ("alg1-grid", 1, pin(5380, 25, 18790, 1182894, 10, 10)),
    ("alg1-grid", 7, pin(5364, 25, 18790, 1176702, 10, 10)),
    ("doubling-fleet", 1, pin(22594, 51, 9376, 4468525, 64, 64)),
    ("doubling-fleet", 7, pin(22669, 51, 9520, 4522272, 64, 64)),
    ("brute-hypercube", 1, pin(132870, 5, 380, 23592960, 0, 10)),
    ("brute-hypercube", 7, pin(132870, 5, 380, 23592960, 0, 10)),
];

/// `PassExact` in pin-table order.
const fn pin(
    cc_bits_total: u64,
    tc_flooding_rounds: u64,
    rounds: u64,
    deliveries: u64,
    pairs_run: u64,
    stages: u64,
) -> PassExact {
    PassExact { cc_bits_total, tc_flooding_rounds, rounds, deliveries, pairs_run, stages }
}

/// The outcome of comparing a pass with the pins.
pub enum Verdict {
    /// No pin for this seed.
    Unpinned,
    /// Equal to the pin; names the seed's role.
    Match(&'static str),
    /// Differs from the pin; names the seed's role and the pinned figures.
    Mismatch(&'static str, PassExact),
}

/// Compares `got` with the pin for `(w, seed)`, if there is one.
pub fn check(w: Workload, seed: u64, got: &PassExact) -> Verdict {
    let role = match seed {
        DEFAULT_SEED => "default",
        HELD_OUT_SEED => "held-out",
        _ => return Verdict::Unpinned,
    };
    match PINS.iter().find(|(name, s, _)| *name == w.name() && *s == seed) {
        None => Verdict::Unpinned,
        Some((_, _, want)) if want == got => Verdict::Match(role),
        Some((_, _, want)) => Verdict::Mismatch(role, *want),
    }
}
