//! The host-drift reference: a fixed loop timed right before every cell
//! of every repetition.
//!
//! On a shared VM the simulator's host time drifts far more than plain
//! arithmetic does (README.md, "Host drift"). The reference therefore
//! does the kind of work the simulators do — hash-map and B-tree churn
//! over a few MiB of keys, branchy and cache-bound — using only the
//! standard library, so it is the same code on every commit of this
//! repository. Each cell's build and run times are scaled by
//! `(REF_NOMINAL_S / measured)^exponent` (see
//! [`crate::stats::drift_adjust`]), where `measured` is the loop's time
//! right before the cell, and the exponent is the workload's
//! ([`crate::cells::WorkloadKind::drift_exponents`]).

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Map operations per measurement.
const OPS: u64 = 1 << 16;

/// Key range (a power of two, minus one).
const KEY_MASK: u64 = (1 << 20) - 1;

/// Nominal reference time, in seconds: the loop's median time on a
/// 2-vCPU x86-64 VM (about 22 ms). The adjusted metrics are seconds at
/// this reference speed.
pub const REF_NOMINAL_S: f64 = 0.022;

/// How hard a slow spell hits the simulator mixes relative to the loop:
/// when the loop takes `k` times as long, the cells of `paper-n128` and
/// `observe-n64` take about `k^1.5` times as long. Fitted on their own
/// cells and runs timed next to the loop over several noisy periods
/// (README.md, "Host drift"); exponent 1 under-corrects there.
pub const SIMULATOR_EXPONENT: f64 = 1.5;

/// The exponent of every other workload: their work tracks the loop one
/// to one.
pub const TRACKING_EXPONENT: f64 = 1.0;

/// Exponent 0: raw seconds, for times the adjustment does not steady
/// (`admit-n128`'s set-up, README.md, "Host drift").
pub const RAW_EXPONENT: f64 = 0.0;

/// The reference loop's state (its xorshift seed carries over between
/// measurements, so no two measurements replay the same keys).
pub struct Reference {
    state: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// A reference with a fixed starting seed.
    pub fn new() -> Self {
        Reference {
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Runs the loop once; returns its time in seconds.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        let mut hash: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
        let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
        let mut acc = 0u64;
        for i in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x & KEY_MASK;
            *hash.entry(k).or_insert(0) += i;
            match tree.get(&(k >> 2)) {
                Some(v) => acc = acc.wrapping_add(*v),
                None => {
                    tree.insert(k >> 2, i);
                }
            }
            if i % 7 == 0 {
                hash.remove(&(k ^ 1));
            }
        }
        self.state = black_box(x ^ acc ^ hash.len() as u64 ^ tree.len() as u64);
        start.elapsed().as_secs_f64()
    }
}
