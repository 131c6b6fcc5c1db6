//! Deterministic fault injection.
//!
//! Faults are decided by a pure function of `(seed, job, attempt,
//! segment)` — never by wall-clock time, scheduling, or pool size — so a
//! chaos run is exactly reproducible from its seed, and the *same*
//! request sequence produces the *same* fault sequence whether it runs on
//! a 1-worker or an 8-worker pool.  That property is what lets the
//! determinism suite assert bitwise-identical results across pool sizes.
//!
//! Three fault families, mirroring the ways a serving deployment loses a
//! worker mid-document:
//!
//! * **Panic** — the worker thread panics at a segment boundary and dies.
//! * **Stall** — the worker sleeps past the supervisor's stall deadline;
//!   the supervisor abandons it and resumes the request elsewhere.
//! * **Corrupt segment** — the segment read fails its integrity check
//!   (as a checksummed transport would report); the attempt fails with a
//!   typed [`crate::FailureCause::SegmentCorrupted`].
//!
//! Because retries are keyed by a fresh `attempt` number, an injected
//! fault does not recur deterministically on the retry — which is exactly
//! the transient-fault shape the failover machinery exists for.

/// The fault (if any) injected at one `(job, attempt, segment)` point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// No fault; process the segment normally.
    None,
    /// Panic at this segment boundary (the worker thread dies).
    Panic,
    /// Sleep through the supervisor's stall deadline, then continue (the
    /// supervisor will have abandoned this worker by then).
    Stall,
    /// The segment arrives corrupt; the integrity check fails it.
    Corrupt,
}

/// Seeded fault-injection rates.  Rates are per-mille per segment and
/// are drawn disjointly: at most one fault fires per segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Per-mille chance a segment boundary panics the worker.
    pub panic_per_mille: u16,
    /// Per-mille chance a segment stalls the worker past its deadline.
    pub stall_per_mille: u16,
    /// Per-mille chance a segment arrives corrupt.
    pub corrupt_per_mille: u16,
    /// How long an injected stall sleeps.  Must exceed the runtime's
    /// stall timeout, or the "stall" is just slow and never triggers
    /// failover.
    pub stall_ms: u64,
}

impl ChaosConfig {
    /// A chaos profile with moderate rates, suitable for soak tests.
    pub fn with_seed(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_per_mille: 20,
            stall_per_mille: 10,
            corrupt_per_mille: 30,
            stall_ms: 150,
        }
    }

    /// The fault injected at this `(job, attempt, segment)` point.
    /// Deterministic: same inputs, same fault, regardless of pool size
    /// or scheduling.
    pub fn roll(&self, job: u64, attempt: u32, segment: u64) -> Fault {
        let bands = [
            (self.panic_per_mille, Fault::Panic),
            (self.stall_per_mille, Fault::Stall),
            (self.corrupt_per_mille, Fault::Corrupt),
        ];
        let draw = per_mille(self.seed, 0, job, attempt as u64, segment);
        pick(draw, &bands, Fault::None)
    }
}

/// The per-mille draw (`0..1000`) of fault stream `seed` at coordinate
/// `(a, b, c)` — every fault roll of the pool and network harnesses.
/// `salt` separates harnesses that share a seed, so they do not inject
/// in lockstep (the pool stream is unsalted).
pub(crate) fn per_mille(seed: u64, salt: u64, a: u64, b: u64, c: u64) -> u16 {
    let h = mix(seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ c.wrapping_mul(0x1656_67B1_9E37_79F9)
        ^ salt);
    (h % 1000) as u16
}

/// The fault whose per-mille band holds `draw`: the `(rate, fault)`
/// bands lie end to end from 0 in order, so at most one fault fires per
/// draw, and a draw past every band is `none`.
pub(crate) fn pick<F: Copy>(draw: u16, bands: &[(u16, F)], none: F) -> F {
    let mut top = 0u32;
    for &(rate, fault) in bands {
        top += u32::from(rate);
        if u32::from(draw) < top {
            return fault;
        }
    }
    none
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_attempt_sensitive() {
        let c = ChaosConfig::with_seed(7);
        for job in 0..50u64 {
            for seg in 0..20u64 {
                assert_eq!(c.roll(job, 1, seg), c.roll(job, 1, seg));
            }
        }
        // Different attempts re-roll: some (job, segment) fault points
        // must clear on retry, or failover could never make progress.
        let mut cleared = 0;
        for job in 0..200u64 {
            for seg in 0..20u64 {
                if c.roll(job, 1, seg) != Fault::None && c.roll(job, 2, seg) == Fault::None {
                    cleared += 1;
                }
            }
        }
        assert!(cleared > 0, "retries never clear injected faults");
    }

    /// Draws of the pool stream, pinned from the generator as it stood
    /// before the pool and network harnesses shared it: seeds 7 and 42
    /// over the `(job, attempt, segment)` points of `GRID`.
    pub(crate) const GRID: [(u64, u32, u64); 6] = [
        (0, 1, 0),
        (1, 1, 0),
        (3, 2, 5),
        (17, 1, 9),
        (1000, 3, 2),
        (u64::MAX, 7, 123_456),
    ];
    const POOL_DRAWS: [(u64, [u16; 6]); 2] = [
        (7, [493, 386, 420, 9, 341, 842]),
        (42, [531, 307, 356, 658, 927, 756]),
    ];

    #[test]
    fn pool_draws_match_the_pinned_grid() {
        for (seed, draws) in POOL_DRAWS {
            for (&(job, attempt, segment), draw) in GRID.iter().zip(draws) {
                assert_eq!(per_mille(seed, 0, job, attempt as u64, segment), draw);
                // The roll fires exactly when the draw falls in a band.
                let at = |rate: u16| ChaosConfig {
                    seed,
                    panic_per_mille: rate,
                    stall_per_mille: 0,
                    corrupt_per_mille: 0,
                    stall_ms: 0,
                };
                assert_eq!(at(draw).roll(job, attempt, segment), Fault::None);
                assert_eq!(at(draw + 1).roll(job, attempt, segment), Fault::Panic);
            }
        }
    }

    #[test]
    fn bands_are_disjoint_and_ordered() {
        let bands = [(20, 'p'), (10, 's'), (30, 'c')];
        let picks: String = [0, 19, 20, 29, 30, 59, 60, 999]
            .into_iter()
            .map(|d| pick(d, &bands, '-'))
            .collect();
        assert_eq!(picks, "ppsscc--");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let c = ChaosConfig {
            seed: 42,
            panic_per_mille: 100,
            stall_per_mille: 0,
            corrupt_per_mille: 0,
            stall_ms: 0,
        };
        let n = 10_000u64;
        let panics = (0..n).filter(|&i| c.roll(i, 1, 0) == Fault::Panic).count();
        // 10% nominal; allow a generous band.
        assert!((500..2000).contains(&panics), "panics: {panics}");
    }
}
