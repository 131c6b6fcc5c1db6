//! Deterministic *network* fault injection (feature `chaos`).
//!
//! The worker-pool chaos harness ([`crate::chaos`]) attacks the serving
//! runtime from the inside — panics, stalls, corrupt segments.  This
//! module attacks it from the outside, playing the part of every client
//! a network service eventually meets: ones that disconnect mid-stream,
//! tear frames at arbitrary byte boundaries, go silent past the read
//! deadline, and replay whole uploads.
//!
//! Like the pool harness, faults are a pure function of `(seed,
//! request, attempt, segment)` — never of wall-clock time or scheduling
//! — so a network soak is exactly reproducible from its seed and its
//! *outcomes* are identical whatever the server's connection capacity.
//! Retries re-roll under a fresh `attempt`, so an injected fault does
//! not recur deterministically on the resend — the transient-fault
//! shape the connection robustness machinery exists for.

use crate::chaos::{per_mille, pick};

/// The client-side fault (if any) injected at one `(request, attempt,
/// segment)` boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// No fault; send the segment normally.
    None,
    /// Drop the connection cleanly before this segment (the server
    /// sees a truncated request and must free its budget and session).
    Disconnect,
    /// Send a *torn* frame — the header and a prefix of the payload —
    /// then drop the connection (the server must report a typed
    /// `TRUNCATED_FRAME`, never hang or misparse).
    Torn,
    /// Go silent past the server's read deadline before this segment,
    /// then drop (the server must kill the request with a typed
    /// `READ_TIMEOUT` and free its resources).
    Stall,
}

/// Seeded network fault rates.  Rates are per-mille per segment
/// boundary and are drawn disjointly: at most one fault fires per
/// boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetChaosConfig {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Per-mille chance a boundary drops the connection.
    pub disconnect_per_mille: u16,
    /// Per-mille chance a boundary sends a torn frame then drops.
    pub torn_per_mille: u16,
    /// Per-mille chance a boundary stalls past the read deadline.
    pub stall_per_mille: u16,
    /// How long an injected stall stays silent.  Must comfortably
    /// exceed the server's read deadline, or the "stall" is just slow
    /// and the timeout outcome stops being deterministic.
    pub stall_ms: u64,
    /// Per-mille chance a *completed* request is immediately re-sent in
    /// full on a fresh connection (a duplicate upload; the reply must
    /// be bitwise identical).
    pub resend_per_mille: u16,
}

impl NetChaosConfig {
    /// A moderate network-chaos profile for the given seed.
    pub fn with_seed(seed: u64) -> NetChaosConfig {
        NetChaosConfig {
            seed,
            disconnect_per_mille: 15,
            torn_per_mille: 15,
            stall_per_mille: 10,
            stall_ms: 200,
            resend_per_mille: 300,
        }
    }

    /// The fault injected at this `(request, attempt, segment)`
    /// boundary.  Deterministic: same inputs, same fault, regardless of
    /// connection capacity or scheduling.
    pub fn roll(&self, request: u64, attempt: u32, segment: u64) -> NetFault {
        let bands = [
            (self.disconnect_per_mille, NetFault::Disconnect),
            (self.torn_per_mille, NetFault::Torn),
            (self.stall_per_mille, NetFault::Stall),
        ];
        let draw = per_mille(self.seed, NET_SALT, request, attempt as u64, segment);
        pick(draw, &bands, NetFault::None)
    }

    /// Whether this request, once completed, is re-sent in full as a
    /// duplicate upload.
    pub fn roll_resend(&self, request: u64) -> bool {
        // Keyed on the request alone: its own multiplier folds into the
        // salt, and the three coordinates stay zero.
        let salt = RESEND_SALT ^ request.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        per_mille(self.seed, salt, 0, 0, 0) < self.resend_per_mille
    }
}

/// Salts of the network fault streams, so they never inject in lockstep
/// with the pool harness's (unsalted) stream under the same seed.
const NET_SALT: u64 = 0x5EED_0F0F_0F0F_5EED;
const RESEND_SALT: u64 = 0x00D0_71CA_7E00_0000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_attempt_sensitive() {
        let c = NetChaosConfig::with_seed(11);
        for req in 0..50u64 {
            for seg in 0..20u64 {
                assert_eq!(c.roll(req, 1, seg), c.roll(req, 1, seg));
            }
        }
        let mut cleared = 0;
        for req in 0..200u64 {
            for seg in 0..20u64 {
                if c.roll(req, 1, seg) != NetFault::None && c.roll(req, 2, seg) == NetFault::None {
                    cleared += 1;
                }
            }
        }
        assert!(cleared > 0, "retries never clear injected faults");
    }

    /// Draws pinned from the generator as it stood before the pool and
    /// network harnesses shared it: the network stream over the pool
    /// tests' grid, and the resend stream over a few requests.
    #[test]
    fn net_and_resend_draws_match_the_pinned_grid() {
        use crate::chaos::tests::GRID;
        let pinned = [
            (
                7,
                [274, 563, 582, 4, 460, 964],
                [223, 264, 577, 599, 384, 695],
            ),
            (
                42,
                [968, 186, 776, 780, 38, 88],
                [863, 365, 12, 273, 139, 43],
            ),
        ];
        let requests = [0, 1, 2, 57, 1000, u64::MAX];
        for (seed, net, resend) in pinned {
            for (&(req, attempt, seg), draw) in GRID.iter().zip(net) {
                assert_eq!(per_mille(seed, NET_SALT, req, attempt as u64, seg), draw);
                let mut c = NetChaosConfig::with_seed(seed);
                (c.disconnect_per_mille, c.torn_per_mille, c.stall_per_mille) = (draw, 0, 0);
                assert_eq!(c.roll(req, attempt, seg), NetFault::None);
                c.disconnect_per_mille = draw + 1;
                assert_eq!(c.roll(req, attempt, seg), NetFault::Disconnect);
            }
            for (req, draw) in requests.into_iter().zip(resend) {
                let mut c = NetChaosConfig::with_seed(seed);
                c.resend_per_mille = draw;
                assert!(!c.roll_resend(req));
                c.resend_per_mille = draw + 1;
                assert!(c.roll_resend(req));
            }
        }
    }

    #[test]
    fn fault_streams_differ_from_the_pool_harness() {
        // Same seed, same coordinates — but the net stream is salted, so
        // the two harnesses do not inject in lockstep.
        let net = NetChaosConfig::with_seed(7);
        let pool = crate::chaos::ChaosConfig::with_seed(7);
        let mut differs = false;
        for req in 0..100u64 {
            for seg in 0..20u64 {
                let n = net.roll(req, 1, seg) != NetFault::None;
                let p = pool.roll(req, 1, seg) != crate::chaos::Fault::None;
                if n != p {
                    differs = true;
                }
            }
        }
        assert!(differs);
    }
}
