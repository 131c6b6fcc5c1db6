//! Runtime configuration: pool shape, checkpoint cadence, retry policy,
//! queue capacity, and the service-level budget that per-session
//! [`Limits`] inherit from.

use std::time::Duration;

use st_core::session::Limits;
use st_obs::ObsHandle;

use crate::chaos::ChaosConfig;

/// The service-level resource budget.  Admission control enforces the
/// aggregate part (in-flight bytes); every admitted session inherits the
/// per-session part ([`ServiceBudget::session_limits`]) unless its
/// [`crate::JobSpec`] overrides it.
#[derive(Clone, Debug, Default)]
pub struct ServiceBudget {
    /// Total document bytes the runtime will hold in flight (queued +
    /// running).  Submissions that would cross it are rejected with
    /// [`crate::ServeError::Rejected`].  `None` = unbounded.
    pub max_in_flight_bytes: Option<usize>,
    /// Resource guards applied to every session (depth, bytes,
    /// imbalance, wall clock, diagnostics cap) — see
    /// [`st_core::session::Limits`].
    pub session_limits: Limits,
}

impl ServiceBudget {
    /// Sets the aggregate in-flight byte budget.
    pub fn with_max_in_flight_bytes(mut self, bytes: usize) -> ServiceBudget {
        self.max_in_flight_bytes = Some(bytes);
        self
    }

    /// Sets the per-session limits every admitted session inherits.
    pub fn with_session_limits(mut self, limits: Limits) -> ServiceBudget {
        self.session_limits = limits;
        self
    }

    /// Derives the [`Limits`] one session actually runs under.  This is
    /// the *single* place the runtime turns a request into per-session
    /// guards: the request's own limits if it brought any, else the
    /// budget's `session_limits`; either way the budget's injected clock
    /// is inherited when the request did not bring its own (so stall and
    /// wall-clock behaviour stay testable), and the runtime's
    /// observability handle is attached.
    pub fn session_limits_for(&self, requested: Option<&Limits>, obs: &ObsHandle) -> Limits {
        let mut limits = match requested {
            Some(own) => {
                let mut own = own.clone();
                if own.clock.is_none() {
                    own.clock = self.session_limits.clock;
                }
                own
            }
            None => self.session_limits.clone(),
        };
        limits.obs = obs.clone();
        limits
    }
}

/// Configuration of a [`crate::ServeRuntime`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Bounded submission queue capacity; submissions beyond it are shed
    /// with [`crate::ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Checkpoint cadence: a session checkpoint is minted after every
    /// this-many document bytes fed.  Smaller = cheaper failover replay,
    /// more snapshot traffic; larger = the reverse.
    pub checkpoint_every: usize,
    /// Retries after the first attempt of a request (so a request gets
    /// at most `max_retries + 1` attempts) before the typed terminal
    /// [`crate::ServeError::Failed`].
    pub max_retries: u32,
    /// Base of the exponential retry backoff: attempt `n` waits
    /// `backoff_base * 2^(n-1)` before a worker may claim it again.
    pub backoff_base: Duration,
    /// A busy worker that has not heartbeated for this long is declared
    /// stalled: it is abandoned (its late writes are ignored), a
    /// replacement worker is spawned, and its request resumes elsewhere
    /// from the last checkpoint.  Heartbeats tick once per checkpoint
    /// cadence, so keep this comfortably above the time one cadence of
    /// bytes takes to process.
    pub stall_timeout: Duration,
    /// Service-level budget (admission control + inherited limits).
    pub budget: ServiceBudget,
    /// Deterministic fault injection; `None` in production.  Every
    /// injected fault exercises checkpoint failover.
    pub chaos: Option<ChaosConfig>,
    /// Observability sink.  The disabled default costs one branch per
    /// recorded event; an enabled handle gives the runtime queue/budget
    /// gauges, per-request attempt and latency histograms, counters
    /// mirroring [`crate::ServeStats`], and a structured trace ring of
    /// supervisor decisions.
    pub obs: ObsHandle,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            checkpoint_every: 64 << 10,
            max_retries: 3,
            backoff_base: Duration::from_millis(2),
            stall_timeout: Duration::from_secs(10),
            budget: ServiceBudget::default(),
            chaos: None,
            obs: ObsHandle::disabled(),
        }
    }
}

impl ServeConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers.max(1);
        self
    }

    /// Sets the submission queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the checkpoint cadence in bytes.
    pub fn with_checkpoint_every(mut self, bytes: usize) -> ServeConfig {
        self.checkpoint_every = bytes.max(1);
        self
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> ServeConfig {
        self.max_retries = retries;
        self
    }

    /// Sets the stall deadline.
    pub fn with_stall_timeout(mut self, timeout: Duration) -> ServeConfig {
        self.stall_timeout = timeout;
        self
    }

    /// Sets the exponential backoff base.
    pub fn with_backoff_base(mut self, base: Duration) -> ServeConfig {
        self.backoff_base = base;
        self
    }

    /// Sets the service budget.
    pub fn with_budget(mut self, budget: ServiceBudget) -> ServeConfig {
        self.budget = budget;
        self
    }

    /// Arms deterministic chaos injection.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> ServeConfig {
        self.chaos = Some(chaos);
        self
    }

    /// Attaches an observability handle.
    pub fn with_obs(mut self, obs: ObsHandle) -> ServeConfig {
        self.obs = obs;
        self
    }
}
