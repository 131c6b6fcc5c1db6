//! The deterministic chaos-soak harness (feature `chaos`).
//!
//! One soak run: generate a seeded stream of conformance cases, compute
//! each case's *clean* reference (an uninterrupted
//! [`FusedQuery::select_bytes`] run, plus the DOM oracle on well-formed
//! documents), then push the same requests through a
//! [`crate::ServeRuntime`] with seeded fault injection armed — and hold
//! the runtime to the recovery contract:
//!
//! * every **completed** request's match set equals the clean run's (and
//!   the DOM oracle's, when the document is well-formed), no matter how
//!   many panics/stalls/corruptions its attempts absorbed;
//! * every **failed** request carries a typed terminal error whose last
//!   cause is either the document's own (deterministic) engine error or
//!   an injected chaos fault that exhausted the retry budget;
//! * nothing is lost: every submitted request ends in exactly one of
//!   those two states.
//!
//! Everything — case generation, fault rolls, retry sequences — is a
//! pure function of the seed, so [`SoakReport::outcomes`] must be
//! bitwise-identical across pool sizes; the determinism suite runs the
//! same seed on 1/2/8-worker pools and asserts exactly that.

use std::sync::Arc;

use st_automata::{compile_regex, Alphabet, Dfa, Tag};
use st_baseline::dom;
use st_conform::gen::{case_rng, gen_case, Case, GenConfig};
use st_core::engine::FusedQuery;
use st_core::planner::CompiledQuery;
use st_trees::{encode::markup_decode, xml::Scanner};

use st_obs::ObsHandle;

use st_core::emit::StreamedMatch;

use crate::chaos::ChaosConfig;
use crate::config::ServeConfig;
use crate::error::{FailureCause, ServeError};
use crate::runtime::{JobSpec, ServeRuntime, ServeStats};

/// Parameters of one soak run.  Everything that influences behaviour is
/// here, so `(SoakConfig, seed)` fully reproduces a run.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Master seed: drives case generation and fault injection.
    pub seed: u64,
    /// Requests to generate and serve.
    pub requests: u64,
    /// Worker pool size.
    pub workers: usize,
    /// Checkpoint cadence in bytes (small, so typical generated
    /// documents span many segments and faults land mid-document).
    pub checkpoint_every: usize,
    /// Retry budget per request.
    pub max_retries: u32,
    /// Per-mille chance a segment boundary panics the worker.
    pub panic_per_mille: u16,
    /// Per-mille chance a segment stalls the worker past its deadline.
    pub stall_per_mille: u16,
    /// Per-mille chance a segment fails its integrity check.
    pub corrupt_per_mille: u16,
    /// Injected stall duration.  Keep this comfortably above
    /// `stall_timeout_ms` so the supervisor always wins the race and
    /// stall outcomes stay deterministic.
    pub stall_ms: u64,
    /// Supervisor stall deadline.
    pub stall_timeout_ms: u64,
    /// Observability sink the induced runtime records into.  Excluded
    /// from equality: it observes the run, it does not shape it.
    pub obs: ObsHandle,
}

/// Two soak profiles are equal when they would *behave* identically:
/// every field except the observability handle.
impl PartialEq for SoakConfig {
    fn eq(&self, other: &SoakConfig) -> bool {
        self.seed == other.seed
            && self.requests == other.requests
            && self.workers == other.workers
            && self.checkpoint_every == other.checkpoint_every
            && self.max_retries == other.max_retries
            && self.panic_per_mille == other.panic_per_mille
            && self.stall_per_mille == other.stall_per_mille
            && self.corrupt_per_mille == other.corrupt_per_mille
            && self.stall_ms == other.stall_ms
            && self.stall_timeout_ms == other.stall_timeout_ms
    }
}

impl Eq for SoakConfig {}

impl SoakConfig {
    /// A moderate soak profile for the given seed.
    pub fn new(seed: u64) -> SoakConfig {
        SoakConfig {
            seed,
            requests: 48,
            workers: 4,
            checkpoint_every: 16,
            max_retries: 3,
            panic_per_mille: 8,
            stall_per_mille: 4,
            corrupt_per_mille: 12,
            stall_ms: 250,
            stall_timeout_ms: 50,
            obs: ObsHandle::disabled(),
        }
    }

    /// Sets the request count.
    pub fn with_requests(mut self, requests: u64) -> SoakConfig {
        self.requests = requests;
        self
    }

    /// Sets the worker pool size.
    pub fn with_workers(mut self, workers: usize) -> SoakConfig {
        self.workers = workers.max(1);
        self
    }

    /// Sets the checkpoint cadence in bytes.
    pub fn with_checkpoint_every(mut self, bytes: usize) -> SoakConfig {
        self.checkpoint_every = bytes.max(1);
        self
    }

    /// Sets the retry budget per request.
    pub fn with_max_retries(mut self, retries: u32) -> SoakConfig {
        self.max_retries = retries;
        self
    }

    /// Sets the per-mille fault rates (panic, stall, corrupt).
    pub fn with_fault_rates(mut self, panic: u16, stall: u16, corrupt: u16) -> SoakConfig {
        self.panic_per_mille = panic;
        self.stall_per_mille = stall;
        self.corrupt_per_mille = corrupt;
        self
    }

    /// Sets the injected stall duration and the supervisor deadline.
    /// Keep the duration comfortably above the deadline so the
    /// supervisor always wins the race.
    pub fn with_stall_profile(mut self, stall_ms: u64, stall_timeout_ms: u64) -> SoakConfig {
        self.stall_ms = stall_ms;
        self.stall_timeout_ms = stall_timeout_ms;
        self
    }

    /// Attaches an observability handle to the induced runtime.
    pub fn with_obs(mut self, obs: ObsHandle) -> SoakConfig {
        self.obs = obs;
        self
    }

    /// The runtime configuration this soak profile induces.  The queue
    /// is sized to hold every request: load shedding is timing-dependent
    /// and would break cross-pool determinism, so soaks never shed.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::default()
            .with_workers(self.workers)
            .with_queue_capacity(self.requests as usize + 1)
            .with_checkpoint_every(self.checkpoint_every)
            .with_max_retries(self.max_retries)
            .with_stall_timeout(std::time::Duration::from_millis(self.stall_timeout_ms))
            .with_chaos(ChaosConfig {
                seed: self.seed,
                panic_per_mille: self.panic_per_mille,
                stall_per_mille: self.stall_per_mille,
                corrupt_per_mille: self.corrupt_per_mille,
                stall_ms: self.stall_ms,
            })
            .with_obs(self.obs.clone())
    }
}

/// How one request ended, in a form comparable across runs and pool
/// sizes: match sets verbatim, errors by stable class name (offsets and
/// stall durations vary with cadence internals; classes must not).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Completed with these matches (document-order node ids).
    Matches(Vec<usize>),
    /// Ended in a typed terminal error of this class
    /// (see [`ServeError::class`]).
    Failed(String),
    /// Not submitted: the generated pattern has no byte-level engine
    /// (composite table over budget).
    Skipped,
}

/// A violation of the recovery contract (of the pool, or of the TCP
/// edge under [`crate::netsoak`]), with everything needed to reproduce
/// it.
#[derive(Clone, Debug)]
pub struct SoakDivergence {
    /// Index of the request in the generation stream (`case_rng(seed,
    /// request)` regenerates its case).
    pub request: u64,
    /// The case's query pattern.
    pub pattern: String,
    /// The case's alphabet characters.
    pub alphabet: String,
    /// The case's document bytes.
    pub doc: Vec<u8>,
    /// The runtime [`crate::JobId`] the request ran under (`None` for
    /// skipped requests and at the edge, which keeps no job ids).  With an observability handle attached
    /// ([`SoakConfig::with_obs`]), `ObsHandle::trace_for_job(job)` is
    /// the post-mortem: the supervisor-decision trace of exactly this
    /// request.
    pub job: Option<u64>,
    /// What disagreed with what.
    pub detail: String,
}

impl SoakDivergence {
    /// A self-contained text reproducer (hex document, regeneration
    /// coordinates) suitable for a CI artifact.
    pub fn reproducer(&self, seed: u64) -> String {
        let hex: String = self.doc.iter().map(|b| format!("{b:02x}")).collect();
        format!(
            "seed = {}\nrequest = {}\npattern = {}\nalphabet = {}\ndoc_hex = {}\ndetail = {}\n",
            seed, self.request, self.pattern, self.alphabet, hex, self.detail
        )
    }
}

/// The result of one soak run.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Per-request outcomes, in submission order.  The cross-pool
    /// determinism invariant is over exactly this vector.
    pub outcomes: Vec<RequestOutcome>,
    /// Per-request delivered emission streams, in submission order
    /// (empty for failed or skipped requests).  Every request runs
    /// streamed, so this is the concatenation of the emitted prefixes of
    /// all its attempts after ledger dedup — held to equal the final
    /// match list exactly (no retraction, duplicate, or reordering) and,
    /// like [`SoakReport::outcomes`], bitwise identical across pool
    /// sizes.
    pub streams: Vec<Vec<StreamedMatch>>,
    /// Requests that completed and matched the clean reference.
    pub completed: usize,
    /// Requests that failed only because injected chaos exhausted the
    /// retry budget (their documents were clean).
    pub chaos_casualties: usize,
    /// Requests whose documents the clean run also rejects; their typed
    /// failures are expected, not chaos damage.
    pub clean_rejections: usize,
    /// Requests never submitted (no byte-level engine for the pattern).
    pub skipped: usize,
    /// Recovery-contract violations.  Empty on a healthy runtime.
    pub divergences: Vec<SoakDivergence>,
    /// Final runtime counters.
    pub stats: ServeStats,
}

impl SoakReport {
    /// Whether the run upheld the recovery contract.
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Reproducers for every divergence, concatenated (empty when
    /// [`SoakReport::ok`]).
    pub fn reproducer(&self, seed: u64) -> String {
        self.divergences
            .iter()
            .map(|d| d.reproducer(seed))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// One generated request with its precomputed references (the network
/// soak replays the same cases).
pub(crate) struct Prepared {
    pub(crate) case: Case,
    fused: Option<Arc<FusedQuery>>,
    /// The uninterrupted clean run: matches, or the engine's rejection.
    pub(crate) clean: Result<Vec<usize>, String>,
    /// DOM-oracle matches, when the document is well-formed.
    pub(crate) oracle: Option<Vec<usize>>,
}

fn dom_oracle(doc: &[u8], g: &Alphabet, dfa: &Dfa) -> Option<Vec<usize>> {
    let tags: Vec<Tag> = Scanner::new(doc, g).collect::<Result<_, _>>().ok()?;
    markup_decode(&tags).ok()?;
    dom::evaluate(dfa, &tags).ok().map(|r| r.selected)
}

pub(crate) fn prepare(seed: u64, request: u64, gen_cfg: &GenConfig) -> Prepared {
    let (case, _) = gen_case(&mut case_rng(seed, request), gen_cfg);
    let g = Alphabet::of_chars(&case.alphabet);
    let fused = compile_regex(&case.pattern, &g).ok().and_then(|dfa| {
        let plan = CompiledQuery::compile(&dfa);
        plan.fused(&g).ok().map(|f| (f, dfa))
    });
    match fused {
        Some((f, dfa)) => {
            let clean = f.select_bytes(&case.doc).map_err(|e| format!("{e:?}"));
            let oracle = dom_oracle(&case.doc, &g, &dfa);
            Prepared {
                case,
                fused: Some(Arc::new(f)),
                clean,
                oracle,
            }
        }
        None => Prepared {
            case,
            fused: None,
            clean: Err("no byte-level engine".to_owned()),
            oracle: None,
        },
    }
}

/// Runs one chaos soak and checks the recovery contract.  See the
/// module docs for the invariants.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let gen_cfg = GenConfig::default();
    let prepared: Vec<Prepared> = (0..cfg.requests)
        .map(|i| prepare(cfg.seed, i, &gen_cfg))
        .collect();

    let serve = ServeRuntime::start(cfg.serve_config());
    // Every request runs streamed, so each completion also proves the
    // exactly-once emission contract under the injected faults.
    let ids: Vec<_> = prepared
        .iter()
        .map(|p| {
            p.fused.as_ref().map(|f| {
                serve
                    .submit(JobSpec::new(f.clone(), p.case.doc.clone()).with_stream())
                    .expect("soak queue is sized to hold every request")
            })
        })
        .collect();

    let mut outcomes = Vec::with_capacity(prepared.len());
    let mut streams = Vec::with_capacity(prepared.len());
    let mut divergences = Vec::new();
    let mut completed = 0usize;
    let mut chaos_casualties = 0usize;
    let mut clean_rejections = 0usize;
    let mut skipped = 0usize;

    for (i, (p, id)) in prepared.iter().zip(&ids).enumerate() {
        let diverge = |detail: String| SoakDivergence {
            request: i as u64,
            pattern: p.case.pattern.clone(),
            alphabet: p.case.alphabet.clone(),
            doc: p.case.doc.clone(),
            job: id.map(|j| j.0),
            detail,
        };
        let Some(id) = id else {
            skipped += 1;
            outcomes.push(RequestOutcome::Skipped);
            streams.push(Vec::new());
            continue;
        };
        let report = serve.wait(*id).expect("id was issued by this runtime");
        match &report.result {
            Ok(m) => {
                // The exactly-once emission contract, checked against
                // the *references*, not just the runtime's own ledger:
                // the delivered stream must equal the final match list
                // (hence the clean run, hence the DOM oracle) in both
                // content and order — no retraction, no duplicate, no
                // reordering — regardless of how many attempts died
                // mid-stream.
                let delivered: Vec<usize> = report.emitted.iter().map(|sm| sm.node).collect();
                if &delivered != m {
                    divergences.push(diverge(format!(
                        "delivered stream {delivered:?} != final matches {m:?} \
                         (attempts {}, suppressed {})",
                        report.attempts, report.suppressed
                    )));
                }
                if report
                    .emitted
                    .windows(2)
                    .any(|w| w[0].offset >= w[1].offset)
                {
                    divergences.push(diverge(format!(
                        "emitted offsets are not strictly increasing: {:?}",
                        report.emitted
                    )));
                }
                match &p.clean {
                    Ok(cm) if m == cm => {
                        completed += 1;
                        if let Some(oracle) = &p.oracle {
                            if oracle != m {
                                divergences.push(diverge(format!(
                                    "served matches {m:?} disagree with DOM oracle {oracle:?}"
                                )));
                            }
                        }
                    }
                    Ok(cm) => divergences.push(diverge(format!(
                        "served matches {m:?} != clean run {cm:?} \
                         (attempts {}, resumes {})",
                        report.attempts, report.resumes
                    ))),
                    Err(e) => divergences.push(diverge(format!(
                        "request completed with {m:?} where the clean run rejects: {e}"
                    ))),
                }
                outcomes.push(RequestOutcome::Matches(m.clone()));
                streams.push(report.emitted.clone());
            }
            Err(err @ ServeError::Failed { last, .. }) => {
                match &p.clean {
                    Err(_) => clean_rejections += 1,
                    Ok(_) => {
                        let chaos_fault = matches!(
                            last,
                            FailureCause::WorkerPanic { .. }
                                | FailureCause::WorkerStall { .. }
                                | FailureCause::SegmentCorrupted { .. }
                        );
                        if chaos_fault {
                            chaos_casualties += 1;
                        } else {
                            divergences.push(diverge(format!(
                                "clean document failed with non-chaos cause: {err}"
                            )));
                        }
                    }
                }
                outcomes.push(RequestOutcome::Failed(err.class()));
                streams.push(Vec::new());
            }
            Err(other) => {
                divergences.push(diverge(format!(
                    "unexpected submission-side error: {other}"
                )));
                outcomes.push(RequestOutcome::Failed(other.class()));
                streams.push(Vec::new());
            }
        }
    }

    let stats = serve.shutdown();
    SoakReport {
        outcomes,
        streams,
        completed,
        chaos_casualties,
        clean_rejections,
        skipped,
        divergences,
        stats,
    }
}
