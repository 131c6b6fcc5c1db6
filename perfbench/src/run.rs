//! What a measured window produces, shared by every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::util::{json_num, json_str, pct, WindowTotals};

pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small documents and pools: the self-test scale.
    pub tiny: bool,
    /// Corrupt one reference before driving (the mutation check).
    pub corrupt: bool,
}

/// One verified request, kept so the ladder can replay it layer by layer.
#[derive(Clone)]
pub struct Sample {
    pub doc: usize,
    pub pattern: usize,
    pub latency_ms: f64,
    pub kind: &'static str,
    pub stream: bool,
}

/// Request accounting of one window.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// Error replies, refusals, wrong answers and transport failures.
    pub failed: u64,
    /// Replies compared against a reference.
    pub compared: u64,
    pub bytes_ok: u64,
    pub latencies_ms: Vec<f64>,
    /// Per verified request: (start, end) in seconds into the window,
    /// and its document bytes.
    pub done: Vec<(f64, f64, usize)>,
    pub samples: Vec<Sample>,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, bytes: usize, start_s: f64, end_s: f64) {
        self.attempted += 1;
        self.compared += 1;
        self.bytes_ok += bytes as u64;
        self.latencies_ms.push((end_s - start_s) * 1e3);
        self.done.push((start_s, end_s, bytes));
    }

    /// A reply that was compared and found wrong (or a typed error reply).
    pub fn wrong(&mut self, e: String) {
        self.compared += 1;
        self.fail(e);
    }

    pub fn fail(&mut self, e: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.compared += other.compared;
        self.bytes_ok += other.bytes_ok;
        self.latencies_ms.extend(other.latencies_ms);
        self.done.extend(other.done);
        self.samples.extend(other.samples);
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// A span taken in benchmark code around a call into the program.
/// Spans of one request share `req`; the `request` span is the parent
/// of the others.
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub detail: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
}

impl Span {
    pub fn new(
        req: u64,
        name: &'static str,
        detail: &'static str,
        start_us: f64,
        dur_us: f64,
    ) -> Span {
        Span {
            req,
            name,
            detail,
            start_us,
            dur_us,
        }
    }

    pub fn to_json(&self, thread: usize) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"thread\": {thread}, \"req\": {}, \"name\": {}, \"detail\": {}, \"parent\": {}, \"start_us\": {}, \"dur_us\": {}}}",
            self.req,
            json_str(self.name),
            json_str(self.detail),
            if self.name == "request" { "null".to_owned() } else { json_str("request") },
            json_num(self.start_us),
            json_num(self.dur_us),
        );
        s
    }
}

/// One second of a measured window.
pub struct Slice {
    pub peak_rss_mb: f64,
    pub mb_per_s: f64,
    pub cpu_ms_per_mb: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
}

/// One pool epoch: a fresh runtime serving the same fixed batch of jobs.
pub struct Epoch {
    /// Seconds into the window.
    pub start_s: f64,
    pub wall_s: f64,
    pub cpu_ms: f64,
    /// Document MB of the epoch's verified jobs.
    pub mb: f64,
    pub latencies_ms: Vec<f64>,
    /// Whether the whole batch ran (the last epoch is cut by the deadline).
    pub complete: bool,
}

pub struct Outcome {
    pub totals: WindowTotals,
    /// Pool workloads only; empty on the edge.
    pub epochs: Vec<Epoch>,
    pub tally: Tally,
    pub lags_ms: Vec<f64>,
    /// Per client thread, so span ids stay unique as `(thread, req)`.
    pub spans: Vec<Vec<Span>>,
    pub mix: BTreeMap<String, u64>,
    /// Workload counters (cache, checkpoints, resumes, …).
    pub counters: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new(totals: WindowTotals) -> Outcome {
        Outcome {
            totals,
            epochs: Vec::new(),
            tally: Tally::default(),
            lags_ms: Vec::new(),
            spans: Vec::new(),
            mix: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn mb(&self) -> f64 {
        self.tally.bytes_ok as f64 / 1e6
    }

    pub fn mb_per_s(&self) -> f64 {
        self.mb() / self.totals.wall.as_secs_f64()
    }

    /// Each one-second slice of the window.  A request's bytes are spread
    /// over the slices its lifetime overlaps, in proportion, so long
    /// requests do not make the slices lumpy; its latency counts in the
    /// slice it ended in.
    pub fn slices(&self) -> Vec<Slice> {
        let wall = self.totals.wall.as_secs_f64();
        let n = (wall.floor() as usize).max(1);
        let len = wall / n as f64;
        let mut mb = vec![0.0; n];
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
        for &(s, e, bytes) in &self.tally.done {
            let dur = (e - s).max(1e-9);
            let first = ((s / len) as usize).min(n - 1);
            let last = ((e / len) as usize).min(n - 1);
            for (i, slot) in mb.iter_mut().enumerate().take(last + 1).skip(first) {
                let overlap = e.min((i + 1) as f64 * len) - s.max(i as f64 * len);
                *slot += bytes as f64 / 1e6 * overlap.max(0.0) / dur;
            }
            lat[last].push((e - s) * 1e3);
        }
        (0..n)
            .map(|i| {
                let cpu = self.totals.cpu_ms_at((i + 1) as f64 * len)
                    - self.totals.cpu_ms_at(i as f64 * len);
                Slice {
                    peak_rss_mb: self
                        .totals
                        .peak_rss_mb(i as f64 * len, (i + 1) as f64 * len),
                    mb_per_s: mb[i] / len,
                    cpu_ms_per_mb: cpu / mb[i],
                    p50_ms: pct(&lat[i], 0.5),
                    p90_ms: pct(&lat[i], 0.9),
                }
            })
            .collect()
    }
}
