//! Small helpers: a seeded generator, percentiles, process CPU and RSS
//! from `/proc`, and the metric table the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// SplitMix64: every input the benchmark generates derives from one of
/// these, seeded from the workload seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A child stream, independent of this one's future draws.
    pub fn fork(&self, salt: u64) -> Rng {
        Rng(mix(self.0 ^ mix(salt.wrapping_add(0x5851_F42D_4C95_7F2D))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A Zipf-like distribution over ranks `0..n`: P(rank r) ∝ 1/(r+1)^s.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
pub fn pct(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    pct(values, 0.5)
}

/// Whether a percentile has at least ten samples beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Process user+sys CPU time so far (all threads), from `/proc/self/stat`
/// in clock ticks of 1/100 s.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((tick(11) + tick(12)) * 10)
}

/// Current resident set size in MB (10⁶ bytes), from `/proc/self/status`.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// One measured window: a sampler thread reads the process CPU time and
/// resident set every 10 ms until the window closes.
pub struct Window {
    start: Instant,
    stop: Arc<AtomicBool>,
    sampler: JoinHandle<Vec<Probe>>,
}

/// One sample of the window sampler.
pub struct Probe {
    /// Seconds into the window.
    pub at: f64,
    /// Process CPU ms so far.
    pub cpu_ms: f64,
    pub rss_mb: f64,
}

pub struct WindowTotals {
    pub wall: Duration,
    pub probes: Vec<Probe>,
}

impl Window {
    pub fn open() -> Window {
        let start = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let sampler = std::thread::spawn(move || {
            let mut probes = Vec::new();
            loop {
                probes.push(Probe {
                    at: start.elapsed().as_secs_f64(),
                    cpu_ms: ms(cpu_time()),
                    rss_mb: rss_mb(),
                });
                if flag.load(Ordering::Relaxed) {
                    return probes;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        Window {
            start,
            stop,
            sampler,
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    pub fn close(self) -> WindowTotals {
        let wall = self.start.elapsed();
        self.stop.store(true, Ordering::Relaxed);
        let probes = self.sampler.join().expect("window sampler panicked");
        WindowTotals { wall, probes }
    }
}

impl WindowTotals {
    /// Process CPU ms at `t` seconds into the window (the last probe
    /// taken at or before it).
    pub fn cpu_ms_at(&self, t: f64) -> f64 {
        let i = self.probes.partition_point(|p| p.at <= t);
        self.probes[i.saturating_sub(1)].cpu_ms
    }

    /// The largest resident set probed between `from` and `to` seconds
    /// into the window (the probe before `from` included).
    pub fn peak_rss_mb(&self, from: f64, to: f64) -> f64 {
        let first = self
            .probes
            .partition_point(|p| p.at <= from)
            .saturating_sub(1);
        self.probes[first..]
            .iter()
            .take_while(|p| p.at <= to)
            .map(|p| p.rss_mb)
            .fold(f64::NAN, f64::max)
    }
}

/// Named metrics with units, in insertion-independent (sorted) order.
#[derive(Default)]
pub struct Metrics {
    pub values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_owned(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self, names: &[&str]) -> String {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let (v, unit) = self.values.get(*name).copied().unwrap_or((f64::NAN, ""));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values (never expected) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal (the benchmark's strings hold no control
/// characters other than the ones escaped here).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
