//! What the host did to a measured pass: CPU time the hypervisor gave to
//! other guests ("steal"), sampled from `/proc/stat`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often [`StealLog`] reads `/proc/stat`.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// `(steal, total)` CPU jiffies of the host, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Steal readings taken on a background thread through a pass.
pub struct StealLog {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, u64, u64)>>,
}

impl StealLog {
    /// Starts sampling.
    pub fn start() -> StealLog {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut log = Vec::new();
            loop {
                if let Some((s, t)) = cpu_jiffies() {
                    log.push((Instant::now(), s, t));
                }
                if flag.load(Ordering::Relaxed) {
                    return log;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        StealLog { stop, handle }
    }

    /// Stops sampling and returns the readings.
    pub fn finish(self) -> Steal {
        self.stop.store(true, Ordering::Relaxed);
        Steal(self.handle.join().unwrap_or_default())
    }
}

/// Finished steal readings.
pub struct Steal(Vec<(Instant, u64, u64)>);

impl Steal {
    /// The steal share between the readings nearest `from` and `to`
    /// (0 when unknown).
    pub fn share(&self, from: Instant, to: Instant) -> f64 {
        let at = |t: Instant| {
            self.0
                .iter()
                .min_by_key(|(i, _, _)| {
                    i.saturating_duration_since(t)
                        .max(t.saturating_duration_since(*i))
                })
                .map(|&(_, s, t)| (s, t))
        };
        match (at(from), at(to)) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }

    /// The header fact for the whole pass.
    pub fn fact(&self) -> String {
        match (self.0.first(), self.0.last()) {
            (Some(&(a, _, _)), Some(&(b, _, _))) if b > a => {
                format!("cpu_steal_during_pass={:.4}", self.share(a, b))
            }
            _ => "cpu_steal_during_pass=unknown".into(),
        }
    }
}
