//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span has a name (`<layer>.<call>`), a start and an end, the span
//! that caused it and the request it belongs to. Each thread owns one
//! [`Tracer`]; spans nest strictly (a stack), so a span's self time is
//! its duration minus its children's durations. Self times are summed
//! for every span; the spans themselves are kept in memory up to a cap
//! per thread and written out when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per tracer for the dump; later spans still count towards
/// the self-time totals.
const KEEP_PER_TRACER: usize = 20_000;

/// No parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

#[derive(Clone, Copy, Debug)]
struct Open {
    id: u32,
    name: &'static str,
    start_ns: u64,
    parent: u32,
    request: u64,
    child_ns: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the children's.
    pub self_ns: u64,
}

/// One thread's span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u32,
    stack: Vec<Open>,
    kept: Vec<(u32, Span)>,
    totals: BTreeMap<&'static str, SelfTime>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            next_id: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.stack.last().map_or(ROOT, |o| o.id);
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stack.push(Open {
            id,
            name,
            start_ns,
            parent,
            request,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(open) = self.stack.pop() {
            self.finish(open, end_ns);
        }
    }

    /// Records a completed child of the innermost open span whose extent
    /// was measured elsewhere (an engine's own service-time report).
    pub fn record_child(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let Some(parent) = self.stack.last() else {
            return;
        };
        let open = Open {
            id: self.next_id,
            name,
            start_ns,
            parent: parent.id,
            request: parent.request,
            child_ns: 0,
        };
        self.next_id = self.next_id.wrapping_add(1);
        self.finish(open, end_ns);
    }

    /// Nanoseconds since this tracer's epoch (for [`Tracer::record_child`]).
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    fn finish(&mut self, open: Open, end_ns: u64) {
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if self.kept.len() < KEEP_PER_TRACER {
            self.kept.push((
                open.id,
                Span {
                    name: open.name,
                    start_ns: open.start_ns,
                    end_ns,
                    parent: open.parent,
                    request: open.request,
                },
            ));
        }
    }
}

/// Every tracer of a run, merged.
#[derive(Default)]
pub struct Trace {
    tracers: Vec<Tracer>,
}

impl Trace {
    /// Adds a finished tracer.
    pub fn absorb(&mut self, tracer: Tracer) {
        if tracer.enabled {
            self.tracers.push(tracer);
        }
    }

    /// Self-time totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for t in &self.tracers {
            for (name, s) in &t.totals {
                let e = out.entry(name).or_default();
                e.count += s.count;
                e.total_ns += s.total_ns;
                e.self_ns += s.self_ns;
            }
        }
        out
    }

    /// Self time per layer (the span-name prefix before the first dot).
    pub fn layer_self_ns(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (name, s) in self.totals() {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *out.entry(layer).or_insert(0) += s.self_ns;
        }
        out
    }

    /// Durations (ns) of the kept spans, by name.
    pub fn durations(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for t in &self.tracers {
            for (_, s) in &t.kept {
                out.entry(s.name)
                    .or_default()
                    .push((s.end_ns - s.start_ns) as f64);
            }
        }
        out
    }

    /// Spans kept for the dump, and spans recorded in total.
    pub fn counts(&self) -> (usize, u64) {
        let kept = self.tracers.iter().map(|t| t.kept.len()).sum();
        let total = self.totals().values().map(|s| s.count).sum();
        (kept, total)
    }

    /// Writes the kept spans as tab-separated rows, one per span, after
    /// `header` lines (each prefixed with `# `). Span ids are
    /// `<tracer>:<id>`.
    pub fn write(&self, path: &Path, header: &[String]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in header {
            writeln!(out, "# {line}")?;
        }
        writeln!(out, "span\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (t, tracer) in self.tracers.iter().enumerate() {
            for (id, s) in &tracer.kept {
                let parent = if s.parent == ROOT {
                    "-".to_string()
                } else {
                    format!("{t}:{}", s.parent)
                };
                writeln!(
                    out,
                    "{t}:{id}\t{parent}\t{}\t{}\t{}\t{}",
                    s.request, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.open("client.request", 1);
        t.open("net.encode", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let now = t.clock_ns();
        t.record_child("engine.service", now - 1_000_000, now);
        t.close();
        let mut trace = Trace::default();
        trace.absorb(t);
        let totals = trace.totals();
        let root = totals["client.request"];
        let enc = totals["net.encode"];
        assert_eq!(root.count, 1);
        assert_eq!(root.self_ns, root.total_ns - enc.total_ns - 1_000_000);
        assert_eq!(trace.counts(), (3, 3));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.open("a.b", 0);
        t.close();
        let mut trace = Trace::default();
        trace.absorb(t);
        assert_eq!(trace.counts(), (0, 0));
    }
}
