//! In-memory span log of the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public functions: name, start, end and the request they belong
//! to. They stay in memory while the run
//! measures and are written out once it ends. With tracing off, every
//! call runs bare.

// lint:allow-file(no-wallclock-in-kernels): a benchmark harness; wall time is what it measures

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one thread; logs of several threads are merged at the end.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log timed from `origin`; records nothing unless `on`.
    pub fn new(on: bool, origin: Instant) -> Self {
        SpanLog {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        out
    }

    /// Appends another thread's spans.
    pub fn merge(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Runs every request twice, once inside a span and once bare, in
/// alternating order, and returns the traced wall's excess over the bare
/// wall in percent.
pub fn trace_overhead_pct<Q>(log: &mut SpanLog, requests: &[Q], mut call: impl FnMut(&Q)) -> f64 {
    let (mut traced, mut bare) = (0.0, 0.0);
    for (i, q) in requests.iter().enumerate() {
        for pass in 0..2 {
            let spanned = (i + pass) % 2 == 0;
            let t = Instant::now();
            if spanned {
                log.span("calibration", i as u64, || call(q));
            } else {
                call(q);
            }
            let dt = t.elapsed().as_secs_f64();
            if spanned {
                traced += dt;
            } else {
                bare += dt;
            }
        }
    }
    if bare > 0.0 {
        100.0 * (traced - bare) / bare
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now());
        assert_eq!(log.span("x", 0, || 7), 7);
        assert_eq!(log.len(), 0);
        let mut on = SpanLog::new(true, Instant::now());
        assert_eq!(on.span("x", 0, || 7), 7);
        log.merge(on);
        assert_eq!(log.len(), 1);
    }
}
