//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call the benchmark makes into a crate's
//! public functions and records its name, start, end, and the span that
//! was open when it started (its parent). Spans stay in memory until the
//! run ends; [`Tracer::write`] then dumps them. A disabled tracer records
//! nothing but still times each span, so traced and untraced passes run
//! the same code apart from the recording itself.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An open span, closed by [`Tracer::exit`].
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open {
    start: Instant,
    idx: usize,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.spans.len();
        if self.on {
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                start_ns: self.ns_since_epoch(start),
                end_ns: 0,
            });
            self.stack.push(idx);
        }
        Open { start, idx }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if self.on {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(open.idx), "spans close in LIFO order");
            self.spans[open.idx].end_ns = self.ns_since_epoch(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer");
        let inner = tr.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(20));
        let inner_s = tr.exit(inner);
        let outer_s = tr.exit(outer);
        let own = tr.self_times();
        assert!((own["inner"] - inner_s).abs() < 1e-6);
        assert!(own["outer"] < outer_s - inner_s + 1e-6);
        assert!(own["outer"] >= 0.0);
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.enter("x");
        assert!(tr.exit(s) >= 0.0);
        assert!(tr.self_times().is_empty());
    }
}
