//! RAII span timers.

use std::time::Instant;

/// Times a scope and records its wall-clock duration, in nanoseconds,
/// into the histogram `name` when dropped.
///
/// When telemetry is disabled at construction time the span never reads
/// the clock, so an un-instrumented run pays only the enabled check —
/// the same cost as any other disabled event.
///
/// # Examples
///
/// ```
/// use seda_telemetry::Span;
///
/// {
///     let _span = Span::start("sweep.point_ns");
///     // ... timed work ...
/// } // recorded here (if a sink is installed and telemetry is enabled)
/// ```
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Starts timing a scope that will be recorded under `name`.
    pub fn start(name: &'static str) -> Self {
        Self {
            name,
            start: crate::enabled().then(Instant::now),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            crate::record(self.name, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_never_reads_the_clock() {
        // Telemetry is off outside the global lifecycle test (which
        // holds the same lock and switches it off again), so the span
        // must be inert.
        let _guard = crate::GLOBAL_STATE
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let span = Span::start("test.span_ns");
        assert!(span.start.is_none());
    }
}
