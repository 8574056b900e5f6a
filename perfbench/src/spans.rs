//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer: its name, host
//! start and end, the span that was open when it began (its parent) and a
//! unit count (bytes, rows, calls) that turns a duration into a rate.
//! Spans stay in memory and are written out once, at the end of the run.
//! With tracing off, [`Tracer::span`] only calls the closure.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `eventdb.encode`.
    pub name: &'static str,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work units the span covered (bytes, rows, calls; 0 when unset).
    pub units: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on the calling thread when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as a span named `name` covering `units` work units.
    pub fn span<T>(&self, name: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                units,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.now_ns();
        let value = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        value
    }

    /// Runs `f` and returns its value with its wall time in seconds; the
    /// call is also a span when tracing is on. Used for the timed phases.
    pub fn phase<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = self.span(name, 0, f);
        (value, start.elapsed().as_secs_f64())
    }

    /// Sets the unit count of the innermost open span (for counts known
    /// only once the call returned).
    pub fn set_units(&self, units: u64) {
        if let Some(&index) = self.open.borrow().last() {
            self.spans.borrow_mut()[index].units = units;
        }
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Summed wall time in seconds.
    pub total_s: f64,
    /// Summed self time (wall minus child spans) in seconds.
    pub self_s: f64,
    /// Summed unit counts.
    pub units: u64,
}

impl Totals {
    /// Units per second, or `None` without time.
    #[must_use]
    pub fn units_per_s(&self) -> Option<f64> {
        (self.total_s > 0.0).then(|| self.units as f64 / self.total_s)
    }
}

/// Sums the spans named `name`: count, wall, self time and units.
#[must_use]
pub fn totals(spans: &[Span], name: &str) -> Totals {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut t = Totals::default();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        t.count += 1;
        t.total_s += s.duration_ns() as f64 * 1e-9;
        t.self_s += s.duration_ns().saturating_sub(child_ns[i]) as f64 * 1e-9;
        t.units += s.units;
    }
    t
}

/// One line per span name, in first-seen order: count, wall and self
/// seconds, and units. Self time shows where the host time went.
#[must_use]
pub fn summary(spans: &[Span]) -> String {
    let mut names: Vec<&str> = Vec::new();
    for s in spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    let mut out = format!(
        "{:<40} {:>7} {:>12} {:>12} {:>14}\n",
        "span", "count", "total_s", "self_s", "units"
    );
    for name in names {
        let t = totals(spans, name);
        out.push_str(&format!(
            "{name:<40} {:>7} {:>12.6} {:>12.6} {:>14}\n",
            t.count, t.total_s, t.self_s, t.units
        ));
    }
    out
}

/// Renders spans as JSON lines (one object per span).
#[must_use]
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"units\": {}}}\n",
            s.name, s.start_ns, s.end_ns, s.units
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", 1, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", 0, || {
            t.span("inner", 10, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.set_units(5);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        let outer = totals(&spans, "outer");
        let inner = totals(&spans, "inner");
        assert_eq!(outer.units, 5);
        assert_eq!(inner.units, 10);
        assert!(outer.self_s < outer.total_s);
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-9);
    }
}
