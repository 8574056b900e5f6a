//! The user's pipeline, one step at a time: record a trace under the
//! logger and save it, `sgxperf report` it, `sgxperf diff` two of them.
//! Each step calls only the program's public API, wrapped in spans named
//! after the layer the call goes into.

use std::path::Path;

use sgx_perf::analysis::diff::{DiffConfig, TraceDiff};
use sgx_perf::{Analyzer, CallKind, FleetReport, Logger, Recommendation, Report, TraceDb};
use sim_core::HwProfile;

use crate::spans::Tracer;

/// Deterministic work counts of a set of traces. A host-speed change must
/// leave every field identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Summed virtual wall clock (latest event timestamp) of the traces.
    pub virtual_ns: u64,
    /// Ecall rows.
    pub ecalls: u64,
    /// Ocall rows.
    pub ocalls: u64,
    /// AEXs counted on ecalls plus traced AEX rows.
    pub aex: u64,
    /// EPC paging rows.
    pub paging_rows: u64,
    /// Interface symbol rows.
    pub symbols: u64,
    /// Enclave rows.
    pub enclaves: u64,
    /// Rows across every table.
    pub rows: u64,
    /// Simulations recorded (campaign cells, or traces elsewhere).
    pub cells: u64,
}

impl WorkCounts {
    /// Adds one trace's counts (and counts it as one cell).
    pub fn add(&mut self, t: &TraceDb) {
        let ends = t
            .ecalls
            .iter()
            .map(|e| e.end_ns)
            .chain(t.ocalls.iter().map(|o| o.end_ns))
            .chain(t.paging.iter().map(|p| p.time_ns));
        self.virtual_ns += ends.max().unwrap_or(0);
        self.ecalls += t.ecalls.len() as u64;
        self.ocalls += t.ocalls.len() as u64;
        self.aex += t.ecalls.iter().map(|e| e.aex_count).sum::<u64>() + t.aex.len() as u64;
        self.paging_rows += t.paging.len() as u64;
        self.symbols += t.symbols.len() as u64;
        self.enclaves += t.enclaves.len() as u64;
        self.rows += rows(t);
        self.cells += 1;
    }
}

/// Rows across every table of a trace.
#[must_use]
pub fn rows(t: &TraceDb) -> u64 {
    [
        t.ecalls.len(),
        t.ocalls.len(),
        t.aex.len(),
        t.paging.len(),
        t.sync.len(),
        t.enclaves.len(),
        t.symbols.len(),
        t.switchless.len(),
        t.faults.len(),
        t.lifecycle.len(),
        t.syncev.len(),
        t.fleet.len(),
    ]
    .iter()
    .sum::<usize>() as u64
}

/// Ends a recording: `Logger::finish`, then `TraceDb::save` to `path`.
/// Returns the bytes written.
///
/// # Panics
///
/// Panics if the trace cannot be written.
pub fn finish_and_save(tr: &Tracer, logger: &Logger, path: &Path) -> u64 {
    let trace = tr.span("logger.finish", 0, || logger.finish());
    save(tr, &trace, path)
}

/// `TraceDb::save` to `path`; returns the bytes written.
///
/// # Panics
///
/// Panics if the trace cannot be written.
pub fn save(tr: &Tracer, trace: &TraceDb, path: &Path) -> u64 {
    tr.span("eventdb.save", 0, || {
        trace.save(path).expect("save trace");
        let bytes = std::fs::metadata(path).expect("stat saved trace").len();
        tr.set_units(bytes);
        bytes
    })
}

/// `TraceDb::load` from `path`.
///
/// # Panics
///
/// Panics if the trace cannot be read.
pub fn load(tr: &Tracer, path: &Path) -> TraceDb {
    tr.span("eventdb.load", 0, || {
        let t = TraceDb::load(path).expect("load trace");
        tr.set_units(rows(&t));
        t
    })
}

/// The `sgxperf report` path: load, analyze, render text and JSON, plus
/// the fleet view (`sgxperf fleet`). Returns the report.
pub fn report(tr: &Tracer, path: &Path, profile: HwProfile) -> Report {
    let trace = load(tr, path);
    let analyzer = Analyzer::new(&trace, profile.cost_model());
    let report = tr.span("analysis.analyze", rows(&trace), || analyzer.analyze());
    tr.span("analysis.render", 0, || {
        std::hint::black_box((report.render(), report.to_json()));
    });
    tr.span("analysis.fleet_report", 0, || {
        let fleet = FleetReport::from_trace(&trace);
        std::hint::black_box((fleet.render(10), fleet.to_json()));
    });
    report
}

/// The `sgxperf diff` path: load both traces, compute and render.
pub fn diff(tr: &Tracer, a: &Path, b: &Path) -> TraceDiff {
    let (a, b) = (load(tr, a), load(tr, b));
    let diff = tr.span("analysis.diff", rows(&a) + rows(&b), || {
        TraceDiff::compute(&a, &b, DiffConfig::default())
    });
    tr.span("analysis.diff_render", 0, || {
        std::hint::black_box(diff.render());
    });
    diff
}

/// Names of the calls a report recommends making switchless, split into
/// (ecalls, ocalls), each in first-seen order.
#[must_use]
pub fn switchless_targets(report: &Report) -> (Vec<String>, Vec<String>) {
    let (mut ecalls, mut ocalls) = (Vec::new(), Vec::new());
    for d in &report.detections {
        if d.recommendation != Recommendation::UseSwitchless {
            continue;
        }
        let bucket = match d.target.kind {
            CallKind::Ecall => &mut ecalls,
            CallKind::Ocall => &mut ocalls,
        };
        if !bucket.contains(&d.name) {
            bucket.push(d.name.clone());
        }
    }
    (ecalls, ocalls)
}
