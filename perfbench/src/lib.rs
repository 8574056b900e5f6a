//! Host-time benchmark of the sgx-perf reproduction.
//!
//! One run measures one workload in one process: set-up, then repeated
//! passes of the user's pipeline (record under the logger → save → report
//! → diff) for the requested number of seconds. Untraced, it reports the
//! end-to-end metrics as medians over passes; traced, it reports the
//! per-layer ledger from spans recorded around every call into the
//! program. Every output check counts as one attempted operation. See
//! `README.md` for the metric table.

mod ledger;
pub mod measure;
pub mod pipeline;
pub mod spans;
pub mod workloads;

use std::time::Instant;

use sgx_perf::analysis::diff::{DiffConfig, TraceDiff};
use sgx_perf::{Analyzer, FleetReport, TraceDb};

use crate::measure::{median, peak_rss_mb, Checks, Scratch};
use crate::pipeline::WorkCounts;
use crate::spans::{totals, Span, Tracer};
use crate::workloads::{Inputs, Pass, Readback, Sizes, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Fewest pipeline passes an untraced run makes, however short its time.
pub const MIN_PASSES: usize = 3;

/// The committed guard values: work counts and trace bytes of the full
/// sizes at the recorded seeds.
pub const GUARDS: &str = include_str!("../guards.tsv");

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
    /// Scale of the layer ledger's loops (1.0 measured, less in tests).
    pub ledger_work: f64,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Output checks attempted.
    pub attempted: u64,
    /// Descriptions of the failed checks.
    pub failures: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Spans of the traced run (empty untraced).
    pub spans: Vec<Span>,
    /// The work counts of the first measured pass.
    pub work: WorkCounts,
    /// Trace bytes of the first measured pass.
    pub trace_bytes: u64,
}

impl Outcome {
    /// True when no check failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }

    /// The guard line for `guards.tsv`.
    #[must_use]
    pub fn guard_line(&self, wl: Workload, seed: u64) -> String {
        let w = &self.work;
        format!(
            "{} {seed} {} {} {} {} {} {} {} {} {} {}",
            wl.name(),
            w.virtual_ns,
            w.ecalls,
            w.ocalls,
            w.aex,
            w.paging_rows,
            w.symbols,
            w.enclaves,
            w.rows,
            w.cells,
            self.trace_bytes
        )
    }
}

/// The committed guard line for `wl` at `seed`, if one was recorded.
#[must_use]
pub fn guard(wl: Workload, seed: u64) -> Option<String> {
    let prefix = format!("{} {seed} ", wl.name());
    GUARDS
        .lines()
        .find(|l| l.starts_with(&prefix))
        .map(str::to_string)
}

/// Runs the benchmark.
///
/// # Panics
///
/// Panics if the scratch directory cannot be created or a program call
/// fails outright (a failed check is reported, not a panic).
#[must_use]
pub fn run(cfg: &Config) -> Outcome {
    let scratch = Scratch::new().expect("create the run's scratch directory");
    let mut checks = Checks::default();
    let quiet = Tracer::new(false);

    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        // Set-up is making the inputs plus the warm-up pass's pipeline
        // phases; as in every pass, its output checks are not timed.
        let start = Instant::now();
        let warm = workloads::setup(cfg.workload, cfg.seed, &cfg.sizes.warm_up());
        inputs = Some(workloads::setup(cfg.workload, cfg.seed, &cfg.sizes));
        let inputs_s = start.elapsed().as_secs_f64();
        let dir = scratch.fresh("warm-up");
        scratch.settle();
        let p = workloads::pass(&warm, &dir, &quiet, &mut checks);
        let _ = std::fs::remove_dir_all(&dir);
        setup_s.push(inputs_s + p.record_s + p.report_s + p.diff_s);
    }
    let inputs = inputs.expect("set-up ran");

    let untraced_s = if cfg.trace {
        cfg.seconds / 3.0
    } else {
        cfg.seconds
    };
    let min_passes = if cfg.trace { 1 } else { MIN_PASSES };
    let untraced = passes(
        &inputs,
        &scratch,
        &quiet,
        &mut checks,
        untraced_s,
        min_passes,
        false,
    );
    let first = &untraced[0];
    let (work, trace_bytes) = (first.back.work.expect("decoded"), first.back.trace_bytes);
    for m in &untraced[1..] {
        checks.equal(
            "trace bytes across passes",
            m.back.digest,
            first.back.digest,
        );
        checks.equal(
            "diff verdicts across passes",
            &m.pass.verdicts,
            &first.pass.verdicts,
        );
    }

    let mut outcome = Outcome {
        attempted: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        spans: Vec::new(),
        work,
        trace_bytes,
    };
    if cfg.sizes == Sizes::full() {
        if let Some(expected) = guard(cfg.workload, cfg.seed) {
            checks.equal(
                "work counts against guards.tsv",
                outcome.guard_line(cfg.workload, cfg.seed),
                expected,
            );
        }
    }

    if cfg.trace {
        let tracer = Tracer::new(true);
        let traced = passes(
            &inputs,
            &scratch,
            &tracer,
            &mut checks,
            cfg.seconds / 3.0,
            1,
            true,
        );
        for m in &traced {
            checks.equal("traced trace bytes", m.back.digest, first.back.digest);
            checks.equal("traced work counts", m.back.work, Some(work));
        }
        let last = &traced.last().expect("one traced pass").pass;
        layer_calls(&tracer, last);
        ledger::run(&tracer, &scratch, cfg.ledger_work);
        let spans = tracer.spans();
        outcome.metrics = per_layer(&untraced, &traced, &spans, work, trace_bytes);
        outcome.spans = spans;
    } else {
        outcome.metrics = end_to_end(&setup_s, &untraced, trace_bytes);
    }
    for m in &outcome.metrics {
        checks.check(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    outcome.attempted = checks.attempted();
    outcome.failures = checks.failures().to_vec();
    outcome
}

/// One measured pass: what it timed, its wall time and its read-back.
#[derive(Debug, Clone)]
struct Measured {
    pass: Pass,
    wall_s: f64,
    back: Readback,
    /// The process's `VmHWM` right after this pass.
    peak_rss_mb: f64,
}

/// Runs pipeline passes for `seconds` (and at least `min` of them), each
/// in a fresh directory on a settled filesystem, and reads each one back:
/// decoded for the first pass and every traced one, hashed otherwise.
/// Each directory is removed after its pass, except the last one's when
/// `keep_last`.
fn passes(
    inputs: &Inputs,
    scratch: &Scratch,
    tr: &Tracer,
    checks: &mut Checks,
    seconds: f64,
    min: usize,
    keep_last: bool,
) -> Vec<Measured> {
    let start = Instant::now();
    let mut out: Vec<Measured> = Vec::new();
    let mut last_dir: Option<std::path::PathBuf> = None;
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        if let Some(dir) = last_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = scratch.fresh("pass");
        scratch.settle();
        let began = Instant::now();
        let pass = workloads::pass(inputs, &dir, tr, checks);
        let wall_s = began.elapsed().as_secs_f64();
        let peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
        eprintln!(
            "pass {}: record_s={:.6} report_s={:.6} diff_s={:.6} wall_s={wall_s:.6} \
             peak_rss_mb={peak_rss_mb:.1}",
            out.len(),
            pass.record_s,
            pass.report_s,
            pass.diff_s,
        );
        let back = workloads::read_back(&pass, out.is_empty() || tr.enabled(), checks);
        out.push(Measured {
            pass,
            wall_s,
            back,
            peak_rss_mb,
        });
        last_dir = Some(dir);
    }
    if !keep_last {
        if let Some(dir) = last_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    out
}

fn end_to_end(setup_s: &[f64], passes: &[Measured], trace_bytes: u64) -> Vec<Metric> {
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(|m| f(&m.pass)).collect::<Vec<_>>());
    vec![
        metric("setup_s", median(setup_s), "s"),
        metric("record_s", med(|p| p.record_s), "s"),
        metric("report_s", med(|p| p.report_s), "s"),
        metric("diff_s", med(|p| p.diff_s), "s"),
        metric("cells_per_s", med(|p| p.cells_per_s), "1/s"),
        metric("trace_bytes", trace_bytes as f64, "B"),
        // After a fixed amount of work, so that the value does not depend
        // on how many passes the machine's speed allowed.
        metric("peak_rss_mb", passes[MIN_PASSES - 1].peak_rss_mb, "MiB"),
    ]
}

/// The per-layer calls made once on the last traced pass's traces:
/// eventdb encode/decode of every trace, each analysis pass on the
/// reported traces and the diff on the diffed pairs.
fn layer_calls(tr: &Tracer, pass: &Pass) {
    for path in &pass.traces {
        let bytes = std::fs::read(path).expect("read trace");
        let n = bytes.len() as u64;
        let trace = tr.span("layer.eventdb.decode", n, || {
            TraceDb::from_bytes(&bytes).expect("decode trace")
        });
        tr.span("layer.eventdb.encode", n, || {
            std::hint::black_box(trace.to_bytes());
        });
    }
    for (path, profile) in &pass.reported {
        let trace = TraceDb::load(path).expect("load trace");
        let rows = pipeline::rows(&trace);
        let analyzer = Analyzer::new(&trace, profile.cost_model());
        tr.span("layer.analysis.instances", rows, || {
            std::hint::black_box(analyzer.instances());
        });
        let report = tr.span("layer.analysis.analyze", rows, || analyzer.analyze());
        tr.span("layer.analysis.render", 0, || {
            std::hint::black_box((report.render(), report.to_json()));
        });
        tr.span("layer.analysis.fleet_report", 0, || {
            let fleet = FleetReport::from_trace(&trace);
            std::hint::black_box((fleet.render(10), fleet.to_json()));
        });
    }
    for (a, b) in &pass.diffed {
        let a = TraceDb::load(a).expect("load trace");
        let b = TraceDb::load(b).expect("load trace");
        tr.span("layer.analysis.diff", 0, || {
            std::hint::black_box(TraceDiff::compute(&a, &b, DiffConfig::default()));
        });
    }
}

fn per_layer(
    untraced: &[Measured],
    traced: &[Measured],
    spans: &[Span],
    work: WorkCounts,
    trace_bytes: u64,
) -> Vec<Metric> {
    let walls = |ms: &[Measured]| median(&ms.iter().map(|m| m.wall_s).collect::<Vec<_>>());
    let mb_s = |name| totals(spans, name).units_per_s().unwrap_or(0.0) / 1e6;
    let secs = |name| totals(spans, name).total_s;
    let analyze = totals(spans, "layer.analysis.analyze");
    let mut out = vec![
        metric("work.virtual_ns", work.virtual_ns as f64, "ns"),
        metric("work.ecalls", work.ecalls as f64, "count"),
        metric("work.ocalls", work.ocalls as f64, "count"),
        metric("work.aex", work.aex as f64, "count"),
        metric("work.paging_rows", work.paging_rows as f64, "count"),
        metric("work.symbols", work.symbols as f64, "count"),
        metric("work.enclaves", work.enclaves as f64, "count"),
        metric("work.rows", work.rows as f64, "count"),
        metric("work.cells", work.cells as f64, "count"),
        metric("eventdb.encode_mb_s", mb_s("layer.eventdb.encode"), "MB/s"),
        metric("eventdb.decode_mb_s", mb_s("layer.eventdb.decode"), "MB/s"),
        metric(
            "eventdb.bytes_per_row",
            trace_bytes as f64 / work.rows as f64,
            "B",
        ),
        metric(
            "analysis.instances_s",
            secs("layer.analysis.instances"),
            "s",
        ),
        metric(
            "analysis.detect_s",
            analyze.total_s - secs("layer.analysis.instances"),
            "s",
        ),
        metric("analysis.render_s", secs("layer.analysis.render"), "s"),
        metric(
            "analysis.fleet_report_s",
            secs("layer.analysis.fleet_report"),
            "s",
        ),
        metric("analysis.diff_s", secs("layer.analysis.diff"), "s"),
        metric(
            "analysis.rows_per_s",
            analyze.units_per_s().unwrap_or(0.0),
            "1/s",
        ),
        metric(
            "pipeline.sim_s",
            secs("workload.run") / traced.len() as f64,
            "s",
        ),
        metric("tracing_overhead", walls(traced) - walls(untraced), "s"),
    ];
    out.extend(
        ledger::metrics(spans)
            .into_iter()
            .map(|(name, value, unit)| metric(name, value, unit)),
    );
    out
}
