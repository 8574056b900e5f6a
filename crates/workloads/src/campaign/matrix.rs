//! Declarative matrix execution: a parsed [`CampaignSpec`] resolved
//! against the workload registry, fanned out in parallel, verdicted
//! per-cell through the diff engine against each cell's declared
//! baseline.
//!
//! Everything downstream of the spec is deterministic: cell traces are
//! pure functions of their coordinates, archive paths are pure functions
//! of the same coordinates, and the summary (text table and JSON) is
//! ordered by cell index and carries no wall-clock times, worker counts
//! or engine labels — so two runs of the same spec, on any engine with
//! any parallelism, render byte-identical summaries. Timing belongs on
//! stderr; this module's outputs are the CI artifact.
//!
//! # Supervision
//!
//! Cells run under a supervision layer so one bad cell degrades, never
//! kills, the campaign:
//!
//! * **Isolation** — each attempt runs under `catch_unwind` plus a
//!   [`SimBudget`]: the spec's `event_budget` bounds scheduling points
//!   *inside* the simulation (deterministic and engine-identical), and
//!   `cell_deadline` arms a wall-clock watchdog that cancels the budget
//!   handle so a hung-but-scheduling cell unwinds cooperatively (a cell
//!   hard-hung outside any simulation is abandoned after a grace
//!   period). The result is a structured [`CellOutcome`], not a poisoned
//!   scope.
//! * **Retry & quarantine** — failed cells get `retries` extra attempts
//!   with exponential backoff; a cell that then passes is `flaky`, one
//!   that exhausts its attempts is `broken`. Both classes surface in the
//!   summary's quarantine ledger and in `summary.json`.
//! * **Crash safety** — traces, summaries and a checksummed
//!   `manifest.json` are written atomically (tmp file + rename), the
//!   manifest after every cell; [`run`] with `resume` validates archived
//!   traces against it and re-runs only missing or corrupt cells,
//!   producing byte-identical summaries to an uninterrupted run.
//! * **Exit contract** — 0 clean, [`REGRESSION_EXIT_CODE`] (3) when the
//!   gate trips, [`INCOMPLETE_EXIT_CODE`] (4) when any cell is broken or
//!   unverdictable (incomplete beats regressed: a gate over missing
//!   cells is not trustworthy).

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use sgx_perf::analysis::diff::{DiffConfig, TraceDiff, Verdict, REGRESSION_EXIT_CODE};
use sgx_perf::{json, Logger, LoggerConfig, TraceDb};
use sim_core::campaign::{CampaignSpec, CellCoord, SwitchlessAxis};
use sim_core::fault::{fmt_duration, FaultPlan};
use sim_threads::{
    with_budget, with_engine, Engine, SimBudget, EVENT_BUDGET_EXHAUSTED, SIM_CANCELLED,
};

use super::Workload;
use crate::harness::Harness;
use crate::stressors::StressorConfig;
use crate::{chaos, fleet, racy_fixture, stressors, supervisor_loop};

/// A validated, runnable campaign: the spec plus its workload names
/// resolved against the registry.
#[derive(Debug, Clone)]
pub struct MatrixPlan {
    /// The spec (kept whole: the canonical form is the run's identity).
    pub spec: CampaignSpec,
    workloads: Vec<Workload>,
}

impl MatrixPlan {
    /// Resolves and validates a spec against the workload registry.
    ///
    /// # Errors
    ///
    /// Unknown workload names, and switchless axis points other than
    /// `off` combined with workloads that have no switchless route (only
    /// the dedicated stressors take the axis).
    pub fn from_spec(spec: CampaignSpec) -> Result<MatrixPlan, String> {
        let mut workloads = Vec::with_capacity(spec.workloads.len());
        for name in &spec.workloads {
            let Some(w) = Workload::parse(name) else {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.label()).collect();
                return Err(format!(
                    "unknown workload `{name}` (known: {})",
                    known.join(", ")
                ));
            };
            if spec.switchless.iter().any(|s| *s != SwitchlessAxis::Off)
                && !matches!(w, Workload::Stress(_))
            {
                return Err(format!(
                    "workload `{name}` does not take the switchless axis \
                     (only the dedicated stressors do)"
                ));
            }
            workloads.push(w);
        }
        Ok(MatrixPlan { spec, workloads })
    }

    /// The expanded cell matrix (delegates to the spec).
    #[must_use]
    pub fn cells(&self) -> Vec<CellCoord> {
        self.spec.expand()
    }

    /// The deterministic archive filename of a cell.
    #[must_use]
    pub fn file_name(&self, c: &CellCoord) -> String {
        format!(
            "{}-{}-{}-{}-s{}.evdb",
            self.spec.workloads[c.workload],
            c.profile.file_label(),
            self.spec.plans[c.plan].0,
            c.switchless.file_label(),
            c.seed
        )
    }

    /// The fault plan a cell actually runs under: the named plan with the
    /// cell seed folded into its jitter seed, or `None` for an empty plan
    /// (preserving the empty-plan-is-invisible byte contract).
    #[must_use]
    pub fn effective_plan(&self, c: &CellCoord) -> Option<FaultPlan> {
        let (_, plan) = &self.spec.plans[c.plan];
        if plan.is_empty() {
            return None;
        }
        let mut plan = plan.clone();
        plan.seed ^= c.seed;
        Some(plan)
    }

    /// Executes one cell on the calling thread's current engine and
    /// returns the serialised trace. `attempt` is the zero-based retry
    /// counter the supervisor threads through so flaky fixtures (and any
    /// future attempt-aware workload) can observe it; deterministic
    /// workloads ignore it.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails under the cell's fault plan — the
    /// supervised runner in [`run`] catches this and records a
    /// [`CellOutcome`] instead of unwinding the campaign.
    #[must_use]
    pub fn run_cell(&self, c: &CellCoord, attempt: u32) -> Vec<u8> {
        let plan = self.effective_plan(c);
        let workers = match c.switchless {
            SwitchlessAxis::Off => None,
            SwitchlessAxis::On { workers } => Some(workers as usize),
        };
        match self.workloads[c.workload] {
            Workload::Stress(s) => stressors::trace(
                s,
                c.profile,
                plan.as_ref(),
                &StressorConfig {
                    seed: c.seed,
                    switchless_workers: workers,
                    attempt,
                },
            ),
            Workload::Fixture(f) => stressors::fixture_trace(
                f,
                c.profile,
                plan.as_ref(),
                &StressorConfig {
                    seed: c.seed,
                    switchless_workers: workers,
                    attempt,
                },
            ),
            Workload::Antipatterns => chaos::antipatterns_trace(c.profile, plan.as_ref()),
            Workload::Switchless => chaos::switchless_trace(c.profile, plan.as_ref()),
            Workload::Supervisor => {
                let harness = Harness::new(c.profile);
                let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
                supervisor_loop::run(&harness, 24, plan.as_ref(), None)
                    .expect("supervisor matrix cell");
                logger.finish().to_bytes()
            }
            Workload::Racy => {
                let harness = Harness::new(c.profile);
                let logger = Logger::attach(harness.runtime(), LoggerConfig::with_syncev());
                harness.machine().set_fault_plan(plan.as_ref());
                racy_fixture::run(&harness, &racy_fixture::RacyFixtureConfig::default())
                    .expect("racy matrix cell");
                logger.finish().to_bytes()
            }
            Workload::Fleet => {
                let cfg = fleet::FleetRunConfig {
                    seed: 0xF1EE7 ^ c.seed,
                    ..fleet::FleetRunConfig::tiny()
                };
                let run = fleet::run(c.profile, &cfg, plan.as_ref()).expect("fleet matrix cell");
                run.trace.to_bytes()
            }
        }
    }
}

/// Per-cell gate outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellVerdict {
    /// This cell *is* its group's baseline (diffed against itself only
    /// notionally; always neutral by construction).
    Baseline,
    /// Within the threshold of its baseline.
    Neutral,
    /// Better than its baseline beyond the threshold.
    Improved,
    /// Worse than its baseline beyond the threshold — trips the gate.
    Regressed,
    /// The cell produced no trace (panicked, timed out or hit an I/O
    /// error after exhausting its retries) — no diff is possible.
    Failed,
    /// The cell itself ran fine but its declared baseline failed, so it
    /// cannot be verdicted. Counts toward the incomplete exit code.
    Skipped,
}

impl CellVerdict {
    /// Fixed-width summary label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CellVerdict::Baseline => "baseline",
            CellVerdict::Neutral => "neutral",
            CellVerdict::Improved => "improved",
            CellVerdict::Regressed => "REGRESSED",
            CellVerdict::Failed => "FAILED",
            CellVerdict::Skipped => "skipped",
        }
    }
}

/// Exit status for a campaign that finished with broken or unverdictable
/// cells: the matrix is incomplete, so its gate verdict cannot be
/// trusted. Takes precedence over [`REGRESSION_EXIT_CODE`].
pub const INCOMPLETE_EXIT_CODE: u8 = 4;

/// How one supervised cell ended, after all retry attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell produced a trace.
    Ok,
    /// Every attempt panicked; carries the last panic message.
    Panicked(String),
    /// Every attempt exhausted its event budget or wall-clock deadline.
    TimedOut(String),
    /// The trace could not be archived; carries the last I/O error.
    IoError(String),
}

impl CellOutcome {
    /// Fixed summary label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Ok => "ok",
            CellOutcome::Panicked(_) => "panicked",
            CellOutcome::TimedOut(_) => "timed-out",
            CellOutcome::IoError(_) => "io-error",
        }
    }

    /// The failure detail ("" for [`CellOutcome::Ok`]).
    #[must_use]
    pub fn detail(&self) -> &str {
        match self {
            CellOutcome::Ok => "",
            CellOutcome::Panicked(m) | CellOutcome::TimedOut(m) | CellOutcome::IoError(m) => m,
        }
    }

    fn from_label(label: &str, detail: &str) -> Option<CellOutcome> {
        Some(match label {
            "ok" => CellOutcome::Ok,
            "panicked" => CellOutcome::Panicked(detail.to_string()),
            "timed-out" => CellOutcome::TimedOut(detail.to_string()),
            "io-error" => CellOutcome::IoError(detail.to_string()),
            _ => return None,
        })
    }
}

/// One completed, verdicted cell.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// The cell coordinates.
    pub coord: CellCoord,
    /// Archive filename (pure function of the coordinates).
    pub file: String,
    /// Serialised trace size (0 for failed cells).
    pub bytes: usize,
    /// Fault rows recorded in the trace (0 for failed cells).
    pub fault_rows: usize,
    /// Diff verdict against the declared baseline cell.
    pub verdict: CellVerdict,
    /// Virtual-time speedup vs the baseline (>1 = faster than baseline;
    /// exactly 1 for baseline cells, 0 for failed/skipped cells).
    pub speedup: f64,
    /// How the supervised execution ended.
    pub outcome: CellOutcome,
    /// Attempts consumed (1 = passed first try).
    pub attempts: u32,
    /// True when the cell failed at least once but eventually produced a
    /// trace — quarantined as flaky in the summary ledger.
    pub flaky: bool,
}

/// A completed campaign matrix.
#[derive(Debug)]
pub struct MatrixRun {
    /// The validated plan that ran.
    pub plan: MatrixPlan,
    /// All cells, ordered by index.
    pub cells: Vec<MatrixCell>,
}

impl MatrixRun {
    /// Number of cells whose verdict tripped the gate.
    #[must_use]
    pub fn regressed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.verdict == CellVerdict::Regressed)
            .count()
    }

    /// Number of broken cells (no trace after exhausting retries).
    #[must_use]
    pub fn broken(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.outcome != CellOutcome::Ok)
            .count()
    }

    /// Number of flaky cells (trace produced, but only on a retry).
    #[must_use]
    pub fn flaky(&self) -> usize {
        self.cells.iter().filter(|c| c.flaky).count()
    }

    /// True when any cell is broken or unverdictable — the matrix is
    /// incomplete and the gate verdict cannot be trusted.
    #[must_use]
    pub fn incomplete(&self) -> bool {
        self.cells.iter().any(|c| {
            c.outcome != CellOutcome::Ok
                || matches!(c.verdict, CellVerdict::Failed | CellVerdict::Skipped)
        })
    }

    /// CI-gate exit status: [`INCOMPLETE_EXIT_CODE`] when the matrix is
    /// incomplete (broken or unverdictable cells — this beats the gate:
    /// a regression verdict over missing cells is not trustworthy),
    /// otherwise [`REGRESSION_EXIT_CODE`] iff any cell regressed against
    /// its baseline, otherwise 0.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        if self.incomplete() {
            INCOMPLETE_EXIT_CODE
        } else if self.regressed() > 0 {
            REGRESSION_EXIT_CODE
        } else {
            0
        }
    }

    /// The byte-stable text summary: a fixed-order table over the cell
    /// matrix with no wall-clock times, worker counts or engine labels.
    #[must_use]
    pub fn render(&self) -> String {
        let spec = &self.plan.spec;
        let mut out = format!(
            "campaign \"{}\": {} workload(s) x {} profile(s) x {} plan(s) \
             x {} switchless x {} seed(s) = {} cell(s)\n",
            spec.name,
            spec.workloads.len(),
            spec.profiles.len(),
            spec.plans.len(),
            spec.switchless.len(),
            spec.seeds.len(),
            self.cells.len(),
        );
        out.push_str(&format!(
            "gate: threshold {}%, baseline faults={} seed={}\n",
            spec.threshold_pct, spec.baseline_plan, spec.baseline_seed,
        ));
        let deadline = if spec.cell_deadline.as_nanos() == 0 {
            "off".to_string()
        } else {
            fmt_duration(spec.cell_deadline)
        };
        let budget = if spec.event_budget == 0 {
            "unlimited".to_string()
        } else {
            spec.event_budget.to_string()
        };
        out.push_str(&format!(
            "supervision: cell_deadline={deadline}, retries={}, event_budget={budget}\n\n",
            spec.retries,
        ));
        let wl = col_width(spec.workloads.iter().map(String::len), "workload".len());
        let pl = col_width(spec.plans.iter().map(|(n, _)| n.len()), "plan".len());
        out.push_str(&format!(
            "{:>5}  {:<wl$}  {:<9}  {:<pl$}  {:<5}  {:>6}  {:>8}  {:>6}  {:<9}  {:>5}  {:>8}\n",
            "index",
            "workload",
            "profile",
            "plan",
            "swl",
            "seed",
            "bytes",
            "faults",
            "verdict",
            "tries",
            "speedup",
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:>5}  {:<wl$}  {:<9}  {:<pl$}  {:<5}  {:>6}  {:>8}  {:>6}  {:<9}  {:>5}  {:>8.3}\n",
                c.coord.index,
                spec.workloads[c.coord.workload],
                c.coord.profile.file_label(),
                spec.plans[c.coord.plan].0,
                c.coord.switchless.to_string(),
                c.coord.seed,
                c.bytes,
                c.fault_rows,
                c.verdict.label(),
                c.attempts,
                c.speedup,
            ));
        }
        if self.flaky() > 0 || self.broken() > 0 {
            out.push_str("\nquarantine:\n");
            for c in &self.cells {
                if c.flaky {
                    out.push_str(&format!(
                        "  flaky   {}: passed on attempt {}\n",
                        c.file, c.attempts,
                    ));
                }
            }
            for c in &self.cells {
                if c.outcome != CellOutcome::Ok {
                    out.push_str(&format!(
                        "  broken  {} ({}): {}\n",
                        c.file,
                        c.outcome.label(),
                        c.outcome.detail(),
                    ));
                }
            }
        }
        out.push_str(&format!(
            "\n{} regressed, {} broken, {} flaky cell(s) -> exit {}\n",
            self.regressed(),
            self.broken(),
            self.flaky(),
            self.exit_code(),
        ));
        out
    }

    /// The byte-stable machine-readable summary (hand-rolled JSON, same
    /// stability contract as [`MatrixRun::render`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let spec = &self.plan.spec;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"campaign\": \"{}\",\n", spec.name));
        out.push_str(&format!("  \"threshold_pct\": {},\n", spec.threshold_pct));
        out.push_str(&format!(
            "  \"baseline\": {{\"faults\": \"{}\", \"seed\": {}}},\n",
            spec.baseline_plan, spec.baseline_seed,
        ));
        out.push_str(&format!(
            "  \"supervision\": {{\"cell_deadline_ns\": {}, \"retries\": {}, \
             \"event_budget\": {}}},\n",
            spec.cell_deadline.as_nanos(),
            spec.retries,
            spec.event_budget,
        ));
        out.push_str(&format!("  \"cells\": {},\n", self.cells.len()));
        out.push_str(&format!("  \"regressed\": {},\n", self.regressed()));
        out.push_str(&format!("  \"broken\": {},\n", self.broken()));
        out.push_str(&format!("  \"flaky\": {},\n", self.flaky()));
        out.push_str(&format!("  \"exit_code\": {},\n", self.exit_code()));
        out.push_str("  \"results\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"index\": {}, \"workload\": \"{}\", \"profile\": \"{}\", \
                 \"plan\": \"{}\", \"switchless\": \"{}\", \"seed\": {}, \
                 \"baseline_index\": {}, \"file\": \"{}\", \"bytes\": {}, \
                 \"fault_rows\": {}, \"verdict\": \"{}\", \"speedup\": {:.3}, \
                 \"outcome\": \"{}\", \"detail\": {}, \"attempts\": {}, \
                 \"flaky\": {}}}{}\n",
                c.coord.index,
                spec.workloads[c.coord.workload],
                c.coord.profile.file_label(),
                spec.plans[c.coord.plan].0,
                c.coord.switchless,
                c.coord.seed,
                c.coord.baseline,
                c.file,
                c.bytes,
                c.fault_rows,
                c.verdict.label(),
                c.speedup,
                c.outcome.label(),
                json::string(c.outcome.detail()),
                c.attempts,
                c.flaky,
                comma,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn col_width(lens: impl Iterator<Item = usize>, header: usize) -> usize {
    lens.fold(header, usize::max)
}

/// FNV-1a 64 over a byte slice — the manifest's trace checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Extracts and unescapes the string value of `"key": "..."` from one
/// manifest line. Returns `None` on any malformation — the caller treats
/// that as a corrupt entry and re-runs the cell.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (&mut chars).take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extracts the raw (unquoted) value of `"key": value` from one manifest
/// line.
fn json_raw_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().to_string())
}

/// Atomically writes `bytes` to `path` via a sibling tmp file + rename,
/// so a crash mid-write can never leave a torn artifact under its final
/// name.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    let tmp = path.with_file_name(format!("{name}.tmp"));
    std::fs::write(&tmp, bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

/// One row of `manifest.json`: a completed cell with enough information
/// to revalidate its archived trace on resume.
#[derive(Debug, Clone)]
struct ManifestEntry {
    index: usize,
    file: String,
    outcome: CellOutcome,
    attempts: u32,
    flaky: bool,
    bytes: usize,
    checksum: u64,
}

fn render_manifest(spec_checksum: u64, entries: &[ManifestEntry]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"spec_checksum\": \"{spec_checksum:016x}\",\n"));
    out.push_str("  \"cells\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"index\": {}, \"file\": \"{}\", \"outcome\": \"{}\", \
             \"detail\": {}, \"attempts\": {}, \"flaky\": {}, \
             \"bytes\": {}, \"checksum\": \"{:016x}\"}}{}\n",
            e.index,
            e.file,
            e.outcome.label(),
            json::string(e.outcome.detail()),
            e.attempts,
            e.flaky,
            e.bytes,
            e.checksum,
            comma,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn parse_manifest(text: &str) -> Option<(u64, Vec<ManifestEntry>)> {
    let mut spec_checksum = None;
    let mut entries = Vec::new();
    for line in text.lines() {
        let t = line.trim_start();
        if t.starts_with("\"spec_checksum\"") {
            spec_checksum = u64::from_str_radix(&json_str_field(line, "spec_checksum")?, 16).ok();
        } else if t.starts_with('{') && t.contains("\"index\"") {
            let outcome = CellOutcome::from_label(
                &json_str_field(line, "outcome")?,
                &json_str_field(line, "detail")?,
            )?;
            entries.push(ManifestEntry {
                index: json_raw_field(line, "index")?.parse().ok()?,
                file: json_str_field(line, "file")?,
                outcome,
                attempts: json_raw_field(line, "attempts")?.parse().ok()?,
                flaky: json_raw_field(line, "flaky")? == "true",
                bytes: json_raw_field(line, "bytes")?.parse().ok()?,
                checksum: u64::from_str_radix(&json_str_field(line, "checksum")?, 16).ok()?,
            });
        }
    }
    Some((spec_checksum?, entries))
}

/// The supervised result of one cell, after all attempts.
#[derive(Debug)]
struct CellResult {
    outcome: CellOutcome,
    trace: Option<Vec<u8>>,
    /// Fault rows in the trace, counted where the trace is first decoded
    /// (the worker, or the resume check) so the serial verdict phase
    /// never decodes a trace just to count them.
    fault_rows: usize,
    attempts: u32,
    flaky: bool,
    checksum: u64,
}

/// Maps a caught panic payload to a structured outcome: budget
/// exhaustion and supervisor cancellation read as timeouts, anything
/// else as a genuine panic.
fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> CellOutcome {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    if msg.contains(EVENT_BUDGET_EXHAUSTED) || msg.contains(SIM_CANCELLED) {
        CellOutcome::TimedOut(msg)
    } else {
        CellOutcome::Panicked(msg)
    }
}

/// Runs one attempt of one cell under `catch_unwind` and the spec's
/// supervision budget. With a wall-clock deadline the attempt runs on
/// its own thread; on expiry the watchdog cancels the budget handle so
/// the simulation unwinds cooperatively at its next scheduling point,
/// and only a cell hard-hung outside any simulation is abandoned after a
/// grace period.
fn run_attempt(
    plan: &MatrixPlan,
    engine: Engine,
    coord: &CellCoord,
    attempt: u32,
) -> Result<Vec<u8>, CellOutcome> {
    let spec = &plan.spec;
    let budget = if spec.event_budget > 0 {
        SimBudget::with_events(spec.event_budget)
    } else {
        SimBudget::unlimited()
    };
    let deadline_ns = spec.cell_deadline.as_nanos();
    if deadline_ns == 0 {
        let body = AssertUnwindSafe(|| {
            with_engine(engine, || {
                with_budget(budget.clone(), || plan.run_cell(coord, attempt))
            })
        });
        return panic::catch_unwind(body).map_err(classify_panic);
    }
    let (tx, rx) = mpsc::channel();
    let watchdog = budget.clone();
    {
        let plan = plan.clone();
        let coord = *coord;
        std::thread::spawn(move || {
            let body = AssertUnwindSafe(|| {
                with_engine(engine, || {
                    with_budget(budget, || plan.run_cell(&coord, attempt))
                })
            });
            let _ = tx.send(panic::catch_unwind(body).map_err(classify_panic));
        });
    }
    match rx.recv_timeout(Duration::from_nanos(deadline_ns)) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            watchdog.cancel();
            // Grace period for the cooperative unwind; whatever the late
            // attempt reports is discarded in favour of the deterministic
            // deadline message. A cell hung outside any simulation never
            // observes the cancel and its thread is abandoned here.
            let _ = rx.recv_timeout(Duration::from_secs(2));
            Err(CellOutcome::TimedOut(
                "cell wall-clock deadline exceeded".to_string(),
            ))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(CellOutcome::Panicked(
            "cell worker thread vanished".to_string(),
        )),
    }
}

/// Runs one cell to completion: attempt, archive atomically, retry with
/// exponential backoff up to the spec's `retries`, classify.
fn execute_cell(
    plan: &MatrixPlan,
    engine: Engine,
    coord: &CellCoord,
    out_dir: Option<&Path>,
) -> CellResult {
    let max_attempts = plan.spec.retries.saturating_add(1);
    let mut attempt = 0u32;
    loop {
        let result = run_attempt(plan, engine, coord, attempt).and_then(|bytes| match out_dir {
            Some(dir) => write_atomic(&dir.join(plan.file_name(coord)), &bytes)
                .map(|()| bytes)
                .map_err(CellOutcome::IoError),
            None => Ok(bytes),
        });
        match result {
            Ok(bytes) => {
                return CellResult {
                    outcome: CellOutcome::Ok,
                    checksum: fnv1a(&bytes),
                    fault_rows: chaos::fault_rows(&bytes),
                    trace: Some(bytes),
                    attempts: attempt + 1,
                    flaky: attempt > 0,
                };
            }
            Err(outcome) => {
                attempt += 1;
                if attempt >= max_attempts {
                    return CellResult {
                        outcome,
                        trace: None,
                        fault_rows: 0,
                        attempts: attempt,
                        flaky: false,
                        checksum: 0,
                    };
                }
                std::thread::sleep(Duration::from_millis(
                    (10u64 << (attempt - 1).min(6)).min(1000),
                ));
            }
        }
    }
}

/// Salvages completed cells from an interrupted run's manifest. `Ok`
/// entries are revalidated against the archived bytes (existence,
/// length, checksum, parseability); failed entries are reused verbatim —
/// their retries are already spent, and reuse keeps the resumed summary
/// byte-identical. Anything missing or corrupt is simply left to re-run.
fn salvage(
    plan: &MatrixPlan,
    dir: &Path,
    spec_checksum: u64,
    cells: &[CellCoord],
    out: &mut [Option<CellResult>],
) -> Result<(), String> {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.path().extension().is_some_and(|e| e == "tmp") {
                std::fs::remove_file(entry.path()).ok();
            }
        }
    }
    let Ok(text) = std::fs::read_to_string(dir.join("manifest.json")) else {
        return Ok(()); // no manifest — nothing to salvage
    };
    let Some((recorded, entries)) = parse_manifest(&text) else {
        return Ok(()); // corrupt manifest — re-run everything
    };
    if recorded != spec_checksum {
        return Err(format!(
            "resume: output dir {} was produced by a different spec \
             (manifest checksum {recorded:016x}, spec {spec_checksum:016x})",
            dir.display(),
        ));
    }
    for e in entries {
        let Some(coord) = cells.get(e.index) else {
            continue;
        };
        if plan.file_name(coord) != e.file {
            continue;
        }
        match &e.outcome {
            CellOutcome::Ok => {
                let Ok(bytes) = std::fs::read(dir.join(&e.file)) else {
                    continue;
                };
                if bytes.len() != e.bytes || fnv1a(&bytes) != e.checksum {
                    continue;
                }
                let Ok(trace) = TraceDb::from_bytes(&bytes) else {
                    continue;
                };
                out[e.index] = Some(CellResult {
                    outcome: CellOutcome::Ok,
                    checksum: e.checksum,
                    fault_rows: trace.faults.len(),
                    trace: Some(bytes),
                    attempts: e.attempts,
                    flaky: e.flaky,
                });
            }
            failed => {
                out[e.index] = Some(CellResult {
                    outcome: failed.clone(),
                    trace: None,
                    fault_rows: 0,
                    attempts: e.attempts,
                    flaky: e.flaky,
                    checksum: 0,
                });
            }
        }
    }
    Ok(())
}

/// Runs the matrix: executes every cell in parallel on `engine` (claimed
/// off a shared counter by `jobs` workers — 0 means the spec's `jobs`,
/// which itself defaults to all cores), supervises each cell per the
/// spec's `[robustness]` section (see the module docs), archives one
/// trace per cell plus a checksummed `manifest.json` under `out_dir` (if
/// given), then verdicts every cell against its declared baseline
/// through the diff engine at the spec's threshold.
///
/// With `resume`, cells already completed by an interrupted run (per the
/// manifest) are revalidated and reused instead of re-run; the resulting
/// summaries are byte-identical to an uninterrupted run.
///
/// # Errors
///
/// Invalid invocations only — `resume` without an output directory, an
/// unusable output directory, or a resume over a different spec's
/// artifacts. Per-cell failures are *not* errors: they surface as
/// [`CellOutcome`]s, the quarantine ledger and the incomplete exit code.
pub fn run(
    plan: &MatrixPlan,
    engine: Engine,
    jobs: usize,
    out_dir: Option<&Path>,
    resume: bool,
) -> Result<MatrixRun, String> {
    let spec_checksum = fnv1a(plan.spec.to_string().as_bytes());
    if resume && out_dir.is_none() {
        return Err("resume needs an output directory (--out)".to_string());
    }
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("create campaign output dir {}: {e}", dir.display()))?;
    }
    let cells = plan.cells();
    let mut salvaged: Vec<Option<CellResult>> = (0..cells.len()).map(|_| None).collect();
    if resume {
        salvage(
            plan,
            out_dir.expect("checked above"),
            spec_checksum,
            &cells,
            &mut salvaged,
        )?;
    }

    let jobs = match (jobs, plan.spec.jobs as usize) {
        (0, 0) => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        (0, n) | (n, _) => n,
    };
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<CellResult>>> = Mutex::new(salvaged);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(cells.len()).max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(coord) = cells.get(index) else {
                    break;
                };
                if results.lock().unwrap()[index].is_some() {
                    continue; // salvaged from the interrupted run
                }
                let result = execute_cell(plan, engine, coord, out_dir);
                let mut slots = results.lock().unwrap();
                slots[index] = Some(result);
                if let Some(dir) = out_dir {
                    // Rewrite the manifest after every completed cell (the
                    // lock keeps it consistent); failure to persist it is
                    // non-fatal — only resumability degrades.
                    let entries: Vec<ManifestEntry> = slots
                        .iter()
                        .enumerate()
                        .filter_map(|(i, r)| {
                            r.as_ref().map(|r| ManifestEntry {
                                index: i,
                                file: plan.file_name(&cells[i]),
                                outcome: r.outcome.clone(),
                                attempts: r.attempts,
                                flaky: r.flaky,
                                bytes: r.trace.as_ref().map_or(0, Vec::len),
                                checksum: r.checksum,
                            })
                        })
                        .collect();
                    let _ = write_atomic(
                        &dir.join("manifest.json"),
                        render_manifest(spec_checksum, &entries).as_bytes(),
                    );
                }
            });
        }
    });
    let results: Vec<CellResult> = results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every cell visited"))
        .collect();

    let diff_config = DiffConfig {
        threshold: f64::from(plan.spec.threshold_pct) / 100.0,
        ..DiffConfig::default()
    };
    let cells = cells
        .iter()
        .map(|coord| {
            let r = &results[coord.index];
            let (verdict, speedup) = match &r.trace {
                None => (CellVerdict::Failed, 0.0),
                Some(_) if coord.baseline == coord.index => (CellVerdict::Baseline, 1.0),
                Some(bytes) => match results[coord.baseline].trace.as_deref() {
                    // A healthy cell with a broken baseline cannot be
                    // verdicted — skipped, not failed.
                    None => (CellVerdict::Skipped, 0.0),
                    Some(base) => {
                        let a = TraceDb::from_bytes(base).expect("baseline trace");
                        let b = TraceDb::from_bytes(bytes).expect("cell trace");
                        let diff = TraceDiff::compute(&a, &b, diff_config);
                        let verdict = match diff.verdict {
                            Verdict::Improvement => CellVerdict::Improved,
                            Verdict::Neutral => CellVerdict::Neutral,
                            Verdict::Regression => CellVerdict::Regressed,
                        };
                        (verdict, diff.speedup())
                    }
                },
            };
            MatrixCell {
                coord: *coord,
                file: plan.file_name(coord),
                bytes: r.trace.as_ref().map_or(0, Vec::len),
                fault_rows: r.fault_rows,
                verdict,
                speedup,
                outcome: r.outcome.clone(),
                attempts: r.attempts,
                flaky: r.flaky,
            }
        })
        .collect();
    let run = MatrixRun {
        plan: plan.clone(),
        cells,
    };
    if let Some(dir) = out_dir {
        write_atomic(&dir.join("summary.txt"), run.render().as_bytes())?;
        write_atomic(&dir.join("summary.json"), run.to_json().as_bytes())?;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(extra: &str) -> CampaignSpec {
        CampaignSpec::parse(&format!(
            "[campaign]\nname = \"tiny\"\nthreshold = 25\n\
             [matrix]\nworkloads = [\"ecall_storm\", \"io_fsync_loop\"]\n\
             profiles = [\"unpatched\"]\nseeds = [1, 2]\n{extra}"
        ))
        .expect("test spec")
    }

    #[test]
    fn unknown_workloads_are_rejected_at_resolution() {
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"x\"\n[matrix]\nworkloads = [\"frobnicate\"]\n\
             profiles = [\"unpatched\"]\nseeds = [1]\n",
        )
        .unwrap();
        let e = MatrixPlan::from_spec(spec).unwrap_err();
        assert!(e.contains("unknown workload `frobnicate`"), "{e}");
        assert!(e.contains("epc_thrash"), "must list known names: {e}");
    }

    #[test]
    fn switchless_axis_is_stressor_only() {
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"x\"\n[matrix]\nworkloads = [\"antipatterns\"]\n\
             profiles = [\"unpatched\"]\nswitchless = [\"off\", \"on:1\"]\nseeds = [1]\n",
        )
        .unwrap();
        let e = MatrixPlan::from_spec(spec).unwrap_err();
        assert!(e.contains("does not take the switchless axis"), "{e}");
    }

    #[test]
    fn matrix_runs_verdict_and_stay_byte_stable() {
        let plan = MatrixPlan::from_spec(tiny_spec("")).unwrap();
        let a = run(&plan, Engine::Fast, 1, None, false).unwrap();
        let b = run(&plan, Engine::Fast, 4, None, false).unwrap();
        assert_eq!(a.cells.len(), 4);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.exit_code(), 0, "{}", a.render());
        // One baseline per (workload, profile, switchless) group.
        let baselines = a
            .cells
            .iter()
            .filter(|c| c.verdict == CellVerdict::Baseline)
            .count();
        assert_eq!(baselines, 2);
    }

    #[test]
    fn heavy_plans_trip_the_gate() {
        let plan = MatrixPlan::from_spec(tiny_spec(
            "[faults]\nnone = \"\"\n\
             storm = \"seed=3;ocall-timeout@call=2:delay=60us,times=3;aex-storm@call=12:count=6\"\n",
        ))
        .unwrap();
        let run = run(&plan, Engine::Fast, 0, None, false).unwrap();
        assert_eq!(run.cells.len(), 8);
        assert!(run.regressed() > 0, "{}", run.render());
        assert_eq!(run.exit_code(), REGRESSION_EXIT_CODE);
        // The render reflects the gate.
        assert!(run.render().contains("REGRESSED"), "{}", run.render());
    }

    #[test]
    fn archives_land_at_deterministic_paths() {
        let dir = std::env::temp_dir().join(format!("sgxperf-matrix-{}", std::process::id()));
        let plan = MatrixPlan::from_spec(tiny_spec("")).unwrap();
        let run = run(&plan, Engine::Fast, 2, Some(&dir), false).unwrap();
        for cell in &run.cells {
            let path = dir.join(&cell.file);
            let bytes = std::fs::read(&path).expect("archived trace");
            assert_eq!(bytes.len(), cell.bytes, "{}", path.display());
        }
        assert_eq!(
            std::fs::read_to_string(dir.join("summary.txt")).unwrap(),
            run.render()
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("summary.json")).unwrap(),
            run.to_json()
        );
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        let (checksum, entries) = parse_manifest(&manifest).expect("manifest parses");
        assert_eq!(checksum, fnv1a(plan.spec.to_string().as_bytes()));
        assert_eq!(entries.len(), run.cells.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn fixture_spec(workloads: &str, robustness: &str) -> MatrixPlan {
        let spec = CampaignSpec::parse(&format!(
            "[campaign]\nname = \"fixture\"\nthreshold = 25\n\
             [matrix]\nworkloads = [{workloads}]\n\
             profiles = [\"unpatched\"]\nseeds = [1]\n\
             [robustness]\n{robustness}"
        ))
        .expect("fixture spec");
        MatrixPlan::from_spec(spec).expect("fixture plan")
    }

    #[test]
    fn poisoned_cells_leave_siblings_intact() {
        let plan = fixture_spec("\"ecall_storm\", \"panicking\"", "retries = 0\n");
        let run = run(&plan, Engine::Fast, 2, None, false).unwrap();
        assert_eq!(run.cells.len(), 2);
        let healthy = &run.cells[0];
        assert_eq!(healthy.outcome, CellOutcome::Ok);
        assert_eq!(healthy.verdict, CellVerdict::Baseline);
        assert!(healthy.bytes > 0);
        let poisoned = &run.cells[1];
        assert_eq!(poisoned.verdict, CellVerdict::Failed);
        assert!(
            matches!(poisoned.outcome, CellOutcome::Panicked(_)),
            "{:?}",
            poisoned.outcome
        );
        assert!(poisoned
            .outcome
            .detail()
            .contains(stressors::PANICKING_FIXTURE_MSG));
        assert_eq!(run.exit_code(), INCOMPLETE_EXIT_CODE);
        let text = run.render();
        assert!(text.contains("quarantine:"), "{text}");
        assert!(text.contains("broken"), "{text}");
    }

    #[test]
    fn flaky_cells_recover_on_retry_and_land_in_the_ledger() {
        let plan = fixture_spec("\"flaky\"", "retries = 2\n");
        let run = run(&plan, Engine::Fast, 1, None, false).unwrap();
        let c = &run.cells[0];
        assert_eq!(c.outcome, CellOutcome::Ok);
        assert!(c.flaky);
        assert_eq!(c.attempts, 2, "flaky fixture passes on its second try");
        assert_eq!(c.verdict, CellVerdict::Baseline);
        assert_eq!(run.exit_code(), 0, "flaky alone is not incomplete");
        let text = run.render();
        assert!(text.contains("flaky"), "{text}");
        assert!(text.contains("passed on attempt 2"), "{text}");
    }

    #[test]
    fn hanging_cells_time_out_deterministically_under_the_event_budget() {
        let plan = fixture_spec("\"hanging\"", "retries = 0\nevent_budget = 2000\n");
        let a = run(&plan, Engine::Fast, 1, None, false).unwrap();
        let c = &a.cells[0];
        assert!(
            matches!(c.outcome, CellOutcome::TimedOut(_)),
            "{:?}",
            c.outcome
        );
        assert!(c.outcome.detail().contains(EVENT_BUDGET_EXHAUSTED));
        assert_eq!(a.exit_code(), INCOMPLETE_EXIT_CODE);
        // The virtual kill is deterministic: a second run renders the
        // same bytes.
        let b = run(&plan, Engine::Fast, 1, None, false).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn resume_reruns_only_missing_or_corrupt_cells_byte_identically() {
        let dir = std::env::temp_dir().join(format!("sgxperf-resume-{}", std::process::id()));
        // The faulted spec salvages cells with fault rows: their counts
        // come from the resume check's decode, not from a re-run.
        for extra in [
            "",
            "[faults]\nnone = \"\"\nlight = \"seed=9;ocall-fail@call=3:times=1\"\n",
        ] {
            std::fs::remove_dir_all(&dir).ok();
            let plan = MatrixPlan::from_spec(tiny_spec(extra)).unwrap();
            let full = run(&plan, Engine::Fast, 2, Some(&dir), false).unwrap();
            // Fabricate an interrupted run: one trace missing, one corrupt.
            std::fs::remove_file(dir.join(&full.cells[1].file)).unwrap();
            std::fs::write(dir.join(&full.cells[2].file), b"garbage").unwrap();
            let resumed = run(&plan, Engine::Fast, 2, Some(&dir), true).unwrap();
            assert_eq!(resumed.render(), full.render());
            assert_eq!(resumed.to_json(), full.to_json());
            for cell in &resumed.cells {
                let bytes = std::fs::read(dir.join(&cell.file)).expect("restored trace");
                assert_eq!(bytes.len(), cell.bytes, "{}", cell.file);
            }
            let salvaged_faults = resumed
                .cells
                .iter()
                .enumerate()
                .any(|(i, c)| ![1, 2].contains(&i) && c.fault_rows > 0);
            assert_eq!(salvaged_faults, !extra.is_empty(), "{}", full.render());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_foreign_output_dir() {
        let dir = std::env::temp_dir().join(format!("sgxperf-foreign-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let plan = MatrixPlan::from_spec(tiny_spec("")).unwrap();
        run(&plan, Engine::Fast, 2, Some(&dir), false).unwrap();
        let other = MatrixPlan::from_spec(tiny_spec(
            "[faults]\nnone = \"\"\nlight = \"seed=9;ocall-fail@call=3:times=1\"\n",
        ))
        .unwrap();
        let e = run(&other, Engine::Fast, 2, Some(&dir), true).unwrap_err();
        assert!(e.contains("different spec"), "{e}");
        let e = run(&plan, Engine::Fast, 2, None, true).unwrap_err();
        assert!(e.contains("output directory"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_round_trips_through_its_parser() {
        let entries = vec![
            ManifestEntry {
                index: 0,
                file: "a.evdb".to_string(),
                outcome: CellOutcome::Ok,
                attempts: 1,
                flaky: false,
                bytes: 42,
                checksum: 0xdead_beef,
            },
            ManifestEntry {
                index: 3,
                file: "b.evdb".to_string(),
                outcome: CellOutcome::Panicked("tab\there \"quote\" \\ back\nline".to_string()),
                attempts: 3,
                flaky: false,
                bytes: 0,
                checksum: 0,
            },
        ];
        let text = render_manifest(7, &entries);
        let (checksum, parsed) = parse_manifest(&text).expect("round trip");
        assert_eq!(checksum, 7);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].index, 0);
        assert_eq!(parsed[0].checksum, 0xdead_beef);
        assert_eq!(parsed[1].outcome, entries[1].outcome);
        assert_eq!(parsed[1].attempts, 3);
    }

    #[test]
    fn effective_plans_fold_the_seed_but_keep_empty_plans_invisible() {
        let plan = MatrixPlan::from_spec(tiny_spec(
            "[faults]\nnone = \"\"\nlight = \"seed=9;ocall-fail@call=3:times=1\"\n",
        ))
        .unwrap();
        let cells = plan.cells();
        let empty = cells
            .iter()
            .find(|c| plan.spec.plans[c.plan].0 == "none")
            .unwrap();
        assert_eq!(plan.effective_plan(empty), None);
        let seeded: Vec<&CellCoord> = cells
            .iter()
            .filter(|c| plan.spec.plans[c.plan].0 == "light")
            .collect();
        let p1 = plan.effective_plan(seeded[0]).unwrap();
        let p2 = plan.effective_plan(seeded[1]).unwrap();
        assert_eq!(p1.seed, 9 ^ seeded[0].seed);
        assert_eq!(p1.faults, p2.faults, "only the jitter seed varies");
    }
}
