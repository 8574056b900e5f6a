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
//! * **Crash safety** — traces and summaries are written atomically (tmp
//!   file + rename). The resume journal `manifest.evsg` is an eventdb
//!   segmented recording: a spec frame, then one CRC-checked frame per
//!   finished cell, appended as the cell finishes and rewritten once in
//!   index order at the end of the run. [`run`] with `resume` walks the
//!   journal up to its first torn or bad frame, validates archived traces
//!   against it and re-runs only missing or corrupt cells, producing an
//!   archive byte-identical to an uninterrupted run.
//! * **Exit contract** — 0 clean, [`REGRESSION_EXIT_CODE`] (3) when the
//!   gate trips, [`INCOMPLETE_EXIT_CODE`] (4) when any cell is broken or
//!   unverdictable (incomplete beats regressed: a gate over missing
//!   cells is not trustworthy).

use std::collections::HashMap;
use std::fs::File;
use std::io::BufWriter;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use eventdb::{DbError, Decoder, Encoder, Frames, Record, SegmentedWriter, Table};
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

/// FNV-1a 64 over a byte slice — the journal's trace and spec checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
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

/// The resume journal in an output directory. Not `*.evdb`: that
/// extension marks the cell traces.
const JOURNAL: &str = "manifest.evsg";

/// The journal's first frame: the FNV-1a checksum of the canonical spec
/// that produced the archive.
struct SpecRow(u64);

impl Record for SpecRow {
    const TAG: &'static str = "spec";

    fn encode(&self, out: &mut Encoder) {
        out.u64(self.0);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DbError> {
        Ok(SpecRow(r.u64()?))
    }
}

/// One journal row: a completed cell with enough information to
/// revalidate its archived trace on resume.
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

impl ManifestEntry {
    fn new(plan: &MatrixPlan, coord: &CellCoord, r: &CellResult) -> ManifestEntry {
        ManifestEntry {
            index: coord.index,
            file: plan.file_name(coord),
            outcome: r.outcome.clone(),
            attempts: r.attempts,
            flaky: r.flaky,
            bytes: r.trace.as_ref().map_or(0, Vec::len),
            checksum: r.checksum,
        }
    }
}

impl Record for ManifestEntry {
    const TAG: &'static str = "cell";

    fn encode(&self, out: &mut Encoder) {
        out.usize(self.index);
        out.str(&self.file);
        out.u8(match self.outcome {
            CellOutcome::Ok => 0,
            CellOutcome::Panicked(_) => 1,
            CellOutcome::TimedOut(_) => 2,
            CellOutcome::IoError(_) => 3,
        });
        out.str(self.outcome.detail());
        out.u32(self.attempts);
        out.bool(self.flaky);
        out.usize(self.bytes);
        out.u64(self.checksum);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DbError> {
        let index = r.usize()?;
        let file = r.str()?;
        let kind = r.u8()?;
        let detail = r.str()?;
        let outcome = match kind {
            0 => CellOutcome::Ok,
            1 => CellOutcome::Panicked(detail),
            2 => CellOutcome::TimedOut(detail),
            3 => CellOutcome::IoError(detail),
            k => return Err(DbError::Corrupt(format!("unknown cell outcome {k}"))),
        };
        Ok(ManifestEntry {
            index,
            file,
            outcome,
            attempts: r.u32()?,
            flaky: r.bool()?,
            bytes: r.usize()?,
            checksum: r.u64()?,
        })
    }
}

/// The journal's writer. Each append flushes its frame with one write.
type Journal = SegmentedWriter<BufWriter<File>>;

/// Writes a fresh journal under `dir` (the spec frame, then one frame per
/// finished cell in index order) by tmp file and rename, and returns its
/// writer, still open on the renamed file, so later cells append to it.
fn write_journal(
    dir: &Path,
    spec_checksum: u64,
    plan: &MatrixPlan,
    cells: &[CellCoord],
    slots: &[Option<CellResult>],
) -> Result<Journal, String> {
    let path = dir.join(JOURNAL);
    let tmp = dir.join(format!("{JOURNAL}.tmp"));
    let write = || -> Result<Journal, DbError> {
        let mut journal = SegmentedWriter::new(BufWriter::new(File::create(&tmp)?))?;
        journal.append(&Table::from_iter([SpecRow(spec_checksum)]))?;
        for (coord, r) in cells.iter().zip(slots) {
            if let Some(r) = r {
                journal.append(&Table::from_iter([ManifestEntry::new(plan, coord, r)]))?;
            }
        }
        std::fs::rename(&tmp, &path)?;
        Ok(journal)
    };
    write().map_err(|e| format!("write {}: {e}", path.display()))
}

/// The supervised result of one cell, after all attempts.
#[derive(Debug)]
struct CellResult {
    outcome: CellOutcome,
    trace: Option<Vec<u8>>,
    /// Fault rows in the trace: read from the section's row-count prefix
    /// by the worker, or counted by the resume check's decode, so the
    /// serial verdict phase never decodes a trace just to count them.
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

/// Salvages completed cells from an interrupted run's journal. The walk
/// stops at the first torn or CRC-bad frame, and a later entry for a
/// cell replaces an earlier one. `Ok` entries are revalidated against the
/// archived bytes (existence, length, checksum, parseability); failed
/// entries are reused verbatim — their retries are already spent, and
/// reuse keeps the resumed summary byte-identical. Anything missing or
/// corrupt is simply left to re-run.
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
    let Ok(data) = std::fs::read(dir.join(JOURNAL)) else {
        return Ok(()); // no journal — nothing to salvage
    };
    let Ok(mut frames) = Frames::new(&data) else {
        return Ok(()); // corrupt header — re-run everything
    };
    let Some(Ok(spec)) = frames.next().map(|f| f.get::<SpecRow>()) else {
        return Ok(()); // no intact spec frame — re-run everything
    };
    let Some(&SpecRow(recorded)) = spec.iter().next() else {
        return Ok(());
    };
    if recorded != spec_checksum {
        return Err(format!(
            "resume: output dir {} was produced by a different spec \
             (journal checksum {recorded:016x}, spec {spec_checksum:016x})",
            dir.display(),
        ));
    }
    let mut latest: Vec<Option<ManifestEntry>> = vec![None; cells.len()];
    for frame in frames {
        let Ok(rows) = frame.get::<ManifestEntry>() else {
            break;
        };
        for e in rows.iter() {
            if let Some(slot) = latest.get_mut(e.index) {
                *slot = Some(e.clone());
            }
        }
    }
    for e in latest.into_iter().flatten() {
        if plan.file_name(&cells[e.index]) != e.file {
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
/// trace per cell plus the `manifest.evsg` resume journal under `out_dir`
/// (if given), then verdicts every cell against its declared baseline
/// through the diff engine at the spec's threshold.
///
/// With `resume`, cells already completed by an interrupted run (per the
/// journal) are revalidated and reused instead of re-run; the resulting
/// archive and summaries are byte-identical to an uninterrupted run.
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
    // The journal starts with the spec and the salvaged cells; each cell
    // finished below appends its own frame.
    let journal = out_dir
        .map(|dir| write_journal(dir, spec_checksum, plan, &cells, &salvaged))
        .transpose()?;
    let reused = salvaged.iter().filter(|r| r.is_some()).count();
    // Workers run cells under `catch_unwind`, so none panics holding it.
    const POISONED: &str = "campaign worker panicked holding the results lock";
    let next = AtomicUsize::new(0);
    let state = Mutex::new((salvaged, journal));
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(cells.len()).max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(coord) = cells.get(index) else {
                    break;
                };
                if state.lock().expect(POISONED).0[index].is_some() {
                    continue; // salvaged from the interrupted run
                }
                let result = execute_cell(plan, engine, coord, out_dir);
                let mut state = state.lock().expect(POISONED);
                let (slots, journal) = &mut *state;
                if let Some(journal) = journal {
                    // A failed append is not fatal: only resumability
                    // degrades, and the cell re-runs on resume.
                    let entry = ManifestEntry::new(plan, coord, &result);
                    let _ = journal.append(&Table::from_iter([entry]));
                }
                slots[index] = Some(result);
            });
        }
    });
    let (slots, _) = state.into_inner().expect(POISONED);
    if let Some(dir) = out_dir.filter(|_| reused < cells.len()) {
        // Rewritten once in index order, so the archive's journal does not
        // depend on which cells finished first, or in which run. When every
        // cell was salvaged, the journal written above already is that.
        write_journal(dir, spec_checksum, plan, &cells, &slots)?;
    }
    let results: Vec<CellResult> = slots
        .into_iter()
        .map(|r| r.expect("every cell visited"))
        .collect();

    let diff_config = DiffConfig {
        threshold: f64::from(plan.spec.threshold_pct) / 100.0,
        ..DiffConfig::default()
    };
    // Each baseline is decoded once, by the first cell of its group that
    // needs it, and shared by the rest of the group.
    let mut baselines: HashMap<usize, TraceDb> = HashMap::new();
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
                        let a = baselines
                            .entry(coord.baseline)
                            .or_insert_with(|| TraceDb::from_bytes(base).expect("baseline trace"));
                        let b = TraceDb::from_bytes(bytes).expect("cell trace");
                        let diff = TraceDiff::compute(a, &b, diff_config);
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
    use eventdb::ScratchDir;
    use std::collections::BTreeMap;

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
        let scratch = ScratchDir::new("sgxperf-matrix");
        let dir = scratch.path();
        let plan = MatrixPlan::from_spec(tiny_spec("")).unwrap();
        let run = run(&plan, Engine::Fast, 2, Some(dir), false).unwrap();
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
        let journal = std::fs::read(dir.join(JOURNAL)).unwrap();
        let mut frames = Frames::new(&journal).expect("journal header");
        let spec = frames.next().expect("spec frame").get::<SpecRow>().unwrap();
        assert_eq!(spec.len(), 1);
        assert_eq!(
            spec.iter().next().unwrap().0,
            fnv1a(plan.spec.to_string().as_bytes())
        );
        let entries: Vec<ManifestEntry> = frames
            .by_ref()
            .map(|f| {
                let rows = f.get::<ManifestEntry>().expect("cell frame");
                assert_eq!(rows.len(), 1, "one entry per frame");
                rows.iter().next().unwrap().clone()
            })
            .collect();
        assert_eq!(frames.offset(), journal.len(), "no torn tail");
        assert_eq!(entries.len(), run.cells.len());
        for (e, cell) in entries.iter().zip(&run.cells) {
            assert_eq!((e.index, &e.file), (cell.coord.index, &cell.file));
            let bytes = std::fs::read(dir.join(&e.file)).unwrap();
            assert_eq!((e.bytes, e.checksum), (bytes.len(), fnv1a(&bytes)));
        }
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
        // The faulted spec salvages cells with fault rows: their counts
        // come from the resume check's decode, not from a re-run.
        for extra in [
            "",
            "[faults]\nnone = \"\"\nlight = \"seed=9;ocall-fail@call=3:times=1\"\n",
        ] {
            let scratch = ScratchDir::new("sgxperf-resume");
            let dir = scratch.path();
            let plan = MatrixPlan::from_spec(tiny_spec(extra)).unwrap();
            let full = run(&plan, Engine::Fast, 2, Some(dir), false).unwrap();
            // Fabricate an interrupted run: one trace missing, one corrupt.
            std::fs::remove_file(dir.join(&full.cells[1].file)).unwrap();
            std::fs::write(dir.join(&full.cells[2].file), b"garbage").unwrap();
            let resumed = run(&plan, Engine::Fast, 2, Some(dir), true).unwrap();
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
    }

    #[test]
    fn resume_rejects_a_foreign_output_dir() {
        let scratch = ScratchDir::new("sgxperf-foreign");
        let dir = scratch.path();
        let plan = MatrixPlan::from_spec(tiny_spec("")).unwrap();
        run(&plan, Engine::Fast, 2, Some(dir), false).unwrap();
        let other = MatrixPlan::from_spec(tiny_spec(
            "[faults]\nnone = \"\"\nlight = \"seed=9;ocall-fail@call=3:times=1\"\n",
        ))
        .unwrap();
        let e = run(&other, Engine::Fast, 2, Some(dir), true).unwrap_err();
        assert!(e.contains("different spec"), "{e}");
        let e = run(&plan, Engine::Fast, 2, None, true).unwrap_err();
        assert!(e.contains("output directory"), "{e}");
    }

    /// Every file in `dir` by name, with its bytes.
    fn archive(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().into_string().unwrap();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect()
    }

    #[cfg(unix)]
    fn inode(path: &Path) -> Option<u64> {
        use std::os::unix::fs::MetadataExt;
        std::fs::metadata(path).ok().map(|m| m.ino())
    }

    /// Cuts the journal at every frame boundary and one byte either side,
    /// and flips each of its bytes in turn. Every damaged journal resumes
    /// without error, re-runs exactly the cells whose frames or traces
    /// were lost (a re-run trace is a new file, so it has a new inode),
    /// and leaves the uninterrupted archive byte for byte.
    #[cfg(unix)]
    #[test]
    fn a_cut_or_flipped_journal_resumes_to_the_uninterrupted_archive() {
        let scratch = ScratchDir::new("sgxperf-journal");
        let dir = scratch.path();
        // The panicking cell sits between two healthy ones, so a salvaged
        // failure detail is followed by more frames.
        let plan = fixture_spec(
            "\"ecall_storm\", \"panicking\", \"io_fsync_loop\"",
            "retries = 0\n",
        );
        let full = run(&plan, Engine::Fast, 1, Some(dir), false).unwrap();
        let clean = archive(dir);
        let journal = clean[JOURNAL].clone();
        let mut frames = Frames::new(&journal).unwrap();
        let mut ends = vec![frames.offset()];
        while frames.next().is_some() {
            ends.push(frames.offset());
        }
        assert_eq!(
            ends.len(),
            2 + full.cells.len(),
            "header, spec, one per cell"
        );
        assert_eq!(ends.last(), Some(&journal.len()));

        // `damaged` keeps the frames that end at or before `intact_to`:
        // frame 0 is the spec, frame k + 1 is cell k.
        let check = |damaged: &[u8], intact_to: usize, what: &str| {
            std::fs::write(dir.join(JOURNAL), damaged).unwrap();
            let before: Vec<_> = full
                .cells
                .iter()
                .map(|c| inode(&dir.join(&c.file)))
                .collect();
            run(&plan, Engine::Fast, 1, Some(dir), true)
                .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
            assert!(archive(dir) == clean, "{what}: archive differs");
            let intact = ends[1..].iter().filter(|&&end| end <= intact_to).count();
            for (cell, before) in full.cells.iter().zip(before) {
                if cell.outcome != CellOutcome::Ok {
                    continue; // no trace, so no inode to watch
                }
                let rerun = inode(&dir.join(&cell.file)) != before;
                let lost = before.is_none() || cell.coord.index + 1 >= intact;
                assert_eq!(rerun, lost, "{what}: cell {}", cell.coord.index);
            }
        };
        for &end in &ends {
            for cut in [end.saturating_sub(1), end, end + 1] {
                let cut = cut.min(journal.len());
                check(&journal[..cut], cut, &format!("cut at {cut}"));
            }
        }
        for at in 0..journal.len() {
            let mut flipped = journal.clone();
            flipped[at] ^= 0xff;
            check(&flipped, at, &format!("byte {at} flipped"));
        }
        // A lost trace under an intact journal re-runs only its cell, whose
        // frame is appended last; the journal still ends in cell order.
        std::fs::remove_file(dir.join(&full.cells[0].file)).unwrap();
        check(&journal, journal.len(), "first trace deleted");
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
