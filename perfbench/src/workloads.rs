//! The four benchmark workloads. Each one turns the run's seed into the
//! program's inputs ([`setup`]) and then runs the user's pipeline once per
//! [`pass`]: record → save → report → diff, with its output checks.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

use sgx_perf::analysis::diff::Verdict;
use sgx_perf::{Logger, LoggerConfig, TraceDb};
use sgx_sdk::SwitchlessConfig;
use sim_core::campaign::CampaignSpec;
use sim_core::fault::FaultPlan;
use sim_core::HwProfile;
use sim_threads::Engine;
use workloads::campaign::matrix::{self, MatrixPlan};
use workloads::fleet::{self, FleetRunConfig};
use workloads::talos::{self, TalosConfig};
use workloads::{switchless_loop, Harness};

use crate::measure::Checks;
use crate::pipeline::{self, WorkCounts};
use crate::spans::Tracer;

/// The benchmark-owned copy of the stressor campaign spec.
const STRESSORS_SPEC: &str = include_str!("../stressors.toml");

/// The diff verdict of the fleet's clean → chaos pair at the measured
/// sizes: 50 enclave losses in 10,000 requests stay inside the diff's
/// default gates.
const FLEET_CHAOS_VERDICT: Verdict = Verdict::Neutral;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TaLoS/nginx (§5.2.1), recorded on two hardware profiles.
    Talos,
    /// The detect → apply → re-measure switchless loop.
    SwitchlessLoop,
    /// The 1000-slot enclave fleet, clean and under chaos.
    Fleet,
    /// The stressor campaign matrix, archived and resumed.
    Campaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Talos,
        Workload::SwitchlessLoop,
        Workload::Fleet,
        Workload::Campaign,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Talos => "talos",
            Workload::SwitchlessLoop => "switchless_loop",
            Workload::Fleet => "fleet",
            Workload::Campaign => "campaign",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes. [`Sizes::full`] is what the benchmark measures; the
/// guard values in `guards.tsv` hold for it only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// HTTPS requests per TaLoS trace.
    pub talos_requests: u64,
    /// Requests per switchless-loop trace.
    pub switchless_requests: u64,
    /// Fleet slots (one enclave each).
    pub fleet_slots: usize,
    /// Fleet requests per trace.
    pub fleet_requests: u64,
    /// Fleet live pool.
    pub fleet_live_pool: usize,
    /// Campaign seeds (48 cells each).
    pub campaign_seeds: u64,
}

impl Sizes {
    /// The measured sizes.
    #[must_use]
    pub fn full() -> Sizes {
        Sizes {
            talos_requests: 2_000,
            switchless_requests: 50_000,
            fleet_slots: 1_000,
            fleet_requests: 10_000,
            fleet_live_pool: 64,
            campaign_seeds: 8,
        }
    }

    /// About a tenth of `self`: the warm-up pass of set-up.
    #[must_use]
    pub fn warm_up(&self) -> Sizes {
        Sizes {
            talos_requests: (self.talos_requests / 10).max(1),
            switchless_requests: (self.switchless_requests / 10).max(1),
            fleet_slots: (self.fleet_slots / 10).max(2),
            fleet_requests: (self.fleet_requests / 10).max(1),
            fleet_live_pool: (self.fleet_live_pool / 10).max(2),
            campaign_seeds: 1,
        }
    }

    /// Sizes for tests and quick looks.
    #[must_use]
    pub fn tiny() -> Sizes {
        Sizes {
            talos_requests: 50,
            switchless_requests: 200,
            fleet_slots: 32,
            fleet_requests: 600,
            fleet_live_pool: 8,
            campaign_seeds: 1,
        }
    }
}

/// SplitMix64: turns the run seed into independent per-input seeds.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The program inputs generated from the seed.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// One TaLoS configuration, recorded on two profiles.
    Talos(TalosConfig),
    /// The switchless server's request count (it takes no seed).
    SwitchlessLoop(u64),
    /// The fleet scenario, its chaos plan and, at the measured sizes, the
    /// verdict the clean → chaos diff must give.
    Fleet(FleetRunConfig, FaultPlan, Option<Verdict>),
    /// The resolved campaign.
    Campaign(MatrixPlan),
}

/// Turns `seed` into the workload's inputs at `sizes` (spec parse and
/// configuration; the set-up phase).
///
/// # Panics
///
/// Panics if the benchmark's campaign spec does not parse.
#[must_use]
pub fn setup(wl: Workload, seed: u64, sizes: &Sizes) -> Inputs {
    match wl {
        Workload::Talos => Inputs::Talos(TalosConfig {
            requests: sizes.talos_requests,
            seed: mix(seed, 1),
            ..TalosConfig::default()
        }),
        Workload::SwitchlessLoop => Inputs::SwitchlessLoop(sizes.switchless_requests),
        Workload::Fleet => {
            let cfg = FleetRunConfig {
                slots: sizes.fleet_slots,
                requests: sizes.fleet_requests,
                seed: mix(seed, 2),
                policy: sgx_fleet::FleetPolicy {
                    live_pool: sizes.fleet_live_pool,
                    ..sgx_fleet::FleetPolicy::default()
                },
                ..FleetRunConfig::full()
            };
            let plan = fleet::chaos_plan(&cfg);
            let verdict = (*sizes == Sizes::full()).then_some(FLEET_CHAOS_VERDICT);
            Inputs::Fleet(cfg, plan, verdict)
        }
        Workload::Campaign => Inputs::Campaign(campaign_plan(seed, sizes.campaign_seeds)),
    }
}

/// The benchmark's stressor spec with `count` seeds derived from `seed`;
/// the first one is the baseline seed.
///
/// # Panics
///
/// Panics if the spec does not parse or resolve.
#[must_use]
pub(crate) fn campaign_plan(seed: u64, count: u64) -> MatrixPlan {
    let first = (seed % 1_000_000) * 1_000 + 1;
    let seeds: Vec<String> = (first..first + count).map(|s| s.to_string()).collect();
    let text: String = STRESSORS_SPEC
        .lines()
        .map(|line| {
            if line.starts_with("seeds = ") {
                format!("seeds = [{}]\n", seeds.join(", "))
            } else if line.starts_with("seed = ") {
                format!("seed = {first}\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    let spec = CampaignSpec::parse(&text).expect("benchmark campaign spec parses");
    MatrixPlan::from_spec(spec).expect("benchmark campaign spec resolves")
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds to record every trace until it is on disk.
    pub record_s: f64,
    /// Host seconds of the report path.
    pub report_s: f64,
    /// Host seconds of the diff path.
    pub diff_s: f64,
    /// Simulations taken through the pipeline per host second.
    pub cells_per_s: f64,
    /// Whether each trace must re-encode to its own bytes.
    pub roundtrip: bool,
    /// Every trace written.
    pub traces: Vec<PathBuf>,
    /// Traces the report path ran on, with the profile it assumed.
    pub reported: Vec<(PathBuf, HwProfile)>,
    /// Trace pairs the diff path ran on.
    pub diffed: Vec<(PathBuf, PathBuf)>,
    /// The verdict of each diff, in `diffed` order.
    pub verdicts: Vec<Verdict>,
}

/// Runs one pass of `inputs` into the empty directory `dir`, recording
/// its output checks in `checks`.
pub fn pass(inputs: &Inputs, dir: &Path, tr: &Tracer, checks: &mut Checks) -> Pass {
    match inputs {
        Inputs::Talos(cfg) => talos_pass(cfg, dir, tr),
        Inputs::SwitchlessLoop(requests) => switchless_pass(*requests, dir, tr, checks),
        Inputs::Fleet(cfg, plan, verdict) => fleet_pass(cfg, plan, *verdict, dir, tr, checks),
        Inputs::Campaign(plan) => campaign_pass(plan, dir, tr, checks),
    }
}

fn talos_pass(cfg: &TalosConfig, dir: &Path, tr: &Tracer) -> Pass {
    let profiles = [
        ("unpatched", HwProfile::Unpatched),
        ("l1tf", HwProfile::Foreshadow),
    ];
    let (traces, record_s) = tr.phase("record", || {
        profiles.map(|(label, profile)| {
            let harness = Harness::new(profile);
            let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
            tr.span("workload.run", cfg.requests, || {
                talos::run(&harness, cfg).expect("talos run");
            });
            let path = dir.join(format!("talos-{label}.evdb"));
            pipeline::finish_and_save(tr, &logger, &path);
            path
        })
    });
    let ((), report_s) = tr.phase("report", || {
        pipeline::report(tr, &traces[0], HwProfile::Unpatched);
    });
    let (diff, diff_s) = tr.phase("diff", || pipeline::diff(tr, &traces[0], &traces[1]));
    finish_pass(
        true,
        [record_s, report_s, diff_s],
        traces.to_vec(),
        vec![(traces[0].clone(), HwProfile::Unpatched)],
        vec![(traces[0].clone(), traces[1].clone())],
        vec![diff.verdict],
    )
}

fn switchless_pass(requests: u64, dir: &Path, tr: &Tracer, checks: &mut Checks) -> Pass {
    let profile = HwProfile::Unpatched;
    let before_path = dir.join("switchless-before.evdb");
    let after_path = dir.join("switchless-after.evdb");
    let record = |path: &Path, config: Option<SwitchlessConfig>| {
        let harness = Harness::new(profile);
        let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
        let run = tr.span("workload.run", requests, || {
            switchless_loop::run(&harness, requests, config).expect("switchless loop run")
        });
        pipeline::finish_and_save(tr, &logger, path);
        run
    };
    let (before, record_before_s) = tr.phase("record", || record(&before_path, None));
    let (report, report_s) = tr.phase("report", || pipeline::report(tr, &before_path, profile));
    let (ecalls, ocalls) = pipeline::switchless_targets(&report);
    checks.equal(
        "switchless targets",
        ocalls.as_slice(),
        ["ocall_log".to_string()].as_slice(),
    );
    let config = SwitchlessConfig {
        untrusted_workers: 1,
        trusted_workers: usize::from(!ecalls.is_empty()),
        force_ecalls: ecalls,
        force_ocalls: ocalls,
        ..SwitchlessConfig::default()
    };
    let (after, record_after_s) = tr.phase("record", || record(&after_path, Some(config)));
    let (diff, diff_s) = tr.phase("diff", || pipeline::diff(tr, &before_path, &after_path));
    checks.equal("switchless checksum", before.checksum, after.checksum);
    let (a, b) = (diff.totals.transitions.a, diff.totals.transitions.b);
    checks.check(b < a, || format!("transitions did not drop: {a} -> {b}"));
    finish_pass(
        false,
        [record_before_s + record_after_s, report_s, diff_s],
        vec![before_path.clone(), after_path.clone()],
        vec![(before_path.clone(), profile)],
        vec![(before_path, after_path)],
        vec![diff.verdict],
    )
}

fn fleet_pass(
    cfg: &FleetRunConfig,
    plan: &FaultPlan,
    verdict: Option<Verdict>,
    dir: &Path,
    tr: &Tracer,
    checks: &mut Checks,
) -> Pass {
    let profile = HwProfile::Unpatched;
    let runs = [("clean", None), ("chaos", Some(plan))];
    let (recorded, record_s) = tr.phase("record", || {
        runs.map(|(label, plan)| {
            let run = tr.span("workload.run", cfg.requests, || {
                fleet::run(profile, cfg, plan).expect("fleet run")
            });
            let path = dir.join(format!("fleet-{label}.evdb"));
            pipeline::save(tr, &run.trace, &path);
            (path, run.aggregate)
        })
    });
    for (_, agg) in &recorded {
        checks.equal(
            "fleet completed + failed + shed",
            agg.completed + agg.failed + agg.shed,
            cfg.requests,
        );
    }
    let [(clean, _), (chaos, _)] = recorded;
    let ((), report_s) = tr.phase("report", || {
        pipeline::report(tr, &clean, profile);
    });
    let (diff, diff_s) = tr.phase("diff", || pipeline::diff(tr, &clean, &chaos));
    if let Some(expected) = verdict {
        checks.equal("fleet clean -> chaos verdict", diff.verdict, expected);
    }
    finish_pass(
        true,
        [record_s, report_s, diff_s],
        vec![clean.clone(), chaos.clone()],
        vec![(clean.clone(), profile)],
        vec![(clean, chaos)],
        vec![diff.verdict],
    )
}

/// (inode, length) of every file in `dir`: a rewritten file (atomic
/// tmp + rename) gets a new inode.
fn file_identities(dir: &Path) -> BTreeMap<String, (u64, u64)> {
    std::fs::read_dir(dir)
        .expect("list campaign archive")
        .map(|e| {
            let e = e.expect("archive entry");
            let meta = e.metadata().expect("stat archive entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                (meta.ino(), meta.len()),
            )
        })
        .collect()
}

fn campaign_pass(plan: &MatrixPlan, dir: &Path, tr: &Tracer, checks: &mut Checks) -> Pass {
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let engine = Engine::current();
    // Timed in memory: every cell simulated and verdicted. Writing the
    // archive is timed by the layer ledger (`campaign.archive_s`) only, as
    // the latency of the disk under it varies too much between runs.
    let (run, record_s) = tr.phase("record", || {
        tr.span("workload.run", plan.cells().len() as u64, || {
            matrix::run(plan, engine, jobs, None, false).expect("campaign run")
        })
    });
    checks.equal("campaign exit code", run.exit_code(), 0);
    checks.equal("campaign broken cells", run.broken(), 0);
    checks.equal("campaign flaky cells", run.flaky(), 0);

    let archive = dir.join("archive");
    matrix::run(plan, engine, jobs, Some(&archive), false).expect("archived campaign run");
    let summary = std::fs::read(archive.join("summary.json")).expect("read summary.json");
    checks.check(summary == run.to_json().into_bytes(), || {
        "campaign summary.json differs from the in-memory run".to_string()
    });
    let before = file_identities(&archive);
    let resumed = matrix::run(plan, engine, jobs, Some(&archive), true).expect("campaign resume");
    let rewritten = file_identities(&archive)
        .iter()
        .filter(|(name, id)| name.ends_with(".evdb") && before.get(*name) != Some(id))
        .count();
    checks.equal("campaign cells re-run by resume", rewritten, 0);
    checks.check(resumed.to_json() == run.to_json(), || {
        "campaign resume changed the summary".to_string()
    });

    // The user then reads every cell's report and diffs every cell
    // against its baseline.
    let cells = plan.cells();
    let path = |i: usize| archive.join(plan.file_name(&cells[i]));
    let reported: Vec<(PathBuf, HwProfile)> =
        cells.iter().map(|c| (path(c.index), c.profile)).collect();
    let diffed: Vec<(PathBuf, PathBuf)> = cells
        .iter()
        .filter(|c| c.baseline != c.index)
        .map(|c| (path(c.baseline), path(c.index)))
        .collect();
    let ((), report_s) = tr.phase("report", || {
        for (p, profile) in &reported {
            pipeline::report(tr, p, *profile);
        }
    });
    let (verdicts, diff_s) = tr.phase("diff", || {
        diffed
            .iter()
            .map(|(a, b)| pipeline::diff(tr, a, b).verdict)
            .collect()
    });
    let traces = cells.iter().map(|c| path(c.index)).collect();
    let mut pass = finish_pass(
        false,
        [record_s, report_s, diff_s],
        traces,
        reported,
        diffed,
        verdicts,
    );
    pass.cells_per_s = run.cells.len() as f64 / record_s;
    pass
}

fn finish_pass(
    roundtrip: bool,
    [record_s, report_s, diff_s]: [f64; 3],
    traces: Vec<PathBuf>,
    reported: Vec<(PathBuf, HwProfile)>,
    diffed: Vec<(PathBuf, PathBuf)>,
    verdicts: Vec<Verdict>,
) -> Pass {
    Pass {
        record_s,
        report_s,
        diff_s,
        cells_per_s: traces.len() as f64 / (record_s + report_s + diff_s),
        roundtrip,
        traces,
        reported,
        diffed,
        verdicts,
    }
}

/// What a pass wrote, read back from disk (untimed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readback {
    /// Bytes of trace files written.
    pub trace_bytes: u64,
    /// Hash of every trace's bytes, in order.
    pub digest: u64,
    /// Work counts, when decoded.
    pub work: Option<WorkCounts>,
}

/// Reads back every trace of `pass`. With `decode`, also decodes each
/// one for the work counts and, where the workload asks for it, checks
/// that re-encoding gives its bytes back.
///
/// # Panics
///
/// Panics if a trace cannot be read or decoded.
pub fn read_back(pass: &Pass, decode: bool, checks: &mut Checks) -> Readback {
    let mut hasher = std::hash::DefaultHasher::new();
    let mut work = WorkCounts::default();
    let mut trace_bytes = 0;
    for path in &pass.traces {
        let bytes = std::fs::read(path).expect("read trace");
        trace_bytes += bytes.len() as u64;
        bytes.hash(&mut hasher);
        if decode {
            let trace = TraceDb::from_bytes(&bytes).expect("decode trace");
            if pass.roundtrip {
                checks.check(trace.to_bytes() == bytes, || {
                    format!("{} does not re-encode to its bytes", path.display())
                });
            }
            work.add(&trace);
        }
    }
    Readback {
        trace_bytes,
        digest: hasher.finish(),
        work: decode.then_some(work),
    }
}
