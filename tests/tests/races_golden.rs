//! Golden tests for the `sgxperf races` analyses: the racy fixture must
//! report *exactly* its two seeded defects, and the stock workloads must
//! come back with no error-severity findings.

use sgx_perf::analysis::races::{self, codes};
use sgx_perf::{Logger, LoggerConfig, TraceDb};
use sim_core::HwProfile;
use workloads::Harness;

fn record<R>(run: impl FnOnce(&Harness) -> R) -> TraceDb {
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::with_syncev());
    run(&harness);
    logger.finish()
}

/// The fixture reports the seeded data race and lock inversion — and
/// nothing else at error severity.
#[test]
fn racy_fixture_reports_exactly_the_seeded_defects() {
    let trace = record(|h| {
        workloads::racy_fixture::run(h, &workloads::racy_fixture::RacyFixtureConfig::default())
            .unwrap()
    });
    assert!(!trace.syncev.is_empty(), "fixture recorded no sync events");
    let report = races::analyze(&trace);
    assert_eq!(report.exit_code(), 3, "{}", report.render());

    let errors: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.severity == sgx_edl::Severity::Error)
        .collect();
    assert_eq!(errors.len(), 2, "{}", report.render());

    // The data race names the unguarded cell...
    let race = errors
        .iter()
        .find(|f| f.code == codes::DATA_RACE)
        .unwrap_or_else(|| panic!("no data race finding:\n{}", report.render()));
    assert!(race.message.contains("packet_counter"), "{}", race.message);

    // ...and the cycle names both inverted locks.
    let cycle = errors
        .iter()
        .find(|f| f.code == codes::LOCK_ORDER)
        .unwrap_or_else(|| panic!("no lock-order finding:\n{}", report.render()));
    assert!(cycle.message.contains("stats_mutex"), "{}", cycle.message);
    assert!(cycle.message.contains("flush_mutex"), "{}", cycle.message);

    // The properly guarded cell stays out of every finding.
    for f in &report.findings {
        assert!(
            !f.message.contains("session_count"),
            "over-report: {}",
            f.message
        );
    }
}

/// The fixture's defects surface in the regular report as top-priority
/// concurrency detections too.
#[test]
fn racy_fixture_defects_reach_the_report() {
    let trace = record(|h| {
        workloads::racy_fixture::run(h, &workloads::racy_fixture::RacyFixtureConfig::default())
            .unwrap()
    });
    let report = sgx_perf::Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
    let concurrency: Vec<_> = report
        .detections
        .iter()
        .filter(|d| d.problem == sgx_perf::Problem::Concurrency)
        .collect();
    assert!(!concurrency.is_empty(), "no concurrency detections");
    // Correctness findings outrank every performance recommendation.
    assert!(concurrency.iter().all(|d| d.priority == 1));
    assert!(concurrency
        .iter()
        .any(|d| matches!(&d.recommendation, sgx_perf::Recommendation::FixDataRace { cell } if cell == "packet_counter")));
    assert!(concurrency.iter().any(|d| matches!(
        &d.recommendation,
        sgx_perf::Recommendation::FixLockOrder { .. }
    )));
}

/// Stock workloads are race-free: no error-severity findings anywhere.
/// (Warnings are allowed — securekeeper legitimately holds its map mutex
/// across debug-print ocalls, the §3.4 hazard `RACE-W004` exists for.)
#[test]
fn stock_workloads_have_no_error_findings() {
    let traces: Vec<(&str, TraceDb)> = vec![
        (
            "securekeeper",
            record(|h| {
                workloads::securekeeper::run(
                    h,
                    &workloads::securekeeper::SecureKeeperConfig {
                        clients: 4,
                        duration: sim_core::Nanos::from_millis(50),
                        ..Default::default()
                    },
                )
                .unwrap()
            }),
        ),
        (
            "sqlitedb",
            record(|h| {
                workloads::sqlitedb::run(
                    h,
                    &workloads::sqlitedb::SqliteConfig {
                        inserts: 200,
                        ..Default::default()
                    },
                )
                .unwrap()
            }),
        ),
        (
            "switchless_loop",
            record(|h| {
                // Ring traffic included: the post/complete hand-off edges
                // must order caller and worker (no false positives).
                let cfg = sgx_sdk::SwitchlessConfig {
                    untrusted_workers: 1,
                    force_ocalls: vec!["ocall_log".into()],
                    ..sgx_sdk::SwitchlessConfig::default()
                };
                workloads::switchless_loop::run(h, 200, Some(cfg)).unwrap()
            }),
        ),
    ];
    for (name, trace) in traces {
        let report = races::analyze(&trace);
        assert_eq!(
            report.exit_code(),
            0,
            "{name} is not clean:\n{}",
            report.render()
        );
    }
}

/// securekeeper's map mutex held across `ocall_print_debug` is the
/// re-entrancy hazard the paper's §3.4 warns about — it must surface as
/// the warning-severity `RACE-W004`, not an error.
#[test]
fn securekeeper_lock_across_ocall_is_a_warning() {
    let trace = record(|h| {
        workloads::securekeeper::run(
            h,
            &workloads::securekeeper::SecureKeeperConfig {
                clients: 4,
                duration: sim_core::Nanos::from_millis(50),
                ..Default::default()
            },
        )
        .unwrap()
    });
    let report = races::analyze(&trace);
    let w004: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.code == codes::LOCK_ACROSS_OCALL)
        .collect();
    assert!(!w004.is_empty(), "{}", report.render());
    assert!(w004
        .iter()
        .all(|f| f.severity == sgx_edl::Severity::Warning));
    assert!(
        w004.iter().any(|f| f.message.contains("ocall_print_debug")),
        "{}",
        report.render()
    );
}
