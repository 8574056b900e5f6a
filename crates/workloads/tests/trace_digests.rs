//! Pinned trace bytes: small deterministic recordings whose sections,
//! between them, cover every `TraceDb` table, checked by length and
//! FNV-1a against values from an earlier build. Any change to the trace
//! encoder that moves a single byte of any of them fails here, in tier-1,
//! rather than only in the full-size benchmark guards.

use eventdb::Store;
use sgx_perf::{AexMode, Logger, LoggerConfig, TraceDb};
use sim_core::{HwProfile, Nanos};
use workloads::campaign::matrix::fnv1a;
use workloads::fleet::{self, FleetRunConfig};
use workloads::supervisor_loop::{self, loss_plan};
use workloads::{racy_fixture, securekeeper, switchless_loop, talos, Harness};

/// `(name, length, FNV-1a)` of each recording's `TraceDb::to_bytes`, as
/// written by the blob-per-table encoder that the one-pass encoder
/// replaced.
const PINNED: [(&str, usize, u64); 7] = [
    ("talos", 52_951, 4_922_381_432_771_081_039),
    ("switchless_before", 42_568, 5_271_274_326_970_092_874),
    ("switchless_after", 120_203, 16_536_109_994_120_371_412),
    ("fleet_tiny", 178_979, 9_106_061_163_750_421_305),
    ("supervisor_loss", 2_338, 9_680_643_978_486_308_597),
    ("racy", 4_602, 14_849_532_492_932_022_443),
    ("securekeeper", 5_555, 12_231_679_044_944_627_617),
];

/// Every table tag a trace can carry.
const TAGS: [&str; 12] = [
    "ecalls",
    "ocalls",
    "aex",
    "paging",
    "sync",
    "enclaves",
    "symbols",
    "switchless",
    "faults",
    "lifecycle",
    "syncev",
    "fleet",
];

fn record(config: LoggerConfig, run: impl FnOnce(&Harness)) -> TraceDb {
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), config);
    run(&harness);
    logger.finish()
}

fn recordings() -> Vec<(&'static str, TraceDb)> {
    let talos = record(LoggerConfig::with_aex(AexMode::Trace), |h| {
        let cfg = talos::TalosConfig {
            requests: 14,
            ..Default::default()
        };
        talos::run(h, &cfg).expect("talos run");
    });
    let switchless =
        switchless_loop::closed_loop(HwProfile::Unpatched, 200).expect("switchless closed loop");
    let fleet =
        fleet::run(HwProfile::Unpatched, &FleetRunConfig::tiny(), None).expect("tiny fleet run");
    let supervisor = record(LoggerConfig::default(), |h| {
        supervisor_loop::run(h, 24, Some(&loss_plan(12)), None).expect("supervised run");
    });
    let racy = record(LoggerConfig::with_syncev(), |h| {
        racy_fixture::run(h, &racy_fixture::RacyFixtureConfig::default()).expect("racy fixture");
    });
    let securekeeper = record(LoggerConfig::default(), |h| {
        let cfg = securekeeper::SecureKeeperConfig {
            clients: 2,
            duration: Nanos::from_millis(10),
            ..Default::default()
        };
        securekeeper::run(h, &cfg).expect("securekeeper run");
    });
    vec![
        ("talos", talos),
        ("switchless_before", switchless.trace_before),
        ("switchless_after", switchless.trace_after),
        ("fleet_tiny", fleet.trace),
        ("supervisor_loss", supervisor),
        ("racy", racy),
        ("securekeeper", securekeeper),
    ]
}

#[test]
fn recorded_trace_bytes_match_the_pinned_digests() {
    let mut got = Vec::new();
    let mut tags = Vec::new();
    for (name, trace) in recordings() {
        let bytes = trace.to_bytes();
        let back = TraceDb::from_bytes(&bytes).expect("own bytes decode");
        assert!(
            back.to_bytes() == bytes,
            "{name}: decode + encode is not a fixpoint"
        );
        let store = Store::from_bytes(&bytes).expect("own bytes parse");
        for info in store.sections() {
            let info = info.expect("section shape");
            if info.rows > 0 && !tags.contains(&info.tag) {
                tags.push(info.tag);
            }
        }
        got.push((name, bytes.len(), fnv1a(&bytes)));
    }
    for tag in TAGS {
        assert!(
            tags.iter().any(|t| t == tag),
            "no recording has rows in table `{tag}`"
        );
    }
    assert_eq!(got, PINNED);
}
