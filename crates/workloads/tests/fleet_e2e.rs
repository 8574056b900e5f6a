//! End-to-end gates for the fleet subsystem, at unit-test scale (the
//! 1000 × 100k acceptance run is `examples/fleet_bench.rs -- <out.json>
//! full`, which asserts the same two-run byte identity):
//!
//! * the core determinism invariant extended to fleets — two identical
//!   runs produce **byte-identical** traces on every hardware profile,
//!   with cross-enclave EPC evictions present in each,
//! * chaos recovery — a `FaultPlan` killing 5% of the enclaves is
//!   absorbed by restart-storm throttling without opening the fleet
//!   circuit breaker,
//! * breaker behaviour under a policy too aggressive for the storm —
//!   the breaker opens, cold spin-ups are shed, and the run still
//!   completes,
//! * the `fleet` trace table round-trips through save/load into the
//!   same `sgxperf` fleet report.

use sgx_fleet::FleetPolicy;
use sgx_perf::FleetReport;
use sim_core::fault::{FaultKind, FaultPlan, FaultTrigger};
use sim_core::{HwProfile, Nanos};
use workloads::fleet::{self, FleetRunConfig};

const PROFILES: [(HwProfile, &str); 3] = [
    (HwProfile::Unpatched, "unpatched"),
    (HwProfile::Spectre, "spectre"),
    (HwProfile::Foreshadow, "l1tf"),
];

/// Two identical runs per profile must serialize to the same bytes, and
/// each trace must carry the shared-EPC contention signature: page-outs
/// spread across more than one slot.
#[test]
fn fleet_traces_are_byte_identical_across_runs_on_all_profiles() {
    let cfg = FleetRunConfig::tiny();
    for (profile, label) in PROFILES {
        let a = fleet::run(profile, &cfg, None).unwrap();
        let b = fleet::run(profile, &cfg, None).unwrap();
        assert_eq!(
            a.trace.to_bytes(),
            b.trace.to_bytes(),
            "{label}: identical runs must produce byte-identical traces"
        );
        assert_eq!(a.aggregate.completed, cfg.requests, "{label}");
        let victims = a.trace.fleet.iter().filter(|row| row.page_outs > 0).count();
        assert!(
            victims > 1,
            "{label}: cross-enclave evictions must span slots, got {victims}"
        );
    }
}

/// Distinct profiles pay different transition costs, so their fleets must
/// NOT produce identical traces — guards against the profile being
/// silently ignored at fleet scale.
#[test]
fn profiles_diverge_at_fleet_scale() {
    let cfg = FleetRunConfig::tiny();
    let unpatched = fleet::run(HwProfile::Unpatched, &cfg, None).unwrap();
    let foreshadow = fleet::run(HwProfile::Foreshadow, &cfg, None).unwrap();
    assert_ne!(unpatched.trace.to_bytes(), foreshadow.trace.to_bytes());
    assert!(foreshadow.stats.elapsed > unpatched.stats.elapsed);
}

/// The satellite chaos gate: a plan killing 5% of the fleet's enclaves
/// (spread across the run) costs rebuilds but — with the restart gate
/// spacing rebuilds so that window/spacing < threshold — the circuit
/// breaker provably never opens and no request is lost unaccounted.
#[test]
fn chaos_plan_is_absorbed_by_throttling_with_the_breaker_closed() {
    let mut cfg = FleetRunConfig::tiny();
    // window/spacing = 5 ms / 500 µs = 10 rebuilds max per window, under
    // the threshold of 16: the breaker cannot open, whatever the plan.
    cfg.policy.restart_spacing = Nanos::from_micros(500);
    cfg.policy.storm_window = Nanos::from_millis(5);
    cfg.policy.storm_threshold = 16;
    let plan = fleet::chaos_plan(&cfg);
    for (profile, label) in PROFILES {
        let run = fleet::run(profile, &cfg, Some(&plan)).unwrap();
        let agg = &run.aggregate;
        assert!(agg.restarts > 0, "{label}: chaos must cost rebuilds");
        assert_eq!(agg.breaker_opens, 0, "{label}: throttling must hold");
        assert_eq!(
            agg.completed + agg.shed + agg.failed,
            cfg.requests,
            "{label}: every request must be accounted for"
        );
        assert_eq!(agg.shed, 0, "{label}: closed breaker never sheds");
    }
}

/// With a hair-trigger threshold the same storm opens the breaker: cold
/// spin-ups get shed while it cools down, live slots keep serving, and
/// the run still completes with every request accounted for.
#[test]
fn hair_trigger_policy_opens_the_breaker_and_sheds_cold_spin_ups() {
    let mut cfg = FleetRunConfig::tiny();
    cfg.policy = FleetPolicy {
        live_pool: 8,
        restart_spacing: Nanos::from_micros(1),
        storm_window: Nanos::from_millis(50),
        storm_threshold: 1,
        breaker_cooldown: Nanos::from_millis(20),
        ..FleetPolicy::default()
    };
    // A burst of early losses: the second rebuild inside the window trips
    // the threshold-1 breaker.
    let mut plan = FaultPlan::seeded(7);
    for call in [5u64, 6, 7, 8] {
        plan = plan.with(FaultTrigger::AtCall(call), FaultKind::EnclaveLost);
    }
    let run = fleet::run(HwProfile::Unpatched, &cfg, Some(&plan)).unwrap();
    let agg = &run.aggregate;
    assert!(agg.breaker_opens > 0, "storm must trip the breaker");
    assert!(agg.shed > 0, "open breaker must shed cold spin-ups");
    assert!(agg.completed > 0, "live slots keep serving while open");
    assert_eq!(agg.completed + agg.shed + agg.failed, cfg.requests);
}

/// The fleet table survives a save/load round trip and feeds the same
/// `sgxperf` fleet report; a fleet-free trace yields an empty report.
#[test]
fn fleet_report_round_trips_through_save_and_load() {
    let cfg = FleetRunConfig::tiny();
    let run = fleet::run(HwProfile::Unpatched, &cfg, None).unwrap();
    let fresh = FleetReport::from_trace(&run.trace);
    assert!(!fresh.is_empty());
    assert_eq!(fresh.totals.slots as usize, cfg.slots);
    assert_eq!(fresh.totals.completed, cfg.requests);

    let dir = eventdb::ScratchDir::new("sgx-perf-fleet-e2e");
    let path = dir.join("fleet.evdb");
    run.trace.save(&path).unwrap();
    let loaded = sgx_perf::TraceDb::load(&path).unwrap();

    assert_eq!(loaded.fleet.len(), cfg.slots);
    let reloaded = FleetReport::from_trace(&loaded);
    assert_eq!(reloaded.summary_line(), fresh.summary_line());
    assert_eq!(reloaded.to_json(), fresh.to_json());

    // A trace without a fleet table stays fleet-free after the same trip.
    let plain =
        workloads::chaos::ab_pair(HwProfile::Unpatched, &workloads::chaos::regression_plan(1)).0;
    assert!(FleetReport::from_trace(&plain).is_empty());
}
