//! End-to-end enclave-lost recovery: the supervisor rides out losses in a
//! stateful workload, determinism survives the recovery machinery, the
//! circuit breaker fails clean, switchless-path losses are intercepted, and
//! a segmented recording killed at any byte still loads and reports.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use eventdb::{ScratchDir, SegmentedWriter};
use sgx_perf::{Analyzer, Logger, LoggerConfig, Recommendation, TraceDb};
use sgx_sdk::{SdkError, SwitchlessConfig};
use sim_core::fault::{FaultKind, FaultPlan, FaultTrigger};
use sim_core::HwProfile;
use workloads::harness::Harness;
use workloads::supervisor_loop::{self, loss_plan};

/// One traced supervised run, returned as serialised store bytes.
fn traced_bytes(profile: HwProfile, requests: u64, plan: &FaultPlan) -> Vec<u8> {
    let harness = Harness::new(profile);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    supervisor_loop::run(&harness, requests, Some(plan), None).expect("supervised run");
    logger.finish().to_store().to_bytes()
}

#[test]
fn recovery_traces_are_byte_identical_across_runs_on_all_profiles() {
    let plan = loss_plan(12);
    for profile in [
        HwProfile::Unpatched,
        HwProfile::Spectre,
        HwProfile::Foreshadow,
    ] {
        let a = traced_bytes(profile, 24, &plan);
        let b = traced_bytes(profile, 24, &plan);
        assert_eq!(a, b, "recovery trace diverged on {profile:?}");
    }
}

#[test]
fn recovered_checksum_matches_the_fault_free_run_on_all_profiles() {
    for profile in [
        HwProfile::Unpatched,
        HwProfile::Spectre,
        HwProfile::Foreshadow,
    ] {
        let demo = supervisor_loop::recovery_demo(profile, 32).unwrap();
        assert_eq!(demo.faulted.restarts, 1, "{profile:?}");
        assert_eq!(
            demo.faulted.checksum, demo.clean.checksum,
            "checksum drifted on {profile:?}"
        );
    }
}

#[test]
fn circuit_breaker_exhaustion_is_a_clean_terminal_error() {
    let harness = Harness::new(HwProfile::Unpatched);
    // Entry 1 is the session init; entries 2..=5 are the first request and
    // the three warm-up replays — four consecutive losses, one more than
    // the default budget of three restarts.
    let mut plan = FaultPlan::seeded(9);
    for call in 2..=5 {
        plan = plan.with(FaultTrigger::AtCall(call), FaultKind::EnclaveLost);
    }
    let err = supervisor_loop::run(&harness, 8, Some(&plan), None).unwrap_err();
    match err {
        SdkError::RecoveryExhausted { restarts, .. } => assert_eq!(restarts, 3),
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }
    // The failure is terminal but clean: the simulation completed (no
    // panic, no deadlocked scheduler) and the same harness can host a
    // fresh supervised run once the plan is disarmed.
    harness.machine().set_fault_plan(None);
    let rerun = supervisor_loop::run(&harness, 8, None, None).unwrap();
    assert_eq!(rerun.restarts, 0);
}

#[test]
fn switchless_path_losses_are_intercepted_and_fall_back_to_sync() {
    let config = || SwitchlessConfig {
        trusted_workers: 1,
        force_ecalls: vec!["ecall_put".to_string()],
        ..SwitchlessConfig::default()
    };
    let clean_harness = Harness::new(HwProfile::Unpatched);
    let clean = supervisor_loop::run(&clean_harness, 40, None, Some(config())).unwrap();
    assert_eq!(clean.restarts, 0);

    // Switchless requests never EENTER, so the loss is time-triggered.
    // Absolute times include enclave creation and session init, so derive
    // the trigger from the clean run's deterministic timeline: an eighth
    // of the run before the end lands inside the request phase, unwinding
    // a trusted worker AEX-style mid-request.
    let t_loss = clean_harness.clock().now() - clean.stats.elapsed / 8;
    let plan = FaultPlan::seeded(13).with(FaultTrigger::AtTime(t_loss), FaultKind::EnclaveLost);
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    let faulted = supervisor_loop::run(&harness, 40, Some(&plan), Some(config())).unwrap();
    let trace = logger.finish();

    assert_eq!(faulted.restarts, 1, "the loss must be intercepted");
    assert_eq!(
        faulted.checksum, clean.checksum,
        "recovered replies must match the loss-free switchless run"
    );
    // Before the loss the workers served requests; after it the rings are
    // gone and the remaining requests completed synchronously.
    let dispatched = trace.switchless.iter().filter(|s| s.kind <= 1).count();
    assert!(dispatched > 0, "no request was served switchlessly");
    let put_index = trace
        .symbols
        .iter()
        .find(|s| s.kind_is_ecall && s.name == "ecall_put")
        .map(|s| s.index)
        .expect("ecall_put in the interface");
    let sync_puts = trace
        .ecalls
        .iter()
        .filter(|e| e.call_index == put_index)
        .count();
    assert!(sync_puts > 0, "no request fell back to the sync path");
}

#[test]
fn analyzer_surfaces_replay_dominated_recovery() {
    // An expensive warm-up replay: stack extra state re-establishment on
    // top of the demo workload by running many requests so the analyzer
    // has a healthy trace, then check the recovery ledger totals.
    let demo = supervisor_loop::recovery_demo(HwProfile::Unpatched, 24).unwrap();
    let report = Analyzer::new(&demo.trace_faulted, HwProfile::Unpatched.cost_model()).analyze();
    assert_eq!(report.totals.enclaves_lost, 1);
    assert_eq!(report.totals.restarts, 1);
    assert!(report.totals.recovery_ns > 0);
    assert!(
        report.totals.rebuild_ns + report.totals.replay_ns <= report.totals.recovery_ns,
        "stage costs cannot exceed the recovery window"
    );
    // The session-init replay dominates the rebuild, so the analyzer
    // recommends shrinking the replayed state.
    assert!(
        report
            .detections
            .iter()
            .any(|d| d.recommendation == Recommendation::ReduceRecoveryState),
        "ReduceRecoveryState not surfaced: {:?}",
        report.detections
    );
}

/// An in-memory sink that stays readable while a [`SegmentedWriter`] owns
/// it. It remembers where each write ended: the writer emits each frame
/// with one `write_all`, so those are the frame boundaries.
#[derive(Clone, Default)]
struct Recording(Arc<Mutex<(Vec<u8>, Vec<usize>)>>);

impl Write for Recording {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut rec = self.0.lock().unwrap();
        rec.0.extend_from_slice(buf);
        let end = rec.0.len();
        rec.1.push(end);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn render(trace: &TraceDb) -> String {
    Analyzer::new(trace, HwProfile::Unpatched.cost_model())
        .analyze()
        .render()
}

/// Crash salvage: the supervised run loses its enclave mid-run and appends
/// a trace snapshot to a segmented recording after every request, then the
/// final trace. A process killed mid-append leaves a byte prefix of that
/// recording, so every prefix past the first snapshot must load and
/// report, a prefix ending on a snapshot must load as exactly that
/// snapshot, and the whole recording must report as the unsegmented trace.
#[test]
fn every_prefix_of_a_segmented_recording_salvages_and_reports() {
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    let recording = Recording::default();
    let writer = Arc::new(Mutex::new(
        SegmentedWriter::new(recording.clone()).expect("segmented header"),
    ));
    // (end offset, trace bytes) of every snapshot.
    let snapshots = Arc::new(Mutex::new(Vec::new()));
    let observer: supervisor_loop::RequestObserver = {
        let (logger, writer, recording, snapshots) = (
            Arc::clone(&logger),
            Arc::clone(&writer),
            recording.clone(),
            Arc::clone(&snapshots),
        );
        Arc::new(move |_req| {
            let store = logger.snapshot().to_store();
            writer.lock().unwrap().append_store(&store).unwrap();
            let end = recording.0.lock().unwrap().0.len();
            snapshots.lock().unwrap().push((end, store.to_bytes()));
        })
    };
    let run = supervisor_loop::run_with_observer(
        &harness,
        48,
        Some(&loss_plan(24)),
        None,
        Some(observer),
    )
    .expect("supervised run");
    assert_eq!(run.restarts, 1, "the loss must land mid-run");
    let trace = logger.finish();
    writer
        .lock()
        .unwrap()
        .append_store(&trace.to_store())
        .unwrap();

    let (bytes, frame_ends) = recording.0.lock().unwrap().clone();
    let snapshots = snapshots.lock().unwrap().clone();
    assert_eq!(snapshots.len(), 48);
    // Each snapshot boundary and the bytes either side of it, plus the end
    // and the midpoint of every seventh frame: a stride co-prime with the
    // 8 (10 once the loss is recorded) frames per snapshot, so every
    // table's frame gets torn.
    let mut cuts = vec![0, 1];
    for &(end, _) in &snapshots {
        cuts.extend([end - 1, end, end + 1]);
    }
    let mut start = 0;
    for (i, &end) in frame_ends.iter().enumerate() {
        if i % 7 == 0 {
            cuts.extend([(start + end) / 2, end]);
        }
        start = end;
    }
    cuts.sort_unstable();
    cuts.dedup();

    let dir = ScratchDir::new("supervisor-salvage");
    let path = dir.join("torn.evdb");
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let loaded = TraceDb::load(&path);
        if cut < snapshots[0].0 {
            // Before the first whole snapshot the recording may miss a
            // required table: an error, never a panic.
            if let Ok(salvaged) = loaded {
                render(&salvaged);
            }
            continue;
        }
        let salvaged = loaded.unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert!(render(&salvaged).contains("sgx-perf analysis report"));
        if let Ok(k) = snapshots.binary_search_by_key(&cut, |(end, _)| *end) {
            assert!(
                salvaged.to_bytes() == snapshots[k].1,
                "cut at {cut}: not snapshot {k}"
            );
        }
    }

    std::fs::write(&path, &bytes).unwrap();
    let whole = TraceDb::load(&path).unwrap();
    assert!(whole.to_bytes() == trace.to_bytes(), "whole recording");
    assert_eq!(render(&whole), render(&trace));
}
