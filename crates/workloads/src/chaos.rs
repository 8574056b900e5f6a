//! Golden-trace chaos harness: fixed workloads run under the logger with
//! a [`FaultPlan`] installed, returning the serialised trace bytes.
//!
//! The byte level is the whole point. The chaos subsystem's contract is
//! twofold: an **empty** (or absent) plan must leave traces byte-for-byte
//! identical to a build without the harness, and a **seeded** plan must
//! replay byte-identically across runs and hardware profiles — faults are
//! scheduled on virtual time and call indices, and all randomness is
//! consumed when the injector is built, never at poll time. Comparing
//! `Vec<u8>` catches every regression a field-by-field comparison could
//! miss (table presence, encoding, row order).

use eventdb::{Record, StoreView};
use sgx_perf::analysis::diff::{DiffConfig, TraceDiff};
use sgx_perf::events::FaultRow;
use sgx_perf::{Logger, LoggerConfig, TraceDb};
use sgx_sdk::SwitchlessConfig;
use sim_core::fault::{FaultKind, FaultPlan, FaultTrigger};
use sim_core::{HwProfile, Nanos};

use crate::harness::Harness;
use crate::{antipatterns, switchless_loop};

/// Runs the classic-path fixture — SISC, SNC and the paging sweep, all on
/// one harness — under the logger with `plan` installed, and returns the
/// serialised trace. Exercises ecalls, nested ocalls, TCS binds and EPC
/// paging, i.e. every fault site except the switchless ones.
pub fn antipatterns_trace(profile: HwProfile, plan: Option<&FaultPlan>) -> Vec<u8> {
    let harness = Harness::new(profile);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    harness.machine().set_fault_plan(plan);
    antipatterns::sisc(&harness, 40).expect("sisc fixture");
    antipatterns::snc(&harness, 24).expect("snc fixture");
    antipatterns::paging(&harness, 4).expect("paging fixture");
    logger.finish().to_bytes()
}

/// Runs the switchless request-server fixture (one untrusted worker, the
/// hot ocall forced switchless) under the logger with `plan` installed,
/// and returns the serialised trace. Exercises the worker-stall and
/// ring-full fault sites the classic fixture cannot reach.
pub fn switchless_trace(profile: HwProfile, plan: Option<&FaultPlan>) -> Vec<u8> {
    let harness = Harness::new(profile);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    harness.machine().set_fault_plan(plan);
    let config = SwitchlessConfig {
        untrusted_workers: 1,
        force_ocalls: vec!["ocall_log".to_string()],
        ..SwitchlessConfig::default()
    };
    switchless_loop::run(&harness, 60, Some(config)).expect("switchless fixture");
    logger.finish().to_bytes()
}

/// Fault rows recorded in serialised trace bytes — the differential
/// tests' "did anything actually fire" probe. Reads the `faults`
/// section's row-count prefix without decoding any table; a trace
/// without the section has none.
///
/// # Panics
///
/// Panics on corrupt trace bytes (cannot happen for bytes produced by the
/// functions above).
pub fn fault_rows(bytes: &[u8]) -> usize {
    StoreView::from_bytes(bytes)
        .expect("trace bytes")
        .sections()
        .map(|s| s.expect("trace section"))
        .find(|s| s.tag == FaultRow::TAG)
        .map_or(0, |s| usize::try_from(s.rows).expect("fault row count"))
}

/// Runs the classic-path fixture twice — fault-free (baseline) and under
/// `plan` (candidate) — and returns both decoded traces: the before/after
/// pair the diff engine consumes.
///
/// # Panics
///
/// Panics on fixture failure (cannot happen for recoverable plans).
pub fn ab_pair(profile: HwProfile, plan: &FaultPlan) -> (TraceDb, TraceDb) {
    let a = TraceDb::from_bytes(&antipatterns_trace(profile, None)).expect("baseline trace");
    let b = TraceDb::from_bytes(&antipatterns_trace(profile, Some(plan))).expect("chaos trace");
    (a, b)
}

/// Diffs a seeded chaos run against its fault-free baseline with the
/// default thresholds: the chaos → regression-verdict pipeline in one
/// call.
pub fn ab_diff(profile: HwProfile, plan: &FaultPlan) -> TraceDiff {
    let (a, b) = ab_pair(profile, plan);
    TraceDiff::compute(&a, &b, DiffConfig::default())
}

/// A recoverable plan whose latency impact is far past the diff engine's
/// default 10% gates: repeated long ocall timeouts land on the fixture's
/// short allocation ocall (microseconds of delay on a sub-microsecond
/// call) and an AEX storm interrupts a later ecall. Everything retries
/// within the SDK budget, so the workload still completes — the damage
/// is purely in the latency distribution, which is exactly what the diff
/// must catch and attribute.
pub fn regression_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with(
            FaultTrigger::AtCall(2),
            FaultKind::OcallTimeout {
                delay: Nanos::from_micros(60),
                times: 3,
            },
        )
        .with(FaultTrigger::AtCall(12), FaultKind::AexStorm { count: 6 })
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Derives a small, always-recoverable [`FaultPlan`] from `seed` — the
/// property-test generator. Every parameter stays inside the SDK's retry
/// budget, so any workload completes and the only observable difference
/// is the injected faults and their recovery events.
pub fn random_plan(seed: u64) -> FaultPlan {
    let mut state = seed | 1;
    let mut plan = FaultPlan::seeded(seed);
    let faults = 1 + xorshift(&mut state) % 4;
    for _ in 0..faults {
        let kind_pick = xorshift(&mut state) % 8;
        // Paging slowdowns are windows over virtual time, so the grammar
        // (and therefore the generator) only allows `t=` triggers there.
        let trigger = if kind_pick == 2 || !xorshift(&mut state).is_multiple_of(2) {
            FaultTrigger::AtTime(Nanos::from_micros(10 + xorshift(&mut state) % 2_000))
        } else {
            FaultTrigger::AtCall(1 + xorshift(&mut state) % 30)
        };
        let kind = match kind_pick {
            0 => FaultKind::AexStorm {
                count: 1 + xorshift(&mut state) as u32 % 8,
            },
            1 => FaultKind::EvictStorm,
            2 => FaultKind::PagingSlow {
                factor: 2 + xorshift(&mut state) as u32 % 6,
                duration: Nanos::from_micros(100 + xorshift(&mut state) % 900),
            },
            3 => FaultKind::OcallFail {
                times: 1 + xorshift(&mut state) as u32 % 3,
            },
            4 => FaultKind::OcallTimeout {
                delay: Nanos::from_micros(10 + xorshift(&mut state) % 90),
                times: 1 + xorshift(&mut state) as u32 % 3,
            },
            5 => FaultKind::WorkerStall {
                delay: Nanos::from_micros(50 + xorshift(&mut state) % 450),
            },
            6 => FaultKind::RingFull {
                calls: 1 + xorshift(&mut state) as u32 % 4,
            },
            _ => FaultKind::TcsExhaust {
                times: 1 + xorshift(&mut state) as u32 % 3,
            },
        };
        plan = plan.with(trigger, kind);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_invisible() {
        // The golden-trace contract: no plan, an absent plan and an empty
        // plan all produce the same bytes.
        let none = antipatterns_trace(HwProfile::Unpatched, None);
        let empty = antipatterns_trace(HwProfile::Unpatched, Some(&FaultPlan::seeded(42)));
        assert_eq!(none, empty);
        assert_eq!(fault_rows(&none), 0);
    }

    #[test]
    fn seeded_plan_replays_byte_identically() {
        let plan = random_plan(7);
        let a = antipatterns_trace(HwProfile::Spectre, Some(&plan));
        let b = antipatterns_trace(HwProfile::Spectre, Some(&plan));
        assert_eq!(a, b);
    }

    #[test]
    fn fault_rows_match_the_decoded_faults_table() {
        let clean = antipatterns_trace(HwProfile::Unpatched, None);
        let faulted = antipatterns_trace(HwProfile::Unpatched, Some(&random_plan(7)));
        for bytes in [&clean, &faulted] {
            let decoded = TraceDb::from_bytes(bytes).unwrap().faults.len();
            assert_eq!(fault_rows(bytes), decoded);
        }
        assert_eq!(fault_rows(&clean), 0);
        assert!(fault_rows(&faulted) > 0, "the plan must fire");
    }

    #[test]
    fn random_plans_are_themselves_deterministic() {
        assert_eq!(random_plan(99), random_plan(99));
        assert!(!random_plan(99).is_empty());
    }
}
