//! The differential golden matrix: every registered workload, on every
//! hardware profile, with and without a fault plan, must produce
//! **byte-identical traces** on the legacy OS-thread engine and the fast
//! coroutine engine.
//!
//! This is the tier-1 lockdown of the engine swap's refutable invariant:
//! a simulated program's interleaving is a pure function of the
//! scheduling algorithm, so if the fast engine replicates that algorithm
//! exactly, no trace byte can move. Any divergence — an event reordered,
//! a virtual timestamp shifted, a fault landing on a different call —
//! fails here with the first differing cell named.

use sim_core::campaign::CampaignSpec;
use sim_core::fault::{FaultKind, FaultPlan, FaultTrigger};
use sim_core::{HwProfile, Nanos};
use sim_threads::{with_engine, Engine};
use workloads::campaign::matrix::MatrixPlan;
use workloads::chaos;

/// The full matrix: every cell of the shipped `replay` spec (every
/// campaign workload × every hardware profile × {fault-free, canned
/// chaos plan}) and of the `recovery` spec (the loss-surviving workloads
/// under a mid-run enclave loss), run on both engines and compared byte
/// for byte.
#[test]
fn every_workload_profile_and_plan_is_byte_identical_across_engines() {
    for name in ["replay", "recovery"] {
        let path = format!("{}/../specs/{name}.toml", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let spec = CampaignSpec::parse(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        let plan = MatrixPlan::from_spec(spec).unwrap_or_else(|e| panic!("{path}: {e}"));
        for cell in plan.cells() {
            let legacy = with_engine(Engine::Legacy, || plan.run_cell(&cell, 0));
            let fast = with_engine(Engine::Fast, || plan.run_cell(&cell, 0));
            assert_eq!(
                legacy,
                fast,
                "engine divergence on {} ({} legacy byte(s) vs {} fast byte(s))",
                plan.file_name(&cell),
                legacy.len(),
                fast.len(),
            );
        }
    }
}

/// The worker-stall semantics are the sharpest edge the fast engine must
/// preserve: stalled switchless workers *yield* through the stall window
/// (PR 3 made stalls cooperative) precisely because the scheduler only
/// wakes sleepers once the run queue drains — spinning callers keep it
/// populated. An engine that woke sleepers eagerly would serve these
/// calls switchlessly instead of letting the spin budgets exhaust, and
/// the traces would diverge in both event order and fallback counts.
#[test]
fn switchless_worker_stalls_are_byte_identical_across_engines() {
    for profile in HwProfile::ALL {
        let plan = FaultPlan::seeded(0x57A11)
            .with(
                FaultTrigger::AtCall(5),
                FaultKind::WorkerStall {
                    delay: Nanos::from_micros(40),
                },
            )
            .with(FaultTrigger::AtCall(25), FaultKind::RingFull { calls: 4 });
        let legacy = with_engine(Engine::Legacy, || {
            chaos::switchless_trace(profile, Some(&plan))
        });
        let fast = with_engine(Engine::Fast, || {
            chaos::switchless_trace(profile, Some(&plan))
        });
        assert_eq!(
            legacy,
            fast,
            "worker-stall divergence on {}",
            profile.label()
        );
        // The stall must actually have fired for this to test anything.
        assert!(
            chaos::fault_rows(&fast) >= 2,
            "stall plan did not fire on {}",
            profile.label()
        );
    }
}

/// Randomized chaos plans across both engines: a denser sweep of the
/// fault grammar than the matrix's single seed.
#[test]
fn random_chaos_plans_are_byte_identical_across_engines() {
    for seed in [3u64, 0xDEAD, 0xBEEF, 0xF00D] {
        let plan = chaos::random_plan(seed);
        let legacy = with_engine(Engine::Legacy, || {
            chaos::antipatterns_trace(HwProfile::Unpatched, Some(&plan))
        });
        let fast = with_engine(Engine::Fast, || {
            chaos::antipatterns_trace(HwProfile::Unpatched, Some(&plan))
        });
        assert_eq!(legacy, fast, "chaos divergence on seed {seed:#x}");
    }
}
