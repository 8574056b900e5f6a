//! A SecureKeeper-style stateful server surviving enclave losses under the
//! [`Supervisor`]: the closed-loop demo for the enclave-lost recovery
//! subsystem.
//!
//! The enclave holds a session key established by `ecall_init_session` —
//! state that dies with the EPC when the enclave is lost. Every request
//! mixes that key into its reply, so a recovery that fails to re-establish
//! the session is visible in the *application-level checksum*, not just in
//! the trace. The supervisor's warm-up hook replays the session init after
//! every rebuild; [`recovery_demo`] runs the workload fault-free and under
//! an [`EnclaveLost`](sim_core::fault::FaultKind::EnclaveLost) plan and the
//! two checksums must agree.
//!
//! The request handler is idempotent (its only effect is the reply value),
//! so the default [`ReplayThenRetry`](sgx_sdk::IdempotencyPolicy) policy is
//! the right one: rebuild, replay the session init, re-issue the
//! interrupted request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sgx_perf::{Logger, LoggerConfig, TraceDb};
use sgx_sdk::{
    CallData, OcallTableBuilder, SdkError, SdkResult, Supervisor, SupervisorConfig,
    SwitchlessConfig, ThreadCtx,
};
use sgx_sim::EnclaveConfig;
use sim_core::fault::{FaultKind, FaultPlan, FaultTrigger};
use sim_core::sync::Mutex;
use sim_core::{HwProfile, Nanos};
use sim_threads::Simulation;

use crate::harness::{Harness, RunStats, Variant};

/// The server's enclave interface: a session-establishment ecall (the
/// state the supervisor must replay after a loss) and the request handler.
pub const EDL: &str = "enclave {
    trusted {
        public void ecall_init_session(uint64_t key);
        public uint64_t ecall_put(uint64_t req);
    };
};";

/// The session key the client establishes — and the warm-up hook replays.
pub const SESSION_KEY: u64 = 0x5EC5_EED5;

/// Called after each completed request with the request index — the
/// crash-consistent persistence point for a segmented recording
/// (`tests/supervisor_e2e.rs` appends a trace snapshot here).
pub type RequestObserver = Arc<dyn Fn(u64) + Send + Sync>;

/// Outcome of one supervised run.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedRun {
    /// Throughput bookkeeping for the run.
    pub stats: RunStats,
    /// Sum of all replies — session-keyed, so it proves state replay.
    pub checksum: u64,
    /// Enclave rebuilds the supervisor performed during the run.
    pub restarts: u32,
}

/// A fault plan that loses the enclave on the entry serving request
/// `at_request` (0-based). Entry counting starts at arming: entry 1 is the
/// session init, entry `r + 2` is request `r` — call-triggered, so the
/// loss lands on the same request on every hardware profile.
pub fn loss_plan(at_request: u64) -> FaultPlan {
    FaultPlan::seeded(0xC0FFEE).with(FaultTrigger::AtCall(at_request + 2), FaultKind::EnclaveLost)
}

/// Runs `requests` through the supervised server. With `plan`, the fault
/// plan is armed just before the simulation starts; with `switchless`, the
/// subsystem serves forced calls until a loss shuts the rings down (the
/// supervisor cannot respawn workers, so recovered calls go synchronous).
///
/// # Errors
///
/// SDK failures, including [`SdkError::RecoveryExhausted`] once the
/// supervisor's circuit breaker trips.
pub fn run(
    harness: &Harness,
    requests: u64,
    plan: Option<&FaultPlan>,
    switchless: Option<SwitchlessConfig>,
) -> SdkResult<SupervisedRun> {
    run_with_observer(harness, requests, plan, switchless, None)
}

/// [`run`] with a per-request observer — the hook a segmented recording
/// uses to persist a trace snapshot after every unit of work.
///
/// # Errors
///
/// See [`run`].
pub fn run_with_observer(
    harness: &Harness,
    requests: u64,
    plan: Option<&FaultPlan>,
    switchless: Option<SwitchlessConfig>,
    observer: Option<RequestObserver>,
) -> SdkResult<SupervisedRun> {
    let sup = Supervisor::launch(harness.runtime(), SupervisorConfig::default(), |rt| {
        let spec = sgx_edl::parse(EDL).map_err(|e| SdkError::Interface(e.to_string()))?;
        let enclave = rt.create_enclave(&spec, &EnclaveConfig::default())?;
        // The session key lives inside the recipe: a rebuild produces a
        // fresh enclave with the session *unestablished*, exactly like EPC
        // contents vanishing on real hardware.
        let session = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&session);
        enclave.register_ecall("ecall_init_session", move |ctx, data| {
            // SecureKeeper-style session establishment: deriving the
            // session key costs more than building the enclave did, and it
            // is what every rebuild must redo — the replay-dominated MTTR
            // the analyzer's ReduceRecoveryState detector looks for.
            ctx.compute(Nanos::from_micros(400))?;
            s.store(data.scalar, Ordering::SeqCst);
            Ok(())
        })?;
        let s = Arc::clone(&session);
        enclave.register_ecall("ecall_put", move |ctx, data| {
            ctx.compute(Nanos::from_micros(3))?;
            let key = s.load(Ordering::SeqCst);
            data.ret = data.scalar.wrapping_mul(0x9E37_79B9).wrapping_add(key);
            Ok(())
        })?;
        Ok(enclave)
    })?;
    sup.register_warmup("init-session", |tcx, rt, eid, table| {
        let mut data = CallData::new(SESSION_KEY);
        rt.ecall(tcx, eid, "ecall_init_session", table, &mut data)
    });
    let table = Arc::new(OcallTableBuilder::new(sup.enclave().spec()).build()?);

    let sim = Simulation::new(harness.clock().clone());
    if let Some(cfg) = switchless {
        let sw = sup.enable_switchless(cfg)?;
        sw.spawn_workers(&sim);
    }
    harness.machine().set_fault_plan(plan);

    let checksum = Arc::new(AtomicU64::new(0));
    let failure: Arc<Mutex<Option<SdkError>>> = Arc::new(Mutex::new(None));
    let start = harness.clock().now();
    {
        let sup = Arc::clone(&sup);
        let checksum = Arc::clone(&checksum);
        let failure = Arc::clone(&failure);
        sim.spawn("client", move |ctx| {
            let tcx = ThreadCtx::from_sim(ctx);
            let mut data = CallData::new(SESSION_KEY);
            match sup.ecall(&tcx, "ecall_init_session", &table, &mut data) {
                Ok(()) => {
                    for req in 0..requests {
                        let mut data = CallData::new(req);
                        match sup.ecall(&tcx, "ecall_put", &table, &mut data) {
                            Ok(()) => {
                                checksum.fetch_add(data.ret, Ordering::SeqCst);
                                if let Some(obs) = &observer {
                                    obs(req);
                                }
                            }
                            Err(e) => {
                                *failure.lock() = Some(e);
                                break;
                            }
                        }
                    }
                }
                Err(e) => *failure.lock() = Some(e),
            }
            // Loss-free switchless runs still own their rings; after a
            // loss the supervisor has already drained them.
            if let Some(sw) = sup.take_switchless() {
                sw.shutdown(ctx);
            }
        });
    }
    sim.run();
    if let Some(e) = failure.lock().take() {
        return Err(e);
    }
    Ok(SupervisedRun {
        stats: RunStats {
            variant: Variant::Enclave,
            operations: requests,
            elapsed: harness.clock().now() - start,
        },
        checksum: checksum.load(Ordering::SeqCst),
        restarts: sup.restarts(),
    })
}

/// The closed-loop recovery demonstration: the same workload fault-free
/// and under a mid-run enclave loss, both traced.
#[derive(Debug, Clone)]
pub struct RecoveryDemo {
    /// The fault-free run.
    pub clean: SupervisedRun,
    /// The run that lost its enclave mid-way and recovered.
    pub faulted: SupervisedRun,
    /// Trace of the fault-free run (no lifecycle table).
    pub trace_clean: TraceDb,
    /// Trace of the recovered run (lifecycle ledger populated).
    pub trace_faulted: TraceDb,
}

/// Runs the demo: `requests` requests fault-free, then the same workload
/// losing its enclave halfway through ([`loss_plan`]). The recovered run
/// must finish with the same application-level checksum.
///
/// # Errors
///
/// Propagates SDK failures.
pub fn recovery_demo(profile: HwProfile, requests: u64) -> SdkResult<RecoveryDemo> {
    let harness = Harness::new(profile);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    let clean = run(&harness, requests, None, None)?;
    let trace_clean = logger.finish();

    let harness = Harness::new(profile);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    let plan = loss_plan(requests / 2);
    let faulted = run(&harness, requests, Some(&plan), None)?;
    let trace_faulted = logger.finish();

    Ok(RecoveryDemo {
        clean,
        faulted,
        trace_clean,
        trace_faulted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_preserves_the_checksum() {
        let demo = recovery_demo(HwProfile::Unpatched, 24).unwrap();
        assert_eq!(demo.clean.restarts, 0);
        assert_eq!(demo.faulted.restarts, 1, "exactly one mid-run loss");
        assert_eq!(
            demo.faulted.checksum, demo.clean.checksum,
            "replayed session must reproduce every reply"
        );
        // The loss costs virtual time (backoff + rebuild + replay).
        assert!(demo.faulted.stats.elapsed > demo.clean.stats.elapsed);
        // The ledger: clean trace has no lifecycle table, the recovered
        // one records the full lost → rebuild → replay → retry →
        // recovered arc.
        assert!(demo.trace_clean.lifecycle.is_empty());
        let stages: Vec<u8> = demo
            .trace_faulted
            .lifecycle
            .iter()
            .map(|r| r.stage)
            .collect();
        assert_eq!(stages, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn observer_sees_every_request() {
        let harness = Harness::new(HwProfile::Unpatched);
        let seen = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&seen);
        let run = run_with_observer(
            &harness,
            16,
            Some(&loss_plan(8)),
            None,
            Some(Arc::new(move |_| {
                s.fetch_add(1, Ordering::SeqCst);
            })),
        )
        .unwrap();
        assert_eq!(run.restarts, 1);
        assert_eq!(
            seen.load(Ordering::SeqCst),
            16,
            "retried request counted once"
        );
    }
}
