//! Property tests: for arbitrary ecall/ocall nesting trees, the logger's
//! parent links and timestamps are always well-formed — every nested
//! call's recorded interval lies inside its direct parent's interval. And
//! on arbitrary traces, the indexed lookups of the instance view agree
//! with brute-force scans over it.

use std::sync::Arc;

use proptest::prelude::*;
use sgx_perf::analysis::{CallInstance, Instances};
use sgx_perf::events::{EcallRow, OcallRow};
use sgx_perf::{CallKind, CallRef, Logger, LoggerConfig, TraceDb};
use sgx_sdk::{CallData, EcallCtx, HostCtx, OcallTableBuilder, Runtime, SdkResult, ThreadCtx};
use sgx_sim::{EnclaveConfig, Machine};
use sim_core::{Clock, HwProfile, Nanos};

/// A call-tree plan: at each level, how many children to spawn (ocalls
/// from ecalls, nested ecalls from ocalls), decremented per level so the
/// tree terminates.
#[derive(Debug, Clone)]
struct Plan {
    fanouts: Vec<u8>,
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    proptest::collection::vec(0u8..3, 1..5).prop_map(|fanouts| Plan { fanouts })
}

fn run_plan(plan: &Plan) -> TraceDb {
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse(
        "enclave { trusted { public void ecall_node(uint64_t depth); };
                   untrusted { void ocall_node(uint64_t depth) allow(ecall_node); }; };",
    )
    .unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    let fanouts = Arc::new(plan.fanouts.clone());

    let f_ecall = Arc::clone(&fanouts);
    enclave
        .register_ecall("ecall_node", move |ctx: &mut EcallCtx<'_>, data| {
            let depth = data.scalar as usize;
            ctx.compute(Nanos::from_nanos(300))?;
            let children = f_ecall.get(depth).copied().unwrap_or(0);
            for _ in 0..children {
                ctx.ocall("ocall_node", &mut CallData::new(depth as u64 + 1))?;
            }
            ctx.compute(Nanos::from_nanos(200))?;
            Ok(())
        })
        .unwrap();

    let f_ocall = Arc::clone(&fanouts);
    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder
        .register(
            "ocall_node",
            move |host: &mut HostCtx<'_>, data| -> SdkResult<()> {
                let depth = data.scalar as usize;
                host.compute(Nanos::from_nanos(250));
                let children = f_ocall.get(depth).copied().unwrap_or(0);
                for _ in 0..children {
                    host.ecall("ecall_node", &mut CallData::new(depth as u64 + 1))?;
                }
                Ok(())
            },
        )
        .unwrap();
    let table = Arc::new(builder.build().unwrap());

    let logger = Logger::attach(&rt, LoggerConfig::default());
    let tcx = ThreadCtx::main();
    // Three top-level roots so indirect parents exist too.
    for _ in 0..3 {
        rt.ecall(
            &tcx,
            enclave.id(),
            "ecall_node",
            &table,
            &mut CallData::new(0),
        )
        .unwrap();
    }
    logger.finish()
}

fn interval_of_ecall(trace: &TraceDb, row: u64) -> (u64, u64) {
    let e = trace.ecalls.get(eventdb::RowId(row as usize)).unwrap();
    (e.start_ns, e.end_ns)
}

fn interval_of_ocall(trace: &TraceDb, row: u64) -> (u64, u64) {
    let o = trace.ocalls.get(eventdb::RowId(row as usize)).unwrap();
    (o.start_ns, o.end_ns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn nesting_links_are_well_formed(plan in arb_plan()) {
        let trace = run_plan(&plan);

        // Expected node counts: roots spawn fanout[0] ocalls each, which
        // spawn fanout[1] ecalls each, and so on.
        let mut expect_ecalls = 3u64;
        let mut expect_ocalls = 0u64;
        let mut level_count = 3u64;
        for (depth, &f) in plan.fanouts.iter().enumerate() {
            level_count *= f as u64;
            if depth % 2 == 0 {
                expect_ocalls += level_count;
            } else {
                expect_ecalls += level_count;
            }
            if level_count == 0 {
                break;
            }
        }
        prop_assert_eq!(trace.ecalls.len() as u64, expect_ecalls);
        prop_assert_eq!(trace.ocalls.len() as u64, expect_ocalls);

        // Every ocall interval nests strictly inside its parent ecall.
        for o in trace.ocalls.iter() {
            prop_assert!(o.start_ns <= o.end_ns);
            let parent = o.parent_ecall.expect("ocalls always have a parent here");
            let (ps, pe) = interval_of_ecall(&trace, parent);
            prop_assert!(ps <= o.start_ns && o.end_ns <= pe,
                "ocall [{},{}] outside parent [{ps},{pe}]", o.start_ns, o.end_ns);
        }
        // Every nested ecall interval nests inside its parent ocall.
        for e in trace.ecalls.iter() {
            prop_assert!(e.start_ns <= e.end_ns);
            if let Some(parent) = e.parent_ocall {
                let (ps, pe) = interval_of_ocall(&trace, parent);
                prop_assert!(ps <= e.start_ns && e.end_ns <= pe);
            }
        }
        // Exactly three parentless (top-level) ecalls, non-overlapping.
        let mut roots: Vec<(u64, u64)> = trace
            .ecalls
            .iter()
            .filter(|e| e.parent_ocall.is_none())
            .map(|e| (e.start_ns, e.end_ns))
            .collect();
        prop_assert_eq!(roots.len(), 3);
        roots.sort_unstable();
        for w in roots.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "roots overlap: {roots:?}");
        }
    }
}

/// One random call row: (is ecall, thread, enclave, call index, start,
/// duration, parent row). Parent rows may point past the other table's
/// end (a dangling link), starts collide often and threads are few, so
/// every branch of the indexes is exercised.
type RowPlan = (bool, u64, u32, u32, u64, u64, Option<u64>);

fn arb_rows() -> impl Strategy<Value = Vec<RowPlan>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            0u64..3,
            1u32..3,
            0u32..4,
            0u64..40,
            0u64..10,
            proptest::option::of(0u64..24),
        ),
        0..60,
    )
}

fn random_trace(rows: &[RowPlan]) -> TraceDb {
    let mut trace = TraceDb::default();
    for &(is_ecall, thread, enclave, call_index, start_ns, duration, parent) in rows {
        let end_ns = start_ns + duration;
        if is_ecall {
            trace.ecalls.insert(EcallRow {
                thread,
                enclave,
                call_index,
                start_ns,
                end_ns,
                parent_ocall: parent,
                aex_count: duration % 3,
                failed: false,
            });
        } else {
            trace.ocalls.insert(OcallRow {
                thread,
                enclave,
                call_index,
                start_ns,
                end_ns,
                parent_ecall: parent,
                failed: false,
            });
        }
    }
    trace
}

/// The oracle for `by_row`: a scan of every instance.
fn scan_by_row(all: &[CallInstance], kind: CallKind, row: u64) -> Option<usize> {
    all.iter().position(|i| i.call.kind == kind && i.row == row)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn indexes_match_brute_force_scans(rows in arb_rows()) {
        let trace = random_trace(&rows);
        let inst = Instances::build(&trace, &HwProfile::Unpatched.cost_model());
        let all = &inst.all;
        prop_assert_eq!(all.len(), rows.len());
        for w in all.windows(2) {
            prop_assert!(
                (w[0].start_ns, w[0].call.kind, w[0].row) < (w[1].start_ns, w[1].call.kind, w[1].row)
            );
        }

        // distinct_calls: every call of the view, sorted and deduplicated.
        let mut calls: Vec<CallRef> = all.iter().map(|i| i.call).collect();
        calls.sort();
        calls.dedup();
        prop_assert_eq!(inst.distinct_calls(), calls.clone());

        // of_call: the filtered view, in start order — also for calls
        // that never ran.
        let absent = CallRef { enclave: 9, kind: CallKind::Ecall, index: 0 };
        for call in calls.iter().copied().chain([absent]) {
            let indexed: Vec<u64> = inst.of_call(call).map(|i| i.start_ns * 1000 + i.row).collect();
            let scanned: Vec<u64> = all
                .iter()
                .filter(|i| i.call == call)
                .map(|i| i.start_ns * 1000 + i.row)
                .collect();
            prop_assert_eq!(indexed, scanned);
        }

        // by_row: every row id in range and past the end of both tables.
        for kind in [CallKind::Ecall, CallKind::Ocall] {
            for row in 0..30u64 {
                let indexed = inst.by_row(kind, row).map(|i| (i.call, i.row, i.start_ns));
                let scanned = scan_by_row(all, kind, row).map(|p| (all[p].call, all[p].row, all[p].start_ns));
                prop_assert_eq!(indexed, scanned);
            }
        }

        // Indirect parents: the previous instance with the same thread,
        // direct-parent link (dangling or not) and kind (Figure 4).
        for (idx, i) in all.iter().enumerate() {
            let expected = all[..idx].iter().rposition(|p| {
                p.thread == i.thread && p.direct_parent == i.direct_parent && p.call.kind == i.call.kind
            });
            prop_assert_eq!(i.indirect_parent, expected, "instance {}: {:?}", idx, i);
        }
    }
}
