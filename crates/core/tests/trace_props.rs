//! Property tests of the trace file at the `TraceDb` level, with the
//! blob-per-table path as the oracle: `to_store().to_bytes()` encodes each
//! table into its own blob and then copies the blobs into the container,
//! `from_store(&Store::from_bytes(..))` copies each section out before
//! decoding it. The one-pass encoder and the in-place decoder must agree
//! with it byte for byte, and on every truncation and single-byte flip.

use eventdb::{DbError, Store};
use proptest::option::of;
use proptest::prelude::*;
use sgx_perf::events::{
    AexCauseCode, AexRow, EcallRow, EnclaveRow, FaultRow, FleetRow, LifecycleRow, OcallRow,
    PagingRow, SwitchlessRow, SymbolRow, SyncEvRow, SyncRow,
};
use sgx_perf::TraceDb;

/// Up to three rows per table, so every optional section is sometimes
/// absent and sometimes present.
fn rows<T: std::fmt::Debug>(row: impl Strategy<Value = T>) -> impl Strategy<Value = Vec<T>> {
    proptest::collection::vec(row, 0..4)
}

fn text() -> impl Strategy<Value = String> {
    "\\PC{0,12}"
}

fn ecall() -> impl Strategy<Value = EcallRow> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        of(any::<u64>()),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(thread, enclave, call_index, start_ns, end_ns, parent_ocall, aex_count, failed)| {
                EcallRow {
                    thread,
                    enclave,
                    call_index,
                    start_ns,
                    end_ns,
                    parent_ocall,
                    aex_count,
                    failed,
                }
            },
        )
}

fn ocall() -> impl Strategy<Value = OcallRow> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        of(any::<u64>()),
        any::<bool>(),
    )
        .prop_map(
            |(thread, enclave, call_index, start_ns, end_ns, parent_ecall, failed)| OcallRow {
                thread,
                enclave,
                call_index,
                start_ns,
                end_ns,
                parent_ecall,
                failed,
            },
        )
}

fn aex() -> impl Strategy<Value = AexRow> {
    let cause = prop_oneof![
        Just(AexCauseCode::Interrupt),
        Just(AexCauseCode::PageFault),
        Just(AexCauseCode::AccessFault),
    ];
    (
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        of(any::<u64>()),
        of(cause),
    )
        .prop_map(|(thread, enclave, time_ns, during_ecall, cause)| AexRow {
            thread,
            enclave,
            time_ns,
            during_ecall,
            cause,
        })
}

fn paging() -> impl Strategy<Value = PagingRow> {
    (any::<u32>(), any::<bool>(), any::<u64>(), any::<u64>()).prop_map(
        |(enclave, out, vaddr, time_ns)| PagingRow {
            enclave,
            out,
            vaddr,
            time_ns,
        },
    )
}

fn sync() -> impl Strategy<Value = SyncRow> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        of(any::<u64>()),
        any::<u64>(),
    )
        .prop_map(
            |(thread, time_ns, sleep, target_thread, ocall_row)| SyncRow {
                thread,
                time_ns,
                sleep,
                target_thread,
                ocall_row,
            },
        )
}

fn enclave() -> impl Strategy<Value = EnclaveRow> {
    (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(enclave, total_pages, created_ns)| {
        EnclaveRow {
            enclave,
            total_pages,
            created_ns,
        }
    })
}

fn symbol() -> impl Strategy<Value = SymbolRow> {
    (
        any::<u32>(),
        any::<bool>(),
        any::<u32>(),
        text(),
        any::<bool>(),
        proptest::collection::vec(any::<u32>(), 0..3),
        proptest::collection::vec(text(), 0..3),
    )
        .prop_map(
            |(enclave, kind_is_ecall, index, name, public, allowed_ecalls, user_check_params)| {
                SymbolRow {
                    enclave,
                    kind_is_ecall,
                    index,
                    name,
                    public,
                    allowed_ecalls,
                    user_check_params,
                }
            },
        )
}

fn switchless() -> impl Strategy<Value = SwitchlessRow> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u8>(),
        of(any::<u32>()),
        of(any::<u32>()),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(thread, enclave, kind, call_index, worker, spins, time_ns)| SwitchlessRow {
                thread,
                enclave,
                kind,
                call_index,
                worker,
                spins,
                time_ns,
            },
        )
}

fn fault() -> impl Strategy<Value = FaultRow> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u8>(),
        any::<u8>(),
        of(any::<u32>()),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(thread, enclave, fault, action, call_index, magnitude, time_ns)| FaultRow {
                thread,
                enclave,
                fault,
                action,
                call_index,
                magnitude,
                time_ns,
            },
        )
}

fn lifecycle() -> impl Strategy<Value = LifecycleRow> {
    (
        any::<u32>(),
        any::<u8>(),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(enclave, stage, thread, attempt, magnitude, time_ns)| LifecycleRow {
                enclave,
                stage,
                thread,
                attempt,
                magnitude,
                time_ns,
            },
        )
}

fn syncev() -> impl Strategy<Value = SyncEvRow> {
    (
        any::<u64>(),
        any::<u8>(),
        of(any::<u64>()),
        of(any::<u64>()),
        any::<u64>(),
        text(),
        any::<u64>(),
    )
        .prop_map(
            |(thread, op, object, target, aux, label, time_ns)| SyncEvRow {
                thread,
                op,
                object,
                target,
                aux,
                label,
                time_ns,
            },
        )
}

fn fleet() -> impl Strategy<Value = FleetRow> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (slot, spin_ups, restarts, requests),
                (completed, shed, failed, p50_ns),
                (p99_ns, page_ins, page_outs),
            )| FleetRow {
                slot,
                spin_ups,
                restarts,
                requests,
                completed,
                shed,
                failed,
                p50_ns,
                p99_ns,
                page_ins,
                page_outs,
            },
        )
}

fn trace() -> impl Strategy<Value = TraceDb> {
    (
        (rows(ecall()), rows(ocall()), rows(aex()), rows(paging())),
        (
            rows(sync()),
            rows(enclave()),
            rows(symbol()),
            rows(switchless()),
        ),
        (
            rows(fault()),
            rows(lifecycle()),
            rows(syncev()),
            rows(fleet()),
        ),
    )
        .prop_map(
            |(
                (ecalls, ocalls, aex, paging),
                (sync, enclaves, symbols, switchless),
                (faults, lifecycle, syncev, fleet),
            )| TraceDb {
                ecalls: ecalls.into_iter().collect(),
                ocalls: ocalls.into_iter().collect(),
                aex: aex.into_iter().collect(),
                paging: paging.into_iter().collect(),
                sync: sync.into_iter().collect(),
                enclaves: enclaves.into_iter().collect(),
                symbols: symbols.into_iter().collect(),
                switchless: switchless.into_iter().collect(),
                faults: faults.into_iter().collect(),
                lifecycle: lifecycle.into_iter().collect(),
                syncev: syncev.into_iter().collect(),
                fleet: fleet.into_iter().collect(),
            },
        )
}

/// The oracle's decode: copy every section out of the container, then
/// decode the copies.
fn oracle_decode(data: &[u8]) -> Result<TraceDb, DbError> {
    TraceDb::from_store(&Store::from_bytes(data)?)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_pass_encode_and_in_place_decode_match_the_blob_path(trace in trace()) {
        let bytes = trace.to_bytes();
        prop_assert_eq!(&bytes, &trace.to_store().to_bytes());
        let back = TraceDb::from_bytes(&bytes).expect("own bytes decode");
        let oracle = oracle_decode(&bytes).expect("oracle decodes own bytes");
        prop_assert_eq!(back.to_bytes(), oracle.to_bytes());
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn truncations_fail_and_flips_agree_with_the_blob_path(
        trace in trace(),
        xor in 1u8..=255,
    ) {
        let bytes = trace.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(
                TraceDb::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
        let mut flipped = bytes.clone();
        for pos in 0..bytes.len() {
            flipped[pos] ^= xor;
            match (TraceDb::from_bytes(&flipped), oracle_decode(&flipped)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got.to_bytes(), want.to_bytes()),
                (Err(_), Err(_)) => {}
                (got, want) => prop_assert!(
                    false,
                    "flip at {pos}: in-place {:?} vs oracle {:?}",
                    got.map(|_| ()),
                    want.map(|_| ())
                ),
            }
            flipped[pos] = bytes[pos];
        }
    }
}
