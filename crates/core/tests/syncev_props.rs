//! Property tests for the sync-event table: arbitrary rows must survive
//! the binary codec, the store container, and crash-truncated segmented
//! recordings.

use proptest::prelude::*;

use eventdb::{Decoder, Encoder, Record, SegmentedWriter, Store, Table};
use sgx_perf::events::SyncEvRow;
use sgx_perf::TraceDb;

fn arb_syncev_row() -> impl Strategy<Value = SyncEvRow> {
    (
        any::<u64>(),
        0u8..10,
        proptest::option::of(any::<u64>()),
        proptest::option::of(any::<u64>()),
        any::<u64>(),
        "[a-z_]{0,24}",
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Codec-level roundtrip: every field (including the optional ids and
    /// free-form label) survives encode/decode exactly.
    #[test]
    fn syncev_rows_roundtrip_through_the_codec(
        rows in proptest::collection::vec(arb_syncev_row(), 0..64),
    ) {
        let table: Table<SyncEvRow> = rows.clone().into_iter().collect();
        let mut enc = Encoder::new();
        table.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = Table::<SyncEvRow>::decode(&mut dec).unwrap();
        prop_assert!(dec.is_exhausted());
        let got: Vec<SyncEvRow> = back.iter().cloned().collect();
        prop_assert_eq!(got, rows);
    }

    /// Container-level roundtrip through a full trace, plus the
    /// write-only-when-non-empty contract.
    #[test]
    fn syncev_table_roundtrips_through_the_trace_container(
        rows in proptest::collection::vec(arb_syncev_row(), 0..48),
    ) {
        let mut trace = TraceDb::default();
        for r in &rows {
            trace.syncev.insert(r.clone());
        }
        let bytes = trace.to_bytes();
        let back = TraceDb::from_bytes(&bytes).unwrap();
        let got: Vec<SyncEvRow> = back.syncev.iter().cloned().collect();
        prop_assert_eq!(got, rows.clone());
        // The section exists physically iff there are rows.
        let store = Store::from_bytes(&bytes).unwrap();
        let has_section = store.tags().contains(&SyncEvRow::TAG);
        prop_assert_eq!(has_section, !rows.is_empty());
    }

    /// Crash consistency: truncating a segmented recording at any byte
    /// must salvage a loadable prefix whose sync rows are a prefix of the
    /// written snapshots (never corrupt, never trailing garbage).
    #[test]
    fn truncated_segmented_recordings_salvage_a_syncev_prefix(
        rows in proptest::collection::vec(arb_syncev_row(), 1..24),
        cut_fraction in 0.0f64..1.0,
    ) {
        // Record snapshots of growing prefixes, as the live logger does.
        let mut writer = SegmentedWriter::new(Vec::new()).unwrap();
        let mut table: Table<SyncEvRow> = Table::default();
        for r in &rows {
            table.insert(r.clone());
            writer.append(&table).unwrap();
        }
        let full = writer.into_inner();
        let cut = ((full.len() as f64) * cut_fraction) as usize;
        let (store, dropped) = Store::salvage_segmented(&full[..cut]).unwrap();
        let salvaged: Vec<SyncEvRow> = match store.get::<SyncEvRow>() {
            Ok(t) => t.iter().cloned().collect(),
            Err(eventdb::DbError::MissingTable(_)) => Vec::new(),
            Err(e) => return Err(TestCaseError::fail(format!("salvage: {e}"))),
        };
        // Whatever survived is an exact prefix of what was recorded.
        prop_assert!(salvaged.len() <= rows.len());
        prop_assert_eq!(&rows[..salvaged.len()], &salvaged[..]);
        // And a clean (untruncated) file drops nothing and keeps all rows.
        if cut == full.len() {
            prop_assert_eq!(dropped, 0);
            prop_assert_eq!(salvaged.len(), rows.len());
        }
    }
}
