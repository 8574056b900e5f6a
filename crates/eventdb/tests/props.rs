//! Property tests of the store: codec round-trips over arbitrary records,
//! and the fail-closed contract for corrupted input — any truncation or
//! mutation of a valid store must surface as `DbError`, never a panic.

use eventdb::{DbError, Decoder, Encoder, Record, SegmentedWriter, Store, Table};
use proptest::prelude::*;

/// A record exercising every codec primitive: fixed-width integers,
/// floats, booleans, options, strings and nested byte-ish payloads.
#[derive(Debug, Clone, PartialEq)]
struct Mixed {
    a: u64,
    b: u32,
    c: i64,
    d: f64,
    e: bool,
    f: Option<u64>,
    g: String,
    h: Vec<u32>,
}

impl Record for Mixed {
    const TAG: &'static str = "mixed";
    fn encode(&self, out: &mut Encoder) {
        out.u64(self.a);
        out.u32(self.b);
        out.i64(self.c);
        out.f64(self.d);
        out.bool(self.e);
        out.option(&self.f, |e, v| e.u64(*v));
        out.str(&self.g);
        out.usize(self.h.len());
        for v in &self.h {
            out.u32(*v);
        }
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DbError> {
        let a = r.u64()?;
        let b = r.u32()?;
        let c = r.i64()?;
        let d = r.f64()?;
        let e = r.bool()?;
        let f = r.option(|r| r.u64())?;
        let g = r.str()?;
        let n = r.usize()?;
        if n > r.remaining() {
            return Err(DbError::Corrupt(format!("vec count {n} too large")));
        }
        let mut h = Vec::with_capacity(n);
        for _ in 0..n {
            h.push(r.u32()?);
        }
        Ok(Mixed {
            a,
            b,
            c,
            d,
            e,
            f,
            g,
            h,
        })
    }
}

/// A second table type so stores carry multiple sections.
#[derive(Debug, Clone, PartialEq)]
struct Tagged(String);

impl Record for Tagged {
    const TAG: &'static str = "tagged";
    fn encode(&self, out: &mut Encoder) {
        out.str(&self.0);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DbError> {
        Ok(Tagged(r.str()?))
    }
}

type MixedGen = (u64, u32, i64, u64, bool, Option<u64>, String, Vec<u32>);

fn mixed(row: MixedGen) -> Mixed {
    let (a, b, c, d_bits, e, f, g, h) = row;
    Mixed {
        a,
        b,
        c,
        // Drawn as bits and masked to a finite exponent so PartialEq holds
        // through the round-trip (NaN != NaN would be a false failure).
        d: f64::from_bits(d_bits & 0x7fef_ffff_ffff_ffff),
        e,
        f,
        g,
        h,
    }
}

fn build_store(rows: &[Mixed], tags: &[String]) -> Store {
    let mixed_table: Table<Mixed> = rows.iter().cloned().collect();
    let tag_table: Table<Tagged> = tags.iter().cloned().map(Tagged).collect();
    let mut store = Store::new();
    store.put(&mixed_table);
    store.put(&tag_table);
    store
}

proptest! {
    #[test]
    fn store_roundtrip_preserves_every_row(
        rows in proptest::collection::vec(
            (any::<u64>(), any::<u32>(), any::<i64>(), any::<u64>(),
             any::<bool>(), proptest::option::of(any::<u64>()),
             "\\PC{0,24}", proptest::collection::vec(any::<u32>(), 0..6)),
            0..12,
        ),
        tags in proptest::collection::vec("\\PC{0,16}", 0..4),
    ) {
        let rows: Vec<Mixed> = rows.into_iter().map(mixed).collect();
        let store = build_store(&rows, &tags);
        let bytes = store.to_bytes();
        let back = Store::from_bytes(&bytes).expect("own bytes must parse");
        let mixed_back: Table<Mixed> = back.get().expect("mixed table");
        let got: Vec<Mixed> = mixed_back.iter().cloned().collect();
        prop_assert_eq!(got, rows.clone());
        let tags_back: Table<Tagged> = back.get().expect("tagged table");
        let got_tags: Vec<String> = tags_back.iter().map(|t| t.0.clone()).collect();
        prop_assert_eq!(got_tags, tags);
        // Re-encoding is a fixpoint.
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn section_enumeration_matches_decoded_shape(
        rows in proptest::collection::vec(
            (any::<u64>(), any::<u32>(), any::<i64>(), any::<u64>(),
             any::<bool>(), proptest::option::of(any::<u64>()),
             "\\PC{0,24}", proptest::collection::vec(any::<u32>(), 0..6)),
            0..12,
        ),
        tags in proptest::collection::vec("\\PC{0,16}", 0..4),
    ) {
        let rows: Vec<Mixed> = rows.into_iter().map(mixed).collect();
        let store = build_store(&rows, &tags);
        let infos: Vec<_> = store.sections().map(|i| i.expect("valid section")).collect();
        prop_assert_eq!(infos.len(), 2);
        prop_assert_eq!(infos[0].tag.as_str(), "mixed");
        prop_assert_eq!(infos[0].rows, rows.len() as u64);
        prop_assert_eq!(infos[1].tag.as_str(), "tagged");
        prop_assert_eq!(infos[1].rows, tags.len() as u64);
        prop_assert_eq!(
            store.payload_bytes(),
            infos.iter().map(|i| i.bytes).sum::<usize>()
        );
    }

    #[test]
    fn any_strict_prefix_fails_closed(
        rows in proptest::collection::vec(
            (any::<u64>(), any::<u32>(), any::<i64>(), any::<u64>(),
             any::<bool>(), proptest::option::of(any::<u64>()),
             "\\PC{0,24}", proptest::collection::vec(any::<u32>(), 0..6)),
            1..8,
        ),
        cut_frac in 0.0f64..1.0,
    ) {
        let rows: Vec<Mixed> = rows.into_iter().map(mixed).collect();
        let bytes = build_store(&rows, &[]).to_bytes();
        // Every strict prefix is either too short for the header or leaves
        // a section (or the trailing-bytes check) dangling.
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let got = Store::from_bytes(&bytes[..cut]);
        prop_assert!(got.is_err(), "prefix of {cut}/{} bytes parsed", bytes.len());
    }

    #[test]
    fn mutated_bytes_never_panic(
        rows in proptest::collection::vec(
            (any::<u64>(), any::<u32>(), any::<i64>(), any::<u64>(),
             any::<bool>(), proptest::option::of(any::<u64>()),
             "\\PC{0,24}", proptest::collection::vec(any::<u32>(), 0..6)),
            1..8,
        ),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let rows: Vec<Mixed> = rows.into_iter().map(mixed).collect();
        let mut bytes = build_store(&rows, &[]).to_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= xor;
        // A flipped byte may still decode (payload bits) or must error —
        // either way decoding and section enumeration stay panic-free.
        if let Ok(store) = Store::from_bytes(&bytes) {
            for info in store.sections() {
                let _ = info;
            }
            let _ = store.get::<Mixed>();
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(store) = Store::from_bytes(&data) {
            for info in store.sections() {
                let _ = info;
            }
            let _ = store.get::<Mixed>();
            let _ = store.get::<Tagged>();
        }
    }
}

/// Writes `snapshots` as successive full-table frames of a segmented
/// recording and returns the file bytes plus the byte offset of every
/// frame boundary (the salvageable cut points).
fn segmented_recording(snapshots: &[Vec<Mixed>]) -> (Vec<u8>, Vec<usize>) {
    let record = |frames: &[Vec<Mixed>]| {
        let mut writer = SegmentedWriter::new(Vec::new()).expect("start recording");
        for frame in frames {
            let table: Table<Mixed> = frame.iter().cloned().collect();
            writer.append(&table).expect("append frame");
        }
        writer.into_inner()
    };
    // A recording of the first k snapshots is a prefix of the whole one.
    let boundaries = (0..=snapshots.len())
        .map(|k| record(&snapshots[..k]).len())
        .collect();
    (record(snapshots), boundaries)
}

proptest! {
    // Crash-salvage round-trip: killing the writer at ANY byte position
    // must salvage exactly the frames completed before the kill — the
    // last fully-flushed snapshot, never a torn or reordered one.
    #[test]
    fn random_kill_point_salvages_a_valid_frame_prefix(
        snapshots in proptest::collection::vec(
            proptest::collection::vec(
                (any::<u64>(), any::<u32>(), any::<i64>(), any::<u64>(),
                 any::<bool>(), proptest::option::of(any::<u64>()),
                 "\\PC{0,12}", proptest::collection::vec(any::<u32>(), 0..4)),
                0..6,
            ).prop_map(|rows| rows.into_iter().map(mixed).collect::<Vec<Mixed>>()),
            1..5,
        ),
        cut_frac in 0.0f64..1.0,
    ) {
        let (data, boundaries) = segmented_recording(&snapshots);
        let header = boundaries[0];
        let cut = header + ((data.len() - header) as f64 * cut_frac) as usize;
        let torn = &data[..cut];
        let (store, dropped) = Store::salvage_segmented(torn).expect("salvage never fails past the header");
        // The salvaged prefix ends at the last frame boundary <= cut.
        let survived = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        prop_assert_eq!(dropped, cut - boundaries[survived]);
        if survived == 0 {
            prop_assert!(store.get::<Mixed>().is_err(), "no complete frame yet");
        } else {
            let table: Table<Mixed> = store.get().expect("salvaged table");
            let got: Vec<Mixed> = table.iter().cloned().collect();
            prop_assert_eq!(&got, &snapshots[survived - 1]);
        }
        // The strict parser agrees about where the tear is.
        match Store::from_segmented_bytes(torn) {
            Ok(_) => prop_assert_eq!(dropped, 0),
            Err(DbError::TruncatedFrame { offset, .. }) => {
                prop_assert_eq!(offset, boundaries[survived]);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
        }
    }

    // An uncut recording loads losslessly: the last snapshot wins and
    // nothing is dropped.
    #[test]
    fn clean_segmented_recording_roundtrips(
        snapshots in proptest::collection::vec(
            proptest::collection::vec(
                (any::<u64>(), any::<u32>(), any::<i64>(), any::<u64>(),
                 any::<bool>(), proptest::option::of(any::<u64>()),
                 "\\PC{0,12}", proptest::collection::vec(any::<u32>(), 0..4)),
                0..6,
            ).prop_map(|rows| rows.into_iter().map(mixed).collect::<Vec<Mixed>>()),
            1..5,
        ),
    ) {
        let (data, _) = segmented_recording(&snapshots);
        let (store, dropped) = Store::salvage_segmented(&data).expect("clean recording");
        prop_assert_eq!(dropped, 0);
        let table: Table<Mixed> = store.get().expect("mixed table");
        let got: Vec<Mixed> = table.iter().cloned().collect();
        prop_assert_eq!(&got, snapshots.last().expect("at least one snapshot"));
    }

    // Arbitrary bytes behind a segmented header must never panic the
    // salvager — at worst everything after the header is dropped.
    #[test]
    fn arbitrary_segmented_tails_never_panic(
        tail in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut data = b"EVSG\x01".to_vec();
        data.extend_from_slice(&tail);
        if let Ok((store, _)) = Store::salvage_segmented(&data) {
            for info in store.sections() {
                let _ = info;
            }
            let _ = store.get::<Mixed>();
        }
    }
}
