//! The on-disk container: named table sections with a versioned header.
//!
//! Layout:
//!
//! ```text
//! magic   "EVDB"          4 bytes
//! version u8              currently 1
//! count   u32             number of sections
//! section*:
//!   tag   str             table tag
//!   blob  bytes           the encoded table
//! ```
//!
//! A second, crash-consistent *segmented* layout exists for long-running
//! recordings ([`Store::open_segmented`]): instead of one atomic write at
//! end-of-run, checksummed frames are appended as the run progresses, so a
//! process killed mid-workload still leaves an analyzable prefix:
//!
//! ```text
//! magic   "EVSG"          4 bytes
//! version u8              currently 1
//! frame*:
//!   tag   str             table tag
//!   blob  bytes           the encoded table (full snapshot)
//!   crc   u32             CRC-32 over the frame's tag+blob bytes
//! ```
//!
//! Frames are full-table snapshots; [`Store::load`] keeps the *last* valid
//! frame per tag and salvages a torn tail back to the last valid frame
//! boundary.

use std::fs;
use std::io::Write;
use std::path::Path;

use crate::codec::{Decoder, Encoder};
use crate::table::{Record, Table};
use crate::DbError;

const MAGIC: &[u8; 4] = b"EVDB";
const VERSION: u8 = 1;

const SEG_MAGIC: &[u8; 4] = b"EVSG";
const SEG_VERSION: u8 = 1;

/// Bitwise CRC-32 (IEEE, reflected polynomial). Slow but dependency-free;
/// frames are small and written once.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffff_u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Shape of one section, produced by [`Store::sections`] without decoding
/// the section's records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// The table tag.
    pub tag: String,
    /// Rows in the encoded table (from the count prefix).
    pub rows: u64,
    /// Encoded size of the table blob in bytes.
    pub bytes: usize,
}

/// A set of encoded tables, addressable by their [`Record::TAG`], with
/// binary (de)serialisation. This is the trace *file*; live recording
/// happens in typed [`Table`]s which are `put` here at flush time.
#[derive(Debug, Default, Clone)]
pub struct Store {
    sections: Vec<(String, Vec<u8>)>,
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Adds (or replaces) the section for `table`.
    pub fn put<R: Record>(&mut self, table: &Table<R>) {
        let mut enc = Encoder::new();
        table.encode(&mut enc);
        let blob = enc.into_bytes();
        if let Some(slot) = self.sections.iter_mut().find(|(tag, _)| tag == R::TAG) {
            slot.1 = blob;
        } else {
            self.sections.push((R::TAG.to_string(), blob));
        }
    }

    /// Decodes the table for record type `R`.
    ///
    /// # Errors
    ///
    /// [`DbError::MissingTable`] if no section carries `R::TAG`;
    /// [`DbError::Corrupt`] if the section fails to decode cleanly
    /// (including trailing bytes).
    pub fn get<R: Record>(&self) -> Result<Table<R>, DbError> {
        let blob = self
            .sections
            .iter()
            .find(|(tag, _)| tag == R::TAG)
            .map(|(_, blob)| blob)
            .ok_or(DbError::MissingTable(R::TAG))?;
        let mut dec = Decoder::new(blob);
        let table = Table::<R>::decode(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(DbError::Corrupt(format!(
                "{} trailing bytes after table `{}`",
                dec.remaining(),
                R::TAG
            )));
        }
        Ok(table)
    }

    /// Tags of all sections in insertion order.
    pub fn tags(&self) -> Vec<&str> {
        self.sections.iter().map(|(tag, _)| tag.as_str()).collect()
    }

    /// Enumerates sections in insertion order *without decoding records*:
    /// the row count is read from each blob's count prefix and the byte
    /// size is the blob length, so the cost is O(sections), not O(rows).
    /// Tools that only need shape (`sgxperf info`, exporters sizing their
    /// output) use this instead of [`Store::get`].
    ///
    /// # Errors
    ///
    /// Each item is [`DbError::Corrupt`] if that section is too short to
    /// carry a count prefix — the containing store may still be usable.
    pub fn sections(&self) -> impl Iterator<Item = Result<SectionInfo, DbError>> + '_ {
        self.sections.iter().map(|(tag, blob)| {
            let mut dec = Decoder::new(blob);
            let rows = dec.u64().map_err(|_| {
                DbError::Corrupt(format!(
                    "section `{tag}` too short for a row-count prefix ({} bytes)",
                    blob.len()
                ))
            })?;
            Ok(SectionInfo {
                tag: tag.clone(),
                rows,
                bytes: blob.len(),
            })
        })
    }

    /// Total encoded payload bytes across all sections (excluding the
    /// container header and tag strings).
    pub fn payload_bytes(&self) -> usize {
        self.sections.iter().map(|(_, blob)| blob.len()).sum()
    }

    /// Serialises the store to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        for b in MAGIC {
            enc.u8(*b);
        }
        enc.u8(VERSION);
        enc.u32(u32::try_from(self.sections.len()).expect("too many sections"));
        for (tag, blob) in &self.sections {
            enc.str(tag);
            enc.bytes(blob);
        }
        enc.into_bytes()
    }

    /// Parses a store from bytes.
    pub fn from_bytes(data: &[u8]) -> Result<Store, DbError> {
        let mut dec = Decoder::new(data);
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = dec.u8()?;
        }
        if &magic != MAGIC {
            return Err(DbError::Corrupt(format!("bad magic {magic:?}")));
        }
        let version = dec.u8()?;
        if version != VERSION {
            return Err(DbError::Corrupt(format!(
                "unsupported version {version} (supported: {VERSION})"
            )));
        }
        let count = dec.u32()? as usize;
        let mut sections = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let tag = dec.str()?;
            let blob = dec.bytes()?.to_vec();
            sections.push((tag, blob));
        }
        if !dec.is_exhausted() {
            return Err(DbError::Corrupt(format!(
                "{} trailing bytes after last section",
                dec.remaining()
            )));
        }
        Ok(Store { sections })
    }

    /// Writes the store to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DbError> {
        fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads a store from a file, auto-detecting the layout by magic: the
    /// atomic `EVDB` container is parsed strictly, a segmented `EVSG`
    /// recording is *salvaged* — a torn tail (writer killed mid-append) is
    /// dropped back to the last valid frame boundary rather than failing
    /// the whole load.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and corruption.
    pub fn load(path: impl AsRef<Path>) -> Result<Store, DbError> {
        let data = fs::read(path)?;
        if data.starts_with(SEG_MAGIC) {
            return Store::salvage_segmented(&data).map(|(store, _)| store);
        }
        Store::from_bytes(&data)
    }

    // ------------------------------------------------------------------
    // Segmented (crash-consistent) layout
    // ------------------------------------------------------------------

    /// Opens a segmented writer at `path`, truncating any existing file
    /// and writing the `EVSG` header. Frames appended afterwards are
    /// flushed individually, so killing the process at any point leaves a
    /// salvageable prefix.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_segmented(path: impl AsRef<Path>) -> Result<SegmentedWriter, DbError> {
        SegmentedWriter::new(fs::File::create(path)?)
    }

    /// Parses a segmented recording *strictly*: a torn tail is an error.
    ///
    /// # Errors
    ///
    /// [`DbError::Corrupt`] on a bad header;
    /// [`DbError::TruncatedFrame`] when the data ends in a torn frame.
    pub fn from_segmented_bytes(data: &[u8]) -> Result<Store, DbError> {
        let (store, dropped, torn) = Store::parse_segmented(data)?;
        if dropped > 0 {
            let (table, offset) = torn.expect("dropped bytes imply a torn frame");
            return Err(DbError::TruncatedFrame { table, offset });
        }
        Ok(store)
    }

    /// Parses a segmented recording, salvaging a torn tail: frames are
    /// consumed up to the last valid frame boundary and the rest is
    /// dropped. Returns the store and how many tail bytes were discarded
    /// (0 for a cleanly finished recording).
    ///
    /// # Errors
    ///
    /// [`DbError::Corrupt`] only when the header itself is bad — a file
    /// that never got past `open_segmented` is not a recording at all.
    pub fn salvage_segmented(data: &[u8]) -> Result<(Store, usize), DbError> {
        let (store, dropped, _) = Store::parse_segmented(data)?;
        Ok((store, dropped))
    }

    /// Walks segmented frames. Returns the store of valid frames (last
    /// snapshot per tag wins), the count of dropped tail bytes, and the
    /// torn frame's (tag, offset) when there is one.
    #[allow(clippy::type_complexity)]
    fn parse_segmented(data: &[u8]) -> Result<(Store, usize, Option<(String, usize)>), DbError> {
        if data.len() < SEG_MAGIC.len() + 1 || &data[..4] != SEG_MAGIC {
            return Err(DbError::Corrupt("bad segmented magic".into()));
        }
        let version = data[4];
        if version != SEG_VERSION {
            return Err(DbError::Corrupt(format!(
                "unsupported segmented version {version} (supported: {SEG_VERSION})"
            )));
        }
        let mut store = Store::new();
        let mut pos = SEG_MAGIC.len() + 1;
        while pos < data.len() {
            let frame = &data[pos..];
            let mut dec = Decoder::new(frame);
            let tag = match dec.str() {
                Ok(tag) => tag,
                Err(_) => {
                    return Ok((store, data.len() - pos, Some(("?".into(), pos))));
                }
            };
            let blob = match dec.bytes() {
                Ok(blob) => blob.to_vec(),
                Err(_) => {
                    return Ok((store, data.len() - pos, Some((tag, pos))));
                }
            };
            let body_len = frame.len() - dec.remaining();
            let stored_crc = match dec.u32() {
                Ok(crc) => crc,
                Err(_) => {
                    return Ok((store, data.len() - pos, Some((tag, pos))));
                }
            };
            if stored_crc != crc32(&frame[..body_len]) {
                // A bad checksum means the kill landed inside this frame's
                // body; everything before it is still good.
                return Ok((store, data.len() - pos, Some((tag, pos))));
            }
            store.put_section(tag, blob);
            pos += frame.len() - dec.remaining();
        }
        Ok((store, 0, None))
    }

    fn put_section(&mut self, tag: String, blob: Vec<u8>) {
        if let Some(slot) = self.sections.iter_mut().find(|(t, _)| *t == tag) {
            slot.1 = blob;
        } else {
            self.sections.push((tag, blob));
        }
    }
}

/// Appends checksummed table frames to a segmented recording as the run
/// progresses. Each frame is a full-table snapshot, length-prefixed and
/// CRC-32-protected, flushed on append — see [`Store::open_segmented`].
#[derive(Debug)]
pub struct SegmentedWriter<W: Write = fs::File> {
    out: W,
}

impl<W: Write> SegmentedWriter<W> {
    /// Starts a segmented recording on `out` by writing the `EVSG`
    /// header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn new(mut out: W) -> Result<SegmentedWriter<W>, DbError> {
        out.write_all(SEG_MAGIC)?;
        out.write_all(&[SEG_VERSION])?;
        out.flush()?;
        Ok(SegmentedWriter { out })
    }

    /// Finishes the recording and returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Appends one table snapshot as a frame and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append<R: Record>(&mut self, table: &Table<R>) -> Result<(), DbError> {
        let mut enc = Encoder::new();
        table.encode(&mut enc);
        self.append_frame(R::TAG, &enc.into_bytes())
    }

    /// Appends every section of `store` as a frame (one flush at the end),
    /// so the recording's salvageable state advances to this snapshot.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append_store(&mut self, store: &Store) -> Result<(), DbError> {
        for (tag, blob) in &store.sections {
            self.write_frame(tag, blob)?;
        }
        self.out.flush()?;
        Ok(())
    }

    fn append_frame(&mut self, tag: &str, blob: &[u8]) -> Result<(), DbError> {
        self.write_frame(tag, blob)?;
        self.out.flush()?;
        Ok(())
    }

    fn write_frame(&mut self, tag: &str, blob: &[u8]) -> Result<(), DbError> {
        let mut enc = Encoder::new();
        enc.str(tag);
        enc.bytes(blob);
        let body = enc.into_bytes();
        let mut frame = body;
        let crc = crc32(&frame);
        let mut tail = Encoder::new();
        tail.u32(crc);
        frame.extend_from_slice(&tail.into_bytes());
        self.out.write_all(&frame)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct A(u64);
    impl Record for A {
        const TAG: &'static str = "a";
        fn encode(&self, out: &mut Encoder) {
            out.u64(self.0);
        }
        fn decode(r: &mut Decoder<'_>) -> Result<Self, DbError> {
            Ok(A(r.u64()?))
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct B(String);
    impl Record for B {
        const TAG: &'static str = "b";
        fn encode(&self, out: &mut Encoder) {
            out.str(&self.0);
        }
        fn decode(r: &mut Decoder<'_>) -> Result<Self, DbError> {
            Ok(B(r.str()?))
        }
    }

    fn sample_store() -> Store {
        let mut ta = Table::new();
        ta.insert(A(1));
        ta.insert(A(2));
        let mut tb = Table::new();
        tb.insert(B("x".into()));
        let mut s = Store::new();
        s.put(&ta);
        s.put(&tb);
        s
    }

    #[test]
    fn multi_table_roundtrip() {
        let s = sample_store();
        let bytes = s.to_bytes();
        let s2 = Store::from_bytes(&bytes).unwrap();
        let ta: Table<A> = s2.get().unwrap();
        let tb: Table<B> = s2.get().unwrap();
        assert_eq!(ta.len(), 2);
        assert_eq!(tb.iter().next().unwrap().0, "x");
    }

    #[test]
    fn put_replaces_existing_section() {
        let mut s = sample_store();
        let mut ta = Table::new();
        ta.insert(A(99));
        s.put(&ta);
        assert_eq!(s.tags(), vec!["a", "b"]);
        let got: Table<A> = s.get().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got.iter().next().unwrap().0, 99);
    }

    #[test]
    fn missing_table_reported() {
        let s = Store::new();
        assert!(matches!(
            s.get::<A>().unwrap_err(),
            DbError::MissingTable("a")
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_store().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Store::from_bytes(&bytes).unwrap_err(),
            DbError::Corrupt(_)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample_store().to_bytes();
        bytes[4] = 9;
        let err = Store::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_store().to_bytes();
        let err = Store::from_bytes(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(matches!(err, DbError::Corrupt(_)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample_store().to_bytes();
        bytes.push(0);
        let err = Store::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn sections_report_rows_and_bytes_without_decoding() {
        let s = sample_store();
        let infos: Vec<SectionInfo> = s.sections().map(|i| i.unwrap()).collect();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].tag, "a");
        assert_eq!(infos[0].rows, 2);
        // count prefix (8) + two u64 rows (16).
        assert_eq!(infos[0].bytes, 24);
        assert_eq!(infos[1].tag, "b");
        assert_eq!(infos[1].rows, 1);
        assert_eq!(s.payload_bytes(), infos.iter().map(|i| i.bytes).sum());
    }

    #[test]
    fn truncated_section_enumeration_fails_closed() {
        let mut s = Store::new();
        s.sections.push(("bad".into(), vec![1, 2, 3]));
        let got = s.sections().next().unwrap();
        assert!(matches!(got, Err(DbError::Corrupt(_))), "{got:?}");
    }

    /// A file path unique to one test in one process, removed on drop.
    struct TempPath(std::path::PathBuf);

    impl TempPath {
        fn new(test: &str) -> TempPath {
            let name = format!("eventdb-{test}-{:x}.evdb", std::process::id());
            TempPath(std::env::temp_dir().join(name))
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    #[test]
    fn file_roundtrip() {
        let path = TempPath::new("file-roundtrip");
        sample_store().save(&path.0).unwrap();
        let s = Store::load(&path.0).unwrap();
        assert_eq!(s.tags(), vec!["a", "b"]);
    }

    fn segmented_bytes() -> Vec<u8> {
        let mut w = SegmentedWriter::new(Vec::new()).unwrap();
        let mut ta = Table::new();
        ta.insert(A(1));
        w.append(&ta).unwrap();
        ta.insert(A(2));
        w.append(&ta).unwrap();
        let mut tb = Table::new();
        tb.insert(B("x".into()));
        w.append(&tb).unwrap();
        w.into_inner()
    }

    #[test]
    fn segmented_last_snapshot_per_tag_wins() {
        let data = segmented_bytes();
        let s = Store::from_segmented_bytes(&data).unwrap();
        assert_eq!(s.tags(), vec!["a", "b"]);
        let ta: Table<A> = s.get().unwrap();
        assert_eq!(ta.len(), 2);
        let tb: Table<B> = s.get().unwrap();
        assert_eq!(tb.len(), 1);
    }

    #[test]
    fn segmented_torn_tail_salvages_to_last_frame_boundary() {
        let data = segmented_bytes();
        // Kill anywhere inside the final frame: the first two A-frames
        // survive, the B-frame is gone.
        for cut in 1..12 {
            let torn = &data[..data.len() - cut];
            let (s, dropped) = Store::salvage_segmented(torn).unwrap();
            assert_eq!(s.tags(), vec!["a"], "cut={cut}");
            let ta: Table<A> = s.get().unwrap();
            assert_eq!(ta.len(), 2, "cut={cut}");
            assert!(dropped > 0);
        }
        // A clean recording salvages with nothing dropped.
        let (s, dropped) = Store::salvage_segmented(&data).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(s.tags(), vec!["a", "b"]);
    }

    #[test]
    fn segmented_strict_parse_reports_truncated_frame() {
        let data = segmented_bytes();
        let torn = &data[..data.len() - 2];
        let err = Store::from_segmented_bytes(torn).unwrap_err();
        match err {
            DbError::TruncatedFrame { table, offset } => {
                assert_eq!(table, "b");
                assert!(offset > 5);
                assert!(offset < data.len());
            }
            other => panic!("expected TruncatedFrame, got {other:?}"),
        }
    }

    #[test]
    fn segmented_crc_mismatch_drops_the_frame() {
        let mut data = segmented_bytes();
        // Flip a byte in the last frame's body (not the length prefixes at
        // its very start): the checksum no longer matches.
        let n = data.len();
        data[n - 5] ^= 0xff;
        let (s, dropped) = Store::salvage_segmented(&data).unwrap();
        assert_eq!(s.tags(), vec!["a"]);
        assert!(dropped > 0);
    }

    #[test]
    fn segmented_header_only_is_a_valid_empty_recording() {
        let data = [*b"EVSG", [SEG_VERSION, 0, 0, 0]].concat();
        let (s, dropped) = Store::salvage_segmented(&data[..5]).unwrap();
        assert!(s.tags().is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn segmented_bad_header_rejected() {
        assert!(matches!(
            Store::salvage_segmented(b"EVSX\x01"),
            Err(DbError::Corrupt(_))
        ));
        assert!(matches!(
            Store::salvage_segmented(b"EVSG\x09"),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn load_auto_detects_segmented_layout_and_salvages() {
        let path = TempPath::new("load-segmented");
        let data = segmented_bytes();
        // Write a torn recording; load must salvage it transparently.
        fs::write(&path.0, &data[..data.len() - 3]).unwrap();
        let s = Store::load(&path.0).unwrap();
        assert_eq!(s.tags(), vec!["a"]);
    }
}
