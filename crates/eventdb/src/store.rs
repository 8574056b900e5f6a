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
//! Both directions avoid copying the trace. [`StoreEncoder`] writes the
//! header and each table's rows into one buffer in a single pass,
//! patching each section's length prefix and the section count in place.
//! [`StoreView`] parses a container *in place*: its sections borrow tag
//! and blob from the input bytes, so tables decode rows straight from the
//! file buffer. [`Store`] is the owned form (its sections are separate
//! blobs); it is built on the same parser.
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
//! [`Frames`] walks the frames in file order and stops at the first torn
//! or CRC-bad one. For recordings, frames are full-table snapshots:
//! [`Store::load`] keeps the *last* valid frame per tag and salvages a torn
//! tail back to the last valid frame boundary. Journals that append one
//! entry per frame walk [`Frames`] themselves.

use std::fs;
use std::io::Write;
use std::path::Path;

use crate::codec::{Decoder, Encoder};
use crate::table::{Record, Table};
use crate::DbError;

const MAGIC: &[u8; 4] = b"EVDB";
const VERSION: u8 = 1;
/// Byte offset of the section count in the `EVDB` header.
const COUNT_AT: usize = MAGIC.len() + 1;

const SEG_MAGIC: &[u8; 4] = b"EVSG";
const SEG_VERSION: u8 = 1;

/// CRC-32 (IEEE, reflected polynomial 0xedb88320), one table entry per
/// byte value.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Feeds `data` into a running CRC-32 register (start at `!0`, finish
/// with `!`).
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[usize::from((crc as u8) ^ b)];
    }
    crc
}

/// CRC-32 of `data`.
fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Shape of one section, produced by [`StoreView::sections`] without decoding
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

/// Receives a trace's tables one at a time. [`Store`] keeps each as a
/// separate blob; [`StoreEncoder`] writes it straight into the container
/// bytes. Both produce the same file.
pub trait TableSink {
    /// Adds the section for `table`.
    fn put<R: Record>(&mut self, table: &Table<R>);
}

/// Writes an `EVDB` container in one pass into one buffer: the same
/// bytes as [`Store::to_bytes`] after the same `put`s, without a blob per
/// table.
#[derive(Debug)]
pub struct StoreEncoder {
    enc: Encoder,
    sections: u32,
}

impl Default for StoreEncoder {
    fn default() -> Self {
        StoreEncoder::new()
    }
}

impl StoreEncoder {
    /// Starts a container: magic, version and a section count that
    /// [`StoreEncoder::into_bytes`] fills in.
    pub fn new() -> StoreEncoder {
        let mut enc = Encoder::new();
        for b in MAGIC {
            enc.u8(*b);
        }
        enc.u8(VERSION);
        enc.u32(0);
        StoreEncoder { enc, sections: 0 }
    }

    /// Appends one section whose blob `write` encodes in place.
    fn section(&mut self, tag: &str, write: impl FnOnce(&mut Encoder)) {
        self.enc.str(tag);
        self.enc.blob(write);
        self.sections = self.sections.checked_add(1).expect("too many sections");
    }

    /// Finishes the container and returns its bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.enc.patch_u32(COUNT_AT, self.sections);
        self.enc.into_bytes()
    }
}

impl TableSink for StoreEncoder {
    fn put<R: Record>(&mut self, table: &Table<R>) {
        self.section(R::TAG, |enc| table.encode(enc));
    }
}

/// A container parsed in place: every section's tag and blob borrow the
/// parsed bytes. Lookups by tag return the *first* matching section, as
/// [`Store::get`] does.
#[derive(Debug, Default, Clone)]
pub struct StoreView<'a> {
    sections: Vec<(&'a str, &'a [u8])>,
}

impl<'a> StoreView<'a> {
    /// Parses an `EVDB` container strictly: a bad header, a truncated
    /// section or trailing bytes are errors.
    ///
    /// # Errors
    ///
    /// [`DbError::Corrupt`] on malformed input.
    pub fn from_bytes(data: &'a [u8]) -> Result<StoreView<'a>, DbError> {
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
            let tag = dec.str_ref()?;
            let blob = dec.bytes()?;
            sections.push((tag, blob));
        }
        if !dec.is_exhausted() {
            return Err(DbError::Corrupt(format!(
                "{} trailing bytes after last section",
                dec.remaining()
            )));
        }
        Ok(StoreView { sections })
    }

    /// Parses file bytes in either layout, by magic: the atomic `EVDB`
    /// container strictly, a segmented `EVSG` recording by salvage (see
    /// [`Store::load`]).
    ///
    /// # Errors
    ///
    /// Corruption, as for [`StoreView::from_bytes`] and
    /// [`Store::salvage_segmented`].
    pub fn read(data: &'a [u8]) -> Result<StoreView<'a>, DbError> {
        if data.starts_with(SEG_MAGIC) {
            return last_wins(data).map(|(view, _)| view);
        }
        StoreView::from_bytes(data)
    }

    /// Decodes the table for record type `R` from the first section
    /// tagged `R::TAG`.
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
            .find(|(tag, _)| *tag == R::TAG)
            .map(|(_, blob)| *blob)
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

    /// Enumerates sections in order *without decoding records*: the row
    /// count is read from each blob's count prefix and the byte size is
    /// the blob length, so the cost is O(sections), not O(rows). Tools
    /// that only need shape (`sgxperf info`, fault-row counts) use this
    /// instead of [`StoreView::get`].
    ///
    /// # Errors
    ///
    /// Each item is [`DbError::Corrupt`] if that section is too short to
    /// carry a count prefix — the containing store may still be usable.
    pub fn sections(self) -> impl Iterator<Item = Result<SectionInfo, DbError>> + 'a {
        self.sections.into_iter().map(|(tag, blob)| {
            let rows = Decoder::new(blob).u64().map_err(|_| {
                DbError::Corrupt(format!(
                    "section `{tag}` too short for a row-count prefix ({} bytes)",
                    blob.len()
                ))
            })?;
            Ok(SectionInfo {
                tag: tag.to_string(),
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

    /// Copies the sections into an owned [`Store`].
    fn to_store(&self) -> Store {
        Store {
            sections: self
                .sections
                .iter()
                .map(|(tag, blob)| (tag.to_string(), blob.to_vec()))
                .collect(),
        }
    }

    /// Adds a segmented frame: a later snapshot replaces an earlier one.
    fn replace(&mut self, tag: &'a str, blob: &'a [u8]) {
        if let Some(slot) = self.sections.iter_mut().find(|(t, _)| *t == tag) {
            slot.1 = blob;
        } else {
            self.sections.push((tag, blob));
        }
    }
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

    /// Borrows the sections as a [`StoreView`].
    pub fn view(&self) -> StoreView<'_> {
        StoreView {
            sections: self
                .sections
                .iter()
                .map(|(tag, blob)| (tag.as_str(), blob.as_slice()))
                .collect(),
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
        self.view().get()
    }

    /// Tags of all sections in insertion order.
    pub fn tags(&self) -> Vec<&str> {
        self.sections.iter().map(|(tag, _)| tag.as_str()).collect()
    }

    /// Enumerates sections in insertion order without decoding records
    /// (see [`StoreView::sections`]).
    ///
    /// # Errors
    ///
    /// As for [`StoreView::sections`].
    pub fn sections(&self) -> impl Iterator<Item = Result<SectionInfo, DbError>> + '_ {
        self.view().sections()
    }

    /// Total encoded payload bytes across all sections (see
    /// [`StoreView::payload_bytes`]).
    pub fn payload_bytes(&self) -> usize {
        self.view().payload_bytes()
    }

    /// Serialises the store to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = StoreEncoder::new();
        for (tag, blob) in &self.sections {
            out.section(tag, |enc| enc.raw(blob));
        }
        out.into_bytes()
    }

    /// Parses a store from bytes (strictly; see [`StoreView::from_bytes`]).
    ///
    /// # Errors
    ///
    /// [`DbError::Corrupt`] on malformed input.
    pub fn from_bytes(data: &[u8]) -> Result<Store, DbError> {
        StoreView::from_bytes(data).map(|view| view.to_store())
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
        StoreView::read(&data).map(|view| view.to_store())
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
        let (view, offset) = last_wins(data)?;
        if offset < data.len() {
            // "?" when even the torn frame's tag is cut.
            let table = Decoder::new(&data[offset..]).str_ref().unwrap_or("?");
            return Err(DbError::TruncatedFrame {
                table: table.to_string(),
                offset,
            });
        }
        Ok(view.to_store())
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
        let (view, end) = last_wins(data)?;
        Ok((view.to_store(), data.len() - end))
    }
}

impl TableSink for Store {
    fn put<R: Record>(&mut self, table: &Table<R>) {
        Store::put(self, table);
    }
}

/// One CRC-valid frame of a segmented recording; tag and blob borrow the
/// recording's bytes.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The table tag.
    pub tag: &'a str,
    /// The encoded table.
    pub blob: &'a [u8],
}

impl Frame<'_> {
    /// Decodes the frame's table as record type `R`.
    ///
    /// # Errors
    ///
    /// [`DbError::MissingTable`] if the frame is not tagged `R::TAG`;
    /// [`DbError::Corrupt`] if the blob fails to decode cleanly.
    pub fn get<R: Record>(&self) -> Result<Table<R>, DbError> {
        let view = StoreView {
            sections: vec![(self.tag, self.blob)],
        };
        view.get()
    }
}

/// Walks the frames of a segmented recording in file order. The walk ends
/// at the end of the data or at the first torn or CRC-bad frame: the
/// frames after a bad one cannot be trusted to start where it claims to
/// end. [`Frames::offset`] then tells where the valid prefix stops.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Frames<'a> {
    /// Checks the `EVSG` header and starts the walk after it.
    ///
    /// # Errors
    ///
    /// [`DbError::Corrupt`] on a bad magic or an unsupported version.
    pub fn new(data: &'a [u8]) -> Result<Frames<'a>, DbError> {
        if data.len() < SEG_MAGIC.len() + 1 || &data[..4] != SEG_MAGIC {
            return Err(DbError::Corrupt("bad segmented magic".into()));
        }
        let version = data[4];
        if version != SEG_VERSION {
            return Err(DbError::Corrupt(format!(
                "unsupported segmented version {version} (supported: {SEG_VERSION})"
            )));
        }
        Ok(Frames {
            data,
            pos: SEG_MAGIC.len() + 1,
        })
    }

    /// Byte offset just past the last frame yielded (the header's end
    /// before the first). Once the walk has ended, everything from here
    /// on is a torn or corrupt tail.
    pub fn offset(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        let frame = &self.data[self.pos..];
        let mut dec = Decoder::new(frame);
        let tag = dec.str_ref().ok()?;
        let blob = dec.bytes().ok()?;
        let body_len = frame.len() - dec.remaining();
        // A missing or bad checksum means the kill landed inside this
        // frame; everything before it is still good.
        if dec.u32().ok()? != crc32(&frame[..body_len]) {
            return None;
        }
        self.pos += frame.len() - dec.remaining();
        Some(Frame { tag, blob })
    }
}

/// Folds a segmented recording's valid frames into a view (last snapshot
/// per tag wins) and returns it with the end offset of the valid prefix.
fn last_wins(data: &[u8]) -> Result<(StoreView<'_>, usize), DbError> {
    let mut frames = Frames::new(data)?;
    let mut view = StoreView::default();
    for frame in frames.by_ref() {
        view.replace(frame.tag, frame.blob);
    }
    Ok((view, frames.offset()))
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
        self.write_frame(R::TAG, &enc.into_bytes())?;
        self.out.flush()?;
        Ok(())
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

    /// Writes `tag`, `blob` and their CRC-32 straight to the output: the
    /// checksum runs over the same pieces as they are written.
    fn write_frame(&mut self, tag: &str, blob: &[u8]) -> Result<(), DbError> {
        let mut crc = !0;
        for piece in [tag.as_bytes(), blob] {
            let len = u32::try_from(piece.len())
                .expect("blob larger than 4 GiB")
                .to_le_bytes();
            crc = crc32_update(crc32_update(crc, &len), piece);
            self.out.write_all(&len)?;
            self.out.write_all(piece)?;
        }
        self.out.write_all(&(!crc).to_le_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;

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
    fn one_pass_encoder_writes_the_store_bytes() {
        let mut ta = Table::new();
        ta.insert(A(1));
        ta.insert(A(2));
        let mut tb = Table::new();
        tb.insert(B("x".into()));
        let mut out = StoreEncoder::new();
        TableSink::put(&mut out, &ta);
        TableSink::put(&mut out, &tb);
        assert_eq!(out.into_bytes(), sample_store().to_bytes());
        assert_eq!(StoreEncoder::new().into_bytes(), Store::new().to_bytes());
    }

    #[test]
    fn view_borrows_sections_and_the_first_duplicate_wins() {
        let mut s = sample_store();
        let mut first = Encoder::new();
        Table::from_iter([A(7)]).encode(&mut first);
        s.sections.insert(0, ("a".into(), first.into_bytes()));
        let bytes = s.to_bytes();
        let view = StoreView::from_bytes(&bytes).unwrap();
        let ta: Table<A> = view.get().unwrap();
        assert_eq!(ta.iter().map(|a| a.0).collect::<Vec<_>>(), vec![7]);
        let owned = Store::from_bytes(&bytes).unwrap();
        assert_eq!(owned.tags(), vec!["a", "a", "b"]);
        assert_eq!(owned.get::<A>().unwrap(), ta);
        assert_eq!(owned.to_bytes(), bytes);
    }

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn segmented_frame_is_tag_blob_then_crc() {
        let mut w = SegmentedWriter::new(Vec::new()).unwrap();
        w.write_frame("ab", &[1, 2, 3]).unwrap();
        let body = [2, 0, 0, 0, b'a', b'b', 3, 0, 0, 0, 1, 2, 3];
        let expected = [&b"EVSG\x01"[..], &body, &crc32(&body).to_le_bytes()].concat();
        assert_eq!(w.into_inner(), expected);
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

    #[test]
    fn file_roundtrip() {
        let dir = ScratchDir::new("eventdb-file-roundtrip");
        let path = dir.join("store.evdb");
        sample_store().save(&path).unwrap();
        let s = Store::load(&path).unwrap();
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
    fn frames_yield_every_snapshot_in_order_and_stop_at_a_bad_one() {
        let data = segmented_bytes();
        let mut frames = Frames::new(&data).unwrap();
        assert_eq!(frames.offset(), 5);
        let mut ends = Vec::new();
        let mut tags = Vec::new();
        while let Some(frame) = frames.next() {
            tags.push(frame.tag);
            ends.push(frames.offset());
        }
        assert_eq!(tags, vec!["a", "a", "b"]);
        assert_eq!(ends.last(), Some(&data.len()));
        let second: Table<A> = Frames::new(&data).unwrap().nth(1).unwrap().get().unwrap();
        assert_eq!(second.len(), 2);
        assert!(matches!(
            Frames::new(&data).unwrap().nth(2).unwrap().get::<A>(),
            Err(DbError::MissingTable("a"))
        ));
        // A bad checksum in the second frame ends the walk after the first,
        // even though the third frame is intact.
        let mut bad = data.clone();
        bad[ends[1] - 1] ^= 0xff;
        let mut frames = Frames::new(&bad).unwrap();
        assert_eq!(frames.by_ref().count(), 1);
        assert_eq!(frames.offset(), ends[0]);
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
        let dir = ScratchDir::new("eventdb-load-segmented");
        let path = dir.join("torn.evdb");
        let data = segmented_bytes();
        // Write a torn recording; load must salvage it transparently.
        fs::write(&path, &data[..data.len() - 3]).unwrap();
        let s = Store::load(&path).unwrap();
        assert_eq!(s.tags(), vec!["a"]);
    }
}
