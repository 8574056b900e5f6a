//! Binary encoding primitives.
//!
//! Little-endian fixed-width integers, IEEE-754 doubles, and
//! length-prefixed UTF-8 strings/byte blobs. All decode paths are
//! bounds-checked and return [`DbError::Corrupt`] rather than panicking.
//!
//! Every primitive is `#[inline]`: row codecs in other crates call them
//! once per field, and without cross-crate inlining each field would be
//! an out-of-line call. Error formatting stays out of line, in one cold
//! function.

use std::fmt;

use crate::DbError;

/// Builds a [`DbError::Corrupt`]. Cold and never inlined, so the decode
/// fast paths carry only a branch to it.
#[cold]
#[inline(never)]
fn corrupt(msg: fmt::Arguments<'_>) -> DbError {
    DbError::Corrupt(msg.to_string())
}

/// Append-only binary encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i64.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an IEEE-754 double.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a boolean as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a usize as u64 (portable row counts / indexes).
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed byte blob.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(blob_len(v.len()));
        self.raw(v);
    }

    /// Writes bytes as they are, without a length prefix.
    #[inline]
    pub(crate) fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed blob whose bytes `write` appends in place:
    /// the same bytes as [`Encoder::bytes`] on a separately encoded blob,
    /// without the separate buffer. The prefix is patched afterwards.
    pub(crate) fn blob(&mut self, write: impl FnOnce(&mut Encoder)) {
        let at = self.buf.len();
        self.u32(0);
        write(self);
        let len = blob_len(self.buf.len() - at - 4);
        self.patch_u32(at, len);
    }

    /// Overwrites the u32 written at byte offset `at`.
    pub(crate) fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes an `Option` as a presence byte followed by the value.
    #[inline]
    pub fn option<T>(&mut self, v: &Option<T>, mut write: impl FnMut(&mut Encoder, &T)) {
        match v {
            Some(value) => {
                self.bool(true);
                write(self, value);
            }
            None => self.bool(false),
        }
    }
}

/// A blob length as its u32 prefix.
#[inline]
fn blob_len(len: usize) -> u32 {
    u32::try_from(len).expect("blob larger than 4 GiB")
}

/// Bounds-checked binary decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder at position 0.
    #[inline]
    pub fn new(data: &'a [u8]) -> Decoder<'a> {
        Decoder { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the input was fully consumed.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DbError> {
        if self.remaining() < n {
            return Err(corrupt(format_args!(
                "truncated input: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DbError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DbError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DbError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian i64.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, DbError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an IEEE-754 double.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DbError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a boolean; any byte other than 0/1 is corruption.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DbError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format_args!("invalid bool byte {other}"))),
        }
    }

    /// Reads a usize stored as u64, rejecting values beyond the platform.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, DbError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt(format_args!("usize overflow: {v}")))
    }

    /// Reads a length-prefixed byte blob.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], DbError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input.
    #[inline]
    pub(crate) fn str_ref(&mut self) -> Result<&'a str, DbError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|e| corrupt(format_args!("invalid utf-8 string: {e}")))
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<String, DbError> {
        self.str_ref().map(str::to_string)
    }

    /// Reads an `Option` written by [`Encoder::option`].
    #[inline]
    pub fn option<T>(
        &mut self,
        mut read: impl FnMut(&mut Decoder<'a>) -> Result<T, DbError>,
    ) -> Result<Option<T>, DbError> {
        if self.bool()? {
            Ok(Some(read(self)?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u32(0xdeadbeef);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(3.5);
        e.bool(true);
        e.usize(12345);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdeadbeef);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 3.5);
        assert!(d.bool().unwrap());
        assert_eq!(d.usize().unwrap(), 12345);
        assert!(d.is_exhausted());
    }

    #[test]
    fn string_and_bytes_roundtrip() {
        let mut e = Encoder::new();
        e.str("héllo wörld");
        e.bytes(&[1, 2, 3]);
        e.str("");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.str().unwrap(), "héllo wörld");
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(d.str().unwrap(), "");
    }

    #[test]
    fn option_roundtrip() {
        let mut e = Encoder::new();
        e.option(&Some(9u64), |e, v| e.u64(*v));
        e.option(&None::<u64>, |e, v| e.u64(*v));
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.option(|d| d.u64()).unwrap(), Some(9));
        assert_eq!(d.option(|d| d.u64()).unwrap(), None);
    }

    #[test]
    fn blob_writes_the_same_bytes_as_a_separate_encoder() {
        let mut inner = Encoder::new();
        inner.u64(7);
        inner.str("tag");
        let mut separate = Encoder::new();
        separate.u8(1);
        separate.bytes(&inner.into_bytes());
        let mut in_place = Encoder::new();
        in_place.u8(1);
        in_place.blob(|e| {
            e.u64(7);
            e.str("tag");
        });
        assert_eq!(in_place.into_bytes(), separate.into_bytes());
    }

    #[test]
    fn truncated_input_is_corrupt_not_panic() {
        let mut d = Decoder::new(&[1, 2]);
        let err = d.u64().unwrap_err();
        assert!(matches!(err, DbError::Corrupt(_)));
    }

    #[test]
    fn invalid_bool_is_corrupt() {
        let mut d = Decoder::new(&[2]);
        assert!(matches!(d.bool().unwrap_err(), DbError::Corrupt(_)));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut e = Encoder::new();
        e.bytes(&[0xff, 0xfe]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.str().unwrap_err(), DbError::Corrupt(_)));
    }
}
