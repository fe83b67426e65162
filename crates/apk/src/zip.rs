//! A from-scratch ZIP archive implementation (store method only).
//!
//! APKs and OBBs are ZIP files; the extraction stage of gaugeNN must walk a
//! real central directory to find candidate model entries. This module
//! implements the subset of APPNOTE.TXT that Android packages rely on:
//!
//! * local file headers (`PK\x03\x04`),
//! * the central directory (`PK\x01\x02`),
//! * the end-of-central-directory record (`PK\x05\x06`),
//! * method 0 (stored) payloads with CRC-32 validation.
//!
//! Compression is deliberately omitted: model weights are high-entropy and
//! Android leaves `.tflite`/`.bin` assets stored for mmap-ability, so stored
//! entries are also the realistic case.

use crate::crc32::{crc32, crc32_combine, Checksummed, Crc32};
use crate::{ApkError, Result};

const LOCAL_SIG: u32 = 0x0403_4B50; // PK\x03\x04
const CENTRAL_SIG: u32 = 0x0201_4B50; // PK\x01\x02
const EOCD_SIG: u32 = 0x0605_4B50; // PK\x05\x06
const VERSION: u16 = 20;
/// Fixed part of a local file header (the name follows).
const LOCAL_HEADER_LEN: usize = 30;
/// Fixed part of a central directory record (the name, extra field and
/// comment follow), so also the least room one record can take.
const CENTRAL_RECORD_LEN: usize = 46;
/// End-of-central-directory record without its trailing comment.
const EOCD_LEN: usize = 22;

/// One file inside a parsed archive, borrowed from the archive's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZipEntry<'a> {
    /// Entry path, `/`-separated.
    pub name: &'a str,
    /// Uncompressed (== stored) payload.
    pub data: &'a [u8],
}

/// An entry's payload while the writer holds it.
#[derive(Debug)]
enum Payload {
    /// Bytes the writer owns; checksummed when the archive is written.
    Owned(Vec<u8>),
    /// Shared bytes whose CRC-32 is already known.
    Shared(Checksummed),
}

impl Payload {
    fn bytes(&self) -> &[u8] {
        match self {
            Payload::Owned(data) => data,
            Payload::Shared(data) => data.bytes(),
        }
    }

    fn crc(&self) -> u32 {
        match self {
            Payload::Owned(data) => crc32(data),
            Payload::Shared(data) => data.crc(),
        }
    }
}

/// Incremental archive writer.
#[derive(Debug, Default)]
pub struct ZipWriter {
    entries: Vec<(String, Payload)>,
}

impl ZipWriter {
    /// Fresh empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry the writer owns. Names must be unique within an
    /// archive.
    pub fn add(&mut self, name: impl Into<String>, data: Vec<u8>) -> Result<()> {
        self.push(name.into(), Payload::Owned(data))
    }

    /// Append an entry whose bytes are shared and already checksummed:
    /// nothing is copied until [`ZipWriter::finish`] writes the archive,
    /// and its CRC-32 is not computed again.
    pub fn add_shared(&mut self, name: impl Into<String>, data: Checksummed) -> Result<()> {
        self.push(name.into(), Payload::Shared(data))
    }

    fn push(&mut self, name: String, payload: Payload) -> Result<()> {
        if self.entries.iter().any(|(n, _)| *n == name) {
            return Err(ApkError::Duplicate(name));
        }
        self.entries.push((name, payload));
        Ok(())
    }

    /// Number of entries added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries were added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialise to the ZIP wire format and return the archive with its
    /// own CRC-32. Each owned entry's CRC-32 is computed once, for its
    /// local header, and reused in its central record; a shared entry's
    /// comes with it. The archive's CRC is built as the bytes are
    /// emitted: headers and the central directory are fed to it, and each
    /// payload is folded in from its entry CRC, so no payload is read
    /// twice. The output is allocated at its exact final length.
    pub fn finish(self) -> (Vec<u8>, u32) {
        let names: usize = self.entries.iter().map(|(n, _)| n.len()).sum();
        let data: usize = self.entries.iter().map(|(_, p)| p.bytes().len()).sum();
        let total = self.entries.len() * (LOCAL_HEADER_LEN + CENTRAL_RECORD_LEN)
            + 2 * names
            + data
            + EOCD_LEN;
        let mut out = Vec::with_capacity(total);
        let mut central = Vec::with_capacity(self.entries.len());
        let mut archive_crc = 0; // the CRC-32 of no bytes
        for (name, payload) in &self.entries {
            let (data, crc) = (payload.bytes(), payload.crc());
            let header_start = out.len();
            central.push((header_start as u32, crc));
            // Local file header.
            put_u32(&mut out, LOCAL_SIG);
            put_u16(&mut out, VERSION); // version needed
            put_u16(&mut out, 0); // flags
            put_u16(&mut out, 0); // method: stored
            put_u16(&mut out, 0); // mod time
            put_u16(&mut out, 0); // mod date
            put_u32(&mut out, crc);
            put_u32(&mut out, data.len() as u32); // compressed
            put_u32(&mut out, data.len() as u32); // uncompressed
            put_u16(&mut out, name.len() as u16);
            put_u16(&mut out, 0); // extra len
            out.extend_from_slice(name.as_bytes());
            archive_crc = extend_crc(archive_crc, &out[header_start..]);
            out.extend_from_slice(data);
            archive_crc = crc32_combine(archive_crc, crc, data.len());
        }
        let central_start = out.len();
        for ((name, payload), &(off, crc)) in self.entries.iter().zip(&central) {
            let len = payload.bytes().len() as u32;
            put_u32(&mut out, CENTRAL_SIG);
            put_u16(&mut out, VERSION); // version made by
            put_u16(&mut out, VERSION); // version needed
            put_u16(&mut out, 0); // flags
            put_u16(&mut out, 0); // method
            put_u16(&mut out, 0); // time
            put_u16(&mut out, 0); // date
            put_u32(&mut out, crc);
            put_u32(&mut out, len);
            put_u32(&mut out, len);
            put_u16(&mut out, name.len() as u16);
            put_u16(&mut out, 0); // extra
            put_u16(&mut out, 0); // comment
            put_u16(&mut out, 0); // disk number
            put_u16(&mut out, 0); // internal attrs
            put_u32(&mut out, 0); // external attrs
            put_u32(&mut out, off);
            out.extend_from_slice(name.as_bytes());
        }
        let central_len = (out.len() - central_start) as u32;
        // End of central directory.
        put_u32(&mut out, EOCD_SIG);
        put_u16(&mut out, 0); // disk
        put_u16(&mut out, 0); // cd disk
        put_u16(&mut out, self.entries.len() as u16);
        put_u16(&mut out, self.entries.len() as u16);
        put_u32(&mut out, central_len);
        put_u32(&mut out, central_start as u32);
        put_u16(&mut out, 0); // comment len
        debug_assert_eq!(out.len(), total);
        archive_crc = extend_crc(archive_crc, &out[central_start..]);
        (out, archive_crc)
    }
}

/// The CRC-32 of the bytes `crc` covers followed by `more`.
fn extend_crc(crc: u32, more: &[u8]) -> u32 {
    let mut c = Crc32::resume(crc);
    c.update(more);
    c.finalize()
}

/// Parsed archive with random-access entries. It borrows the bytes it
/// was parsed from: names and payloads are slices of them, not copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZipArchive<'a> {
    entries: Vec<ZipEntry<'a>>,
}

impl<'a> ZipArchive<'a> {
    /// Parse a ZIP byte stream via its central directory, verifying CRCs.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        let eocd = find_eocd(bytes)?;
        let mut r = Reader::new(bytes, eocd + 4);
        let _disk = r.u16()?;
        let _cd_disk = r.u16()?;
        let _entries_disk = r.u16()?;
        let count = r.u16()? as usize;
        let _cd_len = r.u32()?;
        let cd_start = r.u32()? as usize;
        // Every central record takes at least its fixed part, so a count
        // the bytes before the EOCD cannot hold is a lie; reject it before
        // reserving room for it.
        if count > eocd.saturating_sub(cd_start) / CENTRAL_RECORD_LEN {
            return Err(ApkError::Malformed(format!(
                "{count} central records cannot fit before the end record"
            )));
        }

        let mut entries = Vec::with_capacity(count);
        let mut c = Reader::new(bytes, cd_start);
        for _ in 0..count {
            if c.u32()? != CENTRAL_SIG {
                return Err(ApkError::Malformed("bad central directory signature".into()));
            }
            let _made = c.u16()?;
            let _need = c.u16()?;
            let _flags = c.u16()?;
            let method = c.u16()?;
            let _time = c.u16()?;
            let _date = c.u16()?;
            let crc = c.u32()?;
            let csize = c.u32()? as usize;
            let usize_ = c.u32()? as usize;
            let name_len = c.u16()? as usize;
            let extra_len = c.u16()? as usize;
            let comment_len = c.u16()? as usize;
            let _disk = c.u16()?;
            let _iattr = c.u16()?;
            let _eattr = c.u32()?;
            let local_off = c.u32()? as usize;
            let name = c.str(name_len)?;
            c.skip(extra_len + comment_len)?;
            if method != 0 {
                return Err(ApkError::Malformed(format!(
                    "entry '{name}' uses unsupported compression method {method}"
                )));
            }
            if csize != usize_ {
                return Err(ApkError::Malformed(format!(
                    "stored entry '{name}' has mismatched sizes"
                )));
            }
            let data = read_local(bytes, local_off, name, usize_)?;
            if crc32(data) != crc {
                return Err(ApkError::CrcMismatch {
                    entry: name.to_string(),
                });
            }
            entries.push(ZipEntry { name, data });
        }
        Ok(ZipArchive { entries })
    }

    /// All entries in central-directory order.
    pub fn entries(&self) -> &[ZipEntry<'a>] {
        &self.entries
    }

    /// Look up an entry payload by exact name.
    pub fn get(&self, name: &str) -> Option<&'a [u8]> {
        self.entries.iter().find(|e| e.name == name).map(|e| e.data)
    }

    /// Entry names only.
    pub fn names(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.entries.iter().map(|e| e.name)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the archive holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn read_local<'a>(bytes: &'a [u8], off: usize, name: &str, size: usize) -> Result<&'a [u8]> {
    let mut r = Reader::new(bytes, off);
    if r.u32()? != LOCAL_SIG {
        return Err(ApkError::Malformed(format!(
            "entry '{name}' has a bad local header signature"
        )));
    }
    r.skip(2 + 2 + 2 + 2 + 2 + 4 + 4 + 4)?; // through sizes
    let name_len = r.u16()? as usize;
    let extra_len = r.u16()? as usize;
    let stored_name = r.str(name_len)?;
    if stored_name != name {
        return Err(ApkError::Malformed(format!(
            "local header name '{stored_name}' != central name '{name}'"
        )));
    }
    r.skip(extra_len)?;
    r.bytes(size)
}

/// Scan backwards for the EOCD signature (the record has a variable-length
/// trailing comment, so the spec mandates a backwards search).
fn find_eocd(bytes: &[u8]) -> Result<usize> {
    if bytes.len() < EOCD_LEN {
        return Err(ApkError::Malformed("too short for a zip".into()));
    }
    let min = bytes.len().saturating_sub(EOCD_LEN + u16::MAX as usize);
    let mut i = bytes.len() - EOCD_LEN;
    loop {
        if u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]) == EOCD_SIG {
            return Ok(i);
        }
        if i == min {
            return Err(ApkError::Malformed("missing end-of-central-directory".into()));
        }
        i -= 1;
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], pos: usize) -> Self {
        Reader { bytes, pos }
    }
    fn need(&self, n: usize) -> Result<()> {
        if self.pos + n > self.bytes.len() {
            Err(ApkError::Malformed("truncated archive".into()))
        } else {
            Ok(())
        }
    }
    fn u16(&mut self) -> Result<u16> {
        self.need(2)?;
        let v = u16::from_le_bytes([self.bytes[self.pos], self.bytes[self.pos + 1]]);
        self.pos += 2;
        Ok(v)
    }
    fn u32(&mut self) -> Result<u32> {
        self.need(4)?;
        let v = u32::from_le_bytes([
            self.bytes[self.pos],
            self.bytes[self.pos + 1],
            self.bytes[self.pos + 2],
            self.bytes[self.pos + 3],
        ]);
        self.pos += 4;
        Ok(v)
    }
    fn skip(&mut self, n: usize) -> Result<()> {
        self.need(n)?;
        self.pos += n;
        Ok(())
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.need(n)?;
        let v = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(v)
    }
    fn str(&mut self, n: usize) -> Result<&'a str> {
        let b = self.bytes(n)?;
        std::str::from_utf8(b).map_err(|_| ApkError::Malformed("non-utf8 entry name".into()))
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_multiple_entries() {
        let mut w = ZipWriter::new();
        w.add("classes.dex", vec![1, 2, 3]).unwrap();
        w.add("assets/model.tflite", vec![9; 100]).unwrap();
        w.add("lib/arm64-v8a/libtflite.so", vec![0x7F, b'E']).unwrap();
        let (bytes, _) = w.finish();
        let a = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.get("classes.dex"), Some(&[1u8, 2, 3][..]));
        assert_eq!(a.get("assets/model.tflite").unwrap().len(), 100);
        assert!(a.get("missing").is_none());
        let names: Vec<&str> = a.names().collect();
        assert_eq!(names[0], "classes.dex");
    }

    #[test]
    fn empty_archive_roundtrips() {
        let (bytes, crc) = ZipWriter::new().finish();
        let a = ZipArchive::parse(&bytes).unwrap();
        assert!(a.is_empty());
        assert_eq!(crc, crc32(&bytes));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut w = ZipWriter::new();
        w.add("a", vec![]).unwrap();
        assert_eq!(w.add("a", vec![]), Err(ApkError::Duplicate("a".into())));
    }

    #[test]
    fn detects_payload_corruption() {
        let mut w = ZipWriter::new();
        w.add("model.bin", vec![42; 64]).unwrap();
        let (mut bytes, _) = w.finish();
        // Flip a payload byte (after the 30-byte header + 9-byte name).
        bytes[40] ^= 0xFF;
        match ZipArchive::parse(&bytes) {
            Err(ApkError::CrcMismatch { entry }) => assert_eq!(entry, "model.bin"),
            other => panic!("expected crc mismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(ZipArchive::parse(b"not a zip at all").is_err());
        assert!(ZipArchive::parse(&[]).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let mut w = ZipWriter::new();
        w.add("x", vec![0; 32]).unwrap();
        let (bytes, _) = w.finish();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
            assert!(ZipArchive::parse(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn large_entry_roundtrips() {
        let payload: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
        let mut w = ZipWriter::new();
        w.add("assets/big.bin", payload.clone()).unwrap();
        let (bytes, _) = w.finish();
        let a = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(a.get("assets/big.bin"), Some(payload.as_slice()));
    }

    #[test]
    fn archive_bytes_are_pinned() {
        // One CRC pass per entry and an exact reservation must not move a
        // byte of the wire format.
        let mut w = ZipWriter::new();
        w.add("AndroidManifest.xml", b"package: name='com.example'".to_vec())
            .unwrap();
        w.add(
            "assets/model.tflite",
            (0..300u32).map(|i| (i * 7 % 256) as u8).collect(),
        )
        .unwrap();
        w.add("lib/arm64-v8a/libtflite.so", vec![0x7F, b'E', b'L', b'F'])
            .unwrap();
        w.add("empty", vec![]).unwrap();
        let (bytes, crc) = w.finish();
        assert_eq!(bytes.len(), 795);
        assert_eq!(bytes.capacity(), bytes.len(), "reserved exactly");
        assert_eq!(crc32(&bytes), 0xb187_0da6);
        assert_eq!(crc, 0xb187_0da6, "the combined archive CRC");
        assert_eq!(ZipArchive::parse(&bytes).unwrap().len(), 4);
    }

    #[test]
    fn declared_count_beyond_the_central_directory_is_rejected() {
        // A bare end record declaring 65,535 entries: no central record
        // fits in front of it, so parsing fails before reserving any.
        let mut eocd = Vec::new();
        put_u32(&mut eocd, EOCD_SIG);
        put_u16(&mut eocd, 0);
        put_u16(&mut eocd, 0);
        put_u16(&mut eocd, u16::MAX);
        put_u16(&mut eocd, u16::MAX);
        put_u32(&mut eocd, 0);
        put_u32(&mut eocd, 0);
        put_u16(&mut eocd, 0);
        assert_eq!(eocd.len(), 22);
        match ZipArchive::parse(&eocd) {
            Err(ApkError::Malformed(why)) => assert!(why.contains("65535"), "{why}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        // One real record still parses when exactly one is declared.
        let mut w = ZipWriter::new();
        w.add("x", vec![1]).unwrap();
        assert_eq!(ZipArchive::parse(&w.finish().0).unwrap().len(), 1);
    }

    #[test]
    fn shared_entries_are_written_like_owned_ones() {
        let model: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut owned = ZipWriter::new();
        owned.add("assets/model.tflite", model.clone()).unwrap();
        owned.add("classes.dex", vec![1, 2, 3]).unwrap();
        let mut shared = ZipWriter::new();
        shared
            .add_shared("assets/model.tflite", Checksummed::new(model))
            .unwrap();
        shared.add("classes.dex", vec![1, 2, 3]).unwrap();
        assert_eq!(
            shared.add_shared("classes.dex", Checksummed::new(vec![])),
            Err(ApkError::Duplicate("classes.dex".into()))
        );
        assert_eq!(owned.finish(), shared.finish());
    }

    #[test]
    fn parsed_entries_borrow_the_input() {
        let mut w = ZipWriter::new();
        w.add("a", vec![1; 100]).unwrap();
        w.add_shared("b", Checksummed::new(vec![2; 50])).unwrap();
        w.add("empty", vec![]).unwrap();
        let (bytes, _) = w.finish();
        let input = bytes.as_ptr_range();
        let archive = ZipArchive::parse(&bytes).unwrap();
        for e in archive.entries() {
            for part in [e.name.as_bytes(), e.data] {
                let span = part.as_ptr_range();
                assert!(
                    input.start <= span.start && span.end <= input.end,
                    "entry '{}' lies outside the input",
                    e.name
                );
            }
        }
        assert_eq!(archive.get("b"), Some(&[2u8; 50][..]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn archive_crc_is_the_crc_of_the_archive_bytes(
            entries in prop::collection::vec(
                (any::<bool>(), prop::collection::vec(any::<u8>(), 0..600)),
                0..8,
            ),
        ) {
            let mut w = ZipWriter::new();
            for (i, (shared, data)) in entries.into_iter().enumerate() {
                let name = format!("assets/{i}.bin");
                if shared {
                    w.add_shared(name, Checksummed::new(data)).unwrap();
                } else {
                    w.add(name, data).unwrap();
                }
            }
            let (bytes, crc) = w.finish();
            prop_assert_eq!(crc, crc32(&bytes));
            prop_assert!(ZipArchive::parse(&bytes).is_ok());
        }
    }
}
