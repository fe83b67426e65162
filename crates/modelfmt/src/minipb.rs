//! A protobuf-style wire codec, implemented from the wire-format
//! specification: base-128 varints, little-endian fixed32, and
//! length-delimited fields, each tagged `(field_number << 3) | wire_type`.
//!
//! Caffe, TensorFlow and ONNX all distribute models as protobuf messages;
//! the paper's validator has to distinguish them structurally (protobuf has
//! no magic bytes). Building the codec from scratch keeps that validation
//! honest.

use crate::{FmtError, Result};

/// Wire types we support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    /// Base-128 varint.
    Varint,
    /// Length-delimited bytes (strings, sub-messages, packed arrays).
    Len,
    /// Little-endian fixed 32-bit.
    Fixed32,
}

impl WireType {
    fn code(self) -> u64 {
        match self {
            WireType::Varint => 0,
            WireType::Len => 2,
            WireType::Fixed32 => 5,
        }
    }
    fn from_code(c: u64) -> Result<Self> {
        match c {
            0 => Ok(WireType::Varint),
            2 => Ok(WireType::Len),
            5 => Ok(WireType::Fixed32),
            other => Err(FmtError::Wire(format!("unsupported wire type {other}"))),
        }
    }
}

/// Message writer.
#[derive(Debug, Default)]
pub struct PbWriter {
    buf: Vec<u8>,
}

impl PbWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn tag(&mut self, field: u32, wt: WireType) {
        self.varint_raw(((field as u64) << 3) | wt.code());
    }

    fn varint_raw(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Write a varint field.
    pub fn varint(&mut self, field: u32, v: u64) -> &mut Self {
        self.tag(field, WireType::Varint);
        self.varint_raw(v);
        self
    }

    /// Write a fixed32 field (used for f32).
    pub fn fixed32(&mut self, field: u32, v: u32) -> &mut Self {
        self.tag(field, WireType::Fixed32);
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an f32 field.
    pub fn float(&mut self, field: u32, v: f32) -> &mut Self {
        self.fixed32(field, v.to_bits())
    }

    /// Write a length-delimited bytes field.
    pub fn bytes(&mut self, field: u32, v: &[u8]) -> &mut Self {
        self.tag(field, WireType::Len);
        self.varint_raw(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Write a string field.
    pub fn string(&mut self, field: u32, v: &str) -> &mut Self {
        self.bytes(field, v.as_bytes())
    }

    /// Write a nested message field.
    pub fn message(&mut self, field: u32, inner: &PbWriter) -> &mut Self {
        self.bytes(field, &inner.buf)
    }

    /// Write a packed varint array.
    pub fn packed_varints(&mut self, field: u32, vals: &[u64]) -> &mut Self {
        let mut inner = PbWriter::new();
        for &v in vals {
            inner.varint_raw(v);
        }
        self.bytes(field, &inner.buf)
    }

    /// Write a packed f32 array.
    pub fn packed_floats(&mut self, field: u32, vals: &[f32]) -> &mut Self {
        let mut inner = Vec::with_capacity(vals.len() * 4);
        for v in vals {
            inner.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.bytes(field, &inner)
    }

    /// Finish and take the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// One decoded field.
#[derive(Debug, Clone, PartialEq)]
pub enum PbValue<'a> {
    /// Varint payload.
    Varint(u64),
    /// Fixed 32-bit payload.
    Fixed32(u32),
    /// Length-delimited payload.
    Bytes(&'a [u8]),
}

impl<'a> PbValue<'a> {
    /// Interpret as u64, if varint.
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            PbValue::Varint(v) => Ok(*v),
            _ => Err(FmtError::Wire("expected varint".into())),
        }
    }
    /// Interpret as f32, if fixed32.
    pub fn as_f32(&self) -> Result<f32> {
        match self {
            PbValue::Fixed32(v) => Ok(f32::from_bits(*v)),
            _ => Err(FmtError::Wire("expected fixed32".into())),
        }
    }
    /// Interpret as bytes, if length-delimited.
    pub fn as_bytes(&self) -> Result<&'a [u8]> {
        match self {
            PbValue::Bytes(b) => Ok(b),
            _ => Err(FmtError::Wire("expected length-delimited".into())),
        }
    }
    /// Interpret as UTF-8 string.
    pub fn as_str(&self) -> Result<&'a str> {
        std::str::from_utf8(self.as_bytes()?)
            .map_err(|_| FmtError::Wire("invalid utf-8 string".into()))
    }
}

/// Streaming message reader.
#[derive(Debug, Clone)]
pub struct PbReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PbReader<'a> {
    /// Read over a message body.
    pub fn new(buf: &'a [u8]) -> Self {
        PbReader { buf, pos: 0 }
    }

    /// True when the whole body has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn varint_raw(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| FmtError::Wire("truncated varint".into()))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(FmtError::Wire("varint overflow".into()));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read the next `(field_number, value)` pair.
    pub fn next_field(&mut self) -> Result<(u32, PbValue<'a>)> {
        let tag = self.varint_raw()?;
        let field = (tag >> 3) as u32;
        if field == 0 {
            return Err(FmtError::Wire("field number 0 is invalid".into()));
        }
        let wt = WireType::from_code(tag & 0x7)?;
        let value = match wt {
            WireType::Varint => PbValue::Varint(self.varint_raw()?),
            WireType::Fixed32 => {
                if self.pos + 4 > self.buf.len() {
                    return Err(FmtError::Wire("truncated fixed32".into()));
                }
                let v = u32::from_le_bytes([
                    self.buf[self.pos],
                    self.buf[self.pos + 1],
                    self.buf[self.pos + 2],
                    self.buf[self.pos + 3],
                ]);
                self.pos += 4;
                PbValue::Fixed32(v)
            }
            WireType::Len => {
                let len = self.varint_raw()? as usize;
                if len > self.buf.len() - self.pos {
                    return Err(FmtError::Wire("truncated length-delimited field".into()));
                }
                let b = &self.buf[self.pos..self.pos + len];
                self.pos += len;
                PbValue::Bytes(b)
            }
        };
        Ok((field, value))
    }
}

/// Decode a packed varint array.
pub fn unpack_varints(bytes: &[u8]) -> Result<Vec<u64>> {
    let mut r = PbReader::new(bytes);
    let mut out = Vec::new();
    while !r.at_end() {
        out.push(r.varint_raw()?);
    }
    Ok(out)
}

/// Decode a packed f32 array.
pub fn unpack_floats(bytes: &[u8]) -> Result<Vec<f32>> {
    if !bytes.len().is_multiple_of(4) {
        return Err(FmtError::Wire("packed float array not multiple of 4".into()));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut w = PbWriter::new();
            w.varint(1, v);
            let bytes = w.finish();
            let mut r = PbReader::new(&bytes);
            let (f, val) = r.next_field().unwrap();
            assert_eq!(f, 1);
            assert_eq!(val.as_u64().unwrap(), v);
            assert!(r.at_end());
        }
    }

    #[test]
    fn mixed_fields_roundtrip() {
        let mut w = PbWriter::new();
        w.varint(1, 7)
            .string(2, "hello")
            .float(3, -2.5)
            .packed_varints(4, &[1, 2, 3])
            .packed_floats(5, &[0.5, 1.5]);
        let bytes = w.finish();
        let mut r = PbReader::new(&bytes);
        let (f1, v1) = r.next_field().unwrap();
        assert_eq!((f1, v1.as_u64().unwrap()), (1, 7));
        let (f2, v2) = r.next_field().unwrap();
        assert_eq!((f2, v2.as_str().unwrap()), (2, "hello"));
        let (f3, v3) = r.next_field().unwrap();
        assert_eq!((f3, v3.as_f32().unwrap()), (3, -2.5));
        let (_, v4) = r.next_field().unwrap();
        assert_eq!(unpack_varints(v4.as_bytes().unwrap()).unwrap(), vec![1, 2, 3]);
        let (_, v5) = r.next_field().unwrap();
        assert_eq!(unpack_floats(v5.as_bytes().unwrap()).unwrap(), vec![0.5, 1.5]);
        assert!(r.at_end());
    }

    #[test]
    fn nested_messages() {
        let mut inner = PbWriter::new();
        inner.varint(1, 42);
        let mut outer = PbWriter::new();
        outer.message(9, &inner);
        let bytes = outer.finish();
        let mut r = PbReader::new(&bytes);
        let (f, v) = r.next_field().unwrap();
        assert_eq!(f, 9);
        let mut ir = PbReader::new(v.as_bytes().unwrap());
        assert_eq!(ir.next_field().unwrap().1.as_u64().unwrap(), 42);
    }

    #[test]
    fn rejects_truncation_and_garbage() {
        let mut w = PbWriter::new();
        w.string(1, "abcdefgh");
        let bytes = w.finish();
        let mut r = PbReader::new(&bytes[..bytes.len() - 2]);
        assert!(r.next_field().is_err());
        // wire type 3 (group start) is unsupported
        let mut r2 = PbReader::new(&[0x0B]);
        assert!(r2.next_field().is_err());
        // field number 0
        let mut r3 = PbReader::new(&[0x00, 0x01]);
        assert!(r3.next_field().is_err());
    }

    #[test]
    fn rejects_bad_packed_floats() {
        assert!(unpack_floats(&[1, 2, 3]).is_err());
    }
}
