//! Byte-level codec shared by the WAL and snapshot files.
//!
//! Every storage file follows one discipline: explicit magic and format
//! version at its head, little-endian fixed-width integers,
//! length-prefixed strings, an FNV-1a 64 checksum over each payload, and
//! typed decode errors — a reader never panics on foreign bytes.

use property_graph::Value;

/// FNV-1a 64-bit hash, the checksum used by both storage file formats.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Why a decode failed. Every variant means "stop, do not trust the rest".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the announced structure did.
    Truncated,
    /// The file does not start with the expected magic.
    Magic,
    /// The format version is newer than this build understands.
    Version(u32),
    /// The checksum over the payload does not match the stored one.
    Checksum,
    /// An unknown tag byte (value kind or mutation kind).
    Tag(u8),
    /// A length-prefixed string was not valid UTF-8.
    Utf8,
    /// The bytes decoded but describe an impossible structure.
    Invalid(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::Magic => write!(f, "bad magic"),
            DecodeError::Version(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Checksum => write!(f, "checksum mismatch"),
            DecodeError::Tag(t) => write!(f, "unknown tag byte {t:#04x}"),
            DecodeError::Utf8 => write!(f, "invalid UTF-8 in string"),
            DecodeError::Invalid(why) => write!(f, "invalid structure: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends one property value (tag byte + payload).
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(3);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
    }
}

/// A bounds-checked cursor over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` little-endian.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a `u64` little-endian.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Utf8)
    }

    /// Reads one property value.
    pub fn value(&mut self) -> Result<Value, DecodeError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.u8()? != 0)),
            2 => Ok(Value::Int(i64::from_le_bytes(
                self.take(8)?.try_into().expect("len 8"),
            ))),
            3 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            4 => Ok(Value::Str(self.str()?)),
            t => Err(DecodeError::Tag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip_covers_every_variant() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::str("héllo\tworld"),
        ];
        let mut buf = Vec::new();
        for v in &values {
            put_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            let got = r.value().unwrap();
            // NaN != NaN, so compare the bit patterns instead.
            match (v, &got) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(*v, got),
            }
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_and_bad_tags_are_typed() {
        assert_eq!(Reader::new(&[]).u32(), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&[9]).value(), Err(DecodeError::Tag(9)));
        let mut buf = Vec::new();
        put_str(&mut buf, "abc");
        buf.truncate(5);
        assert_eq!(Reader::new(&buf).str(), Err(DecodeError::Truncated));
        assert_eq!(
            Reader::new(&[4, 1, 0, 0, 0, 0xff]).value(),
            Err(DecodeError::Utf8)
        );
    }
}
