//! Binary codec for messages and tuples.
//!
//! No simulated message passes through it: every simulated byte count
//! is a `wire_size()`. Encoding for real keeps that model honest, since
//! the tests assert `wire_size()` equal to the encoded length. Format:
//! little-endian, length-prefixed strings, one tag byte per value. It
//! writes a `Vec<u8>` and reads a `&[u8]`.

use crate::message::{Body, DeliveryMode, Headers, Message, MessageId, ValueMap};
use crate::tuple::Tuple;
use crate::value::Value;
use simcore::SimTime;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended mid-field.
    Truncated,
    /// Unknown tag byte.
    BadTag(u8),
    /// String field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte 0x{t:02x}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

mod tag {
    pub const INT: u8 = 0x01;
    pub const LONG: u8 = 0x02;
    pub const FLOAT: u8 = 0x03;
    pub const DOUBLE: u8 = 0x04;
    pub const STR: u8 = 0x05;
    pub const BOOL: u8 = 0x06;
    pub const CHAR: u8 = 0x07;
    pub const BODY_MAP: u8 = 0x10;
    pub const BODY_TEXT: u8 = 0x11;
    pub const BODY_BYTES: u8 = 0x12;
}

/// A length-prefixed string, as its bytes (a [`Text`](crate::Text)
/// hands them over unchecked).
fn put_str(buf: &mut Vec<u8>, s: &[u8]) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s);
}

/// The next `n` bytes of the input, which then starts after them; or
/// [`CodecError::Truncated`] when fewer are left.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// The next `N` bytes, for a `from_le_bytes`.
fn array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N]> {
    Ok(take(buf, N)?.try_into().expect("`take` returns `N` bytes"))
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    array(buf).map(u8::from_le_bytes)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    array(buf).map(u32::from_le_bytes)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    array(buf).map(u64::from_le_bytes)
}

/// The next `len` bytes as text, converted by `make` straight from the
/// input (a short [`Text`](crate::Text) never touches the heap).
fn get_utf8<T>(buf: &mut &[u8], len: usize, make: impl FnOnce(&str) -> T) -> Result<T> {
    let text = std::str::from_utf8(take(buf, len)?).map_err(|_| CodecError::BadUtf8)?;
    Ok(make(text))
}

fn get_str<T: for<'a> From<&'a str>>(buf: &mut &[u8]) -> Result<T> {
    let len = get_u32(buf)? as usize;
    get_utf8(buf, len, |text| T::from(text))
}

/// Encode one value (tag + payload).
pub fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(x) => {
            buf.push(tag::INT);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Long(x) => {
            buf.push(tag::LONG);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(tag::FLOAT);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Double(x) => {
            buf.push(tag::DOUBLE);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(tag::STR);
            put_str(buf, s.as_bytes());
        }
        Value::Bool(b) => {
            buf.push(tag::BOOL);
            buf.push(u8::from(*b));
        }
        Value::Char { content, width } => {
            buf.push(tag::CHAR);
            buf.extend_from_slice(&width.to_le_bytes());
            // Space-padded to declared width, like SQL CHAR(n).
            let content = content.as_bytes();
            let kept = content.len().min(usize::from(*width));
            buf.extend_from_slice(&content[..kept]);
            buf.resize(buf.len() + usize::from(*width) - kept, b' ');
        }
    }
}

/// Decode one value off the front of `buf`.
pub fn decode_value(buf: &mut &[u8]) -> Result<Value> {
    Ok(match get_u8(buf)? {
        tag::INT => Value::Int(array(buf).map(i32::from_le_bytes)?),
        tag::LONG => Value::Long(array(buf).map(i64::from_le_bytes)?),
        tag::FLOAT => Value::Float(array(buf).map(f32::from_le_bytes)?),
        tag::DOUBLE => Value::Double(array(buf).map(f64::from_le_bytes)?),
        tag::STR => Value::Str(get_str(buf)?),
        tag::BOOL => Value::Bool(get_u8(buf)? != 0),
        tag::CHAR => {
            let width = array(buf).map(u16::from_le_bytes)?;
            let content = get_utf8(buf, usize::from(width), |padded| {
                padded.trim_end_matches(' ').into()
            })?;
            Value::Char { content, width }
        }
        other => return Err(CodecError::BadTag(other)),
    })
}

fn encode_value_map(buf: &mut Vec<u8>, map: &ValueMap) {
    buf.extend_from_slice(&(map.len() as u32).to_le_bytes());
    for (k, v) in map.iter() {
        put_str(buf, k.as_bytes());
        encode_value(buf, v);
    }
}

/// Smallest encoded value: a tag and one payload byte.
const MIN_VALUE_BYTES: usize = 2;
/// Smallest encoded map entry: the length prefix of an empty name, then
/// a value.
const MIN_ENTRY_BYTES: usize = 4 + MIN_VALUE_BYTES;

fn decode_value_map(buf: &mut &[u8]) -> Result<ValueMap> {
    let n = get_u32(buf)? as usize;
    // The count is the sender's word: reserve for no more entries than
    // the bytes that are actually there could hold.
    let mut entries: Vec<(Cow<'static, str>, Value)> =
        Vec::with_capacity(n.min(buf.len() / MIN_ENTRY_BYTES));
    for _ in 0..n {
        let k: String = get_str(buf)?;
        let v = decode_value(buf)?;
        entries.push((Cow::Owned(k), v));
    }
    Ok(entries.into_iter().collect())
}

/// Encode a full message.
pub fn encode_message(m: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(m.wire_size());
    let h = &m.headers;
    buf.extend_from_slice(&h.message_id.0.to_le_bytes());
    buf.extend_from_slice(&h.timestamp.as_micros().to_le_bytes());
    buf.push(h.priority);
    buf.push(match h.delivery_mode {
        DeliveryMode::NonPersistent => 0,
        DeliveryMode::Persistent => 1,
    });
    let (corr_flag, corr_val) = match h.correlation_id {
        None => (0u8, 0u64),
        Some(c) => (1, c),
    };
    buf.push(corr_flag);
    buf.extend_from_slice(&corr_val.to_le_bytes());
    put_str(&mut buf, h.destination.as_bytes());
    encode_value_map(&mut buf, m.properties());
    match m.body() {
        Body::Map(map) => {
            buf.push(tag::BODY_MAP);
            encode_value_map(&mut buf, map);
        }
        Body::Text(s) => {
            buf.push(tag::BODY_TEXT);
            put_str(&mut buf, s.as_bytes());
        }
        Body::Bytes(b) => {
            buf.push(tag::BODY_BYTES);
            put_str(&mut buf, b);
        }
    }
    buf
}

/// Decode a full message.
pub fn decode_message(bytes: impl AsRef<[u8]>) -> Result<Message> {
    let buf = &mut bytes.as_ref();
    let message_id = MessageId(get_u64(buf)?);
    let timestamp = SimTime::from_micros(get_u64(buf)?);
    let priority = get_u8(buf)?;
    let delivery_mode = if get_u8(buf)? == 0 {
        DeliveryMode::NonPersistent
    } else {
        DeliveryMode::Persistent
    };
    let corr_flag = get_u8(buf)?;
    let corr_val = get_u64(buf)?;
    let destination: Arc<str> = get_str(buf)?;
    let properties = decode_value_map(buf)?;
    let body = match get_u8(buf)? {
        tag::BODY_MAP => Body::Map(decode_value_map(buf)?),
        tag::BODY_TEXT => Body::Text(get_str(buf)?),
        tag::BODY_BYTES => {
            let n = get_u32(buf)? as usize;
            Body::Bytes(take(buf, n)?.to_vec())
        }
        other => return Err(CodecError::BadTag(other)),
    };
    let mut headers = Headers::new(message_id, destination, timestamp);
    headers.priority = priority;
    headers.delivery_mode = delivery_mode;
    headers.correlation_id = (corr_flag == 1).then_some(corr_val);
    Ok(Message::new(headers, properties, body))
}

/// Encode a tuple.
pub fn encode_tuple(t: &Tuple) -> Vec<u8> {
    let mut buf = Vec::with_capacity(t.wire_size());
    put_str(&mut buf, t.table.as_bytes());
    buf.extend_from_slice(&(t.values.len() as u32).to_le_bytes());
    for v in t.values.iter() {
        encode_value(&mut buf, v);
    }
    buf.extend_from_slice(&t.inserted_at.as_micros().to_le_bytes());
    buf
}

/// Decode a tuple.
pub fn decode_tuple(bytes: impl AsRef<[u8]>) -> Result<Tuple> {
    let buf = &mut bytes.as_ref();
    let table: Arc<str> = get_str(buf)?;
    let n = get_u32(buf)? as usize;
    // As in `decode_value_map`: the count is not to be trusted.
    let mut values = Vec::with_capacity(n.min(buf.len() / MIN_VALUE_BYTES));
    for _ in 0..n {
        values.push(decode_value(buf)?);
    }
    let inserted_at = SimTime::from_micros(get_u64(buf)?);
    Ok(Tuple {
        table,
        values: values.into(),
        inserted_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Headers;

    fn sample_message() -> Message {
        Message::map(
            Headers::new(MessageId(77), "power.monitor", SimTime::from_millis(1234)),
            [
                ("watts".to_string(), Value::Double(42.5)),
                ("volts".to_string(), Value::Float(11.0)),
                ("site".to_string(), Value::fixed_char("uxbridge", 20)),
                ("serial".to_string(), Value::Long(1 << 40)),
                ("on".to_string(), Value::Bool(true)),
            ],
        )
        .with_property("id", 9001i32)
        .with_property("region", "south-east")
    }

    #[test]
    fn message_roundtrip() {
        let m = sample_message();
        let bytes = encode_message(&m);
        let back = decode_message(bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn encoded_length_matches_wire_size_model() {
        let m = sample_message();
        let size = m.wire_size();
        assert_eq!(encode_message(&m).len(), size);
        // The size is cached per content block: a property set on a clone
        // re-measures the clone and leaves the original's figure alone.
        let c = m.clone().with_property("zone", 3i32);
        assert_eq!(c.wire_size(), size + 4 + 4 + 5);
        assert_eq!(encode_message(&c).len(), c.wire_size());
        assert_eq!(m.wire_size(), size);
        let t = Tuple::new(
            "generator",
            vec![Value::Int(1), Value::fixed_char("ab", 20)],
        );
        assert_eq!(encode_tuple(&t).len(), t.wire_size());
    }

    #[test]
    fn tuple_roundtrip() {
        let mut t = Tuple::new(
            "generator",
            vec![
                Value::Int(4),
                Value::Double(1.5),
                Value::fixed_char("hydra", 20),
            ],
        );
        t.inserted_at = SimTime::from_secs(9);
        let back = decode_tuple(encode_tuple(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn text_and_bytes_bodies_roundtrip() {
        let h = Headers::new(MessageId(1), "t", SimTime::ZERO);
        let m = Message::text(h.clone(), "hello");
        assert_eq!(decode_message(encode_message(&m)).unwrap(), m);
        let m = Message::new(h, ValueMap::default(), Body::Bytes(vec![1, 2, 3, 255]));
        assert_eq!(decode_message(encode_message(&m)).unwrap(), m);
    }

    #[test]
    fn correlation_id_roundtrip() {
        let mut m = sample_message();
        m.headers.correlation_id = Some(424242);
        assert_eq!(decode_message(encode_message(&m)).unwrap(), m);
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        let m = sample_message();
        let full = encode_message(&m);
        for cut in 0..full.len() {
            let r = decode_message(&full[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn a_huge_element_count_is_an_error_not_an_allocation() {
        // Empty table name, then 2^32 - 1 values announced and none sent.
        let tuple = [0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff];
        assert_eq!(decode_tuple(tuple), Err(CodecError::Truncated));
        // The same count where a message's properties start.
        let m = encode_message(&sample_message());
        let mut bytes = m[..sample_message().headers.wire_size()].to_vec();
        bytes.extend_from_slice(&[0xff; 4]);
        assert_eq!(decode_message(bytes), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_tag_detected() {
        assert_eq!(
            decode_value(&mut &[0xEE][..]),
            Err(CodecError::BadTag(0xEE))
        );
    }

    #[test]
    fn char_padding_normalises() {
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::fixed_char("ab", 6));
        let v = decode_value(&mut buf.as_slice()).unwrap();
        assert_eq!(v, Value::fixed_char("ab", 6));
    }

    #[test]
    fn error_display() {
        assert_eq!(CodecError::Truncated.to_string(), "buffer truncated");
        assert!(CodecError::BadTag(7).to_string().contains("0x07"));
    }
}
