//! Binary codec for messages and tuples.
//!
//! The simulation does not strictly need real bytes — but encoding for real
//! keeps the wire-size model honest (`wire_size()` is asserted equal to the
//! actual encoded length) and provides a natural place to charge
//! serialization CPU cost. Format: little-endian, length-prefixed strings,
//! one tag byte per value.

use crate::message::{Body, DeliveryMode, Headers, Message, MessageId, ValueMap};
use crate::tuple::Tuple;
use crate::value::Value;
use bytes::{Buf, BufMut, Bytes, BytesMut};
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
fn put_str(buf: &mut BytesMut, s: &[u8]) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s);
}

/// The next `len` bytes as text, converted by `make` straight from the
/// buffer (a short [`Text`](crate::Text) never touches the heap).
fn get_utf8<T>(buf: &mut Bytes, len: usize, make: impl FnOnce(&str) -> T) -> Result<T> {
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let text = std::str::from_utf8(&buf[..len]).map_err(|_| CodecError::BadUtf8)?;
    let out = make(text);
    buf.advance(len);
    Ok(out)
}

fn get_str<T: for<'a> From<&'a str>>(buf: &mut Bytes) -> Result<T> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    get_utf8(buf, len, |text| T::from(text))
}

/// Encode one value (tag + payload).
pub fn encode_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Int(x) => {
            buf.put_u8(tag::INT);
            buf.put_i32_le(*x);
        }
        Value::Long(x) => {
            buf.put_u8(tag::LONG);
            buf.put_i64_le(*x);
        }
        Value::Float(x) => {
            buf.put_u8(tag::FLOAT);
            buf.put_f32_le(*x);
        }
        Value::Double(x) => {
            buf.put_u8(tag::DOUBLE);
            buf.put_f64_le(*x);
        }
        Value::Str(s) => {
            buf.put_u8(tag::STR);
            put_str(buf, s.as_bytes());
        }
        Value::Bool(b) => {
            buf.put_u8(tag::BOOL);
            buf.put_u8(u8::from(*b));
        }
        Value::Char { content, width } => {
            buf.put_u8(tag::CHAR);
            buf.put_u16_le(*width);
            // Space-padded to declared width, like SQL CHAR(n).
            let content = content.as_bytes();
            let kept = content.len().min(usize::from(*width));
            buf.put_slice(&content[..kept]);
            for _ in kept..usize::from(*width) {
                buf.put_u8(b' ');
            }
        }
    }
}

/// Decode one value.
pub fn decode_value(buf: &mut Bytes) -> Result<Value> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    let t = buf.get_u8();
    Ok(match t {
        tag::INT => {
            if buf.remaining() < 4 {
                return Err(CodecError::Truncated);
            }
            Value::Int(buf.get_i32_le())
        }
        tag::LONG => {
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Value::Long(buf.get_i64_le())
        }
        tag::FLOAT => {
            if buf.remaining() < 4 {
                return Err(CodecError::Truncated);
            }
            Value::Float(buf.get_f32_le())
        }
        tag::DOUBLE => {
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Value::Double(buf.get_f64_le())
        }
        tag::STR => Value::Str(get_str(buf)?),
        tag::BOOL => {
            if buf.remaining() < 1 {
                return Err(CodecError::Truncated);
            }
            Value::Bool(buf.get_u8() != 0)
        }
        tag::CHAR => {
            if buf.remaining() < 2 {
                return Err(CodecError::Truncated);
            }
            let width = buf.get_u16_le();
            let content = get_utf8(buf, usize::from(width), |padded| {
                padded.trim_end_matches(' ').into()
            })?;
            Value::Char { content, width }
        }
        other => return Err(CodecError::BadTag(other)),
    })
}

fn encode_value_map(buf: &mut BytesMut, map: &ValueMap) {
    buf.put_u32_le(map.len() as u32);
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

fn decode_value_map(buf: &mut Bytes) -> Result<ValueMap> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let n = buf.get_u32_le() as usize;
    // The count is the sender's word: reserve for no more entries than
    // the bytes that are actually there could hold.
    let mut entries: Vec<(Cow<'static, str>, Value)> =
        Vec::with_capacity(n.min(buf.remaining() / MIN_ENTRY_BYTES));
    for _ in 0..n {
        let k: String = get_str(buf)?;
        let v = decode_value(buf)?;
        entries.push((Cow::Owned(k), v));
    }
    Ok(entries.into_iter().collect())
}

/// Encode a full message; returns the frozen buffer.
pub fn encode_message(m: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(m.wire_size());
    let h = &m.headers;
    buf.put_u64_le(h.message_id.0);
    buf.put_u64_le(h.timestamp.as_micros());
    buf.put_u8(h.priority);
    buf.put_u8(match h.delivery_mode {
        DeliveryMode::NonPersistent => 0,
        DeliveryMode::Persistent => 1,
    });
    match h.correlation_id {
        None => {
            buf.put_u8(0);
            buf.put_u64_le(0);
        }
        Some(c) => {
            buf.put_u8(1);
            buf.put_u64_le(c);
        }
    }
    put_str(&mut buf, h.destination.as_bytes());
    encode_value_map(&mut buf, m.properties());
    match m.body() {
        Body::Map(map) => {
            buf.put_u8(tag::BODY_MAP);
            encode_value_map(&mut buf, map);
        }
        Body::Text(s) => {
            buf.put_u8(tag::BODY_TEXT);
            put_str(&mut buf, s.as_bytes());
        }
        Body::Bytes(b) => {
            buf.put_u8(tag::BODY_BYTES);
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
    }
    buf.freeze()
}

/// Decode a full message.
pub fn decode_message(mut buf: Bytes) -> Result<Message> {
    if buf.remaining() < 8 + 8 + 1 + 1 + 9 {
        return Err(CodecError::Truncated);
    }
    let message_id = MessageId(buf.get_u64_le());
    let timestamp = SimTime::from_micros(buf.get_u64_le());
    let priority = buf.get_u8();
    let delivery_mode = if buf.get_u8() == 0 {
        DeliveryMode::NonPersistent
    } else {
        DeliveryMode::Persistent
    };
    let corr_flag = buf.get_u8();
    let corr_val = buf.get_u64_le();
    let destination: Arc<str> = get_str(&mut buf)?;
    let properties = decode_value_map(&mut buf)?;
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    let body = match buf.get_u8() {
        tag::BODY_MAP => Body::Map(decode_value_map(&mut buf)?),
        tag::BODY_TEXT => Body::Text(get_str(&mut buf)?),
        tag::BODY_BYTES => {
            if buf.remaining() < 4 {
                return Err(CodecError::Truncated);
            }
            let n = buf.get_u32_le() as usize;
            if buf.remaining() < n {
                return Err(CodecError::Truncated);
            }
            Body::Bytes(buf.copy_to_bytes(n).to_vec())
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
pub fn encode_tuple(t: &Tuple) -> Bytes {
    let mut buf = BytesMut::with_capacity(t.wire_size());
    put_str(&mut buf, t.table.as_bytes());
    buf.put_u32_le(t.values.len() as u32);
    for v in &t.values {
        encode_value(&mut buf, v);
    }
    buf.put_u64_le(t.inserted_at.as_micros());
    buf.freeze()
}

/// Decode a tuple.
pub fn decode_tuple(mut buf: Bytes) -> Result<Tuple> {
    let table: Arc<str> = get_str(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let n = buf.get_u32_le() as usize;
    // As in `decode_value_map`: the count is not to be trusted.
    let mut values = Vec::with_capacity(n.min(buf.remaining() / MIN_VALUE_BYTES));
    for _ in 0..n {
        values.push(decode_value(&mut buf)?);
    }
    if buf.remaining() < 8 {
        return Err(CodecError::Truncated);
    }
    let inserted_at = SimTime::from_micros(buf.get_u64_le());
    Ok(Tuple {
        table,
        values,
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
            let r = decode_message(full.slice(0..cut));
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn a_huge_element_count_is_an_error_not_an_allocation() {
        // Empty table name, then 2^32 - 1 values announced and none sent.
        let tuple = Bytes::from(vec![0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff]);
        assert_eq!(decode_tuple(tuple), Err(CodecError::Truncated));
        // The same count where a message's properties start.
        let m = encode_message(&sample_message());
        let mut bytes = m[..sample_message().headers.wire_size()].to_vec();
        bytes.extend_from_slice(&[0xff; 4]);
        assert_eq!(decode_message(bytes.into()), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_tag_detected() {
        let mut buf = BytesMut::new();
        buf.put_u8(0xEE);
        let mut b = buf.freeze();
        assert_eq!(decode_value(&mut b), Err(CodecError::BadTag(0xEE)));
    }

    #[test]
    fn char_padding_normalises() {
        let mut buf = BytesMut::new();
        encode_value(&mut buf, &Value::fixed_char("ab", 6));
        let mut b = buf.freeze();
        let v = decode_value(&mut b).unwrap();
        assert_eq!(v, Value::fixed_char("ab", 6));
    }

    #[test]
    fn error_display() {
        assert_eq!(CodecError::Truncated.to_string(), "buffer truncated");
        assert!(CodecError::BadTag(7).to_string().contains("0x07"));
    }
}
