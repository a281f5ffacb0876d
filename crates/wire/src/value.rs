//! Typed values carried in messages, message properties, and relational
//! tuples.
//!
//! The same value model backs the JMS `MapMessage` body (Narada tests), the
//! message properties a selector reads, and the `minisql`/R-GMA tuple
//! cells, so the two middlewares exchange exactly comparable payloads and
//! one comparison ([`Value::sql_cmp`]) serves both.

use crate::text::Text;
use std::cmp::Ordering;
use std::fmt;

/// The dynamic type of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 32-bit signed integer (Java `int`).
    Int,
    /// 64-bit signed integer (Java `long`).
    Long,
    /// 32-bit float (Java `float`).
    Float,
    /// 64-bit float (Java `double`).
    Double,
    /// UTF-8 string (Java `String`).
    Str,
    /// Boolean.
    Bool,
    /// Fixed-width character field (`CHAR(n)` in R-GMA tables).
    Char,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "INT",
            ValueType::Long => "LONG",
            ValueType::Float => "FLOAT",
            ValueType::Double => "DOUBLE",
            ValueType::Str => "STRING",
            ValueType::Bool => "BOOL",
            ValueType::Char => "CHAR",
        };
        f.write_str(s)
    }
}

/// A dynamically-typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Java `int`.
    Int(i32),
    /// Java `long`.
    Long(i64),
    /// Java `float`.
    Float(f32),
    /// Java `double`.
    Double(f64),
    /// Java `String`.
    Str(Text),
    /// Boolean.
    Bool(bool),
    /// Fixed-width char field: content plus declared width (space-padded on
    /// the wire, like SQL `CHAR(n)`).
    Char {
        /// Field content (unpadded).
        content: Text,
        /// Declared width.
        width: u16,
    },
}

impl Value {
    /// Construct a `CHAR(n)` value, truncating over-long content to the
    /// longest prefix of whole characters that fits `width` bytes.
    pub fn fixed_char(content: impl Into<Text>, width: u16) -> Value {
        let mut content = content.into();
        if content.len() > usize::from(width) {
            let text = content.as_str();
            let end = (0..=usize::from(width))
                .rev()
                .find(|&at| text.is_char_boundary(at))
                .expect("0 is a boundary");
            content = Text::from(&text[..end]);
        }
        Value::Char { content, width }
    }

    /// Dynamic type tag.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Long(_) => ValueType::Long,
            Value::Float(_) => ValueType::Float,
            Value::Double(_) => ValueType::Double,
            Value::Str(_) => ValueType::Str,
            Value::Bool(_) => ValueType::Bool,
            Value::Char { .. } => ValueType::Char,
        }
    }

    /// Numeric view as `f64` (selectors and SQL compare numerics this way).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(f64::from(*v)),
            Value::Long(v) => Some(*v as f64),
            Value::Float(v) => Some(f64::from(*v)),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// String view (Str and Char).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Char { content, .. } => Some(content),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL/JMS-style comparison: numerics compare numerically across
    /// types; strings compare lexically; booleans compare as false < true;
    /// mixed/incomparable kinds return `None` (three-valued logic UNKNOWN).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => return a.partial_cmp(&b),
            (None, None) => {}
            _ => return None,
        }
        match (self.as_str(), other.as_str()) {
            (Some(a), Some(b)) => return Some(a.cmp(b)),
            (None, None) => {}
            _ => return None,
        }
        match (self.as_bool(), other.as_bool()) {
            (Some(a), Some(b)) => Some(a.cmp(&b)),
            _ => None,
        }
    }

    /// Size of this value as encoded on the wire (matches `codec`).
    pub fn wire_size(&self) -> usize {
        1 + match self {
            Value::Int(_) => 4,
            Value::Long(_) => 8,
            Value::Float(_) => 4,
            Value::Double(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => 4 + s.len(),
            // CHAR(n) fields travel space-padded to their declared width.
            Value::Char { width, .. } => 2 + *width as usize,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Char { content, width } => write!(f, "'{content:<w$}'", w = *width as usize),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Long(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Float(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tags() {
        assert_eq!(Value::Int(1).value_type(), ValueType::Int);
        assert_eq!(Value::fixed_char("ab", 4).value_type(), ValueType::Char);
        assert_eq!(format!("{}", ValueType::Double), "DOUBLE");
    }

    #[test]
    fn fixed_char_truncates() {
        let v = Value::fixed_char("abcdefgh", 4);
        assert_eq!(v.as_str(), Some("abcd"));
    }

    #[test]
    fn fixed_char_truncates_between_characters() {
        // 'é' is two bytes: a cut at byte 2 would split it.
        for (width, kept) in [(1, "a"), (2, "a"), (3, "aé")] {
            assert_eq!(Value::fixed_char("aé", width).as_str(), Some(kept));
        }
        assert_eq!(Value::fixed_char("é", 1).as_str(), Some(""));
    }

    #[test]
    fn numeric_cross_type_compare() {
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Double(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Long(10).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn string_and_char_compare() {
        assert_eq!(
            Value::Str("abc".into()).sql_cmp(&Value::fixed_char("abd", 8)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn mixed_kinds_are_unknown() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Str("1".into())), None);
    }

    #[test]
    fn bool_ordering() {
        assert_eq!(
            Value::Bool(false).sql_cmp(&Value::Bool(true)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn nan_compares_unknown() {
        assert_eq!(Value::Double(f64::NAN).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Value::Int(7).wire_size(), 5);
        assert_eq!(Value::Long(7).wire_size(), 9);
        assert_eq!(Value::Str("abc".into()).wire_size(), 8);
        assert_eq!(Value::fixed_char("ab", 20).wire_size(), 23);
        assert_eq!(Value::Bool(true).wire_size(), 2);
    }

    #[test]
    fn froms() {
        assert_eq!(Value::from(1i32), Value::Int(1));
        assert_eq!(Value::from(1i64), Value::Long(1));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn display_pads_char() {
        assert_eq!(format!("{}", Value::fixed_char("ab", 4)), "'ab  '");
    }
}
