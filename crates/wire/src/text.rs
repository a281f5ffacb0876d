//! Short strings without a heap block.
//!
//! Every string cell the paper's payloads carry — `'site-0042'`,
//! `'gridcc'`, a `CHAR(20)` field — is at most twenty bytes, so a
//! [`Value`](crate::Value) holding a `String` paid one allocation per
//! cell for a pointer to fewer bytes than the pointer, length and
//! capacity themselves occupy. [`Text`] keeps up to [`Text::INLINE`]
//! bytes in place and only longer content on the heap, in the same 24
//! bytes.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;

/// An immutable UTF-8 string, stored inline when it is at most
/// [`Text::INLINE`] bytes long.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes` are the content, copied from a
    /// `str`; the rest are zero.
    Inline {
        len: u8,
        bytes: [u8; Text::INLINE],
    },
    Heap(Box<str>),
}

impl Text {
    /// Longest content held without a heap block.
    pub const INLINE: usize = 22;

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True for the empty string.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The content as bytes (no UTF-8 check, unlike the `str` view).
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The content as a `str`. Inline content is re-validated on every
    /// call (this crate forbids `unsafe`): a few nanoseconds, paid where
    /// text is displayed or compared with a `str`, not where it is
    /// stored, sized, encoded or compared with another `Text`.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline bytes were copied from a str")
            }
            Repr::Heap(s) => s,
        }
    }
}

impl From<&str> for Text {
    #[inline]
    fn from(s: &str) -> Self {
        if s.len() <= Text::INLINE {
            let mut bytes = [0; Text::INLINE];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Text(Repr::Inline {
                len: s.len() as u8,
                bytes,
            })
        } else {
            Text(Repr::Heap(s.into()))
        }
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        if s.len() <= Text::INLINE {
            Text::from(s.as_str())
        } else {
            Text(Repr::Heap(s.into_boxed_str()))
        }
    }
}

impl From<Cow<'_, str>> for Text {
    #[inline]
    fn from(s: Cow<'_, str>) -> Self {
        match s {
            Cow::Borrowed(s) => Text::from(s),
            Cow::Owned(s) => Text::from(s),
        }
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

// `str` compares and orders byte-wise, so the bytes decide here too.
impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_where_a_string_did() {
        assert_eq!(std::mem::size_of::<Text>(), 24);
        assert_eq!(std::mem::size_of::<crate::Value>(), 32);
    }

    #[test]
    fn the_edge_is_twenty_two_bytes() {
        let short = "x".repeat(Text::INLINE);
        let long = "x".repeat(Text::INLINE + 1);
        assert!(matches!(Text::from(short.as_str()).0, Repr::Inline { .. }));
        assert!(matches!(Text::from(short.clone()).0, Repr::Inline { .. }));
        assert!(matches!(Text::from(long.as_str()).0, Repr::Heap(_)));
        assert!(matches!(Text::from(long.clone()).0, Repr::Heap(_)));
        assert_eq!(&*Text::from(short.as_str()), short);
        assert_eq!(&*Text::from(long.clone()), long);
    }

    #[test]
    fn views_agree() {
        let t = Text::from("né ü");
        assert_eq!((t.len(), t.is_empty()), (6, false));
        assert_eq!(&*t, "né ü");
        assert_eq!(format!("{t} {t:?} {t:<8}|"), "né ü \"né ü\" né ü    |");
        assert!(Text::from("").is_empty());
        let (a, b, aa) = (Text::from("a"), Text::from("b"), Text::from("aa"));
        assert!(a < b && a < aa && aa < b);
    }
}
