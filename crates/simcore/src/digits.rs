//! The one decimal writer. A reading's `INSERT` text (`minisql`,
//! `powergrid`) and the trace exports (`simtrace`) print their integers
//! through [`write_uint`], into whichever buffer they build; [`uint_len`]
//! is what it appends, for a caller that sizes the buffer first.

/// A buffer ASCII text is appended to: the `String` an `INSERT` is
/// written into, or the byte buffer an export is rendered into.
pub trait AsciiBuf {
    /// Append `ascii`, which holds ASCII bytes only.
    fn push_ascii(&mut self, ascii: &[u8]);
}

impl AsciiBuf for String {
    #[inline]
    fn push_ascii(&mut self, ascii: &[u8]) {
        self.push_str(std::str::from_utf8(ascii).expect("ASCII digits"));
    }
}

impl AsciiBuf for Vec<u8> {
    #[inline]
    fn push_ascii(&mut self, ascii: &[u8]) {
        self.extend_from_slice(ascii);
    }
}

/// Append `v` in decimal, zero-padded to at least `min_digits` digits:
/// what `{v:0min_digits$}` prints.
#[inline]
pub fn write_uint(out: &mut impl AsciiBuf, mut v: u64, min_digits: usize) {
    // Least significant digit first, from the end of the buffer.
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    while v > 0 {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    for _ in digits.len() - at..min_digits.max(1) {
        match at.checked_sub(1) {
            Some(left) => at = left,
            // Padding wider than a u64 is long: beyond the buffer.
            None => out.push_ascii(b"0"),
        }
    }
    out.push_ascii(&digits[at..]);
}

/// How many bytes [`write_uint`] appends for `v` unpadded (`min_digits`
/// ≤ 1): its decimal digits.
#[inline]
pub fn uint_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_len_is_what_write_uint_appends() {
        let mut edges = vec![0, u64::MAX];
        for p in (0..20).map(|e| 10u64.pow(e)) {
            edges.extend([p - 1, p, p + 1]);
        }
        for v in edges {
            let mut out = Vec::new();
            write_uint(&mut out, v, 1);
            assert_eq!(uint_len(v), out.len(), "{v}");
        }
    }
}
