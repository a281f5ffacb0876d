//! The SQL text codec of the R-GMA subset, both halves.
//!
//! *Reading* is one borrowed, streaming pass that classifies: a token is
//! a [`Kind`] and a byte range ([`Span`]), and its text becomes a number
//! or a string only where the grammar consumes it, so a comma costs a
//! byte compare and nothing is built to be dropped. [`lex`] / [`Token`]
//! are the public view over the same spans. *Writing* is
//! [`write_fixed`] and `simcore`'s [`write_uint`]: the literals of a
//! reading's `INSERT` — [`write_fixed`] prints byte for byte what
//! `{:.p$}` prints, by exact integer arithmetic. [`fixed_literal`] is
//! the same arithmetic left unwritten: the length of such a literal and
//! the double it reads back as, which is all a publisher sends (a row,
//! and the length of the text it stands for).

use simcore::{uint_len, write_uint};
use std::borrow::Cow;
use std::fmt::{self, Write};

/// SQL token, borrowing from the lexed text.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Identifier (table/column name); case preserved.
    Ident(&'a str),
    /// Keyword (matched case-insensitively).
    Keyword(Keyword),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal, quotes stripped and `''` unescaped.
    Str(Cow<'a, str>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semi,
}

/// Recognized keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Keyword {
    Create,
    Table,
    Insert,
    Into,
    Values,
    Select,
    From,
    Where,
    And,
    Or,
    Not,
    Null,
    True,
    False,
    Integer,
    Int,
    Double,
    Precision,
    Char,
}

/// What a token is, apart from its text. `Copy`, and compared as one or
/// two bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Ident,
    Keyword(Keyword),
    Int,
    Float,
    /// Quoted string; `escaped` when it holds a `''`.
    Str {
        escaped: bool,
    },
    LParen,
    RParen,
    Comma,
    Star,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Semi,
    /// The end of the input, or of the tokens before a lexical error.
    End,
}

/// One token: its kind and the bytes `start..end` of the text (a string
/// literal's range includes its quotes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) kind: Kind,
    pub(crate) start: usize,
    pub(crate) end: usize,
}

impl Keyword {
    /// The keyword `word` spells, in any case. Keywords are two to nine
    /// letters long and a statement is mostly names, so the length picks
    /// the few candidates first: a column name is compared with the
    /// keywords of its length, not with all nineteen.
    fn parse(word: &[u8]) -> Option<Keyword> {
        use Keyword::*;
        let candidates: &[(&str, Keyword)] = match word.len() {
            2 => &[("OR", Or)],
            3 => &[("AND", And), ("NOT", Not), ("INT", Int)],
            4 => &[
                ("INTO", Into),
                ("FROM", From),
                ("NULL", Null),
                ("TRUE", True),
                ("CHAR", Char),
            ],
            5 => &[("TABLE", Table), ("WHERE", Where), ("FALSE", False)],
            6 => &[
                ("CREATE", Create),
                ("INSERT", Insert),
                ("VALUES", Values),
                ("SELECT", Select),
                ("DOUBLE", Double),
            ],
            7 => &[("INTEGER", Integer)],
            9 => &[("PRECISION", Precision)],
            _ => return None,
        };
        candidates
            .iter()
            .find(|(text, _)| text.as_bytes().eq_ignore_ascii_case(word))
            .map(|&(_, k)| k)
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Keyword(k) => write!(f, "{k:?}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Star => write!(f, "*"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Semi => write!(f, ";"),
        }
    }
}

/// Lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Description.
    pub message: String,
    /// Byte offset.
    pub at: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL lex error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for LexError {}

impl LexError {
    fn new(at: usize, message: impl Into<String>) -> Self {
        LexError {
            message: message.into(),
            at,
        }
    }
}

/// Tokenize SQL text lazily: the iterator yields one token per call and
/// ends after the first error.
pub fn lex(input: &str) -> Lexer<'_> {
    Lexer {
        input,
        pos: 0,
        error: None,
    }
}

/// Streaming tokenizer returned by [`lex`].
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    /// Why the spans ended early, until someone takes it.
    error: Option<LexError>,
}

impl<'a> Lexer<'a> {
    /// The text not yet tokenized.
    pub(crate) fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// The lexical error that ended the spans, if one did.
    pub(crate) fn error(&self) -> Option<&LexError> {
        self.error.as_ref()
    }

    /// End the spans here with an error.
    fn fail(&mut self, at: usize, message: impl Into<String>) -> Span {
        self.error = Some(LexError::new(at, message));
        self.pos = self.input.len();
        Span {
            kind: Kind::End,
            start: at,
            end: at,
        }
    }

    /// Classify the next token. Numbers are delimited, not converted: a
    /// malformed one is reported by [`int`](Self::int) /
    /// [`float`](Self::float) / [`token`](Self::token). Inlined into its
    /// three callers (the parser's `bump`, its constructor, the token
    /// iterator): a separate call per token was a sixth of binding an
    /// `INSERT`.
    #[inline(always)]
    pub(crate) fn next_span(&mut self) -> Span {
        let bytes = self.input.as_bytes();
        let mut start = self.pos;
        while let Some(b' ' | b'\t' | b'\r' | b'\n') = bytes.get(start) {
            start += 1;
        }
        let Some(&b) = bytes.get(start) else {
            self.pos = start;
            return Span {
                kind: Kind::End,
                start,
                end: start,
            };
        };
        let next_is = |c: u8| bytes.get(start + 1) == Some(&c);
        let (kind, len) = match b {
            b'(' => (Kind::LParen, 1),
            b')' => (Kind::RParen, 1),
            b',' => (Kind::Comma, 1),
            b'*' => (Kind::Star, 1),
            b';' => (Kind::Semi, 1),
            b'=' => (Kind::Eq, 1),
            b'!' if next_is(b'=') => (Kind::Ne, 2),
            b'!' => return self.fail(start, "expected '=' after '!'"),
            b'<' if next_is(b'>') => (Kind::Ne, 2),
            b'<' if next_is(b'=') => (Kind::Le, 2),
            b'<' => (Kind::Lt, 1),
            b'>' if next_is(b'=') => (Kind::Ge, 2),
            b'>' => (Kind::Gt, 1),
            b'\'' => return self.string(start),
            b'-' | b'0'..=b'9' | b'.' => return self.number(start),
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let mut end = start + 1;
                while let Some(b'0'..=b'9' | b'A'..=b'Z' | b'a'..=b'z' | b'_') = bytes.get(end) {
                    end += 1;
                }
                let word = Keyword::parse(&bytes[start..end]);
                (word.map_or(Kind::Ident, Kind::Keyword), end - start)
            }
            _ => {
                let other = self.input[start..]
                    .chars()
                    .next()
                    .expect("start is in bounds");
                return self.fail(start, format!("unexpected character {other:?}"));
            }
        };
        self.pos = start + len;
        Span {
            kind,
            start,
            end: start + len,
        }
    }

    /// String literal opening at `start`. `'` is ASCII, so scanning bytes
    /// for it never splits a multi-byte character.
    fn string(&mut self, start: usize) -> Span {
        let bytes = self.input.as_bytes();
        let mut escaped = false;
        let mut end = start + 1;
        loop {
            match bytes.get(end) {
                None => return self.fail(start, "unterminated string literal"),
                Some(b'\'') if bytes.get(end + 1) == Some(&b'\'') => {
                    escaped = true;
                    end += 2;
                }
                Some(b'\'') => break,
                Some(_) => end += 1,
            }
        }
        self.pos = end + 1;
        Span {
            kind: Kind::Str { escaped },
            start,
            end: end + 1,
        }
    }

    /// Numeric literal starting at `start`. '-' only starts a number if
    /// a digit or '.' follows (the subset has no arithmetic).
    fn number(&mut self, start: usize) -> Span {
        let bytes = self.input.as_bytes();
        let mut i = start;
        if bytes[i] == b'-' {
            if !bytes
                .get(i + 1)
                .is_some_and(|b| b.is_ascii_digit() || *b == b'.')
            {
                return self.fail(start, "unexpected '-'");
            }
            i += 1;
        }
        let mut float = false;
        while let Some(b) = bytes.get(i) {
            match b {
                b'0'..=b'9' => i += 1,
                b'.' if !float => {
                    float = true;
                    i += 1;
                }
                b'e' | b'E' => {
                    float = true;
                    i += 1;
                    if matches!(bytes.get(i), Some(b'+') | Some(b'-')) {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        self.pos = i;
        Span {
            kind: if float { Kind::Float } else { Kind::Int },
            start,
            end: i,
        }
    }

    /// The bytes of `span` as written.
    #[inline]
    pub(crate) fn text(&self, span: Span) -> &'a str {
        &self.input[span.start..span.end]
    }

    /// The value of a [`Kind::Int`] span.
    #[inline]
    pub(crate) fn int(&self, span: Span) -> Result<i64, LexError> {
        let text = self.text(span);
        text.parse()
            .map_err(|e| LexError::new(span.start, format!("bad integer {text:?}: {e}")))
    }

    /// The value of a [`Kind::Float`] span.
    #[inline]
    pub(crate) fn float(&self, span: Span) -> Result<f64, LexError> {
        let text = self.text(span);
        text.parse()
            .map_err(|e| LexError::new(span.start, format!("bad float {text:?}: {e}")))
    }

    /// The content of a [`Kind::Str`] span: quotes stripped, `''`
    /// unescaped (the only case that copies).
    #[inline]
    pub(crate) fn string_content(&self, span: Span) -> Cow<'a, str> {
        let raw = &self.input[span.start + 1..span.end - 1];
        if span.kind == (Kind::Str { escaped: true }) {
            Cow::Owned(raw.replace("''", "'"))
        } else {
            Cow::Borrowed(raw)
        }
    }

    /// `span` (not [`Kind::End`]) as a public token.
    pub(crate) fn token(&self, span: Span) -> Result<Token<'a>, LexError> {
        Ok(match span.kind {
            Kind::Ident => Token::Ident(self.text(span)),
            Kind::Keyword(k) => Token::Keyword(k),
            Kind::Int => Token::Int(self.int(span)?),
            Kind::Float => Token::Float(self.float(span)?),
            Kind::Str { .. } => Token::Str(self.string_content(span)),
            Kind::LParen => Token::LParen,
            Kind::RParen => Token::RParen,
            Kind::Comma => Token::Comma,
            Kind::Star => Token::Star,
            Kind::Eq => Token::Eq,
            Kind::Ne => Token::Ne,
            Kind::Lt => Token::Lt,
            Kind::Le => Token::Le,
            Kind::Gt => Token::Gt,
            Kind::Ge => Token::Ge,
            Kind::Semi => Token::Semi,
            Kind::End => unreachable!("the end is not a token"),
        })
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        let span = self.next_span();
        if span.kind == Kind::End {
            return self.error.take().map(Err);
        }
        let token = self.token(span);
        if token.is_err() {
            self.pos = self.input.len();
        }
        Some(token)
    }
}

/// `10^n` for every `n` whose power fits a `u64`.
const POW10: [u64; 20] = {
    let mut table = [1u64; 20];
    let mut n = 1;
    while n < 20 {
        table[n] = table[n - 1] * 10;
        n += 1;
    }
    table
};

/// Append `x` with exactly `precision` decimals: byte for byte what
/// `{x:.precision$}` prints.
///
/// `core::fmt` rounds the *exact* binary value half-to-even, so this does
/// too, in integers (see `fixed_parts`). Values at or past `2^63`,
/// precisions past 19 and non-finite input are left to `core::fmt`
/// itself.
pub fn write_fixed(out: &mut String, x: f64, precision: usize) {
    let Some((whole, decimals)) = fixed_parts(x, precision) else {
        write!(out, "{x:.precision$}").expect("writing to a String cannot fail");
        return;
    };
    if x.is_sign_negative() {
        out.push('-');
    }
    write_uint(out, whole, 1);
    if precision > 0 {
        out.push('.');
        write_uint(out, decimals, precision);
    }
}

/// The literal [`write_fixed`] appends for `x` at `precision`, left
/// unwritten: its length in bytes, and the double the lexer reads back
/// from it.
///
/// The printed digits are the integer `m = whole × 10^p + decimals` over
/// `10^p`. Below `2^53` both are exact doubles, and one division rounds
/// their quotient correctly, as parsing the digits does: the two agree
/// bit for bit, a negative zero included. Past that bound, and wherever
/// [`write_fixed`] defers to `core::fmt`, the digits are printed and
/// parsed.
pub fn fixed_literal(x: f64, precision: usize) -> (usize, f64) {
    let parts = fixed_parts(x, precision).and_then(|(whole, decimals)| {
        let m = whole.checked_mul(POW10[precision])?.checked_add(decimals)?;
        (m < 1 << 53).then_some((whole, m))
    });
    let Some((whole, m)) = parts else {
        let mut digits = String::new();
        write_fixed(&mut digits, x, precision);
        let value = digits
            .parse()
            .expect("core::fmt prints what str::parse reads");
        return (digits.len(), value);
    };
    let negative = x.is_sign_negative();
    let point = if precision > 0 { 1 + precision } else { 0 };
    let len = usize::from(negative) + uint_len(whole) + point;
    let magnitude = m as f64 / POW10[precision] as f64;
    (len, if negative { -magnitude } else { magnitude })
}

/// `|x|` rounded to `precision` decimals as `core::fmt` rounds it: the
/// whole part and the decimals, as integers; `None` past what a `u64`
/// holds.
///
/// `|x| = m × 2^e`, and its fraction times `10^p` is a `u128` product
/// whose low `-e` bits are the exact remainder to round on, half to even.
fn fixed_parts(x: f64, precision: usize) -> Option<(u64, u64)> {
    const FRACTION_BITS: u32 = 52;
    let bits = x.to_bits();
    let biased = (bits >> FRACTION_BITS) & 0x7ff;
    let fraction = bits & ((1 << FRACTION_BITS) - 1);
    // Subnormals have no implicit bit and the smallest exponent.
    let (mantissa, exponent) = match biased {
        0 => (fraction, -1074),
        _ => (fraction | 1 << FRACTION_BITS, biased as i32 - 1075),
    };
    if exponent > 10 || precision >= POW10.len() {
        // Huge, infinite, NaN, or more decimals than a u64 holds.
        return None;
    }
    let scale = POW10[precision];
    // |x| = whole + part / 2^shift, with part < 2^shift.
    let (mut whole, part, shift) = match exponent {
        0.. => (mantissa << exponent, 0, 1),
        -63..=-1 => {
            let shift = -exponent as u32;
            (mantissa >> shift, mantissa & ((1 << shift) - 1), shift)
        }
        _ => (0, mantissa, -exponent as u32),
    };
    // part < 2^53 and scale < 2^64: the product is exact in a u128. Past
    // 127 bits of shift it is below half a unit, and rounds to zero.
    let product = u128::from(part) * u128::from(scale);
    let mut decimals = 0;
    if shift < u128::BITS {
        decimals = (product >> shift) as u64;
        let remainder = product & ((1 << shift) - 1);
        let half = 1 << (shift - 1);
        // A tie goes to the even last digit, which `{:.0}` prints from
        // the whole part.
        let last = if precision == 0 { whole } else { decimals };
        if remainder > half || (remainder == half && last % 2 == 1) {
            decimals += 1;
        }
        if decimals == scale {
            decimals = 0;
            whole += 1;
        }
    }
    Some((whole, decimals))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(input: &str) -> Result<Vec<Token<'_>>, LexError> {
        lex(input).collect()
    }

    #[test]
    fn lex_insert() {
        let toks = all("INSERT INTO generator (id, power) VALUES (1, 850.5)").unwrap();
        assert_eq!(toks[0], Token::Keyword(Keyword::Insert));
        assert!(toks.contains(&Token::Ident("generator")));
        assert!(toks.contains(&Token::Int(1)));
        assert!(toks.contains(&Token::Float(850.5)));
    }

    #[test]
    fn lex_select_with_comparison() {
        let toks = all("SELECT * FROM t WHERE a >= 10 AND b <> 'x'").unwrap();
        assert!(toks.contains(&Token::Star));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Ne));
        assert!(toks.contains(&Token::Str("x".into())));
    }

    #[test]
    fn negative_numbers() {
        assert_eq!(all("-5").unwrap(), vec![Token::Int(-5)]);
        assert_eq!(all("-2.5").unwrap(), vec![Token::Float(-2.5)]);
        assert!(all("- 5").is_err(), "bare minus is not arithmetic");
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            all("select Select SELECT").unwrap(),
            vec![Token::Keyword(Keyword::Select); 3]
        );
    }

    #[test]
    fn quoted_escapes() {
        let toks = all("'it''s' 'plain' ''''").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Str("it's".into()),
                Token::Str("plain".into()),
                Token::Str("'".into())
            ]
        );
        assert!(matches!(&toks[0], Token::Str(Cow::Owned(_))));
        assert!(matches!(&toks[1], Token::Str(Cow::Borrowed(_))));
    }

    #[test]
    fn multibyte_text() {
        assert_eq!(all("'né''e ü'").unwrap(), vec![Token::Str("né'e ü".into())]);
        let err = all("a é").unwrap_err();
        assert_eq!(
            (err.at, err.message.as_str()),
            (2, "unexpected character 'é'")
        );
    }

    #[test]
    fn errors() {
        assert!(all("'open").is_err());
        assert!(all("!x").is_err());
        let mut lexer = lex("a ? b");
        assert_eq!(lexer.next(), Some(Ok(Token::Ident("a"))));
        assert!(matches!(lexer.next(), Some(Err(_))));
        assert_eq!(lexer.next(), None);
    }

    #[test]
    fn bang_equals() {
        assert_eq!(all("a != 1").unwrap()[1], Token::Ne);
    }
}
