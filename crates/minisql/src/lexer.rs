//! SQL lexer for the R-GMA subset: one borrowed, streaming pass. Words
//! and literals are slices of the input; only a string literal holding an
//! escaped quote (`''`) is copied.

use std::borrow::Cow;
use std::fmt;

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
    Bigint,
    Real,
    Double,
    Precision,
    Char,
    Varchar,
}

const KEYWORDS: [(&str, Keyword); 22] = [
    ("CREATE", Keyword::Create),
    ("TABLE", Keyword::Table),
    ("INSERT", Keyword::Insert),
    ("INTO", Keyword::Into),
    ("VALUES", Keyword::Values),
    ("SELECT", Keyword::Select),
    ("FROM", Keyword::From),
    ("WHERE", Keyword::Where),
    ("AND", Keyword::And),
    ("OR", Keyword::Or),
    ("NOT", Keyword::Not),
    ("NULL", Keyword::Null),
    ("TRUE", Keyword::True),
    ("FALSE", Keyword::False),
    ("INTEGER", Keyword::Integer),
    ("INT", Keyword::Int),
    ("BIGINT", Keyword::Bigint),
    ("REAL", Keyword::Real),
    ("DOUBLE", Keyword::Double),
    ("PRECISION", Keyword::Precision),
    ("CHAR", Keyword::Char),
    ("VARCHAR", Keyword::Varchar),
];

impl Keyword {
    fn parse(word: &str) -> Option<Keyword> {
        KEYWORDS
            .iter()
            .find(|(text, _)| text.eq_ignore_ascii_case(word))
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
    Lexer { input, pos: 0 }
}

/// Streaming tokenizer returned by [`lex`].
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// The text not yet tokenized.
    pub(crate) fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn token(&mut self) -> Result<Option<Token<'a>>, LexError> {
        let input = self.input;
        let bytes = input.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
        let start = self.pos;
        let Some(&b) = bytes.get(start) else {
            return Ok(None);
        };
        let next_is = |c: u8| bytes.get(start + 1) == Some(&c);
        let (tok, len) = match b {
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b',' => (Token::Comma, 1),
            b'*' => (Token::Star, 1),
            b';' => (Token::Semi, 1),
            b'=' => (Token::Eq, 1),
            b'!' if next_is(b'=') => (Token::Ne, 2),
            b'!' => return Err(LexError::new(start, "expected '=' after '!'")),
            b'<' if next_is(b'>') => (Token::Ne, 2),
            b'<' if next_is(b'=') => (Token::Le, 2),
            b'<' => (Token::Lt, 1),
            b'>' if next_is(b'=') => (Token::Ge, 2),
            b'>' => (Token::Gt, 1),
            b'\'' => return self.string(start).map(Some),
            b'-' | b'0'..=b'9' | b'.' => return self.number(start).map(Some),
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let len = bytes[start..]
                    .iter()
                    .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                    .count();
                let word = &input[start..start + len];
                let tok = Keyword::parse(word).map_or(Token::Ident(word), Token::Keyword);
                (tok, len)
            }
            _ => {
                let other = input[start..].chars().next().expect("start is in bounds");
                return Err(LexError::new(
                    start,
                    format!("unexpected character {other:?}"),
                ));
            }
        };
        self.pos = start + len;
        Ok(Some(tok))
    }

    /// String literal opening at `start`. `'` is ASCII, so scanning bytes
    /// for it never splits a multi-byte character.
    fn string(&mut self, start: usize) -> Result<Token<'a>, LexError> {
        let bytes = self.input.as_bytes();
        let mut escaped = false;
        let mut end = start + 1;
        loop {
            match bytes.get(end) {
                None => return Err(LexError::new(start, "unterminated string literal")),
                Some(b'\'') if bytes.get(end + 1) == Some(&b'\'') => {
                    escaped = true;
                    end += 2;
                }
                Some(b'\'') => break,
                Some(_) => end += 1,
            }
        }
        self.pos = end + 1;
        let raw = &self.input[start + 1..end];
        Ok(Token::Str(if escaped {
            Cow::Owned(raw.replace("''", "'"))
        } else {
            Cow::Borrowed(raw)
        }))
    }

    /// Numeric literal starting at `start`. '-' only starts a number if
    /// a digit or '.' follows (the subset has no arithmetic).
    fn number(&mut self, start: usize) -> Result<Token<'a>, LexError> {
        let bytes = self.input.as_bytes();
        let mut i = start;
        if bytes[i] == b'-' {
            if !bytes
                .get(i + 1)
                .is_some_and(|b| b.is_ascii_digit() || *b == b'.')
            {
                return Err(LexError::new(start, "unexpected '-'"));
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
        let text = &self.input[start..i];
        if float {
            text.parse()
                .map(Token::Float)
                .map_err(|e| LexError::new(start, format!("bad float {text:?}: {e}")))
        } else {
            text.parse()
                .map(Token::Int)
                .map_err(|e| LexError::new(start, format!("bad integer {text:?}: {e}")))
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.token().transpose();
        if matches!(item, Some(Err(_))) {
            self.pos = self.input.len();
        }
        item
    }
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
