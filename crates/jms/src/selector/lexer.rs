//! Lexer for the JMS message-selector language (SQL-92 conditional
//! expression subset, per JMS 1.1 §3.8.1).

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Property identifier (case-sensitive, Java identifier rules).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal (quotes removed, `''` unescaped).
    Str(String),
    /// `TRUE` / `FALSE` (case-insensitive keywords).
    Bool(bool),
    // Keywords (case-insensitive).
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `NOT`
    Not,
    /// `BETWEEN`
    Between,
    /// `IN`
    In,
    /// `LIKE`
    Like,
    /// `ESCAPE`
    Escape,
    /// `IS`
    Is,
    /// `NULL`
    Null,
    // Operators and punctuation.
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Token::And => write!(f, "AND"),
            Token::Or => write!(f, "OR"),
            Token::Not => write!(f, "NOT"),
            Token::Between => write!(f, "BETWEEN"),
            Token::In => write!(f, "IN"),
            Token::Like => write!(f, "LIKE"),
            Token::Escape => write!(f, "ESCAPE"),
            Token::Is => write!(f, "IS"),
            Token::Null => write!(f, "NULL"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
        }
    }
}

/// Lexical error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize a selector expression.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token::Ne);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Le);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let (s, next) = lex_string(input, i)?;
                out.push(Token::Str(s));
                i = next;
            }
            '0'..='9' | '.' => {
                let (tok, next) = lex_number(input, i)?;
                out.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                let (tok, next) = lex_word(input, i);
                out.push(tok);
                i = next;
            }
            _ => {
                // `c` is only the first byte; report the scalar it starts.
                let ch = input[i..].chars().next().expect("valid utf-8");
                return Err(LexError {
                    message: format!("unexpected character {ch:?}"),
                    at: i,
                });
            }
        }
    }
    Ok(out)
}

fn lex_string(input: &str, start: usize) -> Result<(String, usize), LexError> {
    let bytes = input.as_bytes();
    debug_assert_eq!(bytes[start], b'\'');
    let mut s = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        if bytes[i] == b'\'' {
            // '' is an escaped quote.
            if bytes.get(i + 1) == Some(&b'\'') {
                s.push('\'');
                i += 2;
            } else {
                return Ok((s, i + 1));
            }
        } else {
            // Consume a full UTF-8 scalar.
            let ch = input[i..].chars().next().expect("valid utf-8");
            s.push(ch);
            i += ch.len_utf8();
        }
    }
    Err(LexError {
        message: "unterminated string literal".into(),
        at: start,
    })
}

fn lex_number(input: &str, start: usize) -> Result<(Token, usize), LexError> {
    let bytes = input.as_bytes();
    let mut i = start;
    let mut saw_dot = false;
    let mut saw_exp = false;
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => i += 1,
            b'.' if !saw_dot && !saw_exp => {
                saw_dot = true;
                i += 1;
            }
            b'e' | b'E' if !saw_exp && i > start => {
                saw_exp = true;
                i += 1;
                if matches!(bytes.get(i), Some(b'+') | Some(b'-')) {
                    i += 1;
                }
            }
            _ => break,
        }
    }
    let text = &input[start..i];
    if text == "." {
        return Err(LexError {
            message: "bare '.' is not a number".into(),
            at: start,
        });
    }
    if saw_dot || saw_exp {
        text.parse::<f64>()
            .map(|v| (Token::Float(v), i))
            .map_err(|e| LexError {
                message: format!("bad float literal {text:?}: {e}"),
                at: start,
            })
    } else {
        text.parse::<i64>()
            .map(|v| (Token::Int(v), i))
            .map_err(|e| LexError {
                message: format!("bad integer literal {text:?}: {e}"),
                at: start,
            })
    }
}

fn lex_word(input: &str, start: usize) -> (Token, usize) {
    let bytes = input.as_bytes();
    let mut i = start;
    while i < bytes.len()
        && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
    {
        i += 1;
    }
    let word = &input[start..i];
    let tok = match word.to_ascii_uppercase().as_str() {
        "AND" => Token::And,
        "OR" => Token::Or,
        "NOT" => Token::Not,
        "BETWEEN" => Token::Between,
        "IN" => Token::In,
        "LIKE" => Token::Like,
        "ESCAPE" => Token::Escape,
        "IS" => Token::Is,
        "NULL" => Token::Null,
        "TRUE" => Token::Bool(true),
        "FALSE" => Token::Bool(false),
        _ => Token::Ident(word.to_owned()),
    };
    (tok, i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_comparison() {
        assert_eq!(
            lex("id<10000").unwrap(),
            vec![Token::Ident("id".into()), Token::Lt, Token::Int(10000)]
        );
    }

    #[test]
    fn keywords_case_insensitive_idents_not() {
        assert_eq!(
            lex("foo And BAR or TRUE").unwrap(),
            vec![
                Token::Ident("foo".into()),
                Token::And,
                Token::Ident("BAR".into()),
                Token::Or,
                Token::Bool(true),
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            lex("<> <= >= < > = + - * / ( ) ,").unwrap(),
            vec![
                Token::Ne,
                Token::Le,
                Token::Ge,
                Token::Lt,
                Token::Gt,
                Token::Eq,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::LParen,
                Token::RParen,
                Token::Comma,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            lex("42 3.75 1e3 2.5E-2 .5").unwrap(),
            vec![
                Token::Int(42),
                Token::Float(3.75),
                Token::Float(1000.0),
                Token::Float(0.025),
                Token::Float(0.5),
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            lex("'hello' 'it''s' ''").unwrap(),
            vec![
                Token::Str("hello".into()),
                Token::Str("it's".into()),
                Token::Str(String::new()),
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        let err = lex("'oops").unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.at, 0);
    }

    #[test]
    fn bad_char_errors() {
        let err = lex("a ? b").unwrap_err();
        assert_eq!(err.at, 2);
        // A multi-byte character is reported whole, not as its first byte.
        let err = lex("a = é").unwrap_err();
        assert_eq!(err.message, "unexpected character 'é'");
        assert_eq!(err.at, 4);
    }

    #[test]
    fn paper_selector() {
        // The selector the paper used: "id<10000".
        assert!(lex("id<10000").is_ok());
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(lex("'héllo'").unwrap(), vec![Token::Str("héllo".into())]);
    }

    #[test]
    fn bare_dot_is_error() {
        assert!(lex(". ").is_err());
    }
}
