//! Recursive-descent parser for JMS selectors.
//!
//! Grammar (standard SQL-92 conditional subset):
//!
//! ```text
//! selector   := or_expr
//! or_expr    := and_expr (OR and_expr)*
//! and_expr   := not_expr (AND not_expr)*
//! not_expr   := NOT not_expr | predicate
//! predicate  := sum ( cmp_op sum
//!                   | [NOT] BETWEEN sum AND sum
//!                   | [NOT] IN '(' string (',' string)* ')'
//!                   | [NOT] LIKE string [ESCAPE string]
//!                   | IS [NOT] NULL )?
//! sum        := product (('+'|'-') product)*
//! product    := unary (('*'|'/') unary)*
//! unary      := ('-'|'+') unary | primary
//! primary    := literal | identifier | '(' or_expr ')'
//! ```

use super::ast::{ArithOp, CmpOp, Expr};
use super::lexer::{lex, LexError, Token};
use std::fmt;

/// Parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// Unexpected token (or end of input).
    Unexpected {
        /// What we found (None = end of input).
        found: Option<Token>,
        /// What we were trying to parse.
        expected: String,
    },
    /// Tokens remained after a complete expression.
    TrailingInput(Token),
    /// The expression nests past [`MAX_DEPTH`].
    TooDeep,
}

/// How deep a selector's syntax tree may grow: each `NOT`, unary sign and
/// `(`, and each further term of an `OR` / `AND` / `+` / `*` chain, is one
/// level. The parser, the evaluator and the tree's `Drop` all recurse once
/// per level and a selector is text a peer sends, so the depth is bounded
/// here, far above any selector a person writes.
pub const MAX_DEPTH: usize = 128;

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { found, expected } => match found {
                Some(t) => write!(f, "unexpected token `{t}` (expected {expected})"),
                None => write!(f, "unexpected end of selector (expected {expected})"),
            },
            ParseError::TrailingInput(t) => write!(f, "trailing input starting at `{t}`"),
            ParseError::TooDeep => write!(f, "selector nests deeper than {MAX_DEPTH} levels"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parse a selector string into an AST. The empty string (and all-
/// whitespace) is a valid selector that matches everything, represented as
/// `Expr::Bool(true)`, matching JMS semantics of a null/empty selector.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens = lex(input)?;
    if tokens.is_empty() {
        return Ok(Expr::Bool(true));
    }
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let expr = p.or_expr()?;
    if let Some(t) = p.peek() {
        return Err(ParseError::TrailingInput(t.clone()));
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token, what: &str) -> Result<(), ParseError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::Unexpected {
            found: self.peek().cloned(),
            expected: expected.to_owned(),
        }
    }

    /// Go one level down the tree. A chain rule restores `depth` itself
    /// once its last term is read; an error ends the parse.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::TooDeep);
        }
        self.depth += 1;
        Ok(())
    }

    /// Run `rule` one level down.
    fn nested(
        &mut self,
        rule: fn(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        self.descend()?;
        let inner = rule(self)?;
        self.depth -= 1;
        Ok(inner)
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let base = self.depth;
        let mut lhs = self.and_expr()?;
        while self.eat(&Token::Or) {
            self.descend()?;
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let base = self.depth;
        let mut lhs = self.not_expr()?;
        while self.eat(&Token::And) {
            self.descend()?;
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::Not) {
            let inner = self.nested(Self::not_expr)?;
            Ok(Expr::Not(Box::new(inner)))
        } else {
            self.predicate()
        }
    }

    fn predicate(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.sum()?;
        // Optional predicate suffix.
        let negated = if self.peek() == Some(&Token::Not)
            && matches!(
                self.tokens.get(self.pos + 1),
                Some(Token::Between) | Some(Token::In) | Some(Token::Like)
            ) {
            self.pos += 1;
            true
        } else {
            false
        };
        match self.peek() {
            Some(Token::Eq) => self.cmp_tail(CmpOp::Eq, lhs),
            Some(Token::Ne) => self.cmp_tail(CmpOp::Ne, lhs),
            Some(Token::Lt) => self.cmp_tail(CmpOp::Lt, lhs),
            Some(Token::Le) => self.cmp_tail(CmpOp::Le, lhs),
            Some(Token::Gt) => self.cmp_tail(CmpOp::Gt, lhs),
            Some(Token::Ge) => self.cmp_tail(CmpOp::Ge, lhs),
            Some(Token::Between) => {
                self.pos += 1;
                let lo = self.sum()?;
                self.expect(Token::And, "AND in BETWEEN")?;
                let hi = self.sum()?;
                Ok(Expr::Between {
                    expr: Box::new(lhs),
                    lo: Box::new(lo),
                    hi: Box::new(hi),
                    negated,
                })
            }
            Some(Token::In) => {
                self.pos += 1;
                self.expect(Token::LParen, "'(' after IN")?;
                let mut list = Vec::new();
                loop {
                    match self.next() {
                        Some(Token::Str(s)) => list.push(s),
                        _ => return Err(self.unexpected("string literal in IN list")),
                    }
                    if self.eat(&Token::Comma) {
                        continue;
                    }
                    self.expect(Token::RParen, "')' closing IN list")?;
                    break;
                }
                Ok(Expr::InList {
                    expr: Box::new(lhs),
                    list,
                    negated,
                })
            }
            Some(Token::Like) => {
                self.pos += 1;
                let pattern = match self.next() {
                    Some(Token::Str(s)) => s,
                    _ => return Err(self.unexpected("pattern string after LIKE")),
                };
                let escape = if self.eat(&Token::Escape) {
                    match self.next() {
                        Some(Token::Str(s)) if s.chars().count() == 1 => s.chars().next(),
                        _ => return Err(self.unexpected("single-character string after ESCAPE")),
                    }
                } else {
                    None
                };
                Ok(Expr::Like {
                    expr: Box::new(lhs),
                    pattern,
                    escape,
                    negated,
                })
            }
            Some(Token::Is) if !negated => {
                self.pos += 1;
                let negated = self.eat(&Token::Not);
                self.expect(Token::Null, "NULL after IS")?;
                Ok(Expr::IsNull {
                    expr: Box::new(lhs),
                    negated,
                })
            }
            _ if negated => Err(self.unexpected("BETWEEN, IN or LIKE after NOT")),
            _ => Ok(lhs),
        }
    }

    fn cmp_tail(&mut self, op: CmpOp, lhs: Expr) -> Result<Expr, ParseError> {
        self.pos += 1;
        let rhs = self.sum()?;
        Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)))
    }

    fn sum(&mut self) -> Result<Expr, ParseError> {
        let base = self.depth;
        let mut lhs = self.product()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.pos += 1;
            self.descend()?;
            let rhs = self.product()?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn product(&mut self) -> Result<Expr, ParseError> {
        let base = self.depth;
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => ArithOp::Mul,
                Some(Token::Slash) => ArithOp::Div,
                _ => break,
            };
            self.pos += 1;
            self.descend()?;
            let rhs = self.unary()?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::Minus) {
            let inner = self.nested(Self::unary)?;
            Ok(Expr::Neg(Box::new(inner)))
        } else if self.eat(&Token::Plus) {
            self.nested(Self::unary)
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Int(v)) => {
                self.pos += 1;
                Ok(Expr::Int(v))
            }
            Some(Token::Float(v)) => {
                self.pos += 1;
                Ok(Expr::Float(v))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Str(s))
            }
            Some(Token::Bool(b)) => {
                self.pos += 1;
                Ok(Expr::Bool(b))
            }
            Some(Token::Ident(s)) => {
                self.pos += 1;
                Ok(Expr::Ident(s))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let inner = self.nested(Self::or_expr)?;
                self.expect(Token::RParen, "closing ')'")?;
                Ok(inner)
            }
            _ => Err(self.unexpected("literal, identifier or '('")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Expr {
        parse(s).unwrap_or_else(|e| panic!("parse {s:?}: {e}"))
    }

    #[test]
    fn paper_selector_parses() {
        assert_eq!(
            p("id<10000"),
            Expr::Cmp(
                CmpOp::Lt,
                Box::new(Expr::Ident("id".into())),
                Box::new(Expr::Int(10000))
            )
        );
    }

    #[test]
    fn empty_selector_matches_all() {
        assert_eq!(p(""), Expr::Bool(true));
        assert_eq!(p("   "), Expr::Bool(true));
    }

    #[test]
    fn precedence_or_and_not() {
        // NOT binds tighter than AND, AND tighter than OR.
        let e = p("a = 1 OR NOT b = 2 AND c = 3");
        match e {
            Expr::Or(_, rhs) => match *rhs {
                Expr::And(l, _) => assert!(matches!(*l, Expr::Not(_))),
                other => panic!("expected AND on rhs, got {other}"),
            },
            other => panic!("expected OR at top, got {other}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3 parses as 1 + (2*3).
        let e = p("x = 1 + 2 * 3");
        let s = format!("{e}");
        assert_eq!(s, "(x = (1 + (2 * 3)))");
    }

    #[test]
    fn between_and_not_between() {
        assert_eq!(format!("{}", p("x BETWEEN 1 AND 5")), "(x BETWEEN 1 AND 5)");
        assert_eq!(
            format!("{}", p("x NOT BETWEEN 1 AND 5")),
            "(x NOT BETWEEN 1 AND 5)"
        );
    }

    #[test]
    fn in_list() {
        assert_eq!(
            format!("{}", p("region IN ('uk', 'fr')")),
            "(region IN ('uk', 'fr'))"
        );
        assert_eq!(
            format!("{}", p("region NOT IN ('uk')")),
            "(region NOT IN ('uk'))"
        );
    }

    #[test]
    fn like_with_escape() {
        assert_eq!(
            format!("{}", p("name LIKE 'gen!_%' ESCAPE '!'")),
            "(name LIKE 'gen!_%' ESCAPE '!')"
        );
        assert_eq!(
            format!("{}", p("name NOT LIKE 'x%'")),
            "(name NOT LIKE 'x%')"
        );
    }

    #[test]
    fn is_null_forms() {
        assert_eq!(format!("{}", p("x IS NULL")), "(x IS NULL)");
        assert_eq!(format!("{}", p("x IS NOT NULL")), "(x IS NOT NULL)");
    }

    #[test]
    fn parentheses_override() {
        let e = p("(a = 1 OR b = 2) AND c = 3");
        assert!(matches!(e, Expr::And(_, _)));
    }

    #[test]
    fn unary_minus_and_plus() {
        assert_eq!(format!("{}", p("x = -5")), "(x = (-5))");
        assert_eq!(format!("{}", p("x = +5")), "(x = 5)");
        assert_eq!(format!("{}", p("x = --5")), "(x = (-(-5)))");
    }

    #[test]
    fn error_cases() {
        assert!(parse("x <").is_err());
        assert!(parse("x BETWEEN 1").is_err());
        assert!(
            parse("x IN (1)").is_err(),
            "IN list must be strings per JMS"
        );
        assert!(parse("x LIKE 5").is_err());
        assert!(parse("x IS 5").is_err());
        assert!(parse("(x = 1").is_err());
        assert!(parse("x = 1 y").is_err(), "trailing input");
        assert!(parse("x NOT 5").is_err());
        assert!(parse("x LIKE 'a' ESCAPE 'ab'").is_err());
    }

    #[test]
    fn hostile_depth_is_an_error_not_a_stack_overflow() {
        let n = 100_000;
        for deep in [
            format!("{}a = 1", "NOT ".repeat(n)),
            format!("{}a = 1{}", "(".repeat(n), ")".repeat(n)),
            format!("a = {}1", "-".repeat(n)),
            format!("a = 1{}", " OR a = 1".repeat(n)),
            format!("a = 1{}", " + 1".repeat(n)),
        ] {
            assert_eq!(parse(&deep), Err(ParseError::TooDeep));
        }
        // The limit is far from anything legitimate: 100 levels of each.
        p(&format!("{}a = 1", "NOT ".repeat(100)));
        p(&format!("{}a = 1{}", "(".repeat(100), ")".repeat(100)));
        p(&format!("a = 1{}", " OR a = 1".repeat(100)));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = parse("x <").unwrap_err().to_string();
        assert!(e.contains("end of selector"), "{e}");
        let e = parse("x = 1 )").unwrap_err().to_string();
        assert!(e.contains("trailing"), "{e}");
    }

    #[test]
    fn complex_realistic_selector() {
        let e = p("(gen_id BETWEEN 0 AND 750 AND region IN ('uk','ie')) \
                   OR (power > 1000.0 AND status <> 'OFF' AND site LIKE 'hydra%')");
        assert!(e.node_count() > 10);
    }
}
