//! Recursive-descent parser for the SQL subset.

use crate::ast::{CmpOp, ColumnDef, Predicate, SqlType, Statement};
use crate::lexer::{lex, Keyword, Kind, LexError, Lexer, Span};
use std::fmt;
use wire::Value;

/// Parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// Unexpected token / end of input.
    Unexpected {
        /// The token found, as written (None = end).
        found: Option<String>,
        /// What was expected.
        expected: String,
    },
    /// Trailing token (as written) after a complete statement.
    TrailingInput(String),
    /// A `WHERE` clause or selector nests past [`MAX_DEPTH`].
    TooDeep,
}

/// How deep a predicate's syntax tree may grow: each `NOT` and `(`, and
/// each further term of an `OR` / `AND` chain, is one level. The parser,
/// the evaluator and the tree's `Drop` all recurse once per level and a
/// query or selector is text a peer sends, so the depth is bounded here,
/// far above any condition a person writes.
pub const MAX_DEPTH: usize = 128;

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { found, expected } => match found {
                Some(t) => write!(f, "unexpected `{t}` (expected {expected})"),
                None => write!(f, "unexpected end of SQL (expected {expected})"),
            },
            ParseError::TrailingInput(t) => write!(f, "trailing input at `{t}`"),
            ParseError::TooDeep => write!(f, "condition nests deeper than {MAX_DEPTH} levels"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse one SQL statement (a trailing `;` is allowed).
pub fn parse(input: &str) -> Result<Statement, ParseError> {
    let mut p = Parser::new(lex(input));
    let stmt = p.statement()?;
    p.finish()?;
    Ok(stmt)
}

/// Parse a bare condition, the grammar of a `WHERE` clause: `column op
/// literal` comparisons joined by `AND` / `OR` / `NOT` and parentheses.
/// This is also the JMS message-selector language (`jms::Selector`). Empty
/// or all-whitespace text is `TRUE`, as an empty selector is in JMS.
pub fn parse_predicate(input: &str) -> Result<Predicate, ParseError> {
    let mut p = Parser::new(lex(input));
    if p.cur.kind == Kind::End && p.lexer.error().is_none() {
        return Ok(Predicate::Const(true));
    }
    let pred = p.or_pred()?;
    p.end()?;
    Ok(pred)
}

/// One token of lookahead over the streaming lexer, held as a span: its
/// text is converted where a rule consumes it. A lexical error ends the
/// spans and is reported in place of whatever the grammar would have
/// said about the missing token.
struct Parser<'a> {
    lexer: Lexer<'a>,
    cur: Span,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(mut lexer: Lexer<'a>) -> Self {
        let cur = lexer.next_span();
        Parser {
            lexer,
            cur,
            depth: 0,
        }
    }

    /// Advance to the next token. The one copy of the scanner: rules
    /// call this, and [`Lexer::next_span`] is inlined into it, so a token
    /// costs one call and its span is stored where the rules read it.
    #[inline(never)]
    fn bump(&mut self) {
        self.cur = self.lexer.next_span();
    }

    #[inline]
    fn eat(&mut self, kind: Kind) -> bool {
        let hit = self.cur.kind == kind;
        if hit {
            self.bump();
        }
        hit
    }

    fn eat_kw(&mut self, k: Keyword) -> bool {
        self.eat(Kind::Keyword(k))
    }

    fn expect_kw(&mut self, k: Keyword) -> Result<(), ParseError> {
        if self.eat_kw(k) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("{k:?}")))
        }
    }

    fn expect(&mut self, kind: Kind, what: &str) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    /// The current token as errors quote it (`None` at the end of the
    /// input) — or the lexical error that stands in its place: the one
    /// that ended the spans, or its own if it is a malformed number.
    fn found(&self) -> Result<Option<String>, LexError> {
        if self.cur.kind == Kind::End {
            return self.lexer.error().map_or(Ok(None), |e| Err(e.clone()));
        }
        self.lexer.token(self.cur).map(|t| Some(t.to_string()))
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        match self.found() {
            Err(e) => ParseError::Lex(e),
            Ok(found) => ParseError::Unexpected {
                found,
                expected: expected.to_owned(),
            },
        }
    }

    /// After a complete statement: an optional `;`, then nothing.
    fn finish(&mut self) -> Result<(), ParseError> {
        self.eat(Kind::Semi);
        self.end()
    }

    /// Nothing but the end of the input is left.
    fn end(&self) -> Result<(), ParseError> {
        match self.found() {
            Err(e) => Err(ParseError::Lex(e)),
            Ok(Some(t)) => Err(ParseError::TrailingInput(t)),
            Ok(None) => Ok(()),
        }
    }

    #[inline]
    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        if self.cur.kind == Kind::Ident {
            let name = self.lexer.text(self.cur);
            self.bump();
            Ok(name)
        } else {
            Err(self.unexpected(what))
        }
    }

    /// Items in the parenthesised list just opened: the commas before the
    /// next `)`, plus one. Exact for names; a capacity hint for literals
    /// (a quoted `,` or `)` skews it).
    fn list_len_hint(&self) -> usize {
        let rest = self.lexer.rest().bytes();
        1 + rest
            .take_while(|&b| b != b')')
            .filter(|&b| b == b',')
            .count()
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_kw(Keyword::Create) {
            self.create_table()
        } else if self.eat_kw(Keyword::Insert) {
            self.insert()
        } else if self.eat_kw(Keyword::Select) {
            self.select()
        } else {
            Err(self.unexpected("CREATE, INSERT or SELECT"))
        }
    }

    fn create_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Keyword::Table)?;
        let table = self.ident("table name")?.to_owned();
        self.expect(Kind::LParen, "'(' before column list")?;
        let mut columns = Vec::new();
        loop {
            let name = self.ident("column name")?.to_owned();
            let ty = self.sql_type()?;
            columns.push(ColumnDef { name, ty });
            if self.eat(Kind::Comma) {
                continue;
            }
            self.expect(Kind::RParen, "')' after column list")?;
            break;
        }
        Ok(Statement::CreateTable { table, columns })
    }

    fn sql_type(&mut self) -> Result<SqlType, ParseError> {
        if self.eat_kw(Keyword::Integer) || self.eat_kw(Keyword::Int) {
            Ok(SqlType::Integer)
        } else if self.eat_kw(Keyword::Double) {
            // Optional PRECISION.
            self.eat_kw(Keyword::Precision);
            Ok(SqlType::Double)
        } else if self.eat_kw(Keyword::Char) {
            Ok(SqlType::Char(self.width()?))
        } else {
            Err(self.unexpected("column type"))
        }
    }

    fn width(&mut self) -> Result<u16, ParseError> {
        self.expect(Kind::LParen, "'(' before width")?;
        let w = match self.cur.kind {
            Kind::Int => self.lexer.int(self.cur).ok(),
            _ => None,
        };
        let Some(w) = w.and_then(|w| u16::try_from(w).ok()).filter(|&w| w > 0) else {
            return Err(self.unexpected("width 1..65535"));
        };
        self.bump();
        self.expect(Kind::RParen, "')' after width")?;
        Ok(w)
    }

    /// The one INSERT grammar (after the `INSERT` keyword).
    fn insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Keyword::Into)?;
        let table = self.ident("table name")?.to_owned();
        let mut columns = Vec::new();
        if self.eat(Kind::LParen) {
            columns.reserve(self.list_len_hint());
            loop {
                columns.push(self.ident("column name")?.to_owned());
                if self.eat(Kind::Comma) {
                    continue;
                }
                self.expect(Kind::RParen, "')' after columns")?;
                break;
            }
        }
        self.expect_kw(Keyword::Values)?;
        self.expect(Kind::LParen, "'(' before values")?;
        let mut values = Vec::with_capacity(self.list_len_hint());
        loop {
            values.push(self.literal()?);
            if self.eat(Kind::Comma) {
                continue;
            }
            self.expect(Kind::RParen, "')' after values")?;
            break;
        }
        Ok(Statement::Insert {
            table,
            columns,
            values,
        })
    }

    #[inline]
    fn literal(&mut self) -> Result<Value, ParseError> {
        let span = self.cur;
        let v = match span.kind {
            // SQL integer literals fit the column's width at insert
            // validation time; carry as the widest integer.
            Kind::Int => Value::Long(self.lexer.int(span).map_err(ParseError::Lex)?),
            Kind::Float => Value::Double(self.lexer.float(span).map_err(ParseError::Lex)?),
            Kind::Str { .. } => Value::Str(self.lexer.string_content(span).into()),
            Kind::Keyword(Keyword::True) => Value::Bool(true),
            Kind::Keyword(Keyword::False) => Value::Bool(false),
            _ => return Err(self.unexpected("literal value")),
        };
        self.bump();
        Ok(v)
    }

    fn select(&mut self) -> Result<Statement, ParseError> {
        let mut columns = Vec::new();
        if !self.eat(Kind::Star) {
            loop {
                columns.push(self.ident("column name or '*'")?.to_owned());
                if !self.eat(Kind::Comma) {
                    break;
                }
            }
        }
        self.expect_kw(Keyword::From)?;
        let table = self.ident("table name")?.to_owned();
        let predicate = if self.eat_kw(Keyword::Where) {
            Some(self.or_pred()?)
        } else {
            None
        };
        Ok(Statement::Select {
            columns,
            table,
            predicate,
        })
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
        rule: fn(&mut Self) -> Result<Predicate, ParseError>,
    ) -> Result<Predicate, ParseError> {
        self.descend()?;
        let inner = rule(self)?;
        self.depth -= 1;
        Ok(inner)
    }

    fn or_pred(&mut self) -> Result<Predicate, ParseError> {
        let base = self.depth;
        let mut lhs = self.and_pred()?;
        while self.eat_kw(Keyword::Or) {
            self.descend()?;
            let rhs = self.and_pred()?;
            lhs = Predicate::Or(Box::new(lhs), Box::new(rhs));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn and_pred(&mut self) -> Result<Predicate, ParseError> {
        let base = self.depth;
        let mut lhs = self.not_pred()?;
        while self.eat_kw(Keyword::And) {
            self.descend()?;
            let rhs = self.not_pred()?;
            lhs = Predicate::And(Box::new(lhs), Box::new(rhs));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn not_pred(&mut self) -> Result<Predicate, ParseError> {
        if self.eat_kw(Keyword::Not) {
            Ok(Predicate::Not(Box::new(self.nested(Self::not_pred)?)))
        } else {
            self.atom_pred()
        }
    }

    fn atom_pred(&mut self) -> Result<Predicate, ParseError> {
        if self.eat(Kind::LParen) {
            let inner = self.nested(Self::or_pred)?;
            self.expect(Kind::RParen, "closing ')'")?;
            return Ok(inner);
        }
        if self.eat_kw(Keyword::True) {
            return Ok(Predicate::Const(true));
        }
        if self.eat_kw(Keyword::False) {
            return Ok(Predicate::Const(false));
        }
        let column = self.ident("column name")?.to_owned();
        let op = match self.cur.kind {
            Kind::Eq => CmpOp::Eq,
            Kind::Ne => CmpOp::Ne,
            Kind::Lt => CmpOp::Lt,
            Kind::Le => CmpOp::Le,
            Kind::Gt => CmpOp::Gt,
            Kind::Ge => CmpOp::Ge,
            _ => return Err(self.unexpected("comparison operator")),
        };
        self.bump();
        let value = self.literal()?;
        Ok(Predicate::Cmp { column, op, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_generator() {
        // The R-GMA test payload: 4 int, 8 double, 4 char(20).
        let stmt = parse(
            "CREATE TABLE generator (id INTEGER, seq INTEGER, node INTEGER, flags INT, \
             p1 DOUBLE PRECISION, p2 DOUBLE, p3 DOUBLE, p4 DOUBLE, \
             p5 DOUBLE, p6 DOUBLE, p7 DOUBLE, p8 DOUBLE, \
             c1 CHAR(20), c2 CHAR(20), c3 CHAR(20), c4 CHAR(20))",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable { table, columns } => {
                assert_eq!(table, "generator");
                assert_eq!(columns.len(), 16);
                assert_eq!(columns[0].ty, SqlType::Integer);
                assert_eq!(columns[4].ty, SqlType::Double);
                assert_eq!(columns[12].ty, SqlType::Char(20));
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn insert_with_and_without_columns() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x')").unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns, vec!["a", "b"]);
                assert_eq!(values, vec![Value::Long(1), Value::Str("x".into())]);
            }
            other => panic!("{other:?}"),
        }
        let s = parse("INSERT INTO t VALUES (1.5, TRUE, -3)").unwrap();
        match s {
            Statement::Insert {
                columns, values, ..
            } => {
                assert!(columns.is_empty());
                assert_eq!(
                    values,
                    vec![Value::Double(1.5), Value::Bool(true), Value::Long(-3)]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_star_and_projection() {
        let s = parse("SELECT * FROM generator").unwrap();
        match s {
            Statement::Select {
                columns, predicate, ..
            } => {
                assert!(columns.is_empty());
                assert!(predicate.is_none());
            }
            other => panic!("{other:?}"),
        }
        let s = parse("SELECT id, power FROM generator WHERE id < 100").unwrap();
        match s {
            Statement::Select {
                columns, predicate, ..
            } => {
                assert_eq!(columns, vec!["id", "power"]);
                assert!(predicate.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn predicate_precedence() {
        let s = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND NOT c = 3").unwrap();
        let Statement::Select { predicate, .. } = s else {
            panic!()
        };
        match predicate.unwrap() {
            Predicate::Or(_, rhs) => match *rhs {
                Predicate::And(_, r2) => assert!(matches!(*r2, Predicate::Not(_))),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse("SELECT * FROM t;").is_ok());
    }

    #[test]
    fn error_cases() {
        assert!(parse("DROP TABLE t").is_err());
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("INSERT INTO t VALUES ()").is_err());
        assert!(parse("CREATE TABLE t (a FANCYTYPE)").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t WHERE a ~ 1").is_err());
        assert!(parse("SELECT * FROM t extra").is_err());
        assert!(parse("CREATE TABLE t (a CHAR(0))").is_err());
        assert!(parse("CREATE TABLE t (a CHAR(99999))").is_err());
    }

    #[test]
    fn hostile_depth_is_an_error_not_a_stack_overflow() {
        let n = 100_000;
        for deep in [
            format!("{}a = 1", "NOT ".repeat(n)),
            format!("{}a = 1{}", "(".repeat(n), ")".repeat(n)),
            format!("a = 1{}", " OR a = 1".repeat(n)),
        ] {
            let sql = format!("SELECT * FROM t WHERE {deep}");
            assert_eq!(parse(&sql), Err(ParseError::TooDeep));
        }
        // The limit is far from anything legitimate: 100 levels of each.
        for fine in [
            format!("{}a = 1", "NOT ".repeat(100)),
            format!("{}a = 1{}", "(".repeat(100), ")".repeat(100)),
            format!("a = 1{}", " AND a = 1".repeat(100)),
        ] {
            parse(&format!("SELECT * FROM t WHERE {fine}")).unwrap();
        }
    }

    #[test]
    fn error_display() {
        let e = parse("SELECT").unwrap_err().to_string();
        assert!(e.contains("end of SQL"), "{e}");
    }
}
