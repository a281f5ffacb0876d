//! AST for JMS selector expressions.

use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
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
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// A selector expression. Boolean-valued nodes and value-valued nodes
/// share the enum; the evaluator enforces kinds (JMS selectors are
/// dynamically typed with UNKNOWN on mismatch).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Property reference.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `a AND b`
    And(Box<Expr>, Box<Expr>),
    /// `a OR b`
    Or(Box<Expr>, Box<Expr>),
    /// `NOT a`
    Not(Box<Expr>),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `x BETWEEN lo AND hi` (negated: `NOT BETWEEN`).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `x IN ('a', 'b', …)` (negated: `NOT IN`).
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate string values.
        list: Vec<String>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `x LIKE 'pat' [ESCAPE 'c']` (negated: `NOT LIKE`).
    Like {
        /// Tested expression (must be string-valued).
        expr: Box<Expr>,
        /// Pattern with `%` / `_` wildcards.
        pattern: String,
        /// Optional escape character.
        escape: Option<char>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `x IS NULL` (negated: `IS NOT NULL`).
    IsNull {
        /// Tested expression (an identifier, per spec).
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl Expr {
    /// Number of nodes, for cost accounting and complexity limits.
    pub fn node_count(&self) -> usize {
        1 + match self {
            Expr::Ident(_) | Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_) => 0,
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.node_count() + b.node_count()
            }
            Expr::Not(a) | Expr::Neg(a) => a.node_count(),
            Expr::Between { expr, lo, hi, .. } => {
                expr.node_count() + lo.node_count() + hi.node_count()
            }
            Expr::InList { expr, list, .. } => expr.node_count() + list.len(),
            Expr::Like { expr, .. } => expr.node_count(),
            Expr::IsNull { expr, .. } => expr.node_count(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Ident(s) => write!(f, "{s}"),
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Float(v) => write!(f, "{v:?}"),
            Expr::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "(NOT {a})"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Arith(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {lo} AND {hi})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, s) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "'{}'", s.replace('\'', "''"))?;
                }
                write!(f, "))")
            }
            Expr::Like {
                expr,
                pattern,
                escape,
                negated,
            } => {
                write!(
                    f,
                    "({expr} {}LIKE '{}'",
                    if *negated { "NOT " } else { "" },
                    pattern.replace('\'', "''")
                )?;
                if let Some(c) = escape {
                    write!(f, " ESCAPE '{c}'")?;
                }
                write!(f, ")")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_and_idents() {
        let e = Expr::And(
            Box::new(Expr::Cmp(
                CmpOp::Lt,
                Box::new(Expr::Ident("id".into())),
                Box::new(Expr::Int(10)),
            )),
            Box::new(Expr::IsNull {
                expr: Box::new(Expr::Ident("region".into())),
                negated: true,
            }),
        );
        assert_eq!(e.node_count(), 6);
    }

    #[test]
    fn display_roundtrippable_shapes() {
        let e = Expr::Between {
            expr: Box::new(Expr::Ident("x".into())),
            lo: Box::new(Expr::Int(1)),
            hi: Box::new(Expr::Int(5)),
            negated: false,
        };
        assert_eq!(format!("{e}"), "(x BETWEEN 1 AND 5)");
    }
}
