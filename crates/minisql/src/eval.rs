//! Predicate evaluation (three-valued SQL semantics) over a table's row
//! or a message's properties.

use crate::ast::{CmpOp, Predicate};
use crate::schema::TableSchema;
use std::cmp::Ordering;
use wire::{Message, Value};

/// Where a predicate reads the value a column name stands for.
pub trait Lookup {
    /// The value of `column`, `None` when there is none.
    fn value(&self, column: &str) -> Option<&Value>;
}

/// A row of a table: its cells by the schema's column names.
impl Lookup for (&TableSchema, &[Value]) {
    fn value(&self, column: &str) -> Option<&Value> {
        self.1.get(self.0.column_index(column)?)
    }
}

/// A message: its properties by name, as a JMS selector reads them.
impl Lookup for Message {
    fn value(&self, column: &str) -> Option<&Value> {
        self.property(column)
    }
}

impl Predicate {
    /// Evaluate against `src`. `None` = UNKNOWN (a missing column or
    /// property, or incomparable kinds); a row or message matches only on
    /// `Some(true)`, as in SQL and JMS. Numbers of any width compare as
    /// `f64` ([`Value::sql_cmp`]).
    pub fn eval(&self, src: &impl Lookup) -> Option<bool> {
        match self {
            Predicate::Const(b) => Some(*b),
            Predicate::Cmp { column, op, value } => {
                let ord = src.value(column)?.sql_cmp(value)?;
                Some(match op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Ne => ord != Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                })
            }
            // FALSE AND anything is FALSE, TRUE OR anything is TRUE: the
            // right side is read only when it can change the answer.
            Predicate::And(a, b) => match a.eval(src) {
                Some(false) => Some(false),
                left => match (left, b.eval(src)) {
                    (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
            },
            Predicate::Or(a, b) => match a.eval(src) {
                Some(true) => Some(true),
                left => match (left, b.eval(src)) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
            },
            Predicate::Not(a) => a.eval(src).map(|b| !b),
        }
    }
}

/// Evaluate a predicate against a row of `schema`'s table
/// ([`Predicate::eval`]).
pub fn eval_predicate(pred: &Predicate, schema: &TableSchema, row: &[Value]) -> Option<bool> {
    pred.eval(&(schema, row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;
    use crate::schema::Catalog;

    fn setup() -> (Catalog, Vec<Value>) {
        let mut c = Catalog::new();
        c.create(&parse("CREATE TABLE g (id INTEGER, power DOUBLE, site CHAR(8))").unwrap())
            .unwrap();
        let row = vec![
            Value::Int(42),
            Value::Double(850.5),
            Value::fixed_char("hydra1", 8),
        ];
        (c, row)
    }

    fn pred(sql: &str) -> Predicate {
        let Statement::Select { predicate, .. } =
            parse(&format!("SELECT * FROM g WHERE {sql}")).unwrap()
        else {
            panic!()
        };
        predicate.unwrap()
    }

    #[test]
    fn comparisons() {
        let (c, row) = setup();
        let s = c.table("g").unwrap();
        assert_eq!(eval_predicate(&pred("id = 42"), s, &row), Some(true));
        assert_eq!(eval_predicate(&pred("id <> 42"), s, &row), Some(false));
        assert_eq!(eval_predicate(&pred("power > 850"), s, &row), Some(true));
        assert_eq!(eval_predicate(&pred("power <= 850"), s, &row), Some(false));
        assert_eq!(
            eval_predicate(&pred("site = 'hydra1'"), s, &row),
            Some(true)
        );
        assert_eq!(eval_predicate(&pred("site < 'z'"), s, &row), Some(true));
    }

    #[test]
    fn logic_and_unknown() {
        let (c, row) = setup();
        let s = c.table("g").unwrap();
        assert_eq!(
            eval_predicate(&pred("id = 42 AND power > 0"), s, &row),
            Some(true)
        );
        assert_eq!(
            eval_predicate(&pred("id = 0 OR power > 0"), s, &row),
            Some(true)
        );
        assert_eq!(eval_predicate(&pred("NOT id = 42"), s, &row), Some(false));
        // Type mismatch → UNKNOWN; AND false short-circuits it away.
        assert_eq!(eval_predicate(&pred("id = 'x'"), s, &row), None);
        assert_eq!(
            eval_predicate(&pred("id = 'x' AND id = 0"), s, &row),
            Some(false)
        );
        assert_eq!(
            eval_predicate(&pred("id = 'x' OR id = 42"), s, &row),
            Some(true)
        );
        // Unknown column → UNKNOWN (registry mismatch safety).
        let p = Predicate::Cmp {
            column: "ghost".into(),
            op: CmpOp::Eq,
            value: Value::Int(1),
        };
        assert_eq!(eval_predicate(&p, s, &row), None);
    }
}
