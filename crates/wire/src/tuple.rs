//! Relational tuples — the unit of data in the R-GMA virtual database.

use crate::value::{Value, ValueType};
use simcore::SimTime;
use std::sync::Arc;

/// A column definition (name + type, plus CHAR width where applicable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ValueType,
    /// Declared width for `CHAR(n)` columns.
    pub width: u16,
}

impl Column {
    /// Non-char column.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Column {
            name: name.into(),
            ty,
            width: 0,
        }
    }

    /// `CHAR(n)` column.
    pub fn fixed_char(name: impl Into<String>, width: u16) -> Self {
        Column {
            name: name.into(),
            ty: ValueType::Char,
            width,
        }
    }
}

/// A tuple published into a table of the virtual database.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Table the tuple belongs to: one string per table, shared by every
    /// tuple the schema builds.
    pub table: Arc<str>,
    /// Cell values, in the table's column order.
    pub values: Vec<Value>,
    /// The R-GMA server-side insertion timestamp (set by the Primary
    /// Producer; drives retention).
    pub inserted_at: SimTime,
}

impl Tuple {
    /// New tuple (insertion timestamp is stamped by the producer on
    /// arrival; callers usually leave it zero).
    pub fn new(table: impl Into<Arc<str>>, values: Vec<Value>) -> Self {
        Tuple {
            table: table.into(),
            values,
            inserted_at: SimTime::ZERO,
        }
    }

    /// Encoded size of the tuple (table name + cells).
    pub fn wire_size(&self) -> usize {
        4 + self.table.len() + 4 + self.values.iter().map(Value::wire_size).sum::<usize>() + 8
    }

    /// Check that values match a column list (arity + type, with numeric
    /// widening Int→Long/Float→Double allowed, as in the Java APIs).
    pub fn conforms_to(&self, columns: &[Column]) -> bool {
        self.values.len() == columns.len()
            && self.values.iter().zip(columns).all(|(v, c)| {
                let vt = v.value_type();
                vt == c.ty
                    || matches!(
                        (vt, c.ty),
                        (ValueType::Int, ValueType::Long)
                            | (ValueType::Int, ValueType::Double)
                            | (ValueType::Int, ValueType::Float)
                            | (ValueType::Float, ValueType::Double)
                            | (ValueType::Str, ValueType::Char)
                    )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<Column> {
        vec![
            Column::new("id", ValueType::Int),
            Column::new("power", ValueType::Double),
            Column::fixed_char("site", 20),
        ]
    }

    #[test]
    fn conformance_exact() {
        let t = Tuple::new(
            "generator",
            vec![
                Value::Int(1),
                Value::Double(99.5),
                Value::fixed_char("uxbridge", 20),
            ],
        );
        assert!(t.conforms_to(&cols()));
    }

    #[test]
    fn conformance_widening() {
        let t = Tuple::new(
            "generator",
            vec![Value::Int(1), Value::Int(99), Value::Str("uxbridge".into())],
        );
        assert!(t.conforms_to(&cols()), "Int widens to Double, Str to Char");
    }

    #[test]
    fn conformance_rejects_arity_and_type() {
        let short = Tuple::new("generator", vec![Value::Int(1)]);
        assert!(!short.conforms_to(&cols()));
        let wrong = Tuple::new(
            "generator",
            vec![
                Value::Str("x".into()),
                Value::Double(1.0),
                Value::fixed_char("y", 20),
            ],
        );
        assert!(!wrong.conforms_to(&cols()));
    }

    #[test]
    fn wire_size_counts_cells() {
        let t = Tuple::new("t", vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(t.wire_size(), 4 + 1 + 4 + 5 + 5 + 8);
    }
}
