//! AST for the SQL subset.

use wire::{Value, ValueType};

/// A column type as declared in `CREATE TABLE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlType {
    /// `INTEGER` / `INT`.
    Integer,
    /// `DOUBLE PRECISION` / `DOUBLE`.
    Double,
    /// `CHAR(n)`.
    Char(u16),
}

impl SqlType {
    /// The wire value type this column stores.
    pub fn value_type(self) -> ValueType {
        match self {
            SqlType::Integer => ValueType::Int,
            SqlType::Double => ValueType::Double,
            SqlType::Char(_) => ValueType::Char,
        }
    }
}

impl std::fmt::Display for SqlType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlType::Integer => write!(f, "INTEGER"),
            SqlType::Double => write!(f, "DOUBLE PRECISION"),
            SqlType::Char(n) => write!(f, "CHAR({n})"),
        }
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Name.
    pub name: String,
    /// Declared type.
    pub ty: SqlType,
}

/// Comparison operators in WHERE clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
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

/// A WHERE predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Column-vs-literal comparison.
    Cmp {
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Literal value.
        value: Value,
    },
    /// `a AND b`.
    And(Box<Predicate>, Box<Predicate>),
    /// `a OR b`.
    Or(Box<Predicate>, Box<Predicate>),
    /// `NOT a`.
    Not(Box<Predicate>),
    /// `TRUE` / `FALSE` literal.
    Const(bool),
}

impl Predicate {
    /// Node count (CPU cost accounting).
    pub fn node_count(&self) -> usize {
        match self {
            Predicate::Cmp { .. } | Predicate::Const(_) => 1,
            Predicate::And(a, b) | Predicate::Or(a, b) => 1 + a.node_count() + b.node_count(),
            Predicate::Not(a) => 1 + a.node_count(),
        }
    }
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, …)`.
    CreateTable {
        /// Table name.
        table: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `INSERT INTO name [(cols)] VALUES (…)`.
    Insert {
        /// Table name.
        table: String,
        /// Explicit column list (empty = table order).
        columns: Vec<String>,
        /// Literal values.
        values: Vec<Value>,
    },
    /// `SELECT cols FROM name [WHERE pred]`.
    Select {
        /// Projected columns (empty = `*`).
        columns: Vec<String>,
        /// Table name.
        table: String,
        /// Optional predicate.
        predicate: Option<Predicate>,
    },
}

impl Statement {
    /// Table the statement targets.
    pub fn table(&self) -> &str {
        match self {
            Statement::CreateTable { table, .. }
            | Statement::Insert { table, .. }
            | Statement::Select { table, .. } => table,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_type_mapping() {
        assert_eq!(SqlType::Integer.value_type(), ValueType::Int);
        assert_eq!(SqlType::Char(20).value_type(), ValueType::Char);
        assert_eq!(format!("{}", SqlType::Double), "DOUBLE PRECISION");
        assert_eq!(format!("{}", SqlType::Char(20)), "CHAR(20)");
    }

    #[test]
    fn predicate_node_count() {
        let p = Predicate::And(
            Box::new(Predicate::Cmp {
                column: "a".into(),
                op: CmpOp::Lt,
                value: Value::Int(5),
            }),
            Box::new(Predicate::Not(Box::new(Predicate::Const(true)))),
        );
        assert_eq!(p.node_count(), 4);
    }

    #[test]
    fn statement_table() {
        let s = Statement::Select {
            columns: vec![],
            table: "generator".into(),
            predicate: None,
        };
        assert_eq!(s.table(), "generator");
    }
}
