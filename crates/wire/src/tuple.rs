//! Relational tuples — the unit of data in the R-GMA virtual database.

use crate::value::Value;
use simcore::SimTime;
use std::sync::Arc;

/// A tuple published into a table of the virtual database.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Table the tuple belongs to: one string per table, shared by every
    /// tuple the schema builds.
    pub table: Arc<str>,
    /// Cell values, in the table's column order: one block, shared by
    /// every copy of the tuple and with the row it was built from.
    pub values: Arc<[Value]>,
    /// The R-GMA server-side insertion timestamp (set by the Primary
    /// Producer; drives retention).
    pub inserted_at: SimTime,
}

impl Tuple {
    /// New tuple (insertion timestamp is stamped by the producer on
    /// arrival; callers usually leave it zero).
    pub fn new(table: impl Into<Arc<str>>, values: impl Into<Arc<[Value]>>) -> Self {
        Tuple {
            table: table.into(),
            values: values.into(),
            inserted_at: SimTime::ZERO,
        }
    }

    /// Encoded size of the tuple (table name + cells).
    pub fn wire_size(&self) -> usize {
        4 + self.table.len() + 4 + self.values.iter().map(Value::wire_size).sum::<usize>() + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_counts_cells() {
        let t = Tuple::new("t", vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(t.wire_size(), 4 + 1 + 4 + 5 + 5 + 8);
    }
}
