//! Table schemas and insert validation (the R-GMA Schema service's data
//! model).

use crate::ast::{ColumnDef, SqlType, Statement};
use crate::lexer::{lex, Kind};
use crate::parser::{parse_insert, parse_insert_values, InsertSink, ParseError};
use simcore::FastMap;
use std::fmt;
use std::sync::Arc;
use wire::{Text, Tuple, Value};

/// Validation failure for an insert.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// Referenced table does not exist.
    NoSuchTable(String),
    /// Referenced column does not exist.
    NoSuchColumn(String),
    /// Column count mismatch.
    ArityMismatch {
        /// Expected count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// Value type incompatible with the column type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Declared type.
        expected: SqlType,
        /// Provided value (display form).
        got: String,
    },
    /// String too long for CHAR(n).
    TooLong {
        /// Column name.
        column: String,
        /// Declared width.
        width: u16,
        /// Actual length.
        len: usize,
    },
    /// Table already exists.
    DuplicateTable(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::NoSuchTable(t) => write!(f, "no such table {t}"),
            SchemaError::NoSuchColumn(c) => write!(f, "no such column {c}"),
            SchemaError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            SchemaError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(f, "column {column} expects {expected}, got {got}"),
            SchemaError::TooLong { column, width, len } => {
                write!(
                    f,
                    "value too long for {column} (CHAR({width})): {len} chars"
                )
            }
            SchemaError::DuplicateTable(t) => write!(f, "table {t} already exists"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Why [`Catalog::bind_insert`] rejected a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum BindError {
    /// The text is not one well-formed statement.
    Parse(ParseError),
    /// A well-formed statement other than `INSERT`.
    NotInsert,
    /// The `INSERT` does not fit the catalogue.
    Schema(SchemaError),
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::Parse(e) => write!(f, "{e}"),
            BindError::NotInsert => write!(f, "not an INSERT"),
            BindError::Schema(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BindError {}

/// One table's schema.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name, shared with every tuple [`to_tuple`](Self::to_tuple)
    /// builds.
    pub name: Arc<str>,
    /// Columns in declaration order. A boxed slice, not a `Vec`: with
    /// `prepared` a `Vec` would grow the schema, and each catalogue's map
    /// buckets, from 72 to 80 bytes, which moved the heap's layout enough
    /// to cost an observed three-way run 2.5 MB of peak RSS.
    pub columns: Box<[ColumnDef]>,
    index: FastMap<String, usize>,
    /// Whether the grammar reads this table's canonical `INSERT` head
    /// back as written (see [`insert_head_len`](Self::insert_head_len)).
    prepared: bool,
}

/// What every `INSERT` starts with.
const INSERT_INTO: &str = "INSERT INTO ";

/// Whether the lexer reads all of `name`, and nothing else, as one
/// identifier.
fn lexes_as_one_ident(name: &str) -> bool {
    let span = lex(name).next_span();
    span.kind == Kind::Ident && span.start == 0 && span.end == name.len()
}

impl TableSchema {
    /// Build from a parsed `CREATE TABLE`.
    pub fn new(name: impl Into<Arc<str>>, columns: Vec<ColumnDef>) -> Self {
        let name = name.into();
        let index = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
        // A schema built by hand may hold names no statement can spell.
        let prepared = !columns.is_empty()
            && lexes_as_one_ident(&name)
            && columns.iter().all(|c| lexes_as_one_ident(&c.name));
        TableSchema {
            name,
            columns: columns.into_boxed_slice(),
            index,
            prepared,
        }
    }

    /// Where the first value starts when `sql` opens with this table's
    /// canonical head, `INSERT INTO name (c1, c2, …) VALUES (` with every
    /// column in declaration order, the spelling a generated statement
    /// uses; `None` for any other text, and for every text when one of
    /// the names is not an identifier the grammar would read back.
    /// Matched in place: nothing of the head is stored.
    pub fn insert_head_len(&self, sql: &str) -> Option<usize> {
        if !self.prepared {
            return None;
        }
        let mut rest = (sql.strip_prefix(INSERT_INTO)?)
            .strip_prefix(&*self.name)?
            .strip_prefix(" (")?;
        for (i, column) in self.columns.iter().enumerate() {
            if i > 0 {
                rest = rest.strip_prefix(", ")?;
            }
            rest = rest.strip_prefix(column.name.as_str())?;
        }
        rest = rest.strip_prefix(") VALUES (")?;
        Some(sql.len() - rest.len())
    }

    /// Column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validate and normalize an insert: reorders named columns into
    /// declaration order, coerces integer widening and Str→Char, and
    /// checks widths. Returns the normalized row values.
    pub fn normalize_insert(
        &self,
        columns: &[String],
        values: &[Value],
    ) -> Result<Vec<Value>, SchemaError> {
        let order: Vec<usize> = if columns.is_empty() {
            (0..self.arity()).collect()
        } else {
            let mut order = Vec::with_capacity(columns.len());
            for c in columns {
                order.push(
                    self.column_index(c)
                        .ok_or_else(|| SchemaError::NoSuchColumn(c.clone()))?,
                );
            }
            order
        };
        if order.len() != values.len() || order.len() != self.arity() {
            return Err(SchemaError::ArityMismatch {
                expected: self.arity(),
                got: values.len(),
            });
        }
        let mut row = vec![Value::Int(0); self.arity()];
        for (slot, v) in order.into_iter().zip(values) {
            row[slot] = coerce(v.clone(), &self.columns[slot])?;
        }
        Ok(row)
    }

    /// Project a row onto a column list (empty = all columns).
    pub fn project(&self, row: &[Value], columns: &[String]) -> Result<Vec<Value>, SchemaError> {
        if columns.is_empty() {
            return Ok(row.to_vec());
        }
        columns
            .iter()
            .map(|c| {
                self.column_index(c)
                    .map(|ix| row[ix].clone())
                    .ok_or_else(|| SchemaError::NoSuchColumn(c.clone()))
            })
            .collect()
    }

    /// Convert a normalized row into a wire tuple.
    pub fn to_tuple(&self, row: Vec<Value>) -> Tuple {
        Tuple::new(self.name.clone(), row)
    }
}

/// Coerce a literal into `col`'s declared type (integer narrowing and
/// widening, Str→Char, width checks). Takes the value: a string moves
/// into the cell.
#[inline]
fn coerce(v: Value, col: &ColumnDef) -> Result<Value, SchemaError> {
    let mismatch = |v: &Value| SchemaError::TypeMismatch {
        column: col.name.clone(),
        expected: col.ty,
        got: v.to_string(),
    };
    let check_width = |s: &Text, width: u16| {
        if s.len() > width as usize {
            Err(SchemaError::TooLong {
                column: col.name.clone(),
                width,
                len: s.len(),
            })
        } else {
            Ok(())
        }
    };
    Ok(match (col.ty, v) {
        (SqlType::Integer, Value::Int(x)) => Value::Int(x),
        (SqlType::Integer, Value::Long(x)) => {
            Value::Int(i32::try_from(x).map_err(|_| mismatch(&Value::Long(x)))?)
        }
        (SqlType::Double, Value::Double(x)) => Value::Double(x),
        (SqlType::Double, Value::Float(x)) => Value::Double(f64::from(x)),
        (SqlType::Double, Value::Int(x)) => Value::Double(f64::from(x)),
        (SqlType::Double, Value::Long(x)) => Value::Double(x as f64),
        (SqlType::Char(w), Value::Str(s)) | (SqlType::Char(w), Value::Char { content: s, .. }) => {
            check_width(&s, w)?;
            Value::fixed_char(s, w)
        }
        (_, v) => return Err(mismatch(&v)),
    })
}

/// The schema-directed sink of the INSERT grammar: resolves names and
/// coerces each literal into its row slot as it is read. Errors are held
/// back so that they surface in `parse` → `normalize_insert` order: a
/// syntax error anywhere first, then table, columns, arity, cells.
struct RowBinder<'c> {
    catalog: &'c Catalog,
    /// The table once its name is read; then the first name that did not
    /// resolve.
    target: Result<&'c TableSchema, SchemaError>,
    /// Column names read so far (0 for a positional insert).
    named: usize,
    /// Row slots of the named columns, in statement order — left empty
    /// while every name stands at its declaration position, where slot
    /// and position are the same number.
    order: Vec<usize>,
    row: Vec<Value>,
    values_seen: usize,
    cell_error: Option<SchemaError>,
}

impl InsertSink for RowBinder<'_> {
    fn table(&mut self, name: &str) {
        self.target = self.catalog.table(name);
        if let Ok(schema) = self.target {
            self.row.reserve_exact(schema.arity());
        }
    }

    fn column(&mut self, name: &str) {
        let position = self.named;
        self.named += 1;
        let Ok(schema) = self.target else {
            return;
        };
        // A generated statement names the columns as declared: one
        // string compare, and no hash probe.
        let in_place = (schema.columns.get(position)).is_some_and(|c| c.name == name);
        if in_place && self.order.is_empty() {
            return;
        }
        match schema.column_index(name) {
            Some(slot) => {
                if self.order.is_empty() {
                    self.order.extend(0..position);
                }
                self.order.push(slot);
            }
            None => self.target = Err(SchemaError::NoSuchColumn(name.to_owned())),
        }
    }

    fn value(&mut self, literal: Value) {
        let position = self.values_seen;
        self.values_seen += 1;
        let (Ok(schema), None) = (&self.target, &self.cell_error) else {
            return;
        };
        let slot = if self.order.is_empty() {
            Some(position).filter(|&p| p < targets(self.named, schema))
        } else {
            self.order.get(position).copied()
        };
        let Some(slot) = slot else {
            return;
        };
        match coerce(literal, &schema.columns[slot]) {
            // Cells mostly arrive in slot order and are appended; the
            // first that does not finds the row filled out to be
            // assigned into.
            Ok(cell) if slot == self.row.len() => self.row.push(cell),
            Ok(cell) => {
                if self.row.len() < schema.arity() {
                    self.row.resize(schema.arity(), Value::Int(0));
                }
                self.row[slot] = cell;
            }
            Err(e) => self.cell_error = Some(e),
        }
    }
}

/// How many columns a statement targets: the `named` ones, or every
/// column of `schema` when it names none.
fn targets(named: usize, schema: &TableSchema) -> usize {
    if named == 0 {
        schema.arity()
    } else {
        named
    }
}

impl<'c> RowBinder<'c> {
    fn finish(self) -> Result<(&'c TableSchema, Vec<Value>), SchemaError> {
        let schema = self.target?;
        let targets = targets(self.named, schema);
        if targets != self.values_seen || targets != schema.arity() {
            return Err(SchemaError::ArityMismatch {
                expected: schema.arity(),
                got: self.values_seen,
            });
        }
        match self.cell_error {
            Some(e) => Err(e),
            None => Ok((schema, self.row)),
        }
    }
}

/// A catalogue of table schemas (the Schema service's store).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: FastMap<String, TableSchema>,
}

impl Catalog {
    /// Empty catalogue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Execute a `CREATE TABLE` statement.
    pub fn create(&mut self, stmt: &Statement) -> Result<&TableSchema, SchemaError> {
        let Statement::CreateTable { table, columns } = stmt else {
            panic!("create() requires a CREATE TABLE statement");
        };
        if self.tables.contains_key(table) {
            return Err(SchemaError::DuplicateTable(table.clone()));
        }
        self.tables.insert(
            table.clone(),
            TableSchema::new(table.clone(), columns.clone()),
        );
        Ok(&self.tables[table])
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&TableSchema, SchemaError> {
        self.tables
            .get(name)
            .ok_or_else(|| SchemaError::NoSuchTable(name.to_owned()))
    }

    /// Parse, validate and normalize one `INSERT` in a single pass over
    /// its text: the row [`parse`](crate::parse) →
    /// [`TableSchema::normalize_insert`] would produce (and the same
    /// error where they fail), without the intermediate AST.
    ///
    /// A statement that opens with its table's canonical head
    /// ([`TableSchema::insert_head_len`]) is read by the same grammar
    /// from its first value on, its binder set as the head's in-place
    /// column names would leave it: that head is valid syntax ending in a
    /// one-byte `(` and names every column where it stands, so every
    /// later token, value and error is the same.
    pub fn bind_insert(&self, sql: &str) -> Result<(&TableSchema, Vec<Value>), BindError> {
        let mut binder = RowBinder {
            catalog: self,
            // Replaced by `table()`, the grammar's first call.
            target: Err(SchemaError::NoSuchTable(String::new())),
            named: 0,
            order: Vec::new(),
            row: Vec::new(),
            values_seen: 0,
            cell_error: None,
        };
        let head = (sql.strip_prefix(INSERT_INTO))
            .and_then(|rest| self.tables.get(rest.split_once(' ')?.0))
            .and_then(|schema| Some((schema, schema.insert_head_len(sql)?)));
        if let Some((schema, at)) = head {
            binder.table(&schema.name);
            binder.named = schema.arity();
            parse_insert_values(sql, at, &mut binder).map_err(BindError::Parse)?;
        } else if !parse_insert(sql, &mut binder).map_err(BindError::Parse)? {
            return Err(BindError::NotInsert);
        }
        binder.finish().map_err(BindError::Schema)
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create(&parse("CREATE TABLE g (id INTEGER, power DOUBLE, site CHAR(8))").unwrap())
            .unwrap();
        c
    }

    #[test]
    fn create_and_lookup() {
        let c = catalog();
        let t = c.table("g").unwrap();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.column_index("power"), Some(1));
        assert!(c.table("nope").is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = catalog();
        let err = c
            .create(&parse("CREATE TABLE g (x INTEGER)").unwrap())
            .unwrap_err();
        assert_eq!(err, SchemaError::DuplicateTable("g".into()));
    }

    #[test]
    fn normalize_insert_in_order() {
        let c = catalog();
        let row = c
            .table("g")
            .unwrap()
            .normalize_insert(
                &[],
                &[
                    Value::Long(1),
                    Value::Double(2.5),
                    Value::Str("hydra".into()),
                ],
            )
            .unwrap();
        assert_eq!(
            row,
            vec![
                Value::Int(1),
                Value::Double(2.5),
                Value::fixed_char("hydra", 8)
            ]
        );
    }

    #[test]
    fn normalize_insert_reorders_named_columns() {
        let c = catalog();
        let row = c
            .table("g")
            .unwrap()
            .normalize_insert(
                &["site".into(), "id".into(), "power".into()],
                &[Value::Str("x".into()), Value::Long(9), Value::Long(3)],
            )
            .unwrap();
        assert_eq!(row[0], Value::Int(9));
        assert_eq!(row[1], Value::Double(3.0));
        assert_eq!(row[2], Value::fixed_char("x", 8));
    }

    #[test]
    fn insert_validation_errors() {
        let c = catalog();
        let t = c.table("g").unwrap();
        assert!(matches!(
            t.normalize_insert(&[], &[Value::Long(1)]),
            Err(SchemaError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.normalize_insert(
                &[],
                &[
                    Value::Str("not int".into()),
                    Value::Double(0.0),
                    Value::Str("x".into())
                ]
            ),
            Err(SchemaError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.normalize_insert(
                &[],
                &[
                    Value::Long(1),
                    Value::Double(0.0),
                    Value::Str("waaaaaay too long".into())
                ]
            ),
            Err(SchemaError::TooLong { .. })
        ));
        assert!(matches!(
            t.normalize_insert(&["bogus".into()], &[Value::Long(1)]),
            Err(SchemaError::NoSuchColumn(_))
        ));
        // Integer overflow into INT column.
        assert!(matches!(
            t.normalize_insert(
                &[],
                &[
                    Value::Long(i64::MAX),
                    Value::Double(0.0),
                    Value::Str("x".into())
                ]
            ),
            Err(SchemaError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn bind_insert_in_one_pass() {
        let c = catalog();
        let (schema, row) = c
            .bind_insert("INSERT INTO g (site, id, power) VALUES ('x', 9, 3);")
            .unwrap();
        assert_eq!(&*schema.name, "g");
        assert_eq!(
            row,
            vec![Value::Int(9), Value::Double(3.0), Value::fixed_char("x", 8)]
        );
        // Errors rank as in parse → normalize_insert: syntax anywhere
        // first, then names, then arity, then cells.
        assert!(matches!(
            c.bind_insert("INSERT INTO g (bogus) VALUES (1"),
            Err(BindError::Parse(_))
        ));
        assert_eq!(
            c.bind_insert("INSERT INTO h (bogus) VALUES (1)"),
            Err(BindError::Schema(SchemaError::NoSuchTable("h".into())))
        );
        assert_eq!(
            c.bind_insert("INSERT INTO g VALUES ('not an id', 1)"),
            Err(BindError::Schema(SchemaError::ArityMismatch {
                expected: 3,
                got: 2
            }))
        );
        assert_eq!(c.bind_insert("SELECT * FROM g"), Err(BindError::NotInsert));
    }

    /// The reference `bind_insert` reproduces.
    fn parse_then_normalize(c: &Catalog, sql: &str) -> Result<Vec<Value>, BindError> {
        match parse(sql).map_err(BindError::Parse)? {
            Statement::Insert {
                table,
                columns,
                values,
            } => c
                .table(&table)
                .and_then(|t| t.normalize_insert(&columns, &values))
                .map_err(BindError::Schema),
            _ => Err(BindError::NotInsert),
        }
    }

    fn bind(c: &Catalog, sql: &str) -> Result<Vec<Value>, BindError> {
        c.bind_insert(sql).map(|(_, row)| row)
    }

    #[test]
    fn the_canonical_head_is_matched_in_place() {
        let c = catalog();
        let t = c.table("g").unwrap();
        let sql = "INSERT INTO g (id, power, site) VALUES (1, 2.5, 'x')";
        assert_eq!(t.insert_head_len(sql), Some(sql.find('1').unwrap()));
        assert_eq!(
            bind(&c, sql),
            Ok(vec![
                Value::Int(1),
                Value::Double(2.5),
                Value::fixed_char("x", 8)
            ])
        );
        for near_miss in [
            "insert INTO g (id, power, site) VALUES (1, 2.5, 'x')",
            "INSERT INTO g (id, power, sit) VALUES (1, 2.5, 'x')",
            "INSERT INTO g (id, power, sitex) VALUES (1, 2.5, 'x')",
            "INSERT INTO g (id, power) VALUES (1, 2.5)",
            "INSERT INTO g  (id, power, site) VALUES (1, 2.5, 'x')",
            "INSERT INTO g (id, power, site) VALUES",
        ] {
            assert_eq!(t.insert_head_len(near_miss), None, "{near_miss}");
            assert_eq!(bind(&c, near_miss), parse_then_normalize(&c, near_miss));
        }
        // Past the head, the grammar's own errors.
        for sql in [
            "INSERT INTO g (id, power, site) VALUES ()",
            "INSERT INTO g (id, power, site) VALUES (1, 2.5)",
            "INSERT INTO g (id, power, site) VALUES (1, 2.5, 'x', 4)",
            "INSERT INTO g (id, power, site) VALUES (1, 2.5, 'too long!')",
            "INSERT INTO g (id, power, site) VALUES (1, 2.5, 'x');",
            "INSERT INTO g (id, power, site) VALUES (1, 2.5, 'x') x",
            "INSERT INTO g (id, power, site) VALUES (1e, 2.5, 'x')",
            "INSERT INTO g (id, power, site) VALUES (1, 2.5, 'x",
        ] {
            assert!(t.insert_head_len(sql).is_some(), "{sql}");
            assert_eq!(bind(&c, sql), parse_then_normalize(&c, sql), "{sql}");
        }
    }

    #[test]
    fn names_the_grammar_cannot_read_never_take_the_head() {
        let int = |name: &str| ColumnDef {
            name: name.into(),
            ty: SqlType::Integer,
        };
        for (table, columns) in [
            ("t", vec![int("values"), int("b")]),
            ("t", vec![int("a b")]),
            ("t", vec![int("a"), int("")]),
            ("my t", vec![int("a")]),
            ("t", vec![]),
        ] {
            let mut c = Catalog::new();
            let schema = c
                .create(&Statement::CreateTable {
                    table: table.into(),
                    columns: columns.clone(),
                })
                .unwrap();
            let names: Vec<&str> = columns.iter().map(|c| c.name.as_str()).collect();
            let values = vec!["1"; columns.len()].join(", ");
            let sql = format!(
                "INSERT INTO {table} ({}) VALUES ({values})",
                names.join(", ")
            );
            assert_eq!(schema.insert_head_len(&sql), None, "{sql}");
            assert_eq!(bind(&c, &sql), parse_then_normalize(&c, &sql), "{sql}");
        }
    }

    #[test]
    fn the_prepared_flag_leaves_a_schema_its_size() {
        assert!(std::mem::size_of::<TableSchema>() <= 72);
    }

    #[test]
    fn projection() {
        let c = catalog();
        let t = c.table("g").unwrap();
        let row = vec![Value::Int(1), Value::Double(2.0), Value::fixed_char("s", 8)];
        assert_eq!(t.project(&row, &[]).unwrap().len(), 3);
        let p = t.project(&row, &["power".into()]).unwrap();
        assert_eq!(p, vec![Value::Double(2.0)]);
        assert!(t.project(&row, &["zzz".into()]).is_err());
    }

    #[test]
    fn to_tuple_carries_table_name() {
        let c = catalog();
        let t = c.table("g").unwrap();
        let tuple = t.to_tuple(vec![
            Value::Int(1),
            Value::Double(2.0),
            Value::fixed_char("s", 8),
        ]);
        assert_eq!(&*tuple.table, "g");
        assert_eq!(tuple.values.len(), 3);
    }
}
