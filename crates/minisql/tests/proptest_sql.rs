//! Property tests for the SQL subset: total parser, round-trippable
//! generated statements, insert normalization type safety, and the
//! one-pass bind against its two-step reference.

use minisql::{parse, BindError, Catalog, SqlType, Statement};
use proptest::prelude::*;
use wire::Value;

/// The reference the servlet's one-pass bind must reproduce: build the
/// AST, look the table up, normalize.
fn parse_then_normalize(cat: &Catalog, sql: &str) -> Result<(String, Vec<Value>), BindError> {
    match parse(sql).map_err(BindError::Parse)? {
        Statement::Insert {
            table,
            columns,
            values,
        } => cat
            .table(&table)
            .and_then(|schema| schema.normalize_insert(&columns, &values))
            .map(|row| (table, row))
            .map_err(BindError::Schema),
        _ => Err(BindError::NotInsert),
    }
}

fn bind(cat: &Catalog, sql: &str) -> Result<(String, Vec<Value>), BindError> {
    cat.bind_insert(sql)
        .map(|(schema, row)| (schema.name.clone(), row))
}

/// Any Unicode scalar value but a control character (`\PC`, which the
/// vendored proptest's regex subset cannot spell).
fn printable_char() -> impl Strategy<Value = char> {
    prop_oneof![0x20u32..0x7f, 0xa0u32..0x3000, 0x3000u32..0x11_0000]
        .prop_filter("surrogate", |u| char::from_u32(*u).is_some())
        .prop_map(|u| char::from_u32(u).expect("filtered"))
}

/// One of `options`, uniformly.
fn one_of(options: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..options.len()).prop_map(move |i| options[i])
}

/// SQL-shaped noise against `CREATE TABLE t (a INTEGER, b CHAR(4))`:
/// token soup, and INSERT skeletons whose table, column list, literals
/// and tail are each drawn from good and bad choices — multi-byte text
/// inside and outside quotes in both.
fn hostile_sql() -> impl Strategy<Value = String> {
    const LITERALS: &[&str] = &[
        "1",
        "-7",
        "2.5",
        "1e",
        "99999999999",
        "'x'",
        "'it''s'",
        "'né ü'",
        "'too wide'",
        "TRUE",
        "é",
        "'open",
        "-",
        "",
    ];
    const SOUP: &[&str] = &[
        "INSERT", "INTO", "VALUES", "SELECT", "FROM", "WHERE", "CREATE", "TABLE", "t", "a", "(",
        ")", ",", ";", "*", "=", "<>", "!", "é",
    ];
    let soup = proptest::collection::vec(prop_oneof![one_of(SOUP), one_of(LITERALS)], 0..24)
        .prop_map(|parts| parts.join(" "));
    // Good choices repeat, so that over a quarter of the skeletons get
    // past the grammar and spread over the schema checks.
    let skeleton = (
        one_of(&["t", "t", "t", "t", "zz", "é"]),
        one_of(&[
            "", "", "", " (a, b)", " (b, a)", " (a, zz)", " (a, a)", " (é)",
        ]),
        proptest::collection::vec(
            prop_oneof![one_of(&["1", "-7", "'x'"]), one_of(LITERALS)],
            1..4,
        ),
        one_of(&["", "", "", "", ";", " é", ")", " 'open"]),
    )
        .prop_map(|(table, columns, literals, tail)| {
            format!(
                "INSERT INTO {table}{columns} VALUES ({}){tail}",
                literals.join(", ")
            )
        });
    prop_oneof![soup, skeleton]
}

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,11}".prop_filter("not a keyword", |s| {
        ![
            "create",
            "table",
            "insert",
            "into",
            "values",
            "select",
            "from",
            "where",
            "and",
            "or",
            "not",
            "null",
            "true",
            "false",
            "integer",
            "int",
            "bigint",
            "real",
            "double",
            "precision",
            "char",
            "varchar",
        ]
        .contains(&s.as_str())
    })
}

fn arb_type() -> impl Strategy<Value = SqlType> {
    prop_oneof![
        Just(SqlType::Integer),
        Just(SqlType::Bigint),
        Just(SqlType::Real),
        Just(SqlType::Double),
        (1u16..64).prop_map(SqlType::Char),
        (1u16..64).prop_map(SqlType::Varchar),
    ]
}

prop_compose! {
    /// A CREATE TABLE with distinct column names plus a value generator
    /// matching each column type.
    fn arb_table()(
        name in ident(),
        cols in proptest::collection::btree_map(ident(), arb_type(), 1..8),
    ) -> (String, Vec<(String, SqlType)>) {
        let cols: Vec<(String, SqlType)> = cols.into_iter().collect();
        let ddl = format!(
            "CREATE TABLE {name} ({})",
            cols.iter()
                .map(|(c, t)| format!("{c} {t}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        (ddl, cols)
    }
}

fn value_for(ty: SqlType, seed: i64) -> (String, Value) {
    match ty {
        SqlType::Integer => (
            format!("{}", seed as i32),
            Value::Long(i64::from(seed as i32)),
        ),
        SqlType::Bigint => (format!("{seed}"), Value::Long(seed)),
        SqlType::Real | SqlType::Double => {
            let v = (seed % 10_000) as f64 / 4.0;
            (format!("{v:.2}"), Value::Double(v))
        }
        SqlType::Char(w) | SqlType::Varchar(w) => {
            let s: String = "abcdefgh"
                .chars()
                .cycle()
                .take((seed.unsigned_abs() as usize % w as usize).clamp(1, 8))
                .collect();
            (format!("'{s}'"), Value::Str(s))
        }
    }
}

/// One way to get an INSERT wrong (or unusual), applied to an otherwise
/// valid statement for the generated table.
#[derive(Debug, Clone, Copy)]
enum Twist {
    None,
    DropValue,
    ExtraValue,
    DropColumn,
    DuplicateColumn,
    UnknownColumn,
    UnknownTable,
    OverWideString,
    IntOutOfRange,
    StringIntoNumber,
    QuotedQuote,
    TrailingSemicolon,
    TrailingGarbage,
    Unterminated,
    NotAnInsert,
}

const TWISTS: [Twist; 15] = [
    Twist::None,
    Twist::DropValue,
    Twist::ExtraValue,
    Twist::DropColumn,
    Twist::DuplicateColumn,
    Twist::UnknownColumn,
    Twist::UnknownTable,
    Twist::OverWideString,
    Twist::IntOutOfRange,
    Twist::StringIntoNumber,
    Twist::QuotedQuote,
    Twist::TrailingSemicolon,
    Twist::TrailingGarbage,
    Twist::Unterminated,
    Twist::NotAnInsert,
];

/// Render an INSERT for `table`/`cols`: positional or named, the named
/// list rotated by `rotate`, with up to two twists applied at `at`.
fn twisted_insert(
    table: &str,
    cols: &[(String, SqlType)],
    seed: i64,
    named: bool,
    rotate: usize,
    twists: [Twist; 2],
    at: usize,
) -> String {
    let mut table = table.to_owned();
    let mut names: Vec<String> = cols.iter().map(|(c, _)| c.clone()).collect();
    let mut texts: Vec<String> = cols
        .iter()
        .enumerate()
        .map(|(i, (_, ty))| value_for(*ty, seed + i as i64).0)
        .collect();
    if named {
        let by = rotate % names.len();
        names.rotate_left(by);
        texts.rotate_left(by);
    }
    // Overwrite one item of a list (an earlier twist may have emptied it).
    let set = |list: &mut Vec<String>, text: String| {
        if !list.is_empty() {
            let ix = at % list.len();
            list[ix] = text;
        }
    };
    let mut tail = "";
    for twist in twists {
        match twist {
            Twist::None => {}
            Twist::DropValue => drop(texts.pop()),
            Twist::ExtraValue => texts.push("0".into()),
            Twist::DropColumn => drop(names.pop()),
            Twist::DuplicateColumn => set(&mut names, cols[0].0.clone()),
            Twist::UnknownColumn => set(&mut names, "no_such_column".into()),
            Twist::UnknownTable => table = "no_such_table".into(),
            Twist::OverWideString => set(&mut texts, format!("'{}'", "w".repeat(70))),
            Twist::IntOutOfRange => set(&mut texts, "3000000000".into()),
            Twist::StringIntoNumber => set(&mut texts, "'text'".into()),
            Twist::QuotedQuote => set(&mut texts, "'o''k'".into()),
            Twist::TrailingSemicolon => tail = ";",
            Twist::TrailingGarbage => tail = " garbage",
            Twist::Unterminated => tail = " 'open",
            Twist::NotAnInsert => return format!("SELECT * FROM {table}{tail}"),
        }
    }
    let columns = if named && !names.is_empty() {
        format!(" ({})", names.join(", "))
    } else {
        String::new()
    };
    format!(
        "INSERT INTO {table}{columns} VALUES ({}){tail}",
        texts.join(", ")
    )
}

proptest! {
    // The vendored proptest ignores PROPTEST_CASES; the differential
    // property is cheap, so ask for the cases in source.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn bind_matches_parse_then_normalize(
        (ddl, cols) in arb_table(),
        seed in 0i64..1_000_000,
        named in any::<bool>(),
        rotate in 0usize..8,
        first in 0usize..TWISTS.len(),
        second in 0usize..TWISTS.len(),
        at in 0usize..8,
    ) {
        let mut cat = Catalog::new();
        let stmt = parse(&ddl).unwrap();
        cat.create(&stmt).unwrap();
        // Half the cases carry one twist, half two (errors must rank the
        // same way in both implementations).
        let twists = [TWISTS[first], if seed % 2 == 0 { Twist::None } else { TWISTS[second] }];
        let sql = twisted_insert(stmt.table(), &cols, seed, named, rotate, twists, at);
        prop_assert_eq!(bind(&cat, &sql), parse_then_normalize(&cat, &sql), "{}", sql);
    }

    /// Neither entry point panics on arbitrary Unicode, and both say the
    /// same about it.
    #[test]
    fn parser_never_panics(
        noise in proptest::collection::vec(printable_char(), 0..200),
        shaped in hostile_sql(),
    ) {
        let mut cat = Catalog::new();
        cat.create(&parse("CREATE TABLE t (a INTEGER, b CHAR(4))").unwrap()).unwrap();
        let noise: String = noise.into_iter().collect();
        for sql in [noise.as_str(), shaped.as_str()] {
            prop_assert_eq!(bind(&cat, sql), parse_then_normalize(&cat, sql), "{}", sql);
        }
    }
}

proptest! {

    #[test]
    fn generated_ddl_and_inserts_execute((ddl, cols) in arb_table(), seed in 0i64..1_000_000) {
        let mut cat = Catalog::new();
        let stmt = parse(&ddl).unwrap_or_else(|e| panic!("{ddl:?}: {e}"));
        cat.create(&stmt).unwrap();
        let table = stmt.table().to_owned();
        // Build a matching INSERT.
        let mut texts = Vec::new();
        let mut vals = Vec::new();
        for (i, (_, ty)) in cols.iter().enumerate() {
            let (text, v) = value_for(*ty, seed + i as i64);
            texts.push(text);
            vals.push(v);
        }
        let insert = format!("INSERT INTO {table} VALUES ({})", texts.join(", "));
        let parsed = parse(&insert).unwrap_or_else(|e| panic!("{insert:?}: {e}"));
        let Statement::Insert { columns, values, .. } = parsed else {
            panic!("expected insert");
        };
        prop_assert_eq!(&values, &vals);
        // Normalization coerces every literal into the declared type.
        let schema = cat.table(&table).unwrap();
        let row = schema.normalize_insert(&columns, &values)
            .unwrap_or_else(|e| panic!("{insert:?}: {e}"));
        prop_assert_eq!(row.len(), cols.len());
        for (cell, (_, ty)) in row.iter().zip(&cols) {
            prop_assert_eq!(cell.value_type(), ty.value_type(), "{} vs {}", cell, ty);
        }
    }

    #[test]
    fn predicates_evaluate_without_panic(
        (ddl, cols) in arb_table(),
        seed in 0i64..1_000_000,
        cmp_col in 0usize..8,
        lit in -1000i64..1000,
    ) {
        let mut cat = Catalog::new();
        let stmt = parse(&ddl).unwrap();
        cat.create(&stmt).unwrap();
        let table = stmt.table().to_owned();
        let schema = cat.table(&table).unwrap();
        let (col, _) = &cols[cmp_col % cols.len()];
        let sel = format!("SELECT * FROM {table} WHERE {col} >= {lit} OR NOT {col} = {lit}");
        let Statement::Select { predicate, .. } = parse(&sel).unwrap() else {
            panic!()
        };
        let pred = predicate.unwrap();
        // Build one row and evaluate; must not panic, result is a
        // three-valued bool.
        let mut vals = Vec::new();
        for (i, (_, ty)) in cols.iter().enumerate() {
            let (_, v) = value_for(*ty, seed + i as i64);
            vals.push(v);
        }
        let row = schema.normalize_insert(&[], &vals).unwrap();
        let r1 = minisql::eval_predicate(&pred, schema, &row);
        let r2 = minisql::eval_predicate(&pred, schema, &row);
        prop_assert_eq!(r1, r2, "deterministic");
    }
}
