//! Property tests for the SQL subset: total parser, round-trippable
//! generated statements, insert normalization type safety, the row check
//! against normalization, and the literal writer against `core::fmt`.

use minisql::{fixed_literal, parse, write_fixed, Catalog, SqlType, Statement};
use proptest::prelude::*;
use simcore::write_uint;
use wire::Value;

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

/// Doubles that exercise [`write_fixed`]: any bit pattern (mostly huge,
/// tiny or non-finite: the deferred and the rounds-to-zero ends), binary
/// fractions `n / 2^j` (exact ties at every precision below `j`) and
/// decimal-looking `n / 10^k` (a hair above or below a tie).
fn arb_double() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (-(1i64 << 24)..1 << 24, 0i32..12).prop_map(|(n, j)| n as f64 / f64::powi(2.0, j)),
        (-1_000_000_000i64..1_000_000_000, 0i32..8)
            .prop_map(|(n, k)| n as f64 / f64::powi(10.0, k)),
    ]
}

/// The plausible wrong writer: round half *up*, on the decimal string.
/// The named ties must tell it from the right one, or they name nothing.
fn half_up_on_the_decimal_string(x: f64, precision: usize) -> String {
    // Sixty decimals print every tie below exactly.
    let exact = format!("{x:.60}");
    let cut = exact.find('.').expect("sixty decimals") + 1 + precision;
    let mut digits: Vec<u8> = exact[..cut].trim_end_matches('.').bytes().collect();
    if exact.as_bytes()[cut] >= b'5' {
        let mut at = digits.len();
        loop {
            match at.checked_sub(1).map(|i| (i, digits[i])) {
                Some((i, b'9')) => digits[i] = b'0',
                Some((i, d @ b'0'..=b'8')) => {
                    digits[i] = d + 1;
                    break;
                }
                Some((_, b'.')) => {}
                // Carried out of the leading digit (after any sign).
                Some((i, _)) => {
                    digits.insert(i + 1, b'1');
                    break;
                }
                None => {
                    digits.insert(0, b'1');
                    break;
                }
            }
            at -= 1;
        }
    }
    String::from_utf8(digits).expect("ASCII")
}

fn fixed(x: f64, precision: usize) -> String {
    let mut out = String::from("x = ");
    write_fixed(&mut out, x, precision);
    out.split_off(4)
}

/// Ties and edges by name: what `core::fmt` prints for each is the
/// expectation, spelled out where the reason is worth a line.
#[test]
fn fixed_point_writer_at_the_named_ties() {
    for (x, precision, printed) in [
        // Exact ties go to the even digit…
        (0.125, 2, "0.12"),
        (0.375, 2, "0.38"),
        (0.25, 1, "0.2"),
        (0.75, 1, "0.8"),
        (0.5, 0, "0"),
        (1.5, 0, "2"),
        (2.5, 0, "2"),
        // …but these doubles are not ties: 0.0005 lies above 5/10^4,
        // 1.005 below 1005/10^3.
        (0.0005, 3, "0.001"),
        (1.005, 2, "1.00"),
        // The sign is the sign bit's, whatever is left of the value.
        (-0.0, 3, "-0.000"),
        (-0.0004, 3, "-0.000"),
        (-2.5, 0, "-2"),
        // Carries into and out of the whole part.
        (0.9996, 3, "1.000"),
        (999.9995, 3, "1000.000"),
        (9.5, 0, "10"),
        (35.5, 1, "35.5"),
        (7.25, 2, "7.25"),
    ] {
        assert_eq!(format!("{x:.precision$}"), printed, "core::fmt on {x:?}");
        assert_eq!(fixed(x, precision), printed, "{x:?} at {precision}");
    }
    for x in [
        5e-324,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        (1u64 << 53) as f64,
        (1u64 << 63) as f64 - 1024.0,
        (1u64 << 63) as f64,
        1e300,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ] {
        for precision in [0, 1, 3, 6, 19, 20, 40] {
            assert_eq!(fixed(x, precision), format!("{x:.precision$}"), "{x:?}");
            assert_eq!(fixed(-x, precision), format!("{:.precision$}", -x));
        }
    }
    // The negative control: half-up disagrees with `core::fmt` on the
    // ties above and agrees off them, so the list can tell the two apart.
    assert_eq!(half_up_on_the_decimal_string(0.125, 2), "0.13");
    assert_eq!(half_up_on_the_decimal_string(2.5, 0), "3");
    assert_eq!(half_up_on_the_decimal_string(-2.5, 0), "-3");
    assert_eq!(half_up_on_the_decimal_string(0.375, 2), "0.38");
    assert_eq!(half_up_on_the_decimal_string(999.9995, 3), "1000.000");
    assert_eq!(half_up_on_the_decimal_string(9.5, 0), "10");
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
            "double",
            "precision",
            "char",
        ]
        .contains(&s.as_str())
    })
}

fn arb_type() -> impl Strategy<Value = SqlType> {
    prop_oneof![
        Just(SqlType::Integer),
        Just(SqlType::Double),
        (1u16..64).prop_map(SqlType::Char),
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
        SqlType::Double => {
            let v = (seed % 10_000) as f64 / 4.0;
            (format!("{v:.2}"), Value::Double(v))
        }
        SqlType::Char(w) => {
            let s: String = "abcdefgh"
                .chars()
                .cycle()
                .take((seed.unsigned_abs() as usize % w as usize).clamp(1, 8))
                .collect();
            (format!("'{s}'"), Value::Str(s.into()))
        }
    }
}

/// One cell for a column of type `ty`: its normal form (`kind` 0 or 1,
/// so half the cells conform), or an integer, a long, a double, a string
/// or a `CHAR` of width `width` whatever the column.
fn cell_for(ty: SqlType, kind: usize, n: i32, text: &str, width: u16) -> Value {
    let normal = match ty {
        SqlType::Integer => Value::Int(n),
        SqlType::Double => Value::Double(f64::from(n) / 4.0),
        SqlType::Char(w) => Value::Char {
            content: text.into(),
            width: w,
        },
    };
    match kind {
        0 | 1 => normal,
        2 => Value::Int(n),
        3 => Value::Long(i64::from(n)),
        4 => Value::Double(f64::from(n)),
        5 => Value::Str(text.into()),
        _ => Value::Char {
            content: text.into(),
            width,
        },
    }
}

proptest! {
    // The vendored proptest ignores PROPTEST_CASES; the properties are
    // cheap, so ask for the cases in source.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A row passes the check exactly when normalizing it as a positional
    /// insert gives it back unchanged.
    #[test]
    fn a_row_conforms_iff_it_is_its_own_normal_form(
        (ddl, cols) in arb_table(),
        cells in proptest::collection::vec((0usize..7, any::<i32>(), "[a-z]{0,9}", 1u16..64), 8..9),
        arity in prop_oneof![Just(0i32), -1i32..=1],
    ) {
        let mut cat = Catalog::new();
        let schema = cat.create(&parse(&ddl).unwrap()).unwrap();
        let len = (cols.len() as i32 + arity).max(0) as usize;
        let row: Vec<Value> = cells
            .iter()
            .cycle()
            .zip(cols.iter().map(|(_, ty)| *ty).cycle())
            .take(len)
            .map(|(&(kind, n, ref text, width), ty)| cell_for(ty, kind, n, text, width))
            .collect();
        let normal = schema.normalize_insert(&[], &row);
        prop_assert_eq!(
            schema.check_row(&row).is_ok(),
            normal.as_ref() == Ok(&row),
            "{:?}: {:?}",
            row,
            normal
        );
    }

    /// The writer prints what `core::fmt` prints, byte for byte.
    #[test]
    fn fixed_point_writer_matches_core_fmt(x in arb_double(), precision in 0usize..=6) {
        prop_assert_eq!(fixed(x, precision), format!("{x:.precision$}"), "{:?}", x);
    }

    /// The unwritten literal is the written one: as long, and the double
    /// parsing it gives, bit for bit.
    #[test]
    fn fixed_literal_is_the_written_literal_read_back(
        x in arb_double(),
        precision in 0usize..=6,
    ) {
        let text = fixed(x, precision);
        let (len, value) = fixed_literal(x, precision);
        prop_assert_eq!(len, text.len(), "{}", text);
        let parsed: f64 = text.parse().unwrap();
        prop_assert_eq!(value.to_bits(), parsed.to_bits(), "{}", text);
    }

    #[test]
    fn uint_writer_matches_core_fmt(
        v in prop_oneof![any::<u64>(), 0u64..100_000],
        min_digits in 0usize..24,
    ) {
        let mut out = String::from("v = ");
        write_uint(&mut out, v, min_digits);
        prop_assert_eq!(out, format!("v = {v:0min_digits$}"));
    }

    /// Neither parsing arbitrary Unicode nor normalizing what parses
    /// panics.
    #[test]
    fn parser_never_panics(
        noise in proptest::collection::vec(printable_char(), 0..200),
        shaped in hostile_sql(),
    ) {
        let mut cat = Catalog::new();
        cat.create(&parse("CREATE TABLE t (a INTEGER, b CHAR(4))").unwrap()).unwrap();
        let noise: String = noise.into_iter().collect();
        for sql in [noise.as_str(), shaped.as_str()] {
            if let Ok(Statement::Insert { table, columns, values }) = parse(sql) {
                if let Ok(schema) = cat.table(&table) {
                    let _ = schema.normalize_insert(&columns, &values);
                }
            }
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
