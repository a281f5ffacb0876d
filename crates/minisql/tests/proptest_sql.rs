//! Property tests for the SQL subset: total parser, round-trippable
//! generated statements, insert normalization type safety, the one-pass
//! bind against its two-step reference, and the literal writer against
//! `core::fmt`.

use minisql::{parse, write_fixed, BindError, Catalog, SqlType, Statement};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use simcore::write_uint;
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
        .map(|(schema, row)| (schema.name.to_string(), row))
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
            (format!("'{s}'"), Value::Str(s.into()))
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
    // Near misses of the canonical head, which `bind_insert` matches in
    // place, and the one miss past it.
    LowerCaseInsert,
    DoubledSpace,
    PrefixColumn,
    ExtendedColumn,
    CutAfterValues,
    EmptyValues,
}

const TWISTS: [Twist; 21] = [
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
    Twist::LowerCaseInsert,
    Twist::DoubledSpace,
    Twist::PrefixColumn,
    Twist::ExtendedColumn,
    Twist::CutAfterValues,
    Twist::EmptyValues,
];

/// The item of a list a twist changes: the one at `at`, if any.
fn pick(list: &mut [String], at: usize) -> Option<&mut String> {
    let len = list.len().max(1);
    list.get_mut(at % len)
}

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
        if let Some(item) = pick(list, at) {
            *item = text;
        }
    };
    let (mut insert, mut space, mut cut, mut tail) = ("INSERT", " ", false, "");
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
            Twist::LowerCaseInsert => insert = "insert",
            Twist::DoubledSpace => space = "  ",
            Twist::PrefixColumn => {
                if let Some(name) = pick(&mut names, at).filter(|n| n.len() > 1) {
                    name.pop();
                }
            }
            Twist::ExtendedColumn => {
                if let Some(name) = pick(&mut names, at) {
                    name.push('x');
                }
            }
            Twist::CutAfterValues => cut = true,
            Twist::EmptyValues => texts.clear(),
        }
    }
    let columns = if named && !names.is_empty() {
        format!(" ({})", names.join(", "))
    } else {
        String::new()
    };
    let values = if cut {
        String::new()
    } else {
        format!(" ({})", texts.join(", "))
    };
    format!("{insert} INTO {table}{columns}{space}VALUES{values}{tail}")
}

prop_compose! {
    /// A table's `CREATE TABLE` and an `INSERT` for it with one or two
    /// twists. Columns are named three times in four, in declaration
    /// order at least half of those times, and half the first twists are
    /// none: over a quarter of the statements keep the canonical head
    /// (see `the_differential_reaches_the_canonical_head`).
    fn arb_insert()(
        (ddl, cols) in arb_table(),
        seed in 0i64..1_000_000,
        named in prop_oneof![Just(true), any::<bool>()],
        rotate in prop_oneof![Just(0usize), 0usize..8],
        first in prop_oneof![Just(0usize), 0..TWISTS.len()],
        second in 0usize..TWISTS.len(),
        at in 0usize..8,
    ) -> (String, String) {
        // Half the cases carry one twist, half two (errors must rank the
        // same way in both implementations).
        let twists = [TWISTS[first], if seed % 2 == 0 { Twist::None } else { TWISTS[second] }];
        let table = parse(&ddl).unwrap().table().to_owned();
        let sql = twisted_insert(&table, &cols, seed, named, rotate, twists, at);
        (ddl, sql)
    }
}

/// The differential reaches `bind_insert`'s in-place head often enough
/// to test it, and its near misses besides.
#[test]
fn the_differential_reaches_the_canonical_head() {
    const CASES: usize = 2048;
    let strategy = arb_insert();
    let mut rng = TestRng::new(1);
    let mut on_head = 0;
    for _ in 0..CASES {
        let (ddl, sql) = strategy.new_value(&mut rng);
        let mut cat = Catalog::new();
        let schema = cat.create(&parse(&ddl).unwrap()).unwrap();
        on_head += usize::from(schema.insert_head_len(&sql).is_some());
    }
    assert!(4 * on_head >= CASES, "{on_head} of {CASES} on the head");
}

proptest! {
    // The vendored proptest ignores PROPTEST_CASES; the differential
    // property is cheap, so ask for the cases in source.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn bind_matches_parse_then_normalize((ddl, sql) in arb_insert()) {
        let mut cat = Catalog::new();
        cat.create(&parse(&ddl).unwrap()).unwrap();
        prop_assert_eq!(bind(&cat, &sql), parse_then_normalize(&cat, &sql), "{}", sql);
    }

    /// The writer prints what `core::fmt` prints, byte for byte.
    #[test]
    fn fixed_point_writer_matches_core_fmt(x in arb_double(), precision in 0usize..=6) {
        prop_assert_eq!(fixed(x, precision), format!("{x:.precision$}"), "{:?}", x);
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
