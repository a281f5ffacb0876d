//! Allocation budget of the R-GMA insert path, counted, not timed: the
//! producer servlet binds one 16-column `INSERT` per reading, so every
//! allocation here is paid half a million times in a paper-scale run.

use minisql::{parse, Catalog, Statement};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `powergrid::TABLE_SQL` and one `GeneratorState::rgma_insert_sql()`
/// reading, copied: minisql must not depend on powergrid (whose own
/// tests bind the live text).
const TABLE_SQL: &str = "CREATE TABLE generator (\
     id INTEGER, status INTEGER, seq INTEGER, uptime INTEGER, \
     power DOUBLE PRECISION, energy DOUBLE PRECISION, rating DOUBLE PRECISION, \
     voltage DOUBLE PRECISION, frequency DOUBLE PRECISION, current DOUBLE PRECISION, \
     temp DOUBLE PRECISION, wind DOUBLE PRECISION, \
     site CHAR(20), operator CHAR(20), model CHAR(20), fw CHAR(20))";
const INSERT_SQL: &str = "INSERT INTO generator (id, status, seq, uptime, \
     power, energy, rating, voltage, frequency, current, temp, wind, \
     site, operator, model, fw) VALUES \
     (42, 1, 17, 170, 812.503, 3.385, 1500.000, 230.41, 50.003, 3526.336, 35.5, 7.25, \
     'site-0042', 'gridcc', 'WT-2000/E', 'glite-3.0')";

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.create(&parse(TABLE_SQL).unwrap()).unwrap();
    cat
}

#[test]
fn bind_allocates_the_row() {
    let cat = catalog();
    let (bound, allocs) = allocations(|| cat.bind_insert(INSERT_SQL));
    let (schema, row) = bound.unwrap();
    assert_eq!((&*schema.name, row.len()), ("generator", 16));
    // The row Vec: the CHAR(20) contents sit inline in their cells and
    // names in declaration order need no order list. (Six before: the
    // order Vec and four strings; the budget leaves one spare.)
    assert!(allocs <= 2, "bind_insert allocated {allocs} times");
}

#[test]
fn bind_allocates_an_order_list_only_for_shuffled_names() {
    let mut cat = Catalog::new();
    cat.create(&parse("CREATE TABLE t (a INTEGER, b CHAR(4), c DOUBLE)").unwrap())
        .unwrap();
    let (bound, allocs) =
        allocations(|| cat.bind_insert("INSERT INTO t (a, c, b) VALUES (1, 2.5, 'x')"));
    assert_eq!(bound.unwrap().1.len(), 3);
    assert!(allocs <= 2, "bind_insert allocated {allocs} times");
}

#[test]
fn parse_allocates_once_per_name_and_string() {
    let (stmt, allocs) = allocations(|| parse(INSERT_SQL));
    let Statement::Insert {
        columns, values, ..
    } = stmt.unwrap()
    else {
        panic!("INSERT expected")
    };
    assert_eq!((columns.len(), values.len()), (16, 16));
    // Table name + 16 column names + 4 string literals + the two Vecs.
    let budget = 1 + 16 + 4 + 2;
    assert!(allocs <= budget, "parse allocated {allocs} times");
}
