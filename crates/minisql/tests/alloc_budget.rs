//! Allocation budget of parsing the R-GMA reading's 16-column `INSERT`,
//! counted, not timed.

use minisql::{parse, Statement};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One R-GMA reading's text, copied: minisql must not depend on
/// powergrid (whose own tests render the live text).
const INSERT_SQL: &str = "INSERT INTO generator (id, status, seq, uptime, \
     power, energy, rating, voltage, frequency, current, temp, wind, \
     site, operator, model, fw) VALUES \
     (42, 1, 17, 170, 812.503, 3.385, 1500.000, 230.41, 50.003, 3526.336, 35.5, 7.25, \
     'site-0042', 'gridcc', 'WT-2000/E', 'glite-3.0')";

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
