//! A `u32` range next to an `i64` predicate runs as one fused chain in
//! phase 1, whatever the `u32` column's layout (plain, dictionary,
//! bit-packed): no row reaches the row-wise phase 2, with the JIT on or
//! off, and every answer matches brute force.

use fts_query::{Engine, JitMode, QueryResult};
use fts_storage::{Column, ColumnDef, DataType, Table, Value};

const ROWS: usize = 20_000;

fn quantity(i: usize) -> u32 {
    (i * 7919 % 50) as u32
}

fn price(i: usize) -> i64 {
    (i * 104_729 % 100_000) as i64 - 20_000
}

fn orders() -> Table {
    Table::from_chunked_columns(
        vec![
            ColumnDef::new("quantity", DataType::U32),
            ColumnDef::new("price", DataType::I64),
        ],
        vec![
            Column::from_fn(ROWS, quantity),
            Column::from_fn(ROWS, price),
        ],
        4096,
    )
    .unwrap()
}

#[test]
fn u32_range_and_i64_price_stay_in_phase_one() {
    for (layout, table) in [
        ("plain", orders()),
        ("dict", orders().with_dictionary_encoding(&[0]).unwrap()),
        ("packed", orders().with_bitpacking(&[0]).unwrap()),
    ] {
        for jit in [JitMode::Off, JitMode::On] {
            let engine = Engine::with_jit(jit);
            engine.register("orders", table.clone());
            for (lo, hi, p) in [
                (10, 20, 0i64),
                (0, 49, -20_000),
                (25, 25, 50_000),
                (3, 40, 79_999),
            ] {
                let hit = |i: &usize| (lo..=hi).contains(&quantity(*i)) && price(*i) > p;
                let ctx = format!("{layout} {jit:?} {lo}..{hi} price>{p}");

                let sql = format!(
                    "SELECT COUNT(*) FROM orders \
                     WHERE quantity BETWEEN {lo} AND {hi} AND price > {p}"
                );
                let expected = (0..ROWS).filter(hit).count() as u64;
                let (result, report) = engine.query_analyzed(&sql).unwrap();
                assert_eq!(result, QueryResult::Count(expected), "{ctx}");
                assert_eq!(report.phase2_rows_in, 0, "{ctx}");
                let QueryResult::Explain(text) =
                    engine.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap()
                else {
                    panic!("{ctx}: EXPLAIN ANALYZE returned no text")
                };
                assert!(!text.contains("phase 2"), "{ctx}: {text}");

                // Positions mode: aggregate the matching prices.
                let sql = format!(
                    "SELECT SUM(price) FROM orders \
                     WHERE quantity >= {lo} AND quantity <= {hi} AND price > {p}"
                );
                let sum: i64 = (0..ROWS).filter(hit).map(price).sum();
                let (result, report) = engine.query_analyzed(&sql).unwrap();
                let QueryResult::Rows { rows, .. } = result else {
                    panic!("{ctx}: {result:?}")
                };
                assert_eq!(rows, vec![vec![Value::I64(sum)]], "{ctx}");
                assert_eq!(report.phase2_rows_in, 0, "{ctx}");
            }
        }
    }
}
