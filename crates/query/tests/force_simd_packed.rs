//! `FTS_FORCE_SIMD` caps packed chains too: with the level forced to
//! AVX2, neither the fused driver nor the packed JIT may run, and the
//! answer still matches the row loop.
//!
//! `fts_simd::detect()` reads the variable once, so this file is its own
//! test binary with a single test that sets it before anything detects.

use fts_query::{Engine, JitMode, QueryResult};
use fts_simd::SimdLevel;
use fts_storage::{Column, ColumnDef, DataType, Table};

#[test]
fn forced_avx2_runs_no_avx512_or_jit_kernel_on_packed_chains() {
    std::env::set_var("FTS_FORCE_SIMD", "avx2");
    assert!(fts_simd::detect() <= SimdLevel::Avx2);

    let rows = 5_000usize;
    let a = |i: usize| (i % 10) as u32;
    let b = |i: usize| (i * 7 % 13) as u32;
    let table = Table::from_columns(
        vec![
            ColumnDef::new("a", DataType::U32),
            ColumnDef::new("b", DataType::U32),
        ],
        vec![Column::from_fn(rows, a), Column::from_fn(rows, b)],
    )
    .unwrap();
    let expected = (0..rows).filter(|&i| a(i) == 5 && b(i) < 6).count() as u64;
    let sql = "SELECT COUNT(*) FROM t WHERE a = 5 AND b < 6";

    for packed in [&[1usize][..], &[0, 1]] {
        for jit in [JitMode::Off, JitMode::On] {
            let engine = Engine::with_jit(jit);
            engine.register("t", table.with_bitpacking(packed).unwrap());
            let ctx = format!("packed={packed:?} {jit:?}");
            let (result, report) = engine.query_analyzed(sql).unwrap();
            assert_eq!(result, QueryResult::Count(expected), "{ctx}");
            // Without AVX-512 a chain with a packed column has no fused
            // kernel: it runs the row loop.
            assert_eq!(report.scan.impl_name, "reference", "{ctx}");
            assert_eq!(engine.context().packed_kernels.len(), 0, "{ctx}");
            let QueryResult::Explain(text) =
                engine.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap()
            else {
                panic!("{ctx}: EXPLAIN ANALYZE returned no text")
            };
            for name in ["AVX-512", "jit-"] {
                assert!(!text.contains(name), "{ctx}: {text}");
            }
        }
    }
}
