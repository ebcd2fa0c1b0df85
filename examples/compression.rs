//! Storage encodings under the fused scan: plain, dictionary-encoded, and
//! bit-packed (the paper's assumption 3 and its §VII future work).
//!
//! The same logical table is scanned three ways:
//!
//! * **plain** — native `u32` values, the paper's running configuration;
//! * **dictionary** — any type reduces to a `u32` value-id comparison, so
//!   the 8-byte `price` column scans with the 4-byte kernel;
//! * **bit-packed** — null-suppressed values unpacked on the fly with
//!   VBMI2 funnel shifts, including the gather-side extraction §VII calls
//!   "the main challenge".
//!
//! Usage: `cargo run --release --example compression [rows]`

use std::time::Instant;

use fused_table_scan::core::fused::driver::{driver_available, fused_scan, ChainPred};
use fused_table_scan::core::{run_fused_auto, OutputMode, TypedPred};
use fused_table_scan::storage::{CmpOp, PackedColumn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn median_ms(reps: usize, mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut out = 0;
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            out = f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], out)
}

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.replace('_', "").parse().ok())
        .unwrap_or(8_000_000);

    // A "status" column with 6 distinct values and a "code" column with 1000.
    let mut r1 = StdRng::seed_from_u64(11);
    let mut r2 = StdRng::seed_from_u64(12);
    let status: Vec<u32> = (0..rows).map(|_| r1.random_range(0u32..6)).collect();
    let code: Vec<u32> = (0..rows).map(|_| r2.random_range(0u32..1000)).collect();

    println!("{rows} rows; query: status = 3 AND code < 100\n");

    // Plain.
    let preds = [
        TypedPred::eq(&status[..], 3u32),
        TypedPred::new(&code[..], CmpOp::Lt, 100u32),
    ];
    let (plain_ms, expected) = median_ms(7, || run_fused_auto(&preds, OutputMode::Count).count());
    let plain_bytes = rows * 4 * 2;
    println!(
        "plain u32:        {plain_ms:>7.2} ms   {:>6.1} MB scanned   count={expected}",
        plain_bytes as f64 / 1e6
    );

    // Dictionary: the fused kernel runs on value ids; value-domain
    // predicates are rewritten to id-domain predicates.
    use fused_table_scan::storage::{DictColumn, IdPredicate, Value};
    let d_status = DictColumn::encode_native(&status).unwrap();
    let d_code = DictColumn::encode_native(&code).unwrap();
    let p1 = d_status.translate(CmpOp::Eq, Value::U32(3)).unwrap();
    let p2 = d_code.translate(CmpOp::Lt, Value::U32(100)).unwrap();
    let (IdPredicate::Cmp(op1, id1), IdPredicate::Cmp(op2, id2)) = (p1, p2) else {
        panic!("literals exist in both dictionaries");
    };
    let dict_preds = [
        TypedPred::new(d_status.value_ids(), op1, id1),
        TypedPred::new(d_code.value_ids(), op2, id2),
    ];
    let (dict_ms, dict_count) =
        median_ms(7, || run_fused_auto(&dict_preds, OutputMode::Count).count());
    assert_eq!(dict_count, expected);
    println!(
        "dictionary ids:   {dict_ms:>7.2} ms   ({} + {} distinct values in the dicts)",
        d_status.dict_size(),
        d_code.dict_size()
    );

    // Bit-packed: 3 bits for status, 10 bits for code.
    if driver_available(true) {
        let p_status = PackedColumn::pack_min_bits(&status);
        let p_code = PackedColumn::pack_min_bits(&code);
        let packed_preds = [
            ChainPred::Packed {
                col: &p_status,
                op: CmpOp::Eq,
                needle: 3,
            },
            ChainPred::Packed {
                col: &p_code,
                op: CmpOp::Lt,
                needle: 100,
            },
        ];
        let (packed_ms, packed_count) = median_ms(7, || {
            fused_scan(&packed_preds, OutputMode::Count)
                .expect("packed scan")
                .count()
        });
        assert_eq!(packed_count, expected);
        let packed_bytes = (p_status.words().len() + p_code.words().len()) * 4;
        println!(
            "bit-packed:       {packed_ms:>7.2} ms   {:>6.1} MB scanned   ({}+{} bits/value, {:.1}x smaller)",
            packed_bytes as f64 / 1e6,
            p_status.bits(),
            p_code.bits(),
            plain_bytes as f64 / packed_bytes as f64
        );
        println!(
            "\nbit-packing moves {:.1}x fewer bytes over the memory bus; whether that\n\
             wins wall-clock depends on whether the plain scan was bandwidth-bound\n\
             (the paper's testbed: yes at ~12 GB/s; see EXPERIMENTS.md).",
            plain_bytes as f64 / packed_bytes as f64
        );
    } else {
        println!("bit-packed:       skipped (no AVX-512 VBMI2 on this host)");
    }
}
