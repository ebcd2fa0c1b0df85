//! Differential tests of the JIT: for random chains of plain 32-bit,
//! bit-packed and plain 64-bit sources, random operators and literals
//! (NaN included), row counts off the lane grid and both output modes,
//! kernels fetched through a [`KernelCache`] agree with the `fts_core`
//! row-loop reference.

use fts_core::reference::scan_chain;
use fts_core::{ChainPred, TypedPred};
use fts_jit::kernel::RunError;
use fts_jit::{JitBackend, JitError, KernelCache, ScanSig};
use fts_storage::bitpack::{mask_of, PackedColumn};
use fts_storage::CmpOp;
use proptest::prelude::*;

fn available() -> bool {
    fts_simd::has_avx512() && std::arch::is_x86_feature_detected!("avx512vbmi2")
}

/// Run `chain` through a kernel from `cache` and compare it with the
/// reference in the given output mode.
fn check(cache: &KernelCache, chain: &[ChainPred<'_>], emit_positions: bool) {
    let expected = scan_chain(chain);
    let kernel = cache
        .get_or_compile(&ScanSig::of_chain(chain, emit_positions))
        .unwrap();
    let out = kernel.run(chain).unwrap();
    if emit_positions {
        assert_eq!(out.positions().unwrap(), &expected);
    } else {
        assert_eq!(out.count(), expected.len() as u64);
    }
}

fn cache() -> KernelCache {
    KernelCache::new(JitBackend::Avx512)
}

/// One column of a generated chain.
#[derive(Debug, Clone, Copy)]
enum Src {
    U32,
    I32,
    F32,
    Packed(u8),
    U64,
    I64,
    F64,
}

/// Owned column data a [`ChainPred`] borrows.
enum Data {
    U32(Vec<u32>),
    I32(Vec<i32>),
    F32(Vec<f32>),
    Packed(PackedColumn),
    U64(Vec<u64>),
    I64(Vec<i64>),
    F64(Vec<f64>),
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Random column of `src` plus a literal: small value ranges so every
/// operator both matches and fails, a few NaNs in float columns, full-width
/// values in half the packed columns, and a NaN literal one time in eight.
fn column(src: Src, rows: usize, rng: &mut impl FnMut() -> u64) -> (Data, u64) {
    let nan = rng().is_multiple_of(8);
    let wide = rng().is_multiple_of(2);
    let float = |v: u64| {
        if v.is_multiple_of(16) {
            f64::NAN
        } else {
            (v % 7) as f64 * 0.5
        }
    };
    let mut vals = |f: &mut dyn FnMut(u64) -> u64| (0..rows).map(|_| f(rng())).collect::<Vec<_>>();
    match src {
        Src::U32 => (
            Data::U32(vals(&mut |v| v % 7).iter().map(|&v| v as u32).collect()),
            3,
        ),
        Src::I32 => (
            Data::I32(vals(&mut |v| v % 9).iter().map(|&v| v as i32 - 4).collect()),
            -1i32 as u32 as u64,
        ),
        Src::F32 => (
            Data::F32(vals(&mut |v| v).iter().map(|&v| float(v) as f32).collect()),
            if nan { f32::NAN } else { 1.5 }.to_bits() as u64,
        ),
        Src::U64 => (
            Data::U64(vals(&mut |v| {
                if v.is_multiple_of(5) {
                    u64::MAX - v % 3
                } else {
                    v % 7
                }
            })),
            if nan { u64::MAX - 1 } else { 3 },
        ),
        Src::I64 => (
            Data::I64(vals(&mut |v| v % 9).iter().map(|&v| v as i64 - 4).collect()),
            -1i64 as u64,
        ),
        Src::F64 => (
            Data::F64(vals(&mut |v| v).iter().map(|&v| float(v)).collect()),
            if nan { f64::NAN } else { 1.5 }.to_bits(),
        ),
        Src::Packed(bits) => {
            let mask = mask_of(bits);
            let values: Vec<u32> = vals(&mut |v| v)
                .iter()
                .map(|&v| {
                    if wide {
                        v as u32 & mask
                    } else {
                        (v % 8) as u32 & mask
                    }
                })
                .collect();
            let needle = match values.first() {
                Some(&v) if !wide || rng().is_multiple_of(2) => v,
                _ => rng() as u32 & mask,
            };
            (
                Data::Packed(PackedColumn::pack(&values, bits).unwrap()),
                needle as u64,
            )
        }
    }
}

fn bind(data: &Data, op: CmpOp, needle: u64) -> ChainPred<'_> {
    match data {
        Data::U32(d) => TypedPred::new(&d[..], op, needle as u32).into(),
        Data::I32(d) => TypedPred::new(&d[..], op, needle as u32 as i32).into(),
        Data::F32(d) => TypedPred::new(&d[..], op, f32::from_bits(needle as u32)).into(),
        Data::U64(d) => TypedPred::new(&d[..], op, needle).into(),
        Data::I64(d) => TypedPred::new(&d[..], op, needle as i64).into(),
        Data::F64(d) => TypedPred::new(&d[..], op, f64::from_bits(needle)).into(),
        Data::Packed(col) => ChainPred::Packed {
            col,
            op,
            needle: needle as u32,
        },
    }
}

/// Build and check the chain `srcs × ops` over `rows` rows.
fn check_random(srcs: &[Src], ops: &[CmpOp], rows: usize, seed: u64, emit: bool) {
    let mut rng = xorshift(seed);
    let cols: Vec<(Data, u64)> = srcs.iter().map(|&s| column(s, rows, &mut rng)).collect();
    let chain: Vec<ChainPred<'_>> = cols
        .iter()
        .zip(ops)
        .map(|((data, needle), &op)| bind(data, op, *needle))
        .collect();
    check(&cache(), &chain, emit);
}

/// A 16-lane source: `u32`, `i32`, `f32` or packed `bits` wide.
fn src32((kind, bits): (u8, u8)) -> Src {
    [Src::U32, Src::I32, Src::F32, Src::Packed(bits)][kind as usize]
}

/// An 8-lane source.
fn src64(kind: u8) -> Src {
    [Src::U64, Src::I64, Src::F64][kind as usize]
}

fn ops() -> impl Strategy<Value = Vec<CmpOp>> {
    prop::collection::vec(prop::sample::select(CmpOp::ALL.to_vec()), 5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // 16-lane chains: plain `u32`/`i32`/`f32` and packed 1–32-bit sources
    // in any order the compiler accepts (a packed driver is ≤ 16 bits).
    #[test]
    fn jit_packed_matches_reference(
        kinds in prop::collection::vec((0u8..4, 1u8..=32), 1..=5),
        ops in ops(),
        rows in 0usize..700,
        emit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        if !available() {
            return Ok(());
        }
        let mut srcs: Vec<Src> = kinds.into_iter().map(src32).collect();
        if let Src::Packed(bits) = &mut srcs[0] {
            *bits = (*bits - 1) % 16 + 1;
        }
        check_random(&srcs, &ops, rows, seed, emit);
    }

    // 8-lane chains of `u64`/`i64`/`f64` sources.
    #[test]
    fn jit_w64_matches_reference(
        kinds in prop::collection::vec(0u8..3, 1..=5),
        ops in ops(),
        rows in 0usize..400,
        emit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        if !available() {
            return Ok(());
        }
        let srcs: Vec<Src> = kinds.into_iter().map(src64).collect();
        check_random(&srcs, &ops, rows, seed, emit);
    }
}

#[test]
fn packed_driver_all_narrow_widths() {
    if !available() {
        return;
    }
    let cache = cache();
    for bits in 1..=16u8 {
        let mask = mask_of(bits);
        let values: Vec<u32> = (0..1003u32)
            .map(|i| i.wrapping_mul(2654435761) & mask)
            .collect();
        let col = PackedColumn::pack(&values, bits).unwrap();
        let plain: Vec<u32> = (0..1003).map(|i| i % 3).collect();
        for op in CmpOp::ALL {
            let chain = [
                ChainPred::Packed {
                    col: &col,
                    op,
                    needle: mask / 2,
                },
                ChainPred::from(TypedPred::eq(&plain[..], 1)),
            ];
            check(&cache, &chain, true);
        }
    }
}

#[test]
fn packed_follow_up_any_width() {
    if !available() {
        return;
    }
    let cache = cache();
    for bits in [3u8, 7, 11, 16, 21, 29, 32] {
        let mask = mask_of(bits);
        let a: Vec<u32> = (0..900).map(|i| i % 5).collect();
        let values: Vec<u32> = (0..900u32)
            .map(|i| i.wrapping_mul(2246822519) & mask)
            .collect();
        let col = PackedColumn::pack(&values, bits).unwrap();
        for op in CmpOp::ALL {
            let chain = [
                ChainPred::from(TypedPred::eq(&a[..], 2)),
                ChainPred::Packed {
                    col: &col,
                    op,
                    needle: mask / 2,
                },
            ];
            check(&cache, &chain, true);
        }
    }
}

#[test]
fn fully_packed_three_predicate_chain_and_count_mode() {
    if !available() {
        return;
    }
    let cols: Vec<PackedColumn> = [4u8, 9, 13]
        .iter()
        .map(|&bits| {
            let mask = mask_of(bits);
            let values: Vec<u32> = (0..1600u32)
                .map(|i| i.wrapping_mul(9973 + bits as u32) & mask)
                .collect();
            PackedColumn::pack(&values, bits).unwrap()
        })
        .collect();
    let chain: Vec<ChainPred<'_>> = cols
        .iter()
        .map(|c| ChainPred::Packed {
            col: c,
            op: CmpOp::Le,
            needle: mask_of(c.bits()) / 2,
        })
        .collect();
    let cache = cache();
    check(&cache, &chain, true);
    check(&cache, &chain, false);
    assert_eq!(cache.len(), 2, "one kernel per output mode");
    assert!(cache.stats().compile_time.as_millis() < 200);
}

#[test]
fn validation() {
    if !available() {
        return;
    }
    // Wide driver rejected at compile time.
    let col = PackedColumn::pack(&[1u32, 2, 3], 20).unwrap();
    let chain = [ChainPred::Packed {
        col: &col,
        op: CmpOp::Eq,
        needle: 1,
    }];
    assert_eq!(
        cache()
            .get_or_compile(&ScanSig::of_chain(&chain, false))
            .unwrap_err(),
        JitError::BadPackedSource { pred: 0, bits: 20 }
    );
    // Width mismatch rejected at run time.
    let narrow = PackedColumn::pack(&[1u32, 2, 3], 4).unwrap();
    let sig = ScanSig::of_chain(
        &[ChainPred::Packed {
            col: &narrow,
            op: CmpOp::Eq,
            needle: 1,
        }],
        false,
    );
    let kernel = cache().get_or_compile(&sig).unwrap();
    let col = PackedColumn::pack(&[1u32, 2, 3], 5).unwrap();
    let chain = [ChainPred::Packed {
        col: &col,
        op: CmpOp::Eq,
        needle: 1,
    }];
    assert_eq!(kernel.run(&chain).unwrap_err(), RunError::SigMismatch);
}

#[test]
fn tails_and_empty() {
    if !available() {
        return;
    }
    let cache = cache();
    for rows in [0usize, 1, 7, 8, 9, 15, 16, 17, 100, 1003] {
        let values: Vec<u32> = (0..rows as u32).map(|i| i % 4).collect();
        let col = PackedColumn::pack(&values, 2).unwrap();
        let wide: Vec<u64> = (0..rows as u64).map(|i| i % 3).collect();
        let packed = [ChainPred::Packed {
            col: &col,
            op: CmpOp::Eq,
            needle: 1,
        }];
        let plain = [ChainPred::from(TypedPred::eq(&values[..], 1))];
        let w64 = [ChainPred::from(TypedPred::eq(&wide[..], 0))];
        for chain in [&packed[..], &plain[..], &w64[..]] {
            check(&cache, chain, true);
            check(&cache, chain, false);
        }
    }
}
