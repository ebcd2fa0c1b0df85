//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **width** — 128/256/512-bit fused kernels (paper: the 128→256 gap
//!   exceeds 256→512);
//! * **gather / materialize** — stay-in-SIMD gather vs break-out selection
//!   vectors vs fully materialized bitmasks (the Menon et al. problem of
//!   §VI-C);
//! * **jit** — JIT-emitted EVEX kernel vs the static monomorphized kernel
//!   vs the interpreted model engine, plus the compile step itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fts_bench::workload::{equality_chain, preds_of};
use fts_core::{run_scan, ChainPred, OutputMode, RegWidth, ScanImpl};
use fts_jit::{CompiledKernel, JitBackend, ScanSig};
use fts_simd::has_avx512;

const ROWS: usize = 4_000_000;

fn width(c: &mut Criterion) {
    if !has_avx512() {
        return;
    }
    let chain = equality_chain(ROWS, 2, 0.1, 61);
    let preds = preds_of(&chain);
    let expected = chain.matching_rows.len() as u64;
    let mut group = c.benchmark_group("ablation_width");
    group.sample_size(10);
    for w in [RegWidth::W128, RegWidth::W256, RegWidth::W512] {
        group.bench_with_input(BenchmarkId::from_parameter(w.bits()), &w, |b, &w| {
            b.iter(|| {
                let out = run_scan(ScanImpl::FusedAvx512(w), &preds, OutputMode::Count).unwrap();
                assert_eq!(out.count(), expected);
            });
        });
    }
    group.finish();
}

fn gather_materialize(c: &mut Criterion) {
    let chain = equality_chain(ROWS, 2, 0.1, 62);
    let preds = preds_of(&chain);
    let expected = chain.matching_rows.len() as u64;
    let mut group = c.benchmark_group("ablation_gather_materialize");
    group.sample_size(10);
    let mut impls = vec![
        ("breakout_selvec", ScanImpl::BlockSelVec),
        ("materialized_bitmask", ScanImpl::BlockBitmap),
    ];
    if has_avx512() {
        impls.push(("fused_gather", ScanImpl::FusedAvx512(RegWidth::W512)));
    }
    for (name, imp) in impls {
        group.bench_function(name, |b| {
            b.iter(|| {
                let out = run_scan(imp, &preds, OutputMode::Count).unwrap();
                assert_eq!(out.count(), expected);
            });
        });
    }
    group.finish();
}

fn jit(c: &mut Criterion) {
    if !has_avx512() {
        return;
    }
    let chain = equality_chain(ROWS, 2, 0.1, 63);
    let preds = preds_of(&chain);
    let jit_chain: Vec<ChainPred<'_>> = preds.iter().map(|&p| p.into()).collect();
    let expected = chain.matching_rows.len() as u64;
    let sig = ScanSig::of_chain(&jit_chain, false);
    let kernel = CompiledKernel::compile(sig.clone(), JitBackend::Avx512).unwrap();

    let mut group = c.benchmark_group("ablation_jit");
    group.sample_size(10);
    group.bench_function("static_kernel", |b| {
        b.iter(|| {
            let out = run_scan(
                ScanImpl::FusedAvx512(RegWidth::W512),
                &preds,
                OutputMode::Count,
            )
            .unwrap();
            assert_eq!(out.count(), expected);
        });
    });
    group.bench_function("jit_kernel", |b| {
        b.iter(|| assert_eq!(kernel.run(&jit_chain).unwrap().count(), expected));
    });
    group.bench_function("interpreted_engine", |b| {
        b.iter(|| {
            let out = run_scan(
                ScanImpl::FusedScalar(RegWidth::W512),
                &preds,
                OutputMode::Count,
            )
            .unwrap();
            assert_eq!(out.count(), expected);
        });
    });
    group.bench_function("jit_compile_step", |b| {
        b.iter(|| {
            std::hint::black_box(CompiledKernel::compile(sig.clone(), JitBackend::Avx512).unwrap())
        });
    });
    group.finish();
}

criterion_group!(benches, width, gather_materialize, jit);
criterion_main!(benches);
