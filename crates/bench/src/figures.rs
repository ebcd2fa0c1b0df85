//! Runners that regenerate every figure of the paper's evaluation
//! (Figs. 1, 2, 4, 5, 6, 7) plus the ablations DESIGN.md calls out.
//! Each returns a [`FigureResult`]; the `figures` binary prints the table
//! and persists JSON for EXPERIMENTS.md.

use fts_core::{
    run_scan, run_scan_telemetered, stride, ChainPred, OutputMode, RegWidth, ScanImpl,
    TelemetryLevel, TypedPred,
};
use fts_jit::{CompiledKernel, JitBackend, KernelCache, ScanSig};
use fts_metrics::{instrument, timing, HwModel};
use fts_simd::has_avx512;

use crate::report::FigureResult;
use crate::workload::{equality_chain, fig7_chain, preds_of, Scale};

/// The paper's Fig. 1/5/6 selectivity axis ("percent of qualifying rows per
/// predicate"), as fractions: 0.0001 % … 100 %, plus the 50 % point where
/// branch prediction is worst (Fig. 4's leading configuration).
pub const SELECTIVITIES: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0];

fn median_ms(reps: usize, f: impl FnMut()) -> f64 {
    timing::measure(reps, f).median_ms()
}

fn run_count(imp: ScanImpl, preds: &[TypedPred<'_, u32>], expected: u64) {
    let out = run_scan(imp, preds, OutputMode::Count).expect("scan");
    assert_eq!(out.count(), expected, "{} wrong result", imp.name());
}

/// Fig. 1 — runtime, useless hardware prefetches, and branch mispredictions
/// of the naïve SISD scan across selectivities (paper: 100 M rows).
/// Counters come from the deterministic models at `scale.model_rows`,
/// scaled linearly to `scale.rows` (both are per-row phenomena).
pub fn fig1(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig1",
        "SISD runtime correlates with useless prefetches and branch mispredictions",
        "selectivity",
    );
    fig.config("rows", scale.rows);
    fig.config("model_rows", scale.model_rows);
    fig.config("reps", scale.reps);
    let scale_factor = scale.rows as f64 / scale.model_rows as f64;

    for (i, &sel) in SELECTIVITIES.iter().enumerate() {
        // Real runtime at full scale.
        let chain = equality_chain(scale.rows, 2, sel, 100 + i as u64);
        let preds = preds_of(&chain);
        let expected = chain.matching_rows.len() as u64;
        let ms = median_ms(scale.reps, || {
            run_count(ScanImpl::SisdBranching, &preds, expected)
        });

        // Modeled counters at reduced scale.
        let model_chain = equality_chain(scale.model_rows, 2, sel, 200 + i as u64);
        let model_preds = preds_of(&model_chain);
        let mut model = HwModel::skylake();
        instrument::sisd_branching(&model_preds, &mut model);
        let c = model.finish();

        fig.push(
            "SISD (no vec)",
            sel,
            &[
                ("runtime_ms", ms),
                (
                    "branch_mispredictions",
                    c.branch.mispredictions as f64 * scale_factor,
                ),
                (
                    "useless_prefetches",
                    c.mem.useless_prefetches as f64 * scale_factor,
                ),
                ("bus_lines", c.mem.bus_lines() as f64 * scale_factor),
            ],
        );
    }
    fig
}

/// Fig. 2 — GB/s transferred and values processed per µs when only every
/// n-th 4-byte value is compared (0–7 values skipped per cache line).
pub fn fig2(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig2",
        "a naive SISD scan cannot utilize the available bandwidth",
        "values_skipped",
    );
    let rows = scale.rows.max(4_000_000);
    fig.config("rows", rows);
    fig.config("reps", scale.reps);
    let data: Vec<u32> = fts_storage::gen::uniform_column(rows, 0xBA5E);

    for skipped in 0..=7usize {
        let stride_n = skipped + 1;
        let m = stride::stride_metrics(rows, stride_n);
        let measurements = timing::measure(scale.reps, || {
            std::hint::black_box(stride::strided_count_eq(&data, 5, stride_n));
        });
        let med = measurements.median();
        fig.push(
            "SISD strided scan",
            skipped as f64,
            &[
                (
                    "gb_per_s",
                    timing::bytes_per_second(m.bytes_touched, med) / 1e9,
                ),
                (
                    "values_per_us",
                    timing::values_per_microsecond(m.values_processed, med),
                ),
                ("runtime_ms", med.as_secs_f64() * 1e3),
            ],
        );
    }
    fig
}

/// Fig. 4 — relative performance of the fused AVX-512 (512-bit) scan over
/// the auto-vectorized SISD baseline, across table sizes × selectivities.
pub fn fig4(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig4",
        "fused scan speedup over SISD across table sizes and selectivities",
        "rows",
    );
    fig.config("reps_budget", scale.reps);
    let sizes: Vec<usize> = [
        1_000, 10_000, 100_000, 1_000_000, 4_000_000, 16_000_000, 64_000_000,
    ]
    .into_iter()
    .filter(|&n| n <= scale.max_rows)
    .collect();
    let sels = [0.5, 0.1, 0.01, 0.001, 1e-6];

    for (i, &rows) in sizes.iter().enumerate() {
        for (j, &sel) in sels.iter().enumerate() {
            // The paper omits bars where no row would qualify.
            if sel * rows as f64 * sel < 0.5 {
                continue;
            }
            let chain = equality_chain(rows, 2, sel, (i * 10 + j) as u64);
            let preds = preds_of(&chain);
            let expected = chain.matching_rows.len() as u64;
            let reps = scale.reps_for(rows);
            let sisd = median_ms(reps, || run_count(ScanImpl::SisdAutoVec, &preds, expected));
            let fused_impl = if has_avx512() {
                ScanImpl::FusedAvx512(RegWidth::W512)
            } else {
                ScanImpl::FusedAvx2
            };
            if !fused_impl.available() {
                continue;
            }
            let fused = median_ms(reps, || run_count(fused_impl, &preds, expected));
            fig.push(
                &format!("sel={sel}"),
                rows as f64,
                &[
                    ("speedup", sisd / fused),
                    ("sisd_ms", sisd),
                    ("fused_ms", fused),
                ],
            );
        }
    }
    fig
}

/// Fig. 5 — median runtime of the six implementations across selectivities
/// at a fixed table size (paper: 32 M rows).
pub fn fig5(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig5",
        "median runtime per implementation across selectivities",
        "selectivity",
    );
    fig.config("rows", scale.rows);
    fig.config("reps", scale.reps);

    for (i, &sel) in SELECTIVITIES.iter().enumerate() {
        let chain = equality_chain(scale.rows, 2, sel, 300 + i as u64);
        let preds = preds_of(&chain);
        let expected = chain.matching_rows.len() as u64;
        for imp in ScanImpl::PAPER_FIG5 {
            if !imp.available() {
                continue;
            }
            let ms = median_ms(scale.reps, || run_count(imp, &preds, expected));
            fig.push(imp.name(), sel, &[("median_ms", ms)]);
        }
        // One full-telemetry run per selectivity with the best fused
        // implementation: stage counters, observed selectivities, bytes
        // and the bandwidth-vs-compute verdict, embedded in the JSON
        // report for EXPERIMENTS.md.
        let peak = stride::peak_bandwidth_gbps();
        let imp = fts_core::best_fused_impl::<u32>();
        let (out, telemetry) =
            run_scan_telemetered(imp, &preds, OutputMode::Count, TelemetryLevel::Full)
                .expect("auto impl is always available");
        assert_eq!(out.count(), expected, "{} wrong result", imp.name());
        fig.push_telemetry(&format!("{} sel={sel}", imp.name()), &telemetry, peak);
    }
    fig
}

/// Fig. 6 — modeled branch mispredictions per implementation across
/// selectivities. "SISD (auto vec)" shares the branching trace: the paper's
/// auto-vectorized build keeps the same per-tuple branch structure (its
/// Fig. 6 shows both SISD variants at the same level).
pub fn fig6(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig6",
        "modeled branch mispredictions per implementation",
        "selectivity",
    );
    fig.config("model_rows", scale.model_rows);
    fig.config("scaled_to_rows", scale.rows);
    let factor = scale.rows as f64 / scale.model_rows as f64;

    for (i, &sel) in SELECTIVITIES.iter().enumerate() {
        let chain = equality_chain(scale.model_rows, 2, sel, 400 + i as u64);
        let preds = preds_of(&chain);

        let mut m = HwModel::skylake();
        instrument::sisd_branching(&preds, &mut m);
        let sisd = m.finish().branch.mispredictions as f64 * factor;
        fig.push("SISD (no vec)", sel, &[("mispredictions", sisd)]);
        fig.push("SISD (auto vec)", sel, &[("mispredictions", sisd)]);

        for (label, lanes) in [
            ("AVX2 Fused (128)", 4usize),
            ("AVX-512 Fused (256)", 8),
            ("AVX-512 Fused (512)", 16),
        ] {
            let mut m = HwModel::skylake();
            match lanes {
                4 => instrument::fused::<u32, 4>(&preds, &mut m),
                8 => instrument::fused::<u32, 8>(&preds, &mut m),
                _ => instrument::fused::<u32, 16>(&preds, &mut m),
            };
            let miss = m.finish().branch.mispredictions as f64 * factor;
            fig.push(label, sel, &[("mispredictions", miss)]);
        }
    }
    fig
}

/// Fig. 7 — runtime versus number of predicates (2–5); first predicate 1 %,
/// following predicates 50 % of the remaining rows.
pub fn fig7(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig7",
        "the fused scan's benefit grows with the number of predicates",
        "predicates",
    );
    fig.config("rows", scale.rows);
    fig.config("reps", scale.reps);

    for p in 2..=5usize {
        let chain = fig7_chain(scale.rows, p, 500 + p as u64);
        let preds = preds_of(&chain);
        let expected = chain.matching_rows.len() as u64;
        let impls = [
            ScanImpl::SisdBranching,
            ScanImpl::SisdAutoVec,
            ScanImpl::FusedAvx2,
            ScanImpl::FusedAvx512(RegWidth::W512),
        ];
        for imp in impls {
            if !imp.available() {
                continue;
            }
            let ms = median_ms(scale.reps, || run_count(imp, &preds, expected));
            fig.push(imp.name(), p as f64, &[("median_ms", ms)]);
        }
    }
    fig
}

/// Ablation: register width (the paper's observation that the 128→256 gap
/// exceeds the 256→512 gap).
pub fn ablation_width(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "ablation_width",
        "fused scan runtime by register width",
        "selectivity",
    );
    fig.config("rows", scale.rows);
    if !has_avx512() {
        return fig;
    }
    for (i, &sel) in [1e-4, 0.01, 0.5].iter().enumerate() {
        let chain = equality_chain(scale.rows, 2, sel, 600 + i as u64);
        let preds = preds_of(&chain);
        let expected = chain.matching_rows.len() as u64;
        for w in [RegWidth::W128, RegWidth::W256, RegWidth::W512] {
            let imp = ScanImpl::FusedAvx512(w);
            let ms = median_ms(scale.reps, || run_count(imp, &preds, expected));
            fig.push(&format!("{} bit", w.bits()), sel, &[("median_ms", ms)]);
        }
    }
    fig
}

/// Ablation: the gather-based follow-up versus "breaking out of SIMD"
/// (selection-vector refinement, Menon et al.'s first method) versus full
/// bitmask materialization — the §VI-C discussion.
pub fn ablation_gather_materialize(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "ablation_gather",
        "stay-in-SIMD gather vs break-out (selection vectors) vs materialized bitmasks",
        "selectivity",
    );
    fig.config("rows", scale.rows);
    for (i, &sel) in [1e-4, 0.01, 0.1, 0.5].iter().enumerate() {
        let chain = equality_chain(scale.rows, 2, sel, 700 + i as u64);
        let preds = preds_of(&chain);
        let expected = chain.matching_rows.len() as u64;
        let mut impls = vec![
            ("break-out selection vectors", ScanImpl::BlockSelVec),
            ("materialized bitmasks", ScanImpl::BlockBitmap),
        ];
        if has_avx512() {
            impls.push((
                "fused gather (AVX-512 512)",
                ScanImpl::FusedAvx512(RegWidth::W512),
            ));
        }
        for (label, imp) in impls {
            let ms = median_ms(scale.reps, || run_count(imp, &preds, expected));
            fig.push(label, sel, &[("median_ms", ms)]);
        }
    }
    fig
}

/// Ablation: JIT-generated machine code vs the pre-monomorphized static
/// kernel vs the generic interpreted engine, plus compile-time accounting
/// (§V's "compile time is not a deciding bottleneck").
pub fn ablation_jit(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "ablation_jit",
        "JIT-emitted kernel vs static kernel vs interpreted engine",
        "selectivity",
    );
    fig.config("rows", scale.rows);
    if !has_avx512() {
        return fig;
    }
    let cache = KernelCache::new(JitBackend::Avx512);
    for (i, &sel) in [1e-4, 0.01, 0.5].iter().enumerate() {
        let chain = equality_chain(scale.rows, 2, sel, 800 + i as u64);
        let preds = preds_of(&chain);
        let jit_chain: Vec<ChainPred<'_>> = preds.iter().map(|&p| p.into()).collect();
        let expected = chain.matching_rows.len() as u64;

        let ms = median_ms(scale.reps, || {
            run_count(ScanImpl::FusedAvx512(RegWidth::W512), &preds, expected)
        });
        fig.push("static AVX-512 kernel", sel, &[("median_ms", ms)]);

        let sig = ScanSig::of_chain(&jit_chain, false);
        let kernel = cache.get_or_compile(&sig).expect("jit compile");
        let ms = median_ms(scale.reps, || {
            assert_eq!(kernel.run(&jit_chain).expect("run").count(), expected);
        });
        fig.push(
            "JIT EVEX kernel",
            sel,
            &[
                ("median_ms", ms),
                ("compile_us", kernel.compile_time().as_secs_f64() * 1e6),
                ("code_bytes", kernel.machine_code().len() as f64),
            ],
        );

        let scalar_jit = CompiledKernel::compile(sig, JitBackend::Scalar).expect("scalar jit");
        let ms = median_ms(scale.reps.min(5), || {
            assert_eq!(scalar_jit.run(&jit_chain).expect("run").count(), expected);
        });
        fig.push("JIT scalar kernel", sel, &[("median_ms", ms)]);

        let ms = median_ms(3, || {
            run_count(ScanImpl::FusedScalar(RegWidth::W512), &preds, expected)
        });
        fig.push("interpreted model engine", sel, &[("median_ms", ms)]);
    }
    let stats = cache.stats();
    fig.config("jit_cache_hits", stats.hits);
    fig.config("jit_cache_misses", stats.misses);
    fig.config("jit_total_compile_us", stats.compile_time.as_micros());
    fig
}

/// Ablation: morsel-driven parallel scaling of the fused scan (paper
/// footnote 1 allows horizontal partitioning; this shows the operator
/// composes with morsel-driven parallelism).
pub fn ablation_parallel(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "ablation_parallel",
        "morsel-parallel fused scan scaling",
        "threads",
    );
    fig.config("rows", scale.rows);
    fig.config("morsel_rows", fts_core::DEFAULT_MORSEL_ROWS);
    let chain = equality_chain(scale.rows, 2, 0.1, 900);
    let preds = preds_of(&chain);
    let expected = chain.matching_rows.len() as u64;
    let imp = fts_core::best_fused_impl::<u32>();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut base_ms = None;
    for threads in [1usize, 2, 4, 8, 16] {
        if threads > cores * 2 {
            break;
        }
        let ms = median_ms(scale.reps, || {
            let out = fts_core::run_scan_parallel(
                imp,
                &preds,
                OutputMode::Count,
                threads,
                fts_core::DEFAULT_MORSEL_ROWS,
            )
            .expect("parallel scan");
            assert_eq!(out.count(), expected);
        });
        let base = *base_ms.get_or_insert(ms);
        fig.push(
            imp.name(),
            threads as f64,
            &[("median_ms", ms), ("speedup_vs_1t", base / ms)],
        );
    }
    fig
}

/// Ablation: bit-packed fused scan (the paper's §VII future work) versus
/// the plain fused scan — same logical workload, 4x–16x less data on the
/// memory bus at narrow widths.
pub fn ablation_packed(scale: &Scale) -> FigureResult {
    use fts_core::fused::driver::{driver_available, fused_scan};
    use fts_storage::PackedColumn;

    let mut fig = FigureResult::new(
        "ablation_packed",
        "bit-packed fused scan vs plain fused scan (§VII future work)",
        "bits_per_value",
    );
    fig.config("rows", scale.rows);
    if !driver_available(true) {
        return fig;
    }
    for bits in [2u8, 4, 8, 12, 16] {
        // Hand-rolled workload entirely inside the packed domain: ~10 %
        // of rows match needle0, ~50 % match needle1.
        let mask = fts_storage::mask_of(bits);
        let needle0 = mask / 2;
        let needle1 = mask.saturating_sub(1).max(needle0 ^ 1);
        let mix = |i: usize, salt: u32| {
            (i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(salt)
                .rotate_left(13)
        };
        let col0: Vec<u32> = (0..scale.rows)
            .map(|i| {
                if mix(i, 1) % 10 == 0 {
                    needle0
                } else {
                    let v = mix(i, 2) & mask;
                    if v == needle0 {
                        v ^ 1
                    } else {
                        v
                    }
                }
            })
            .collect();
        let col1: Vec<u32> = (0..scale.rows)
            .map(|i| {
                if mix(i, 3) % 2 == 0 {
                    needle1
                } else {
                    let v = mix(i, 4) & mask;
                    if v == needle1 {
                        v ^ 1
                    } else {
                        v
                    }
                }
            })
            .collect();
        let cols = [col0, col1];
        let preds = [
            TypedPred::eq(&cols[0][..], needle0),
            TypedPred::eq(&cols[1][..], needle1),
        ];
        let expected = fts_core::reference::scan_count(&preds);

        let ms = median_ms(scale.reps, || {
            let out = fts_core::run_fused_auto(&preds, OutputMode::Count);
            assert_eq!(out.count(), expected);
        });
        fig.push(
            "plain fused (32-bit values)",
            bits as f64,
            &[("median_ms", ms)],
        );

        let packed: Vec<PackedColumn> = cols
            .iter()
            .map(|c| PackedColumn::pack(c, bits).expect("fits"))
            .collect();
        let ppreds = [
            ChainPred::Packed {
                col: &packed[0],
                op: fts_storage::CmpOp::Eq,
                needle: needle0,
            },
            ChainPred::Packed {
                col: &packed[1],
                op: fts_storage::CmpOp::Eq,
                needle: needle1,
            },
        ];
        let ms = median_ms(scale.reps, || {
            let out = fused_scan(&ppreds, OutputMode::Count).expect("packed scan");
            assert_eq!(out.count(), expected);
        });
        fig.push(
            "bit-packed fused",
            bits as f64,
            &[
                ("median_ms", ms),
                ("compression", packed[0].compression_ratio()),
            ],
        );

        // The packed JIT backend (§V meets §VII): same scan, emitted code.
        if std::arch::is_x86_feature_detected!("avx512vbmi2") {
            let sig = ScanSig::of_chain(&ppreds, false);
            let kernel = CompiledKernel::compile(sig, JitBackend::Avx512).expect("packed jit");
            let ms = median_ms(scale.reps, || {
                assert_eq!(kernel.run(&ppreds).expect("run").count(), expected);
            });
            fig.push(
                "bit-packed fused (JIT)",
                bits as f64,
                &[
                    ("median_ms", ms),
                    ("compile_us", kernel.compile_time().as_secs_f64() * 1e6),
                    ("code_bytes", kernel.machine_code().len() as f64),
                ],
            );
        }
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            rows: 40_000,
            max_rows: 40_000,
            reps: 2,
            model_rows: 20_000,
        }
    }

    #[test]
    fn fig1_produces_all_selectivities() {
        let fig = fig1(&tiny());
        assert_eq!(fig.series.len(), 1);
        assert_eq!(fig.series[0].points.len(), SELECTIVITIES.len());
        for p in &fig.series[0].points {
            assert!(p.metrics["runtime_ms"] > 0.0);
            assert!(p.metrics.contains_key("branch_mispredictions"));
            assert!(p.metrics.contains_key("useless_prefetches"));
        }
    }

    #[test]
    fn fig2_keeps_bytes_constant_while_values_drop() {
        let fig = fig2(&tiny());
        let pts = &fig.series[0].points;
        assert_eq!(pts.len(), 8);
        // More skipped values => fewer values processed per unit time would
        // be wrong — throughput in *bytes* must not collapse.
        assert!(pts[0].metrics["gb_per_s"] > 0.0);
    }

    #[test]
    fn fig4_to_7_run_at_tiny_scale() {
        let s = tiny();
        let f4 = fig4(&s);
        assert!(!f4.series.is_empty());
        let f5 = fig5(&s);
        assert!(
            f5.series.len() >= 2,
            "at least the two SISD variants run anywhere"
        );
        let f6 = fig6(&s);
        assert!(f6.series.iter().any(|se| se.label == "AVX-512 Fused (512)"));
        let f7 = fig7(&s);
        assert!(f7.series.iter().all(|se| se.points.len() == 4), "P = 2..=5");
    }

    #[test]
    fn fig6_fused_mispredicts_less() {
        let fig = fig6(&tiny());
        let at = |label: &str| {
            fig.series
                .iter()
                .find(|s| s.label == label)
                .and_then(|s| s.points.iter().find(|p| p.x == 0.5))
                .map(|p| p.metrics["mispredictions"])
                .expect(label)
        };
        // The paper's "roughly an order of magnitude" claim peaks where
        // branch prediction is a coin flip.
        assert!(
            at("SISD (no vec)") > 8.0 * at("AVX-512 Fused (512)"),
            "sisd={} fused={}",
            at("SISD (no vec)"),
            at("AVX-512 Fused (512)")
        );
    }

    #[test]
    fn parallel_ablation_is_correct_at_tiny_scale() {
        let fig = ablation_parallel(&tiny());
        assert!(!fig.series.is_empty());
        assert!(fig.series[0].points.len() >= 2);
    }

    #[test]
    fn packed_ablation_is_correct_at_tiny_scale() {
        let fig = ablation_packed(&tiny());
        if fts_core::driver_available(true) {
            assert!(fig.series.len() >= 2, "plain + packed series");
            if std::arch::is_x86_feature_detected!("avx512vbmi2") {
                assert_eq!(fig.series.len(), 3, "JIT series present");
            }
        }
    }

    #[test]
    fn ablations_run_at_tiny_scale() {
        let s = tiny();
        let _ = ablation_width(&s);
        let g = ablation_gather_materialize(&s);
        assert!(!g.series.is_empty());
        let j = ablation_jit(&s);
        if has_avx512() {
            assert!(j.series.iter().any(|se| se.label == "JIT EVEX kernel"));
        }
    }
}
