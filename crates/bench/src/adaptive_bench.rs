//! The adaptive-selector benchmark (`BENCH_adaptive.json`): the
//! cost-model + calibration pipeline of `fts_core::adaptive` against every
//! static kernel it can choose from, swept across selectivity × chain
//! length × encoding. The acceptance bar for the selector is that its
//! end-to-end time (calibration probes included) stays within a few
//! percent of the best static kernel at every point while never degrading
//! to the worst one — i.e. it buys Fig. 5's per-configuration winner
//! without knowing the configuration up front.

use fts_core::fused::driver::{driver_available, fused_scan, ChainPred};
use fts_core::{
    candidate_scan_impls, estimate_cost, estimate_packed_cost, run_scan, run_scan_adaptive,
    AdaptiveConfig, ChainProfile, Encoding, OutputMode, PredProfile, RegWidth, ScanImpl,
    TelemetryLevel, TypedPred, DEFAULT_MORSEL_ROWS,
};
use fts_metrics::timing;
use fts_storage::PackedColumn;

use crate::report::FigureResult;
use crate::workload::{equality_chain, preds_of, Scale};

/// Selectivity axis of the adaptive sweep — a subset of Fig. 5's axis
/// spanning the bandwidth-bound low end, the mispredict-heavy middle, and
/// the gather-dominated high end.
pub const ADAPTIVE_SELECTIVITIES: [f64; 5] = [1e-5, 1e-3, 0.01, 0.1, 0.5];

/// Chain lengths of the sweep (the paper evaluates up to 5 predicates;
/// 1/2/4 covers the no-gather, one-gather and gather-heavy shapes).
pub const CHAIN_LENGTHS: [usize; 3] = [1, 2, 4];

fn median_ms(reps: usize, f: impl FnMut()) -> f64 {
    timing::measure(reps, f).median_ms()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Probe granularity scaled to the table: ~1/256th of the rows, so the
/// three calibration probes stay ≈ 1 % of the scan at every scale.
fn morsel_rows_for(rows: usize) -> usize {
    (rows / 256)
        .next_power_of_two()
        .clamp(1 << 10, DEFAULT_MORSEL_ROWS)
}

/// The adaptive runner's configuration for a bench table of `rows` rows:
/// single-threaded steady state (so the comparison against the
/// single-threaded static kernels is apples-to-apples) and scaled morsels.
pub fn bench_adaptive_config(rows: usize) -> AdaptiveConfig {
    let mut cfg = AdaptiveConfig {
        threads: 1,
        morsel_rows: morsel_rows_for(rows),
        ..AdaptiveConfig::default()
    };
    // Three timed morsels per candidate: averages out the probe-timing
    // noise that could crown the wrong kernel, for ~2–3 % more rows spent
    // probing. The 256- and 512-bit kernels sit ~20 % apart per morsel,
    // which single probes cannot reliably separate on a shared host.
    cfg.calibration.probes_per_candidate = 3;
    // With the ranking tie-broken by compute headroom the top two
    // candidates are the only realistic winners; probing a third only
    // spends morsels on the slowest loser and pads the adaptive total.
    cfg.calibration.top_candidates = 2;
    cfg
}

/// The adaptive sweep: for every chain length × selectivity, the median
/// runtime of each static candidate kernel and of the adaptive selector
/// (cost model + calibration probes + steady state, re-calibrated every
/// repetition). Adaptive points carry `ratio_vs_best` / `ratio_vs_worst`
/// against the static field. A second section sweeps the encoding axis:
/// plain 32-bit values versus the bit-packed compressed-domain kernel,
/// with the cost model's estimates alongside the measurements.
pub fn bench_adaptive(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "BENCH_adaptive",
        "adaptive kernel selection vs every static kernel (selectivity × chain length × encoding)",
        "selectivity",
    );
    fig.config("rows", scale.rows);
    fig.config("reps", scale.reps);
    fig.config("morsel_rows", morsel_rows_for(scale.rows));
    fig.config("isa", fts_simd::detect());

    let candidates = candidate_scan_impls::<u32>();
    let cfg = bench_adaptive_config(scale.rows);

    for (pi, &p) in CHAIN_LENGTHS.iter().enumerate() {
        for (si, &sel) in ADAPTIVE_SELECTIVITIES.iter().enumerate() {
            let point_started = std::time::Instant::now();
            let chain = equality_chain(scale.rows, p, sel, (1000 + pi * 100 + si) as u64);
            let preds = preds_of(&chain);
            let expected = chain.matching_rows.len() as u64;

            let profile = ChainProfile::uniform_u32(scale.rows as u64, p, sel);
            let mut winner = fts_core::best_fused_impl::<u32>();

            // Interleave the static kernels and the adaptive runner inside
            // every repetition (round 0 is a discarded warmup). Timing them
            // in separate consecutive loops lets slow drift on a shared
            // host (CPU steal, thermal) land on one series but not the
            // other, which swamps the few-percent acceptance bar; round-
            // robin measurement cancels that drift out of the ratios.
            let mut samples: Vec<Vec<f64>> = vec![Vec::new(); candidates.len() + 1];
            for round in 0..=scale.reps {
                for (k, &imp) in candidates.iter().enumerate() {
                    let t0 = std::time::Instant::now();
                    let out = run_scan(imp, &preds, OutputMode::Count).expect("static scan");
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    assert_eq!(out.count(), expected, "{} wrong result", imp.name());
                    if round > 0 {
                        samples[k].push(ms);
                    }
                }
                let t0 = std::time::Instant::now();
                let (out, _, report) = run_scan_adaptive(
                    &preds,
                    OutputMode::Count,
                    &profile,
                    &cfg,
                    TelemetryLevel::Off,
                )
                .expect("adaptive scan");
                let adaptive_ms = t0.elapsed().as_secs_f64() * 1e3;
                assert_eq!(out.count(), expected, "adaptive wrong result");
                if let Some(w) = report.calibration.winner {
                    winner = w;
                }
                if round > 0 {
                    samples[candidates.len()].push(adaptive_ms);
                }
            }

            let mut best = f64::INFINITY;
            let mut worst: f64 = 0.0;
            for (k, &imp) in candidates.iter().enumerate() {
                let ms = median(&mut samples[k]);
                best = best.min(ms);
                worst = worst.max(ms);
                fig.push(&format!("{} P{p}", imp.name()), sel, &[("median_ms", ms)]);
            }
            let ms = median(&mut samples[candidates.len()]);
            fig.push(
                &format!("adaptive P{p}"),
                sel,
                &[
                    ("median_ms", ms),
                    ("best_static_ms", best),
                    ("worst_static_ms", worst),
                    ("ratio_vs_best", ms / best),
                    ("ratio_vs_worst", ms / worst),
                ],
            );
            fig.config(&format!("winner_p{p}_sel{sel}"), winner.name());
            eprintln!(
                "  [P{p} sel={sel}] adaptive {ms:.2}ms vs best {best:.2}ms / worst {worst:.2}ms \
                 (winner {}) in {:.1}s",
                winner.name(),
                point_started.elapsed().as_secs_f64()
            );
        }
    }

    encoding_sweep(scale, &mut fig);
    fig
}

/// The encoding axis: the same logical two-predicate chain over plain
/// 32-bit values and over bit-packed value ids at 4/8/16 bits, measured
/// (adaptive plain, best static plain, compressed-domain kernel) and
/// modeled (`estimate_cost` vs `estimate_packed_cost`). The model's
/// bandwidth term is what makes the packed kernel win at narrow widths,
/// which is exactly what the measurements should confirm on a
/// bandwidth-bound host.
fn encoding_sweep(scale: &Scale, fig: &mut FigureResult) {
    if !driver_available(true) {
        return;
    }
    let rows = scale.rows;
    let cfg = bench_adaptive_config(rows);
    let peak = fts_core::stride::peak_bandwidth_gbps();
    for bits in [4u8, 8, 16] {
        // ~10 % of rows match the first needle, ~50 % the second, entirely
        // inside the packed domain (values fit in `bits`).
        let mask = fts_storage::mask_of(bits);
        let needle0 = mask / 2;
        let needle1 = mask.saturating_sub(1).max(needle0 ^ 1);
        let mix = |i: usize, salt: u32| {
            (i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(salt)
                .rotate_left(13)
        };
        let dodge = |v: u32, needle: u32| if v == needle { v ^ 1 } else { v };
        let col0: Vec<u32> = (0..rows)
            .map(|i| {
                if mix(i, 1) % 10 == 0 {
                    needle0
                } else {
                    dodge(mix(i, 2) & mask, needle0)
                }
            })
            .collect();
        let col1: Vec<u32> = (0..rows)
            .map(|i| {
                if mix(i, 3) % 2 == 0 {
                    needle1
                } else {
                    dodge(mix(i, 4) & mask, needle1)
                }
            })
            .collect();
        let preds = [
            TypedPred::eq(&col0[..], needle0),
            TypedPred::eq(&col1[..], needle1),
        ];
        let expected = fts_core::reference::scan_count(&preds);

        let plain_profile = ChainProfile {
            rows: rows as u64,
            preds: vec![PredProfile::plain_u32(0.1), PredProfile::plain_u32(0.5)],
        };
        let packed_profile = ChainProfile {
            rows: rows as u64,
            preds: plain_profile
                .preds
                .iter()
                .map(|p| PredProfile {
                    encoding: Encoding::Packed { bits },
                    ..*p
                })
                .collect(),
        };
        let model_plain =
            estimate_cost(ScanImpl::FusedAvx512(RegWidth::W512), &plain_profile, peak);
        let model_packed = estimate_packed_cost(&packed_profile, peak);

        let ms = median_ms(scale.reps, || {
            let (out, _, _) = run_scan_adaptive(
                &preds,
                OutputMode::Count,
                &plain_profile,
                &cfg,
                TelemetryLevel::Off,
            )
            .expect("adaptive scan");
            assert_eq!(out.count(), expected);
        });
        fig.push(
            "adaptive (plain 32-bit)",
            bits as f64,
            &[("median_ms", ms), ("model_est_ns", model_plain.est_ns)],
        );

        let packed: Vec<PackedColumn> = [&col0, &col1]
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
                ("model_est_ns", model_packed.est_ns),
                ("compression", packed[0].compression_ratio()),
            ],
        );
        eprintln!("  [encoding bits={bits}] packed {ms:.2}ms");
    }
}

/// The acceptance numbers over a finished sweep: the worst
/// `ratio_vs_best` (must stay ≤ 1.05 for "within 5 % of the best static
/// kernel at every point") and the worst `ratio_vs_worst` (must stay < 1
/// for "strictly beats the worst") across every adaptive point.
pub fn acceptance(fig: &FigureResult) -> Option<(f64, f64)> {
    let mut max_vs_best = f64::NEG_INFINITY;
    let mut max_vs_worst = f64::NEG_INFINITY;
    let mut seen = false;
    for s in &fig.series {
        if !s.label.starts_with("adaptive P") {
            continue;
        }
        for p in &s.points {
            if let (Some(b), Some(w)) = (
                p.metrics.get("ratio_vs_best"),
                p.metrics.get("ratio_vs_worst"),
            ) {
                seen = true;
                max_vs_best = max_vs_best.max(*b);
                max_vs_worst = max_vs_worst.max(*w);
            }
        }
    }
    seen.then_some((max_vs_best, max_vs_worst))
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
    fn adaptive_sweep_runs_at_tiny_scale() {
        let fig = bench_adaptive(&tiny());
        // One adaptive series per chain length, each covering the axis.
        for p in CHAIN_LENGTHS {
            let s = fig
                .series
                .iter()
                .find(|s| s.label == format!("adaptive P{p}"))
                .expect("adaptive series");
            assert_eq!(s.points.len(), ADAPTIVE_SELECTIVITIES.len());
            for pt in &s.points {
                assert!(pt.metrics["median_ms"] > 0.0);
                // Adaptive can legitimately beat the best static median
                // (interleaved timing, morselized execution), so only
                // sanity-check the ratios.
                assert!(pt.metrics["ratio_vs_best"] > 0.0);
            }
        }
        // Every static candidate produced a series per chain length.
        let statics = candidate_scan_impls::<u32>().len();
        let static_series = fig
            .series
            .iter()
            .filter(|s| s.label.ends_with("P2") && !s.label.starts_with("adaptive"))
            .count();
        assert_eq!(static_series, statics);
        let (vs_best, vs_worst) = acceptance(&fig).expect("adaptive points present");
        assert!(vs_best.is_finite());
        assert!(vs_worst.is_finite());
        // Encoding section rides along when the packed kernel exists.
        if driver_available(true) {
            assert!(fig.series.iter().any(|s| s.label == "bit-packed fused"));
        }
    }

    #[test]
    fn morsels_scale_with_rows() {
        assert_eq!(morsel_rows_for(16_000_000), DEFAULT_MORSEL_ROWS);
        assert!(morsel_rows_for(1_000_000) < DEFAULT_MORSEL_ROWS);
        assert_eq!(morsel_rows_for(0), 1 << 10);
    }
}
