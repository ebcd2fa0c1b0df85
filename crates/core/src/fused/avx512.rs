//! AVX-512 Fused Table Scan kernels at 128 and 256 bits (paper §III,
//! Fig. 3).
//!
//! One kernel per (element kind × register width); Fig. 5 and the
//! calibrator's candidate list compare these narrower widths against the
//! 512-bit kernel, which is [`crate::fused::driver`]. All six use the same
//! engine skeleton as [`crate::fused::scalar`]; the instruction mapping is
//! exactly the paper's:
//!
//! | step | instruction |
//! |------|-------------|
//! | block load            | `vmovdqu32` (`_mm*_loadu_epi32`), masked for the tail |
//! | driver compare        | `vpcmpud`/`vpcmpd`/`vcmpps` → k-mask |
//! | offsets → position list | `vpcompressd` (`_mm*_maskz_compress_epi32`) |
//! | append to list        | `vpermt2d` (`_mm*_permutex2var_epi32`) with a per-length control |
//! | follow-up fetch       | `vpgatherdd` masked (`_mm*_mmask_i32gather_epi32`) |
//! | follow-up compare     | masked `vpcmpud`/… keeping the bitmask in `k` registers |
//!
//! Values are carried in integer registers regardless of element kind —
//! `f32` only reinterprets the lanes at the compare (`vcmpps` on the same
//! bits), so the whole position-list machinery is shared.
//!
//! The safe wrappers panic unless [`fts_simd::has_avx512`] holds; the
//! engine layer ([`crate::engine`]) routes around that.

#![cfg(target_arch = "x86_64")]
#![allow(unsafe_op_in_unsafe_fn)] // one kernel = one contiguous unsafe context

use std::arch::x86_64::*;

use fts_simd::has_avx512;
use fts_storage::{CmpOp, NativeType, PosList};

use crate::fused::{MAX_PREDICATES, MERGE4, MERGE8};
use crate::pred::{OutputMode, ScanOutput, TypedPred};

/// 32-bit element kinds the kernels support: the lane bits plus which
/// compare family interprets them.
pub trait Elem32: NativeType {
    /// The lane's raw bits as `i32` (what `vpbroadcastd` wants).
    fn bits(self) -> i32;
}

impl Elem32 for u32 {
    #[inline(always)]
    fn bits(self) -> i32 {
        self as i32
    }
}

impl Elem32 for i32 {
    #[inline(always)]
    fn bits(self) -> i32 {
        self
    }
}

impl Elem32 for f32 {
    #[inline(always)]
    fn bits(self) -> i32 {
        self.to_bits() as i32
    }
}

static IOTA4: [u32; 4] = [0, 1, 2, 3];
static IOTA8: [u32; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

// --- the kernel skeleton ------------------------------------------------

/// One module per element kind at one register width: the width fixes
/// the vector intrinsics, each kind brings its masked compare.
macro_rules! avx512_width {
    ($lanes:expr, $vec:ty, $mask:ty,
     $loadu:ident, $maskz_loadu:ident, $storeu:ident, $set1:ident, $setzero:ident,
     $maskz_compress:ident, $permutex2var:ident, $add:ident, $gather:ident,
     $iota:ident, $merge:ident,
     $($modname:ident: $elem:ty => |$ck:ident, $cop:ident, $ca:ident, $cb:ident| $cmp:expr;)*) => {$(
        /// One width × element-kind instantiation of the fused kernel.
        pub mod $modname {
            use super::*;

            /// Lanes per register.
            pub const LANES: usize = $lanes;

            #[inline]
            #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq")]
            unsafe fn mask_cmp($ck: $mask, $cop: CmpOp, $ca: $vec, $cb: $vec) -> $mask {
                $cmp
            }

            struct State<'a> {
                cols: &'a [&'a [$elem]],
                ops: &'a [CmpOp],
                nsplat: [$vec; MAX_PREDICATES],
                plists: [$vec; MAX_PREDICATES],
                counts: [usize; MAX_PREDICATES],
                out: Vec<u32>,
                total: u64,
            }

            /// Append `fresh[..m]` (left-aligned, zero-padded) to stage `s`.
            #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
            unsafe fn push<const EMIT: bool>(st: &mut State<'_>, s: usize, fresh: $vec, m: usize) {
                if st.counts[s] + m > LANES {
                    // Process the incomplete list first, then start a new
                    // list with the batch (paper §III).
                    flush::<EMIT>(st, s);
                    st.plists[s] = fresh;
                    st.counts[s] = m;
                } else {
                    let ctl = $loadu($merge[st.counts[s]].as_ptr() as *const i32);
                    st.plists[s] = $permutex2var(st.plists[s], ctl, fresh);
                    st.counts[s] += m;
                }
                if st.counts[s] == LANES {
                    flush::<EMIT>(st, s);
                }
            }

            /// Gather + masked compare the pending positions of stage `s`,
            /// forwarding survivors to stage `s + 1` (or the output).
            #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
            unsafe fn flush<const EMIT: bool>(st: &mut State<'_>, s: usize) {
                let c = st.counts[s];
                if c == 0 {
                    return;
                }
                let plist = st.plists[s];
                st.plists[s] = $setzero();
                st.counts[s] = 0;

                let km = (fts_simd::model::lane_mask(c) as $mask);
                let col = st.cols[s + 1];
                let vals = $gather::<4>($setzero(), km, plist, col.as_ptr() as *const i32);
                let k2 = mask_cmp(km, st.ops[s + 1], vals, st.nsplat[s + 1]);
                let m2 = (k2 as u32).count_ones() as usize;
                if m2 == 0 {
                    return;
                }
                let fresh2 = $maskz_compress(k2, plist);
                if s + 2 == st.cols.len() {
                    emit::<EMIT>(st, fresh2, m2);
                } else {
                    push::<EMIT>(st, s + 1, fresh2, m2);
                }
            }

            #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
            unsafe fn emit<const EMIT: bool>(st: &mut State<'_>, fresh: $vec, m: usize) {
                st.total += m as u64;
                if EMIT {
                    let len = st.out.len();
                    st.out.reserve(LANES);
                    $storeu(st.out.as_mut_ptr().add(len) as *mut i32, fresh);
                    st.out.set_len(len + m);
                }
            }

            #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
            unsafe fn kernel<const EMIT: bool>(
                cols: &[&[$elem]],
                ops: &[CmpOp],
                needles: &[$elem],
            ) -> (u64, Vec<u32>) {
                let p = cols.len();
                let rows = cols[0].len();
                let mut st = State {
                    cols,
                    ops,
                    nsplat: std::array::from_fn(|i| {
                        $set1(needles.get(i).map_or(0, |n| Elem32::bits(*n)))
                    }),
                    plists: [$setzero(); MAX_PREDICATES],
                    counts: [0; MAX_PREDICATES],
                    out: Vec::new(),
                    total: 0,
                };
                let col0 = cols[0].as_ptr() as *const i32;
                let op0 = ops[0];
                let needle0 = st.nsplat[0];
                let iota = $loadu($iota.as_ptr() as *const i32);

                let full_blocks = rows / LANES;
                for blk in 0..full_blocks {
                    let v = $loadu(col0.add(blk * LANES));
                    let k = mask_cmp(<$mask>::MAX, op0, v, needle0);
                    if k == 0 {
                        continue;
                    }
                    let m = (k as u32).count_ones() as usize;
                    let idx = $add(iota, $set1((blk * LANES) as i32));
                    let fresh = $maskz_compress(k, idx);
                    if p == 1 {
                        emit::<EMIT>(&mut st, fresh, m);
                    } else {
                        push::<EMIT>(&mut st, 0, fresh, m);
                    }
                }

                let tail = rows % LANES;
                if tail != 0 {
                    let base = full_blocks * LANES;
                    let kt = fts_simd::model::lane_mask(tail) as $mask;
                    let v = $maskz_loadu(kt, col0.add(base));
                    let k = mask_cmp(kt, op0, v, needle0);
                    if k != 0 {
                        let m = (k as u32).count_ones() as usize;
                        let idx = $add(iota, $set1(base as i32));
                        let fresh = $maskz_compress(k, idx);
                        if p == 1 {
                            emit::<EMIT>(&mut st, fresh, m);
                        } else {
                            push::<EMIT>(&mut st, 0, fresh, m);
                        }
                    }
                }

                // Drain partial lists in ascending stage order.
                for s in 0..p.saturating_sub(1) {
                    flush::<EMIT>(&mut st, s);
                }
                (st.total, st.out)
            }

            /// Safe entry point. Panics without AVX-512 or on an invalid
            /// chain (ragged columns, > [`MAX_PREDICATES`] predicates).
            pub fn fused_scan(preds: &[TypedPred<'_, $elem>], mode: OutputMode) -> ScanOutput {
                assert!(has_avx512(), "AVX-512 not available on this host");
                assert!(
                    preds.len() <= MAX_PREDICATES,
                    "chain too long for one fused kernel"
                );
                let empty = match mode {
                    OutputMode::Count => ScanOutput::Count(0),
                    OutputMode::Positions => ScanOutput::Positions(PosList::new()),
                };
                let Some(first) = preds.first() else {
                    return empty;
                };
                let rows = first.data.len();
                for p in preds {
                    assert_eq!(p.data.len(), rows, "chain columns must have equal length");
                }
                assert!(
                    rows <= i32::MAX as usize,
                    "chunk exceeds 32-bit gather index range"
                );

                let cols: Vec<&[$elem]> = preds.iter().map(|p| p.data).collect();
                let ops: Vec<CmpOp> = preds.iter().map(|p| p.op).collect();
                let needles: Vec<$elem> = preds.iter().map(|p| p.needle).collect();
                // SAFETY: AVX-512 presence asserted; columns validated.
                match mode {
                    OutputMode::Count => {
                        let (total, _) = unsafe { kernel::<false>(&cols, &ops, &needles) };
                        ScanOutput::Count(total)
                    }
                    OutputMode::Positions => {
                        let (_, out) = unsafe { kernel::<true>(&cols, &ops, &needles) };
                        ScanOutput::Positions(PosList::from_vec(out))
                    }
                }
            }
        }
    )*};
}

avx512_width!(
    4, __m128i, __mmask8,
    _mm_loadu_epi32, _mm_maskz_loadu_epi32, _mm_storeu_epi32, _mm_set1_epi32, _mm_setzero_si128,
    _mm_maskz_compress_epi32, _mm_permutex2var_epi32, _mm_add_epi32, _mm_mmask_i32gather_epi32,
    IOTA4, MERGE4,
    u32_w128: u32 => |k, op, a, b| int_cmp!(op, _mm_mask_cmp_epu32_mask(k, a, b));
    i32_w128: i32 => |k, op, a, b| int_cmp!(op, _mm_mask_cmp_epi32_mask(k, a, b));
    f32_w128: f32 => |k, op, a, b| {
        float_cmp!(op, _mm_mask_cmp_ps_mask(k, _mm_castsi128_ps(a), _mm_castsi128_ps(b)))
    };
);

avx512_width!(
    8, __m256i, __mmask8,
    _mm256_loadu_epi32, _mm256_maskz_loadu_epi32, _mm256_storeu_epi32, _mm256_set1_epi32,
    _mm256_setzero_si256, _mm256_maskz_compress_epi32, _mm256_permutex2var_epi32,
    _mm256_add_epi32, _mm256_mmask_i32gather_epi32,
    IOTA8, MERGE8,
    u32_w256: u32 => |k, op, a, b| int_cmp!(op, _mm256_mask_cmp_epu32_mask(k, a, b));
    i32_w256: i32 => |k, op, a, b| int_cmp!(op, _mm256_mask_cmp_epi32_mask(k, a, b));
    f32_w256: f32 => |k, op, a, b| {
        float_cmp!(op, _mm256_mask_cmp_ps_mask(k, _mm256_castsi256_ps(a), _mm256_castsi256_ps(b)))
    };
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::driver::{driver_available, fused_scan, ChainPred};
    use crate::reference;

    fn skip() -> bool {
        if !driver_available(false) {
            eprintln!("skipping: no AVX-512 on this host");
            return true;
        }
        false
    }

    /// The 512-bit width is the fused driver.
    fn w512<'a, T: Copy>(preds: &[TypedPred<'a, T>], mode: OutputMode) -> ScanOutput
    where
        ChainPred<'a>: From<TypedPred<'a, T>>,
    {
        let chain: Vec<ChainPred<'a>> = preds.iter().map(|&p| p.into()).collect();
        fused_scan(&chain, mode).unwrap()
    }

    fn check_u32(preds: &[TypedPred<'_, u32>]) {
        let expected = reference::scan_positions(preds);
        for (name, out) in [
            ("w128", u32_w128::fused_scan(preds, OutputMode::Positions)),
            ("w256", u32_w256::fused_scan(preds, OutputMode::Positions)),
            ("w512", w512(preds, OutputMode::Positions)),
        ] {
            assert_eq!(out.positions().unwrap(), &expected, "{name} positions");
        }
        for (name, out) in [
            ("w128", u32_w128::fused_scan(preds, OutputMode::Count)),
            ("w256", u32_w256::fused_scan(preds, OutputMode::Count)),
            ("w512", w512(preds, OutputMode::Count)),
        ] {
            assert_eq!(out.count(), expected.len() as u64, "{name} count");
        }
    }

    #[test]
    fn figure3_worked_example() {
        if skip() {
            return;
        }
        let a = [2u32, 5, 4, 5, 6, 1, 5, 7, 6, 8, 5, 3, 5, 9, 9, 5];
        let b = [5u32, 2, 3, 1, 1, 3, 6, 0, 8, 7, 3, 3, 2, 9, 3, 2];
        let preds = [TypedPred::eq(&a[..], 5), TypedPred::eq(&b[..], 2)];
        let out = u32_w128::fused_scan(&preds, OutputMode::Positions);
        assert_eq!(out.positions().unwrap().as_slice(), &[1, 12, 15]);
        check_u32(&preds);
    }

    #[test]
    fn all_operator_pairs() {
        if skip() {
            return;
        }
        let a: Vec<u32> = (0..400).map(|i| i % 13).collect();
        let b: Vec<u32> = (0..400).map(|i| (i * 11) % 7).collect();
        for op0 in CmpOp::ALL {
            for op1 in CmpOp::ALL {
                let preds = [
                    TypedPred::new(&a[..], op0, 6u32),
                    TypedPred::new(&b[..], op1, 3u32),
                ];
                check_u32(&preds);
            }
        }
    }

    #[test]
    fn chains_one_to_five() {
        if skip() {
            return;
        }
        let cols: Vec<Vec<u32>> = (0..5u32)
            .map(|c| (0..900u32).map(|i| i.wrapping_mul(c + 7) % 3).collect())
            .collect();
        for p in 1..=5 {
            let preds: Vec<TypedPred<'_, u32>> =
                cols[..p].iter().map(|c| TypedPred::eq(&c[..], 1)).collect();
            check_u32(&preds);
        }
    }

    #[test]
    fn tails_and_tiny_inputs() {
        if skip() {
            return;
        }
        for rows in [
            0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65,
        ] {
            let a: Vec<u32> = (0..rows as u32).map(|i| i % 3).collect();
            let b: Vec<u32> = (0..rows as u32).map(|i| i % 2).collect();
            let preds = [TypedPred::eq(&a[..], 0), TypedPred::eq(&b[..], 1)];
            check_u32(&preds);
        }
    }

    #[test]
    fn extreme_selectivities() {
        if skip() {
            return;
        }
        let rows = 2000usize;
        let all: Vec<u32> = vec![5; rows];
        let none: Vec<u32> = vec![4; rows];
        let half: Vec<u32> = (0..rows as u32).map(|i| 4 + i % 2).collect();
        for (a, b) in [
            (&all, &half),
            (&half, &all),
            (&all, &none),
            (&none, &all),
            (&all, &all),
        ] {
            let preds = [TypedPred::eq(&a[..], 5u32), TypedPred::eq(&b[..], 5u32)];
            check_u32(&preds);
        }
    }

    #[test]
    fn signed_kernel_negative_values() {
        if skip() {
            return;
        }
        let a: Vec<i32> = (0..500).map(|i| (i % 9) - 4).collect();
        let b: Vec<i32> = (0..500).map(|i| (i % 5) - 2).collect();
        for op in CmpOp::ALL {
            let preds = [
                TypedPred::new(&a[..], op, 0i32),
                TypedPred::new(&b[..], CmpOp::Ge, -1i32),
            ];
            let expected = reference::scan_positions(&preds);
            for out in [
                i32_w128::fused_scan(&preds, OutputMode::Positions),
                i32_w256::fused_scan(&preds, OutputMode::Positions),
                w512(&preds, OutputMode::Positions),
            ] {
                assert_eq!(out.positions().unwrap(), &expected, "{op}");
            }
        }
    }

    #[test]
    fn float_kernel_with_nan() {
        if skip() {
            return;
        }
        let mut a: Vec<f32> = (0..300).map(|i| (i % 7) as f32).collect();
        a[13] = f32::NAN;
        a[250] = f32::NAN;
        let b: Vec<f32> = (0..300).map(|i| (i % 3) as f32 - 1.0).collect();
        for op in CmpOp::ALL {
            let preds = [
                TypedPred::new(&a[..], op, 3.0f32),
                TypedPred::new(&b[..], CmpOp::Lt, 1.0f32),
            ];
            let expected = reference::scan_positions(&preds);
            for out in [
                f32_w128::fused_scan(&preds, OutputMode::Positions),
                f32_w256::fused_scan(&preds, OutputMode::Positions),
                w512(&preds, OutputMode::Positions),
            ] {
                assert_eq!(out.positions().unwrap(), &expected, "{op}");
            }
        }
    }
}
