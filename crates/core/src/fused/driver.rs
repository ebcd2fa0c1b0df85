//! The 512-bit fused driver: the one AVX-512 (zmm) Fused Table Scan
//! kernel, for every column layout that shares the paper's position-list
//! algorithm (§III). The driver compares 16-row blocks and compresses the
//! matching offsets into a position list; each later stage gathers its
//! column at the listed positions. Layouts differ only in how a block is
//! loaded and how a stage gathers:
//!
//! * **Plain 32-bit** (`u32`, `i32`, `f32`; dictionary value ids are plain
//!   `u32`): one 16-lane load per block and one `vpgatherdd` per flush,
//!   compared with the element's own family (`vpcmpud`, `vpcmpd`,
//!   `vcmpps`).
//! * **Plain 64-bit** (`u64`, `i64`, `f64`): as driver, a block is two
//!   8-lane loads whose masks concatenate into one 16-lane mask. As a
//!   follower, the 16-entry list is split into two `vpgatherdq` halves and
//!   the two 8-bit masks recombine. This is §V's case: "the JIT compiler
//!   has to split the list of indexes and perform twice the number of
//!   iterations".
//! * **Bit-packed** (§VII): as driver with widths ≤ 16 bits, one masked
//!   word load per block, two `vpermd` word selections and the VBMI2
//!   funnel shift `vpshrdvd` unpack the block; wider drivers unpack the
//!   block scalar-side. As a follower, positions are multiplied by the
//!   width, two `vpgatherdd` fetch each value's word pair (the pack
//!   buffer's guard word keeps `word + 1` readable) and the same funnel
//!   shift extracts the value. Values are unsigned; literals above the
//!   width's maximum resolve to constant outcomes before the kernel runs.
//!
//! The block loop is monomorphized over the driver's source kind and
//! compare family, so a plain chain has no per-block dispatch. Followers
//! pick their gather with one `match` per flush. Plain-only chains need
//! AVX-512 F/VL/BW/DQ; the VBMI2 code sits in two functions that only a
//! packed source reaches, so VBMI2 is required only when one is present.
//! Rows past the last full block are evaluated row-wise after the drain.

use fts_simd::SimdLevel;
use fts_storage::bitpack::{mask_of, PackedColumn};
use fts_storage::{CmpOp, Column, DataType, NativeType, PosList, Value};

use crate::fused::MAX_PREDICATES;
use crate::pred::{OutputMode, ScanOutput, TypedPred};

/// Rows per block, and entries per position list (one zmm of `u32`).
pub const LANES: usize = 16;

/// One predicate of a driver chain: a plain 32- or 64-bit column, or a
/// bit-packed column compared in its unsigned domain.
#[derive(Debug, Clone, Copy)]
pub enum ChainPred<'a> {
    /// Plain `u32` column (dictionary value ids included).
    U32(TypedPred<'a, u32>),
    /// Plain `i32` column.
    I32(TypedPred<'a, i32>),
    /// Plain `f32` column.
    F32(TypedPred<'a, f32>),
    /// Plain `u64` column.
    U64(TypedPred<'a, u64>),
    /// Plain `i64` column.
    I64(TypedPred<'a, i64>),
    /// Plain `f64` column.
    F64(TypedPred<'a, f64>),
    /// Bit-packed column.
    Packed {
        /// The packed column.
        col: &'a PackedColumn,
        /// Comparison operator.
        op: CmpOp,
        /// Literal (any `u32`; out-of-domain literals resolve statically).
        needle: u32,
    },
}

macro_rules! from_typed {
    ($($t:ty => $variant:ident),*) => {$(
        impl<'a> From<TypedPred<'a, $t>> for ChainPred<'a> {
            fn from(p: TypedPred<'a, $t>) -> Self {
                ChainPred::$variant(p)
            }
        }
    )*};
}

from_typed!(u32 => U32, i32 => I32, f32 => F32, u64 => U64, i64 => I64, f64 => F64);

/// Apply `$body` to the `TypedPred` inside any plain variant, or `$packed`
/// to a packed one.
macro_rules! with_plain {
    ($pred:expr, |$p:ident| $body:expr, |$col:ident, $op:ident, $needle:ident| $packed:expr) => {
        match $pred {
            ChainPred::U32($p) => $body,
            ChainPred::I32($p) => $body,
            ChainPred::F32($p) => $body,
            ChainPred::U64($p) => $body,
            ChainPred::I64($p) => $body,
            ChainPred::F64($p) => $body,
            ChainPred::Packed {
                col: $col,
                op: $op,
                needle: $needle,
            } => $packed,
        }
    };
}

impl<'a> ChainPred<'a> {
    /// Bind `column OP needle` for a plain column. `None` when the column
    /// has no driver source (8- and 16-bit types) or the needle's type
    /// differs from the column's.
    pub fn bind(column: &'a Column, op: CmpOp, needle: Value) -> Option<ChainPred<'a>> {
        fn typed<'a, T: NativeType>(
            c: &'a Column,
            op: CmpOp,
            v: Value,
        ) -> Option<TypedPred<'a, T>> {
            Some(TypedPred::new(c.as_native::<T>()?, op, T::from_value(v)?))
        }
        Some(match column.data_type() {
            DataType::U32 => ChainPred::U32(typed(column, op, needle)?),
            DataType::I32 => ChainPred::I32(typed(column, op, needle)?),
            DataType::F32 => ChainPred::F32(typed(column, op, needle)?),
            DataType::U64 => ChainPred::U64(typed(column, op, needle)?),
            DataType::I64 => ChainPred::I64(typed(column, op, needle)?),
            DataType::F64 => ChainPred::F64(typed(column, op, needle)?),
            _ => return None,
        })
    }

    /// Rows of the predicate's column.
    pub fn rows(&self) -> usize {
        with_plain!(self, |p| p.data.len(), |col, _op, _n| col.len())
    }

    /// Row-wise evaluation (the reference path).
    pub fn matches(&self, row: usize) -> bool {
        with_plain!(self, |p| p.matches(row), |col, op, needle| col
            .get(row)
            .cmp_op(*op, *needle))
    }

    /// Whether the column is bit-packed (needs AVX-512 VBMI2).
    pub fn is_packed(&self) -> bool {
        matches!(self, ChainPred::Packed { .. })
    }

    /// Bits one row of the column occupies (the telemetry byte model).
    pub fn bits_per_row(&self) -> u64 {
        match self {
            ChainPred::U32(_) | ChainPred::I32(_) | ChainPred::F32(_) => 32,
            ChainPred::U64(_) | ChainPred::I64(_) | ChainPred::F64(_) => 64,
            ChainPred::Packed { col, .. } => col.bits() as u64,
        }
    }
}

/// Why the driver could not run a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// More than [`MAX_PREDICATES`] predicates.
    ChainTooLong(usize),
    /// Columns disagree on the row count.
    LengthMismatch,
    /// The rows (or, for a packed column, `rows * bits`) exceed the 32-bit
    /// index range the gathers use.
    ColumnTooLarge,
    /// AVX-512 is unavailable or capped by `FTS_FORCE_SIMD`, or the chain
    /// has a packed column and the host lacks VBMI2.
    IsaUnavailable,
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::ChainTooLong(n) => {
                write!(f, "{n} predicates exceed the fused-kernel limit")
            }
            DriverError::LengthMismatch => write!(f, "columns have different lengths"),
            DriverError::ColumnTooLarge => {
                write!(f, "column exceeds the 32-bit gather index range")
            }
            DriverError::IsaUnavailable => {
                write!(f, "AVX-512 (VBMI2 for packed columns) unavailable")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// Whether the driver may run on this host: AVX-512 as reported by
/// [`fts_simd::detect()`] (so `FTS_FORCE_SIMD` caps it), plus VBMI2 when the
/// chain has a packed column.
pub fn driver_available(packed: bool) -> bool {
    fts_simd::detect() >= SimdLevel::Avx512 && (!packed || has_vbmi2())
}

fn has_vbmi2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512vbmi2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A packed literal resolved against the column's width.
enum Resolved {
    Never,
    Always,
    Keep,
}

fn resolve(op: CmpOp, needle: u32, bits: u8) -> Resolved {
    if needle <= mask_of(bits) {
        return Resolved::Keep;
    }
    // Every stored value is <= mask < needle.
    match op {
        CmpOp::Eq | CmpOp::Gt | CmpOp::Ge => Resolved::Never,
        CmpOp::Ne | CmpOp::Lt | CmpOp::Le => Resolved::Always,
    }
}

/// Run a fused scan over any chain of plain 32/64-bit and bit-packed
/// columns.
///
/// ```
/// use fts_core::fused::driver::{driver_available, fused_scan, ChainPred};
/// use fts_core::{reference, OutputMode, TypedPred};
///
/// let a: Vec<u32> = (0..100).map(|i| i % 10).collect();
/// let b: Vec<i64> = (0..100).map(|i| i % 4 - 2).collect();
/// let chain = [
///     ChainPred::from(TypedPred::eq(&a[..], 5)),
///     ChainPred::from(TypedPred::eq(&b[..], -1)),
/// ];
/// if driver_available(false) {
///     let out = fused_scan(&chain, OutputMode::Positions).unwrap();
///     assert_eq!(out.positions().unwrap(), &reference::scan_chain(&chain));
/// }
/// ```
pub fn fused_scan(preds: &[ChainPred<'_>], mode: OutputMode) -> Result<ScanOutput, DriverError> {
    if preds.len() > MAX_PREDICATES {
        return Err(DriverError::ChainTooLong(preds.len()));
    }
    if !driver_available(preds.iter().any(ChainPred::is_packed)) {
        return Err(DriverError::IsaUnavailable);
    }
    let empty = match mode {
        OutputMode::Count => ScanOutput::Count(0),
        OutputMode::Positions => ScanOutput::Positions(PosList::new()),
    };
    let Some(first) = preds.first() else {
        return Ok(empty);
    };
    let rows = first.rows();
    if preds.iter().any(|p| p.rows() != rows) {
        return Err(DriverError::LengthMismatch);
    }
    if rows > i32::MAX as usize {
        return Err(DriverError::ColumnTooLarge);
    }

    // Resolve out-of-domain packed literals: drop Always predicates,
    // short-circuit on Never.
    let mut live = Vec::with_capacity(preds.len());
    for p in preds {
        if let ChainPred::Packed { col, op, needle } = p {
            match resolve(*op, *needle, col.bits()) {
                Resolved::Never => return Ok(empty),
                Resolved::Always => continue,
                Resolved::Keep => {}
            }
            if rows as u64 * col.bits() as u64 >= 1 << 31 {
                return Err(DriverError::ColumnTooLarge);
            }
        }
        live.push(*p);
    }
    if live.is_empty() {
        return Ok(match mode {
            OutputMode::Count => ScanOutput::Count(rows as u64),
            OutputMode::Positions => ScanOutput::Positions((0..rows as u32).collect()),
        });
    }

    let (mut total, mut out) = simd::run(&live, rows, mode == OutputMode::Positions);
    for row in rows / LANES * LANES..rows {
        if live.iter().all(|p| p.matches(row)) {
            total += 1;
            if mode == OutputMode::Positions {
                out.push(row as u32);
            }
        }
    }
    Ok(match mode {
        OutputMode::Count => ScanOutput::Count(total),
        OutputMode::Positions => ScanOutput::Positions(PosList::from_vec(out)),
    })
}

#[cfg(not(target_arch = "x86_64"))]
mod simd {
    use super::ChainPred;

    pub(super) fn run(_: &[ChainPred<'_>], _: usize, _: bool) -> (u64, Vec<u32>) {
        unreachable!("driver_available() is false off x86_64")
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_op_in_unsafe_fn)] // one kernel = one contiguous unsafe context
mod simd {
    use std::arch::x86_64::*;

    use fts_simd::model::lane_mask;
    use fts_storage::bitpack::mask_of;
    use fts_storage::CmpOp;

    use super::{ChainPred, LANES};
    use crate::fused::{MAX_PREDICATES, MERGE16};

    static IOTA16: [u32; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

    // Compare families and source kinds, as const-generic parameters.
    const UNSIGNED: u8 = 0;
    const SIGNED: u8 = 1;
    const FLOAT: u8 = 2;
    const PLAIN32: u8 = 0;
    const PLAIN64: u8 = 1;
    const PACKED: u8 = 2;

    /// Where a stage's values come from.
    enum Source<'a> {
        Plain32 { data: *const i32, family: u8 },
        Plain64 { data: *const i64, family: u8 },
        Packed { words: &'a [u32], bits: u32 },
    }

    struct Stage<'a> {
        src: Source<'a>,
        op: CmpOp,
        /// The literal's raw bits (zero-extended for 32-bit lanes).
        needle: u64,
    }

    fn stage<'a>(p: &ChainPred<'a>) -> Stage<'a> {
        fn plain32<T>(
            p: &crate::pred::TypedPred<'_, T>,
            family: u8,
            needle: u32,
        ) -> Stage<'static> {
            Stage {
                src: Source::Plain32 {
                    data: p.data.as_ptr() as *const i32,
                    family,
                },
                op: p.op,
                needle: needle as u64,
            }
        }
        fn plain64<T>(
            p: &crate::pred::TypedPred<'_, T>,
            family: u8,
            needle: u64,
        ) -> Stage<'static> {
            Stage {
                src: Source::Plain64 {
                    data: p.data.as_ptr() as *const i64,
                    family,
                },
                op: p.op,
                needle,
            }
        }
        match p {
            ChainPred::U32(p) => plain32(p, UNSIGNED, p.needle),
            ChainPred::I32(p) => plain32(p, SIGNED, p.needle as u32),
            ChainPred::F32(p) => plain32(p, FLOAT, p.needle.to_bits()),
            ChainPred::U64(p) => plain64(p, UNSIGNED, p.needle),
            ChainPred::I64(p) => plain64(p, SIGNED, p.needle as u64),
            ChainPred::F64(p) => plain64(p, FLOAT, p.needle.to_bits()),
            ChainPred::Packed { col, op, needle } => Stage {
                src: Source::Packed {
                    words: col.words(),
                    bits: col.bits() as u32,
                },
                op: *op,
                needle: *needle as u64,
            },
        }
    }

    #[derive(Clone, Copy)]
    struct UnpackCtl {
        idx_lo: [u32; 16],
        idx_hi: [u32; 16],
        offs: [u32; 16],
    }

    fn unpack_ctl(bits: u32, align: u32) -> UnpackCtl {
        let mut ctl = UnpackCtl {
            idx_lo: [0; 16],
            idx_hi: [0; 16],
            offs: [0; 16],
        };
        for i in 0..16 {
            let bit = align + i as u32 * bits;
            ctl.idx_lo[i] = bit / 32;
            ctl.idx_hi[i] = bit / 32 + 1;
            ctl.offs[i] = bit % 32;
        }
        ctl
    }

    /// Chain entry: build the stages and run the kernel instance for the
    /// driver's source kind and compare family.
    pub(super) fn run(preds: &[ChainPred<'_>], rows: usize, emit: bool) -> (u64, Vec<u32>) {
        let stages: Vec<Stage<'_>> = preds.iter().map(stage).collect();
        // SAFETY: the caller checked the ISA (VBMI2 when a packed source
        // is present) and the chain: equal lengths, 32-bit gather indexes,
        // ≤ MAX_PREDICATES stages; packed buffers carry their guard word.
        unsafe {
            if emit {
                dispatch::<true>(&stages, rows)
            } else {
                dispatch::<false>(&stages, rows)
            }
        }
    }

    /// # Safety
    ///
    /// The host has AVX-512 F/VL/BW/DQ, plus VBMI2 when a stage is packed.
    /// `stages` is non-empty and at most [`MAX_PREDICATES`] long; every
    /// plain stage's data and every packed stage's words (guard word
    /// included) cover `rows` rows, and `rows` (times the width, for a
    /// packed stage) fits a 32-bit gather index.
    #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
    unsafe fn dispatch<const EMIT: bool>(stages: &[Stage<'_>], rows: usize) -> (u64, Vec<u32>) {
        match stages[0].src {
            Source::Plain32 {
                family: UNSIGNED, ..
            } => kernel::<EMIT, PLAIN32, UNSIGNED>(stages, rows),
            Source::Plain32 { family: SIGNED, .. } => kernel::<EMIT, PLAIN32, SIGNED>(stages, rows),
            Source::Plain32 { .. } => kernel::<EMIT, PLAIN32, FLOAT>(stages, rows),
            Source::Plain64 {
                family: UNSIGNED, ..
            } => kernel::<EMIT, PLAIN64, UNSIGNED>(stages, rows),
            Source::Plain64 { family: SIGNED, .. } => kernel::<EMIT, PLAIN64, SIGNED>(stages, rows),
            Source::Plain64 { .. } => kernel::<EMIT, PLAIN64, FLOAT>(stages, rows),
            Source::Packed { .. } => kernel::<EMIT, PACKED, UNSIGNED>(stages, rows),
        }
    }

    // --- compare families -------------------------------------------------
    // `family` is a constant wherever the block loop calls these, so the
    // outer match folds away.

    /// # Safety
    ///
    /// The host has AVX-512 F/VL/BW/DQ.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq")]
    unsafe fn cmp32(family: u8, k: __mmask16, op: CmpOp, a: __m512i, b: __m512i) -> __mmask16 {
        match family {
            UNSIGNED => int_cmp!(op, _mm512_mask_cmp_epu32_mask(k, a, b)),
            SIGNED => int_cmp!(op, _mm512_mask_cmp_epi32_mask(k, a, b)),
            _ => float_cmp!(
                op,
                _mm512_mask_cmp_ps_mask(k, _mm512_castsi512_ps(a), _mm512_castsi512_ps(b))
            ),
        }
    }

    /// # Safety
    ///
    /// The host has AVX-512 F/VL/BW/DQ.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq")]
    unsafe fn cmp64(family: u8, k: __mmask8, op: CmpOp, a: __m512i, b: __m512i) -> __mmask8 {
        match family {
            UNSIGNED => int_cmp!(op, _mm512_mask_cmp_epu64_mask(k, a, b)),
            SIGNED => int_cmp!(op, _mm512_mask_cmp_epi64_mask(k, a, b)),
            _ => float_cmp!(
                op,
                _mm512_mask_cmp_pd_mask(k, _mm512_castsi512_pd(a), _mm512_castsi512_pd(b))
            ),
        }
    }

    // --- VBMI2: reached only through packed sources ------------------------

    /// Extract packed values at the listed positions (§VII's challenge):
    /// `bit = pos * bits`, the words at `bit >> 5` and its successor, and
    /// a funnel shift by `bit & 31`.
    ///
    /// # Safety
    ///
    /// The host has VBMI2; the positions under `km` are rows of the packed
    /// column `words` (guard word included), and `rows * bits < 2^31`.
    #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx512vbmi2")]
    unsafe fn gather_packed(
        words: *const i32,
        bits: u32,
        km: __mmask16,
        plist: __m512i,
    ) -> __m512i {
        let bit = _mm512_mullo_epi32(plist, _mm512_set1_epi32(bits as i32));
        let widx = _mm512_srli_epi32::<5>(bit);
        let off = _mm512_and_si512(bit, _mm512_set1_epi32(31));
        let lo = _mm512_mask_i32gather_epi32::<4>(_mm512_setzero_si512(), km, widx, words);
        let widx1 = _mm512_add_epi32(widx, _mm512_set1_epi32(1));
        let hi = _mm512_mask_i32gather_epi32::<4>(_mm512_setzero_si512(), km, widx1, words);
        let mask = _mm512_set1_epi32(mask_of(bits as u8) as i32);
        _mm512_and_si512(_mm512_shrdv_epi32(lo, hi, off), mask)
    }

    /// Load and unpack one 16-value block of a ≤ 16-bit packed column.
    ///
    /// # Safety
    ///
    /// The host has VBMI2, and `block` is a full block of the column.
    #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx512vbmi2")]
    unsafe fn unpack_block(
        words: &[u32],
        bits: u32,
        ctls: &[UnpackCtl; 2],
        block: usize,
    ) -> __m512i {
        let base_bit = block as u64 * 16 * bits as u64;
        let base_word = (base_bit / 32) as usize;
        let align = (base_bit % 32) as u32;
        let ctl = &ctls[(align / 16) as usize];
        // Words this block touches: ceil((align + 16*bits)/32) + 1 ≤ 10 for
        // bits ≤ 16; the masked load never reads past them.
        let wcnt = ((align + 16 * bits).div_ceil(32) + 1).min(16) as usize;
        let w = _mm512_maskz_loadu_epi32(
            lane_mask(wcnt) as __mmask16,
            words.as_ptr().add(base_word) as *const i32,
        );
        let lo = _mm512_permutexvar_epi32(_mm512_loadu_epi32(ctl.idx_lo.as_ptr() as *const i32), w);
        let hi = _mm512_permutexvar_epi32(_mm512_loadu_epi32(ctl.idx_hi.as_ptr() as *const i32), w);
        let off = _mm512_loadu_epi32(ctl.offs.as_ptr() as *const i32);
        let mask = _mm512_set1_epi32(mask_of(bits as u8) as i32);
        _mm512_and_si512(_mm512_shrdv_epi32(lo, hi, off), mask)
    }

    /// Unpack one block of a wide (> 16-bit) packed column scalar-side.
    fn unpack_block_scalar(words: &[u32], bits: u32, block: usize) -> [u32; 16] {
        std::array::from_fn(|i| {
            let bit = (block * LANES + i) as u64 * bits as u64;
            let word = (bit / 32) as usize;
            let w = words[word] as u64 | ((words[word + 1] as u64) << 32);
            (w >> (bit % 32)) as u32 & mask_of(bits as u8)
        })
    }

    // --- the position-list machinery -----------------------------------

    struct State<'a> {
        stages: &'a [Stage<'a>],
        nsplat: [__m512i; MAX_PREDICATES],
        plists: [__m512i; MAX_PREDICATES],
        counts: [usize; MAX_PREDICATES],
        out: Vec<u32>,
        total: u64,
    }

    /// Append `fresh[..m]` (left-aligned, zero-padded) to stage `s`.
    ///
    /// # Safety
    ///
    /// As for [`dispatch`].
    #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
    unsafe fn push<const EMIT: bool>(st: &mut State<'_>, s: usize, fresh: __m512i, m: usize) {
        if st.counts[s] + m > LANES {
            // Process the incomplete list first, then start a new list
            // with the batch (paper §III).
            flush::<EMIT>(st, s);
            st.plists[s] = fresh;
            st.counts[s] = m;
        } else {
            let ctl = _mm512_loadu_epi32(MERGE16[st.counts[s]].as_ptr() as *const i32);
            st.plists[s] = _mm512_permutex2var_epi32(st.plists[s], ctl, fresh);
            st.counts[s] += m;
        }
        if st.counts[s] == LANES {
            flush::<EMIT>(st, s);
        }
    }

    /// Gather + masked compare the pending positions of stage `s`,
    /// forwarding survivors to stage `s + 1` (or the output).
    ///
    /// # Safety
    ///
    /// As for [`dispatch`].
    #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
    unsafe fn flush<const EMIT: bool>(st: &mut State<'_>, s: usize) {
        let c = st.counts[s];
        if c == 0 {
            return;
        }
        let plist = st.plists[s];
        st.plists[s] = _mm512_setzero_si512();
        st.counts[s] = 0;

        let km = lane_mask(c) as __mmask16;
        let next = &st.stages[s + 1];
        let needle = st.nsplat[s + 1];
        let k2 = match next.src {
            Source::Plain32 { data, family } => {
                let vals =
                    _mm512_mask_i32gather_epi32::<4>(_mm512_setzero_si512(), km, plist, data);
                cmp32(family, km, next.op, vals, needle)
            }
            Source::Plain64 { data, family } => {
                // §V: split the list into two halves of eight dword
                // indexes, gather qwords for each, recombine the masks.
                let (k_lo, k_hi) = (km as __mmask8, (km >> 8) as __mmask8);
                let idx_lo = _mm512_castsi512_si256(plist);
                let vals =
                    _mm512_mask_i32gather_epi64::<8>(_mm512_setzero_si512(), k_lo, idx_lo, data);
                let m_lo = cmp64(family, k_lo, next.op, vals, needle);
                let m_hi = if k_hi == 0 {
                    0
                } else {
                    let idx_hi = _mm512_extracti64x4_epi64::<1>(plist);
                    let vals = _mm512_mask_i32gather_epi64::<8>(
                        _mm512_setzero_si512(),
                        k_hi,
                        idx_hi,
                        data,
                    );
                    cmp64(family, k_hi, next.op, vals, needle)
                };
                m_lo as __mmask16 | (m_hi as __mmask16) << 8
            }
            Source::Packed { words, bits } => {
                let vals = gather_packed(words.as_ptr() as *const i32, bits, km, plist);
                cmp32(UNSIGNED, km, next.op, vals, needle)
            }
        };
        let m2 = k2.count_ones() as usize;
        if m2 == 0 {
            return;
        }
        let fresh2 = _mm512_maskz_compress_epi32(k2, plist);
        if s + 2 == st.stages.len() {
            emit::<EMIT>(st, fresh2, m2);
        } else {
            push::<EMIT>(st, s + 1, fresh2, m2);
        }
    }

    /// Count `fresh[..m]` as matches and, when emitting, append them to
    /// the output.
    ///
    /// # Safety
    ///
    /// As for [`dispatch`].
    #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
    unsafe fn emit<const EMIT: bool>(st: &mut State<'_>, fresh: __m512i, m: usize) {
        st.total += m as u64;
        if EMIT {
            let len = st.out.len();
            st.out.reserve(LANES);
            _mm512_storeu_epi32(st.out.as_mut_ptr().add(len) as *mut i32, fresh);
            st.out.set_len(len + m);
        }
    }

    /// The block loop over every full 16-row block, for a driver of source
    /// kind `KIND` and compare family `FAMILY`; drains all stages at the
    /// end. The caller evaluates the tail rows.
    ///
    /// # Safety
    ///
    /// As for [`dispatch`].
    #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
    unsafe fn kernel<const EMIT: bool, const KIND: u8, const FAMILY: u8>(
        stages: &[Stage<'_>],
        rows: usize,
    ) -> (u64, Vec<u32>) {
        let p = stages.len();
        let mut st = State {
            stages,
            nsplat: std::array::from_fn(|i| match stages.get(i) {
                Some(Stage {
                    src: Source::Plain64 { .. },
                    needle,
                    ..
                }) => _mm512_set1_epi64(*needle as i64),
                Some(stage) => _mm512_set1_epi32(stage.needle as u32 as i32),
                None => _mm512_setzero_si512(),
            }),
            plists: [_mm512_setzero_si512(); MAX_PREDICATES],
            counts: [0; MAX_PREDICATES],
            out: Vec::new(),
            total: 0,
        };
        let (op0, needle0) = (stages[0].op, st.nsplat[0]);
        let (mut ptr32, mut ptr64) = (std::ptr::null(), std::ptr::null());
        let (mut words, mut bits): (&[u32], u32) = (&[], 0);
        match &stages[0].src {
            Source::Plain32 { data, .. } => ptr32 = *data,
            Source::Plain64 { data, .. } => ptr64 = *data,
            Source::Packed { words: w, bits: b } => (words, bits) = (w, *b),
        }
        // Unpack controls for block alignments 0 and 16 bits (odd widths
        // alternate); only drivers of ≤ 16 bits unpack vector-side.
        let ctls =
            (KIND == PACKED && bits <= 16).then(|| [unpack_ctl(bits, 0), unpack_ctl(bits, 16)]);
        let block = |blk: usize| -> __mmask16 {
            match KIND {
                PLAIN32 => {
                    let v = _mm512_loadu_epi32(ptr32.add(blk * LANES));
                    cmp32(FAMILY, u16::MAX, op0, v, needle0)
                }
                PLAIN64 => {
                    let lo = _mm512_loadu_epi64(ptr64.add(blk * LANES));
                    let hi = _mm512_loadu_epi64(ptr64.add(blk * LANES + 8));
                    let m_lo = cmp64(FAMILY, u8::MAX, op0, lo, needle0);
                    let m_hi = cmp64(FAMILY, u8::MAX, op0, hi, needle0);
                    m_lo as __mmask16 | (m_hi as __mmask16) << 8
                }
                _ => {
                    let v = match &ctls {
                        Some(ctls) => unpack_block(words, bits, ctls, blk),
                        None => {
                            let buf = unpack_block_scalar(words, bits, blk);
                            _mm512_loadu_epi32(buf.as_ptr() as *const i32)
                        }
                    };
                    cmp32(UNSIGNED, u16::MAX, op0, v, needle0)
                }
            }
        };
        let blocks = rows / LANES;
        if p == 1 && !EMIT {
            // Counting one predicate needs no position list: the loop is
            // branch-free.
            for blk in 0..blocks {
                st.total += block(blk).count_ones() as u64;
            }
            return (st.total, st.out);
        }
        let iota = _mm512_loadu_epi32(IOTA16.as_ptr() as *const i32);
        for blk in 0..blocks {
            let k = block(blk);
            if k == 0 {
                continue;
            }
            let m = k.count_ones() as usize;
            let idx = _mm512_add_epi32(iota, _mm512_set1_epi32((blk * LANES) as i32));
            let fresh = _mm512_maskz_compress_epi32(k, idx);
            if p == 1 {
                emit::<EMIT>(&mut st, fresh, m);
            } else {
                push::<EMIT>(&mut st, 0, fresh, m);
            }
        }

        // Drain partial lists in ascending stage order.
        for s in 0..p - 1 {
            flush::<EMIT>(&mut st, s);
        }
        (st.total, st.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::scan_chain;

    fn skip(packed: bool) -> bool {
        if !driver_available(packed) {
            eprintln!("skipping: no AVX-512 (VBMI2) on this host");
            return true;
        }
        false
    }

    fn check(preds: &[ChainPred<'_>]) {
        let expected = scan_chain(preds);
        let got = fused_scan(preds, OutputMode::Positions).unwrap();
        assert_eq!(got.positions().unwrap(), &expected);
        let got = fused_scan(preds, OutputMode::Count).unwrap();
        assert_eq!(got.count(), expected.len() as u64);
    }

    fn packed(col: &PackedColumn, op: CmpOp, needle: u32) -> ChainPred<'_> {
        ChainPred::Packed { col, op, needle }
    }

    // --- plain 64-bit chains ----------------------------------------------

    #[test]
    fn u64_all_operator_pairs() {
        if skip(false) {
            return;
        }
        let big = u64::MAX - 7;
        let a: Vec<u64> = (0..600u64)
            .map(|i| if i % 5 == 0 { big } else { i % 13 })
            .collect();
        let b: Vec<u64> = (0..600u64).map(|i| (i * 11) % 7).collect();
        for op0 in CmpOp::ALL {
            for op1 in CmpOp::ALL {
                check(&[
                    TypedPred::new(&a[..], op0, big).into(),
                    TypedPred::new(&b[..], op1, 3u64).into(),
                ]);
            }
        }
    }

    #[test]
    fn i64_negative_values() {
        if skip(false) {
            return;
        }
        let a: Vec<i64> = (0..500).map(|i| (i % 9) - 4).collect();
        let b: Vec<i64> = (0..500).map(|i| i64::MIN + (i % 5)).collect();
        for op in CmpOp::ALL {
            check(&[
                TypedPred::new(&a[..], op, 0i64).into(),
                TypedPred::new(&b[..], CmpOp::Le, i64::MIN + 2).into(),
            ]);
        }
    }

    #[test]
    fn f64_with_nan() {
        if skip(false) {
            return;
        }
        let mut a: Vec<f64> = (0..400).map(|i| (i % 7) as f64 * 0.5).collect();
        a[17] = f64::NAN;
        a[350] = f64::NAN;
        let b: Vec<f64> = (0..400).map(|i| (i % 3) as f64 - 1.0).collect();
        for op in CmpOp::ALL {
            check(&[
                TypedPred::new(&a[..], op, 1.5f64).into(),
                TypedPred::new(&b[..], CmpOp::Lt, 1.0f64).into(),
            ]);
        }
    }

    #[test]
    fn u64_tails_and_chains() {
        if skip(false) {
            return;
        }
        for rows in [0usize, 1, 7, 8, 9, 15, 16, 17, 100] {
            let cols: Vec<Vec<u64>> = (0..4u64)
                .map(|c| {
                    (0..rows as u64)
                        .map(|i| i.wrapping_mul(c + 3) % 3)
                        .collect()
                })
                .collect();
            for p in 1..=4 {
                let preds: Vec<ChainPred<'_>> = cols[..p]
                    .iter()
                    .map(|c| TypedPred::eq(&c[..], 0u64).into())
                    .collect();
                check(&preds);
            }
        }
    }

    #[test]
    fn u64_extreme_selectivities() {
        if skip(false) {
            return;
        }
        let rows = 3000usize;
        let all = vec![5u64; rows];
        let none = vec![4u64; rows];
        let half: Vec<u64> = (0..rows as u64).map(|i| 4 + i % 2).collect();
        for (x, y) in [
            (&all, &half),
            (&half, &all),
            (&all, &none),
            (&none, &all),
            (&all, &all),
        ] {
            check(&[
                TypedPred::eq(&x[..], 5u64).into(),
                TypedPred::eq(&y[..], 5u64).into(),
            ]);
        }
    }

    // --- §V: a 4-byte driver with an 8-byte follower ------------------------

    #[test]
    fn u32_driver_splits_list_for_u64_follower() {
        if skip(false) {
            return;
        }
        let a: Vec<u32> = (0..3000).map(|i| i % 5).collect();
        let b: Vec<u64> = (0..3000).map(|i| (i as u64 * 7) % 9).collect();
        for op0 in CmpOp::ALL {
            for op1 in CmpOp::ALL {
                check(&[
                    TypedPred::new(&a[..], op0, 2u32).into(),
                    TypedPred::new(&b[..], op1, 4u64).into(),
                ]);
            }
        }
    }

    #[test]
    fn u64_follower_values_beyond_32_bits() {
        if skip(false) {
            return;
        }
        let a: Vec<u32> = (0..500).map(|i| i % 2).collect();
        let big = u64::MAX - 3;
        let b: Vec<u64> = (0..500)
            .map(|i| if i % 3 == 0 { big } else { i as u64 })
            .collect();
        check(&[
            TypedPred::eq(&a[..], 0u32).into(),
            TypedPred::eq(&b[..], big).into(),
        ]);
    }

    #[test]
    fn partial_lists_under_nine_entries_use_one_gather() {
        if skip(false) {
            return;
        }
        // Only 3 matches in total: the follower flush with an empty upper
        // half.
        let mut a = vec![0u32; 100];
        a[10] = 5;
        a[50] = 5;
        a[99] = 5;
        let b: Vec<u64> = (0..100).map(|i| i as u64 % 2).collect();
        check(&[
            TypedPred::eq(&a[..], 5u32).into(),
            TypedPred::eq(&b[..], 0u64).into(),
        ]);
    }

    #[test]
    fn u32_u64_tails_and_empty() {
        if skip(false) {
            return;
        }
        for rows in [0usize, 1, 15, 16, 17, 33] {
            let a: Vec<u32> = (0..rows as u32).map(|i| i % 2).collect();
            let b: Vec<u64> = (0..rows as u64).map(|i| i % 3).collect();
            check(&[
                TypedPred::eq(&a[..], 0u32).into(),
                TypedPred::eq(&b[..], 0u64).into(),
            ]);
        }
    }

    #[test]
    fn every_plain_family_as_driver_and_follower() {
        if skip(false) {
            return;
        }
        let rows = 777;
        let u: Vec<u32> = (0..rows).map(|i| (i % 11) as u32).collect();
        let s: Vec<i32> = (0..rows).map(|i| i % 9 - 4).collect();
        let mut f: Vec<f32> = (0..rows).map(|i| (i % 5) as f32 * 0.5).collect();
        f[3] = f32::NAN;
        let ul: Vec<u64> = (0..rows).map(|i| (i % 7) as u64 + (1 << 40)).collect();
        let sl: Vec<i64> = (0..rows).map(|i| (i % 13) as i64 - 6).collect();
        let mut fl: Vec<f64> = (0..rows).map(|i| (i % 3) as f64 - 1.0).collect();
        fl[100] = f64::NAN;
        let all: [ChainPred<'_>; 6] = [
            TypedPred::new(&u[..], CmpOp::Le, 6u32).into(),
            TypedPred::new(&s[..], CmpOp::Gt, -2i32).into(),
            TypedPred::new(&f[..], CmpOp::Ne, 1.0f32).into(),
            TypedPred::new(&ul[..], CmpOp::Lt, (1 << 40) + 5).into(),
            TypedPred::new(&sl[..], CmpOp::Ge, -3i64).into(),
            TypedPred::new(&fl[..], CmpOp::Le, 0.0f64).into(),
        ];
        for d in 0..all.len() {
            for f in 0..all.len() {
                check(&[all[d], all[f]]);
            }
            let mut rotated = all;
            rotated.rotate_left(d);
            check(&rotated);
        }
    }

    // --- bit-packed chains ------------------------------------------------

    #[test]
    fn packed_driver_all_narrow_widths() {
        if skip(true) {
            return;
        }
        for bits in 1..=16u8 {
            let mask = mask_of(bits);
            let values: Vec<u32> = (0..997u32)
                .map(|i| i.wrapping_mul(2654435761) & mask)
                .collect();
            let col = PackedColumn::pack(&values, bits).unwrap();
            let plain: Vec<u32> = (0..997).map(|i| i % 3).collect();
            for op in CmpOp::ALL {
                check(&[
                    packed(&col, op, mask / 2),
                    TypedPred::eq(&plain[..], 1u32).into(),
                ]);
            }
        }
    }

    #[test]
    fn packed_driver_wide_widths_scalar_unpack() {
        if skip(true) {
            return;
        }
        for bits in [17u8, 23, 30, 32] {
            let mask = mask_of(bits);
            let values: Vec<u32> = (0..500u32).map(|i| i.wrapping_mul(40503) & mask).collect();
            let col = PackedColumn::pack(&values, bits).unwrap();
            check(&[packed(&col, CmpOp::Gt, mask / 3)]);
        }
    }

    #[test]
    fn packed_follow_up_gather_extraction() {
        if skip(true) {
            return;
        }
        // The §VII challenge case: a plain driver, a packed follower.
        for bits in [3u8, 7, 11, 16, 21, 29] {
            let mask = mask_of(bits);
            let a: Vec<u32> = (0..1203).map(|i| i % 5).collect();
            let values: Vec<u32> = (0..1203u32)
                .map(|i| i.wrapping_mul(2246822519) & mask)
                .collect();
            let col = PackedColumn::pack(&values, bits).unwrap();
            for op in CmpOp::ALL {
                check(&[
                    TypedPred::eq(&a[..], 2u32).into(),
                    packed(&col, op, mask / 2),
                ]);
            }
        }
    }

    #[test]
    fn fully_packed_three_predicate_chain() {
        if skip(true) {
            return;
        }
        let cols: Vec<PackedColumn> = [4u8, 9, 13]
            .iter()
            .map(|&bits| {
                let mask = mask_of(bits);
                let values: Vec<u32> = (0..800u32)
                    .map(|i| i.wrapping_mul(9973 + bits as u32) & mask)
                    .collect();
                PackedColumn::pack(&values, bits).unwrap()
            })
            .collect();
        let preds: Vec<ChainPred<'_>> = cols
            .iter()
            .map(|col| packed(col, CmpOp::Le, mask_of(col.bits()) / 2))
            .collect();
        check(&preds);
    }

    #[test]
    fn packed_with_64_bit_and_signed_stages() {
        if skip(true) {
            return;
        }
        let values: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(7919) & 0x3ff).collect();
        let col = PackedColumn::pack(&values, 10).unwrap();
        let price: Vec<i64> = (0..1000).map(|i| (i % 97) as i64 * 1000 - 40_000).collect();
        let s: Vec<i32> = (0..1000).map(|i| (i % 7) - 3).collect();
        let chain: [ChainPred<'_>; 3] = [
            packed(&col, CmpOp::Lt, 600),
            TypedPred::new(&price[..], CmpOp::Ge, -5_000i64).into(),
            TypedPred::new(&s[..], CmpOp::Ne, 0i32).into(),
        ];
        for d in 0..3 {
            let mut rotated = chain;
            rotated.rotate_left(d);
            check(&rotated);
        }
    }

    #[test]
    fn out_of_domain_literals_resolve_statically() {
        if skip(true) {
            return;
        }
        let values: Vec<u32> = (0..100).map(|i| i % 8).collect();
        let col = PackedColumn::pack(&values, 3).unwrap();
        // needle 100 > 7: Eq never matches, Ne/Lt always match.
        let never = [packed(&col, CmpOp::Eq, 100)];
        assert_eq!(fused_scan(&never, OutputMode::Count).unwrap().count(), 0);
        let always = [packed(&col, CmpOp::Lt, 100)];
        assert_eq!(fused_scan(&always, OutputMode::Count).unwrap().count(), 100);
        let pos = fused_scan(&always, OutputMode::Positions).unwrap();
        assert_eq!(pos.positions().unwrap().len(), 100);
        check(&never);
        check(&always);
    }

    #[test]
    fn packed_tails_and_empty() {
        if skip(true) {
            return;
        }
        for rows in [0usize, 1, 15, 16, 17, 100] {
            let values: Vec<u32> = (0..rows as u32).map(|i| i % 4).collect();
            let col = PackedColumn::pack(&values, 2).unwrap();
            check(&[packed(&col, CmpOp::Eq, 1)]);
        }
        assert_eq!(fused_scan(&[], OutputMode::Count).unwrap().count(), 0);
    }

    #[test]
    fn validation_errors() {
        if skip(true) {
            return;
        }
        let a = PackedColumn::pack(&[1, 2], 3).unwrap();
        let b: Vec<u32> = vec![0; 5];
        let preds = [packed(&a, CmpOp::Eq, 1), TypedPred::eq(&b[..], 0u32).into()];
        assert_eq!(
            fused_scan(&preds, OutputMode::Count),
            Err(DriverError::LengthMismatch)
        );
        let long = vec![TypedPred::eq(&b[..], 0u32).into(); MAX_PREDICATES + 1];
        assert_eq!(
            fused_scan(&long, OutputMode::Count),
            Err(DriverError::ChainTooLong(MAX_PREDICATES + 1))
        );
    }
}
