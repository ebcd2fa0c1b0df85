//! The Fused Table Scan — the paper's contribution (§III).
//!
//! A conjunctive chain of predicates is evaluated in one pass without
//! leaving SIMD mode and without materializing intermediate bitmasks:
//!
//! * predicate 0 (the *driver*) compares whole blocks of its column and
//!   compresses the matching block offsets into a register-resident
//!   **position list**;
//! * every further predicate owns a *stage*: a position-list register plus a
//!   length. Incoming positions are appended with a compress + permutex2var
//!   pair; when the list fills (or cannot take a whole batch) it is
//!   **flushed**: the stage's column is gathered at the listed positions,
//!   compared under mask, and the surviving positions are compressed and
//!   passed to the next stage;
//! * the final stage emits positions (or bumps the match counter).
//!
//! Invariants shared by every engine (scalar model, AVX2, AVX-512, JIT):
//!
//! 1. position lists are left-aligned and **zero-padded** beyond their
//!    length (maskz-compress maintains this for free);
//! 2. a list never exceeds `LANES` entries; when an incoming batch does not
//!    fit, the *old* list is flushed first and the batch starts a new list
//!    (paper §III: "we first process the incomplete list and then start a
//!    new list");
//! 3. batches flow through stages in ascending row order, so emitted
//!    positions are ascending;
//! 4. at end of input, stages drain in ascending order.
//!
//! [`scalar`] is the portable reference engine (any [`fts_storage::NativeType`],
//! any lane count). The hardware kernels are [`avx2`], [`avx512`] (the
//! 128- and 256-bit widths) and [`driver`], the one 512-bit kernel, whose
//! stages may be plain 32-bit, plain 64-bit or bit-packed columns.
//! [`for_scan`] and [`bytesliced`] keep their own block-mask kernels.

/// `$cmp::<IMM>(args)` with the integer compare predicate of `$op`
/// (`vpcmpd`/`vpcmpud` immediates). A `match` over a loop-invariant
/// `CmpOp` compiles to one perfectly predicted branch; the JIT removes
/// even that.
macro_rules! int_cmp {
    ($op:expr, $cmp:ident($($arg:expr),*)) => {
        match $op {
            CmpOp::Eq => $cmp::<_MM_CMPINT_EQ>($($arg),*),
            CmpOp::Ne => $cmp::<_MM_CMPINT_NE>($($arg),*),
            CmpOp::Lt => $cmp::<_MM_CMPINT_LT>($($arg),*),
            CmpOp::Le => $cmp::<_MM_CMPINT_LE>($($arg),*),
            CmpOp::Gt => $cmp::<_MM_CMPINT_NLE>($($arg),*),
            CmpOp::Ge => $cmp::<_MM_CMPINT_NLT>($($arg),*),
        }
    };
}

/// `$cmp::<IMM>(args)` with the ordered, quiet float predicate of `$op`:
/// NaN compares false for every operator, like `NativeType::cmp_op`.
macro_rules! float_cmp {
    ($op:expr, $cmp:ident($($arg:expr),*)) => {
        match $op {
            CmpOp::Eq => $cmp::<_CMP_EQ_OQ>($($arg),*),
            CmpOp::Ne => $cmp::<_CMP_NEQ_OQ>($($arg),*),
            CmpOp::Lt => $cmp::<_CMP_LT_OS>($($arg),*),
            CmpOp::Le => $cmp::<_CMP_LE_OS>($($arg),*),
            CmpOp::Gt => $cmp::<_CMP_GT_OS>($($arg),*),
            CmpOp::Ge => $cmp::<_CMP_GE_OS>($($arg),*),
        }
    };
}

pub mod avx2;
pub mod avx512;
pub mod bytesliced;
pub mod driver;
pub mod for_scan;
pub mod scalar;

/// Merge-index table entry: lane `i` of `MERGE[count]` selects `plist[i]`
/// for `i < count` and `fresh[i - count]` (table index `N + i - count`)
/// otherwise — the permutex2var control that appends a compressed batch
/// behind an existing position list.
pub const fn merge_index<const N: usize>(count: usize) -> [u32; N] {
    let mut idx = [0u32; N];
    let mut i = 0;
    while i < N {
        idx[i] = if i < count {
            i as u32
        } else {
            (N + i - count) as u32
        };
        i += 1;
    }
    idx
}

/// Merge tables for the three hardware widths (index = current length).
pub static MERGE4: [[u32; 4]; 5] = {
    let mut t = [[0u32; 4]; 5];
    let mut c = 0;
    while c <= 4 {
        t[c] = merge_index::<4>(c);
        c += 1;
    }
    t
};

/// 8-lane merge table (256-bit registers).
pub static MERGE8: [[u32; 8]; 9] = {
    let mut t = [[0u32; 8]; 9];
    let mut c = 0;
    while c <= 8 {
        t[c] = merge_index::<8>(c);
        c += 1;
    }
    t
};

/// 16-lane merge table (512-bit registers).
pub static MERGE16: [[u32; 16]; 17] = {
    let mut t = [[0u32; 16]; 17];
    let mut c = 0;
    while c <= 16 {
        t[c] = merge_index::<16>(c);
        c += 1;
    }
    t
};

/// Maximum number of predicates a single fused kernel invocation supports.
/// Longer chains are split by the engine layer (two fused scans back to
/// back); the paper evaluates up to 5.
pub const MAX_PREDICATES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_index_shape() {
        assert_eq!(merge_index::<4>(0), [4, 5, 6, 7]); // empty list: all fresh
        assert_eq!(merge_index::<4>(2), [0, 1, 4, 5]);
        assert_eq!(merge_index::<4>(4), [0, 1, 2, 3]); // full list: keep all
        assert_eq!(MERGE16[3][2], 2);
        assert_eq!(MERGE16[3][3], 16);
        assert_eq!(MERGE8[8], [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn merge_tables_match_const_fn() {
        for (c, row) in MERGE4.iter().enumerate() {
            assert_eq!(*row, merge_index::<4>(c));
        }
        for (c, row) in MERGE16.iter().enumerate() {
            assert_eq!(*row, merge_index::<16>(c));
        }
    }
}
