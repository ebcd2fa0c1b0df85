//! The trivially-correct reference scan: a plain row loop with
//! short-circuit evaluation. Every other implementation in this crate —
//! SISD variants, block-at-a-time, the scalar fused engine, the AVX2 and
//! AVX-512 fused kernels, and the JIT-emitted code — is differential-tested
//! against this one.

use fts_storage::{NativeType, PosList};

use crate::fused::driver::ChainPred;
use crate::pred::TypedPred;

/// Rows (ascending) matching every predicate of a homogeneous typed chain.
///
/// Panics if any predicate's column is shorter than the first one (all
/// chain columns must cover the same rows).
pub fn scan_positions<T: NativeType>(preds: &[TypedPred<'_, T>]) -> PosList {
    let Some(first) = preds.first() else {
        return PosList::new();
    };
    let rows = first.data.len();
    for p in preds {
        assert_eq!(p.data.len(), rows, "chain columns must have equal length");
    }
    let mut out = PosList::new();
    for row in 0..rows {
        if preds.iter().all(|p| p.matches(row)) {
            out.push(row as u32);
        }
    }
    out
}

/// `COUNT(*)` form of [`scan_positions`].
pub fn scan_count<T: NativeType>(preds: &[TypedPred<'_, T>]) -> u64 {
    scan_positions(preds).len() as u64
}

/// Rows (ascending) matching every predicate of a driver chain, whose
/// columns may have different types and layouts (the fully general case
/// of §V and §VII).
///
/// Panics if the chain's columns differ in length.
pub fn scan_chain(preds: &[ChainPred<'_>]) -> PosList {
    let Some(first) = preds.first() else {
        return PosList::new();
    };
    let rows = first.rows();
    for p in preds {
        assert_eq!(p.rows(), rows, "chain columns must have equal length");
    }
    (0..rows)
        .filter(|&row| preds.iter().all(|p| p.matches(row)))
        .map(|row| row as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_storage::{CmpOp, Column, Value};

    #[test]
    fn two_predicate_example_from_paper() {
        // SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2 — Fig. 3 data.
        let a = [2u32, 5, 4, 5, 6, 1, 5, 7, 6, 8, 5, 3, 5, 9, 9, 5];
        let b = [5u32, 2, 3, 1, 1, 3, 6, 0, 8, 7, 3, 3, 2, 9, 3, 2];
        let preds = [TypedPred::eq(&a[..], 5), TypedPred::eq(&b[..], 2)];
        let pos = scan_positions(&preds);
        // Row 1 (a=5,b=2), row 12 (a=5,b=2), row 15 (a=5,b=2).
        assert_eq!(pos.as_slice(), &[1, 12, 15]);
        assert_eq!(scan_count(&preds), 3);
    }

    #[test]
    fn empty_chain_and_empty_column() {
        assert!(scan_positions::<u32>(&[]).is_empty());
        let empty: [u32; 0] = [];
        assert!(scan_positions(&[TypedPred::eq(&empty[..], 1)]).is_empty());
    }

    #[test]
    fn mixed_type_dynamic_chain() {
        let a = Column::from_vec(vec![1u32, 5, 5, 5]);
        let b = Column::from_vec(vec![-1i64, 3, -1, 3]);
        let preds = [
            ChainPred::bind(&a, CmpOp::Eq, Value::U32(5)).unwrap(),
            ChainPred::bind(&b, CmpOp::Gt, Value::I64(0)).unwrap(),
        ];
        assert_eq!(scan_chain(&preds).as_slice(), &[1, 3]);
        assert!(scan_chain(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_chain_panics() {
        let a = [1u32, 2];
        let b = [1u32];
        let _ = scan_positions(&[TypedPred::eq(&a[..], 1), TypedPred::eq(&b[..], 1)]);
    }
}
