//! Differential properties of the fused driver over heterogeneous chains:
//! 1–8 predicates drawn from plain u32/i32/f32/u64/i64/f64 and bit-packed
//! 1–32-bit columns, any kind in the driver slot, random operators and
//! literals (NaN and out-of-domain packed literals included), row counts
//! that are rarely a multiple of 16, both output modes. The oracle is the
//! row loop.

use fts_core::fused::driver::{driver_available, fused_scan, ChainPred};
use fts_core::reference::scan_chain;
use fts_core::{scan_columns_auto, OutputMode, TypedPred};
use fts_storage::{mask_of, CmpOp, PackedColumn};
use proptest::prelude::*;

/// One generated column with its predicate.
enum Owned {
    U32(Vec<u32>, CmpOp, u32),
    I32(Vec<i32>, CmpOp, i32),
    F32(Vec<f32>, CmpOp, f32),
    U64(Vec<u64>, CmpOp, u64),
    I64(Vec<i64>, CmpOp, i64),
    F64(Vec<f64>, CmpOp, f64),
    Packed(PackedColumn, CmpOp, u32),
}

impl Owned {
    fn pred(&self) -> ChainPred<'_> {
        match self {
            Owned::U32(v, op, n) => TypedPred::new(&v[..], *op, *n).into(),
            Owned::I32(v, op, n) => TypedPred::new(&v[..], *op, *n).into(),
            Owned::F32(v, op, n) => TypedPred::new(&v[..], *op, *n).into(),
            Owned::U64(v, op, n) => TypedPred::new(&v[..], *op, *n).into(),
            Owned::I64(v, op, n) => TypedPred::new(&v[..], *op, *n).into(),
            Owned::F64(v, op, n) => TypedPred::new(&v[..], *op, *n).into(),
            Owned::Packed(col, op, needle) => ChainPred::Packed {
                col,
                op: *op,
                needle: *needle,
            },
        }
    }
}

/// xorshift64: the per-case generator behind every column and literal.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn op(&mut self) -> CmpOp {
        CmpOp::ALL[self.below(6) as usize]
    }

    /// A small domain so every operator has a middling selectivity; one
    /// value in 16 is an extreme.
    fn small(&mut self, extreme: i64) -> i64 {
        if self.below(16) == 0 {
            extreme
        } else {
            self.below(9) as i64 - 4
        }
    }

    fn float(&mut self) -> f64 {
        if self.below(20) == 0 {
            f64::NAN
        } else {
            self.below(9) as f64 * 0.5 - 2.0
        }
    }

    fn column(&mut self, rows: usize) -> Owned {
        let op = self.op();
        match self.below(7) {
            0 => {
                let v = (0..rows)
                    .map(|_| match self.small(-5) {
                        -5 => u32::MAX,
                        x => (x + 4) as u32,
                    })
                    .collect();
                Owned::U32(v, op, self.below(9) as u32)
            }
            1 => {
                let v = (0..rows)
                    .map(|_| self.small(i32::MIN as i64) as i32)
                    .collect();
                Owned::I32(v, op, self.small(i32::MAX as i64) as i32)
            }
            2 => {
                let v = (0..rows).map(|_| self.float() as f32).collect();
                Owned::F32(v, op, self.float() as f32)
            }
            3 => {
                let v = (0..rows)
                    .map(|_| match self.small(-5) {
                        -5 => u64::MAX,
                        x => (1u64 << 40) + (x + 4) as u64,
                    })
                    .collect();
                Owned::U64(v, op, (1u64 << 40) + self.below(9))
            }
            4 => {
                let v = (0..rows).map(|_| self.small(i64::MIN)).collect();
                Owned::I64(v, op, self.small(i64::MAX))
            }
            5 => {
                let v = (0..rows).map(|_| self.float()).collect();
                Owned::F64(v, op, self.float())
            }
            _ => {
                let bits = 1 + self.below(32) as u8;
                let mask = mask_of(bits);
                let v: Vec<u32> = (0..rows).map(|_| self.next() as u32 & mask).collect();
                // One literal in eight lies above the width's maximum.
                let needle = match (self.below(8), bits) {
                    (0, b) if b < 32 => mask + 1 + self.below(100) as u32,
                    _ => self.next() as u32 & mask,
                };
                Owned::Packed(PackedColumn::pack(&v, bits).unwrap(), op, needle)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn heterogeneous_chains_match_the_row_loop(
        rows in 0usize..700,
        preds in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let mut g = Gen(seed | 1);
        let owned: Vec<Owned> = (0..preds).map(|_| g.column(rows)).collect();
        let chain: Vec<ChainPred<'_>> = owned.iter().map(Owned::pred).collect();
        let expected = scan_chain(&chain);

        if driver_available(chain.iter().any(ChainPred::is_packed)) {
            let got = fused_scan(&chain, OutputMode::Positions).unwrap();
            prop_assert_eq!(got.positions().unwrap(), &expected, "driver positions");
            let got = fused_scan(&chain, OutputMode::Count).unwrap();
            prop_assert_eq!(got.count(), expected.len() as u64, "driver count");
        }
        // The dynamic entry: the best kernel for the chain, or the row loop.
        let got = scan_columns_auto(&chain, OutputMode::Positions);
        prop_assert_eq!(got.positions().unwrap(), &expected, "auto positions");
        let got = scan_columns_auto(&chain, OutputMode::Count);
        prop_assert_eq!(got.count(), expected.len() as u64, "auto count");
    }
}
