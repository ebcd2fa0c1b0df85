//! Property tests for the packed JIT backend: for random widths, operators
//! and mixed plain/packed chains, the emitted machine code agrees with the
//! interpreted reference.

use fts_core::reference::scan_chain;
use fts_core::ChainPred;
use fts_core::TypedPred;
use fts_jit::{CompiledPackedKernel, PackedColRef, PackedColSig, PackedScanSig};
use fts_storage::bitpack::{mask_of, PackedColumn};
use fts_storage::CmpOp;
use proptest::prelude::*;

fn available() -> bool {
    fts_simd::has_avx512() && std::arch::is_x86_feature_detected!("avx512vbmi2")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn jit_packed_matches_reference(
        rows in 0usize..700,
        driver_bits in 1u8..=16,
        follow_bits in 1u8..=32,
        op0 in prop::sample::select(CmpOp::ALL.to_vec()),
        op1 in prop::sample::select(CmpOp::ALL.to_vec()),
        op2 in prop::sample::select(CmpOp::ALL.to_vec()),
        seed in any::<u64>(),
    ) {
        if !available() {
            return Ok(());
        }
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        };
        let v0: Vec<u32> = (0..rows).map(|_| rng() & mask_of(driver_bits)).collect();
        let plain: Vec<u32> = (0..rows).map(|_| rng() % 7).collect();
        let v2: Vec<u32> = (0..rows).map(|_| rng() & mask_of(follow_bits)).collect();
        let c0 = PackedColumn::pack(&v0, driver_bits).unwrap();
        let c2 = PackedColumn::pack(&v2, follow_bits).unwrap();
        let n0 = mask_of(driver_bits) / 2;
        let n2 = mask_of(follow_bits) / 3;

        let sig = PackedScanSig {
            preds: vec![
                PackedColSig::Packed { bits: driver_bits, op: op0, needle: n0 },
                PackedColSig::Plain { op: op1, needle: 3 },
                PackedColSig::Packed { bits: follow_bits, op: op2, needle: n2 },
            ],
            emit_positions: true,
        };
        let kernel = CompiledPackedKernel::compile(sig).unwrap();
        let got = kernel
            .run(&[
                PackedColRef::Packed(&c0),
                PackedColRef::Plain(&plain),
                PackedColRef::Packed(&c2),
            ])
            .unwrap();

        let reference = scan_chain(&[
            ChainPred::Packed { col: &c0, op: op0, needle: n0 },
            ChainPred::U32(TypedPred::new(&plain[..], op1, 3)),
            ChainPred::Packed { col: &c2, op: op2, needle: n2 },
        ]);
        prop_assert_eq!(got.positions().unwrap(), &reference);
    }
}
