//! A TPC-H Query 6 workload — the multi-predicate query the paper's §IV
//! names ("Not only is this of interest when looking at queries with
//! multiple predicates (such as TPC-H Query 6)…").
//!
//! ```sql
//! SELECT SUM(l_extendedprice * l_discount) AS revenue
//! FROM lineitem
//! WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
//!   AND l_discount BETWEEN 0.05 AND 0.07
//!   AND l_quantity < 24;
//! ```
//!
//! Encoded for the column store: dates as `yyyymmdd` integers, discounts
//! as integer percent, prices as integer cents — all standard dictionary/
//! fixed-point tricks. The WHERE clause is a five-predicate conjunctive
//! chain (BETWEEN splits in two), exactly the shape the Fused Table Scan
//! accelerates; the revenue aggregation consumes the emitted position list.

use fts_core::{run_scan, ChainPred, OutputMode, ScanImpl, TypedPred};
use fts_storage::CmpOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generated lineitem columns.
#[derive(Debug, Clone)]
pub struct LineItem {
    /// Ship date as `yyyymmdd`.
    pub shipdate: Vec<u32>,
    /// Discount in integer percent (0–10).
    pub discount: Vec<u32>,
    /// Quantity (1–50).
    pub quantity: Vec<u32>,
    /// Extended price in cents (90 000–10 500 000), fits u32.
    pub extendedprice: Vec<u32>,
}

impl LineItem {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.shipdate.len()
    }
}

/// Q6 date window start (`l_shipdate >= '1994-01-01'`).
pub const Q6_DATE_LO: u32 = 19_940_101;
/// Q6 date window end (`l_shipdate < '1995-01-01'`).
pub const Q6_DATE_HI: u32 = 19_950_101;
/// Q6 discount lower bound (5 %).
pub const Q6_DISCOUNT_LO: u32 = 5;
/// Q6 discount upper bound (7 %).
pub const Q6_DISCOUNT_HI: u32 = 7;
/// Q6 quantity bound (`l_quantity < 24`).
pub const Q6_QUANTITY_HI: u32 = 24;

/// Generate a lineitem table with TPC-H-like uniform distributions
/// (dates over 1992–1998, discount 0–10 %, quantity 1–50).
pub fn generate_lineitem(rows: usize, seed: u64) -> LineItem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shipdate = Vec::with_capacity(rows);
    let mut discount = Vec::with_capacity(rows);
    let mut quantity = Vec::with_capacity(rows);
    let mut extendedprice = Vec::with_capacity(rows);
    for _ in 0..rows {
        let year = rng.random_range(1992u32..=1998);
        let month = rng.random_range(1u32..=12);
        let day = rng.random_range(1u32..=28);
        shipdate.push(year * 10_000 + month * 100 + day);
        discount.push(rng.random_range(0u32..=10));
        quantity.push(rng.random_range(1u32..=50));
        extendedprice.push(rng.random_range(90_000u32..=10_500_000));
    }
    LineItem {
        shipdate,
        discount,
        quantity,
        extendedprice,
    }
}

/// The Q6 predicate chain in evaluation order (most selective first, as
/// the optimizer would order it: the date window keeps ~1/7 of rows).
pub fn q6_preds(li: &LineItem) -> [TypedPred<'_, u32>; 5] {
    [
        TypedPred::new(&li.shipdate[..], CmpOp::Ge, Q6_DATE_LO),
        TypedPred::new(&li.shipdate[..], CmpOp::Lt, Q6_DATE_HI),
        TypedPred::new(&li.discount[..], CmpOp::Ge, Q6_DISCOUNT_LO),
        TypedPred::new(&li.discount[..], CmpOp::Le, Q6_DISCOUNT_HI),
        TypedPred::new(&li.quantity[..], CmpOp::Lt, Q6_QUANTITY_HI),
    ]
}

/// Reference Q6: row loop, returns (revenue in cent-percent, match count).
pub fn q6_reference(li: &LineItem) -> (u64, u64) {
    let mut revenue = 0u64;
    let mut count = 0u64;
    for i in 0..li.rows() {
        let d = li.shipdate[i];
        if (Q6_DATE_LO..Q6_DATE_HI).contains(&d)
            && li.discount[i] >= Q6_DISCOUNT_LO
            && li.discount[i] <= Q6_DISCOUNT_HI
            && li.quantity[i] < Q6_QUANTITY_HI
        {
            revenue += li.extendedprice[i] as u64 * li.discount[i] as u64;
            count += 1;
        }
    }
    (revenue, count)
}

/// Q6 with the chosen scan implementation: the five-predicate chain runs
/// as one scan producing a position list; the revenue aggregation gathers
/// price and discount at those positions.
pub fn q6_with(li: &LineItem, imp: ScanImpl) -> (u64, u64) {
    let preds = q6_preds(li);
    let out = run_scan(imp, &preds, OutputMode::Positions).expect("scan");
    let positions = out.positions().expect("positions mode");
    let mut revenue = 0u64;
    for pos in positions {
        let i = pos as usize;
        revenue += li.extendedprice[i] as u64 * li.discount[i] as u64;
    }
    (revenue, positions.len() as u64)
}

/// Q6 through a JIT-compiled kernel (falls back to the static path on
/// hosts without AVX-512).
pub fn q6_jit(li: &LineItem, cache: &fts_jit::KernelCache) -> (u64, u64) {
    use fts_jit::ScanSig;
    if !fts_simd::has_avx512() {
        return q6_with(li, fts_core::best_fused_impl::<u32>());
    }
    let chain: [ChainPred<'_>; 5] = [
        TypedPred::new(&li.shipdate[..], CmpOp::Ge, Q6_DATE_LO).into(),
        TypedPred::new(&li.shipdate[..], CmpOp::Lt, Q6_DATE_HI).into(),
        TypedPred::new(&li.discount[..], CmpOp::Ge, Q6_DISCOUNT_LO).into(),
        TypedPred::new(&li.discount[..], CmpOp::Le, Q6_DISCOUNT_HI).into(),
        TypedPred::new(&li.quantity[..], CmpOp::Lt, Q6_QUANTITY_HI).into(),
    ];
    let kernel = cache
        .get_or_compile(&ScanSig::of_chain(&chain, true))
        .expect("compile");
    let out = kernel.run(&chain).expect("run");
    let positions = out.positions().expect("positions mode");
    let mut revenue = 0u64;
    for pos in positions {
        let i = pos as usize;
        revenue += li.extendedprice[i] as u64 * li.discount[i] as u64;
    }
    (revenue, positions.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_core::RegWidth;

    #[test]
    fn q6_agrees_across_engines() {
        let li = generate_lineitem(60_000, 6);
        let (rev, count) = q6_reference(&li);
        assert!(count > 0, "workload must produce matches");
        // ~1/7 of dates × 3/11 discounts × 23/50 quantities ≈ 1.8 %.
        let sel = count as f64 / li.rows() as f64;
        assert!(sel > 0.005 && sel < 0.05, "selectivity {sel}");

        let mut impls = vec![ScanImpl::SisdBranching, ScanImpl::SisdAutoVec];
        if ScanImpl::FusedAvx2.available() {
            impls.push(ScanImpl::FusedAvx2);
        }
        if ScanImpl::FusedAvx512(RegWidth::W512).available() {
            impls.push(ScanImpl::FusedAvx512(RegWidth::W512));
        }
        for imp in impls {
            assert_eq!(q6_with(&li, imp), (rev, count), "{}", imp.name());
        }

        let cache = fts_jit::KernelCache::new(fts_jit::JitBackend::Avx512);
        if fts_simd::has_avx512() {
            assert_eq!(q6_jit(&li, &cache), (rev, count), "JIT");
            assert_eq!(cache.stats().misses, 1);
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = generate_lineitem(1000, 1);
        let b = generate_lineitem(1000, 1);
        assert_eq!(a.shipdate, b.shipdate);
        assert_eq!(a.extendedprice, b.extendedprice);
        let c = generate_lineitem(1000, 2);
        assert_ne!(a.shipdate, c.shipdate);
    }
}
