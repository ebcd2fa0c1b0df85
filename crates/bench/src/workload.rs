//! Workload construction shared by the figure harness and the criterion
//! benches.

use fts_core::TypedPred;
use fts_storage::gen::{generate_chain, GeneratedChain, PredSpec};
use fts_storage::CmpOp;

/// Scale knobs for a harness run. `default()` reproduces the figures at a
/// session-friendly scale; `quick()` is for smoke runs; `paper()` matches
/// the paper's row counts (needs time and ~1-2 GB of RAM per figure).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Row count for the fixed-size experiments (paper: 32 M, Fig. 1: 100 M).
    pub rows: usize,
    /// Largest table of the Fig. 4 size sweep (paper: 132 M).
    pub max_rows: usize,
    /// Repetitions per configuration (paper: ≥ 100).
    pub reps: usize,
    /// Row cap for the microarchitectural counter models (they interpret
    /// every access, so they run at reduced scale and report scaled
    /// counters).
    pub model_rows: usize,
}

impl Scale {
    /// The default session scale.
    pub fn default_scale() -> Scale {
        Scale {
            rows: 16_000_000,
            max_rows: 16_000_000,
            reps: 15,
            model_rows: 2_000_000,
        }
    }

    /// Smoke-test scale.
    pub fn quick() -> Scale {
        Scale {
            rows: 1_000_000,
            max_rows: 1_000_000,
            reps: 3,
            model_rows: 250_000,
        }
    }

    /// The paper's scale.
    pub fn paper() -> Scale {
        Scale {
            rows: 32_000_000,
            max_rows: 132_000_000,
            reps: 100,
            model_rows: 4_000_000,
        }
    }

    /// Repetitions adapted to a table size: smaller tables get more reps
    /// (the paper measured every configuration ≥ 100 times).
    pub fn reps_for(&self, rows: usize) -> usize {
        let budget = (self.rows.max(1) * self.reps) / rows.max(1);
        budget.clamp(3, 100.max(self.reps))
    }
}

/// The evaluation's standard workload: an equality chain where every
/// predicate has selectivity `sel` ("percent of qualifying rows per
/// predicate", Figs. 1/4/5/6).
pub fn equality_chain(rows: usize, predicates: usize, sel: f64, seed: u64) -> GeneratedChain<u32> {
    let specs: Vec<PredSpec<u32>> = (0..predicates)
        .map(|i| PredSpec::eq(5 + i as u32, sel))
        .collect();
    generate_chain(rows, &specs, seed).expect("workload generation")
}

/// Fig. 7's workload: first predicate 1 %, following predicates 50 % of the
/// remaining rows.
pub fn fig7_chain(rows: usize, predicates: usize, seed: u64) -> GeneratedChain<u32> {
    let mut specs = vec![PredSpec::eq(5u32, 0.01)];
    specs.extend((1..predicates).map(|i| PredSpec::eq(5 + i as u32, 0.5)));
    generate_chain(rows, &specs, seed).expect("workload generation")
}

/// Borrow a generated chain as typed predicates.
pub fn preds_of(chain: &GeneratedChain<u32>) -> Vec<TypedPred<'_, u32>> {
    chain
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| TypedPred::new(&c[..], CmpOp::Eq, 5 + i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_core::reference;

    #[test]
    fn equality_chain_hits_exact_selectivity() {
        let chain = equality_chain(10_000, 2, 0.1, 9);
        assert_eq!(chain.survivors_per_pred[0], 1000);
        assert_eq!(chain.survivors_per_pred[1], 100);
        let preds = preds_of(&chain);
        assert_eq!(reference::scan_count(&preds), 100);
    }

    #[test]
    fn fig7_chain_matches_the_paper_spec() {
        let chain = fig7_chain(100_000, 4, 1);
        assert_eq!(chain.survivors_per_pred, vec![1000, 500, 250, 125]);
    }

    #[test]
    fn reps_scale_with_table_size() {
        let s = Scale::default_scale();
        assert!(s.reps_for(1_000) >= s.reps_for(16_000_000));
        assert!(s.reps_for(16_000_000) >= 3);
        assert!(s.reps_for(1) <= 100.max(s.reps));
    }
}
