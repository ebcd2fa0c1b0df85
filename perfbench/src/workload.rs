//! The four workloads: table shape, client count and statement streams.

use crate::data::{Dataset, Shape, PRICE_MAX};
use crate::rng::Rng;
use crate::stmt::{Agg, Op, Pred, Select, Stmt};

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub rows: usize,
    /// Closed-loop client connections, one thread each.
    pub clients: usize,
    /// Untimed warm-up statements per client: whole schedule blocks.
    pub warmup_per_client: usize,
    mix: Mix,
}

#[derive(Debug, Clone, Copy)]
enum Mix {
    Adhoc,
    AggReport,
    Dashboard,
    Compressed,
}

/// Distinct statements in `dashboard_2c`'s fixed set.
const DASHBOARD_STATEMENTS: usize = 12;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "adhoc_filter",
        shape: Shape::Plain,
        rows: 2 << 20,
        clients: 1,
        warmup_per_client: 120,
        mix: Mix::Adhoc,
    },
    Workload {
        name: "agg_report",
        shape: Shape::Plain,
        rows: 2 << 20,
        clients: 1,
        warmup_per_client: 60,
        mix: Mix::AggReport,
    },
    Workload {
        name: "dashboard_2c",
        shape: Shape::Plain,
        rows: 2 << 20,
        clients: 2,
        warmup_per_client: 36,
        mix: Mix::Dashboard,
    },
    Workload {
        name: "compressed_scan",
        shape: Shape::Compressed,
        rows: 2 << 20,
        clients: 1,
        warmup_per_client: 120,
        mix: Mix::Compressed,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Stream `label` of statements for `seed`. The dashboard's fixed set
    /// depends on the seed only, so every client draws from the same set.
    pub fn stream(&self, ds: &Dataset, seed: u64, label: u64) -> StmtStream {
        let fixed = match self.mix {
            Mix::Dashboard => {
                let mut rng = Rng::stream(seed, 10);
                (0..DASHBOARD_STATEMENTS)
                    .map(|i| dashboard_stmt(&mut rng, ds, i))
                    .collect()
            }
            _ => Vec::new(),
        };
        StmtStream {
            mix: self.mix,
            rng: Rng::stream(seed, label),
            fixed,
            block: Vec::new(),
        }
    }
}

/// A statement kind.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `COUNT(*)` over a fresh conjunctive chain.
    Chain,
    /// `COUNT(*)` over a fresh OR/NOT tree.
    Tree,
    AggWhere,
    AggAll,
    Project,
    /// Aggregates over a date range of the FoR column.
    DateAgg,
    /// A member of the dashboard's fixed set.
    Fixed,
}

/// One slot of a workload's schedule: a kind, and which of the kind's
/// `n` slots per block this is.
#[derive(Debug, Clone, Copy)]
struct Slot {
    kind: Kind,
    j: usize,
    n: usize,
}

impl Slot {
    /// A draw from stratum `j` of `n` equal strata of `[0, 1)`, so every
    /// block spans a kind's whole selectivity range once.
    fn u(self, rng: &mut Rng) -> f64 {
        (self.j as f64 + rng.unit()) / self.n as f64
    }
}

/// `lo..hi` on a log scale at position `u` in `[0, 1)`.
fn log_between(lo: f64, hi: f64, u: f64) -> f64 {
    (lo.ln() + u * (hi.ln() - lo.ln())).exp()
}

impl Mix {
    /// One block of the schedule. Every block holds the same slots, in an
    /// order shuffled per block. A slot fixes what drives a statement's
    /// cost (kind, selectivity stratum, predicate count, columns,
    /// aggregates), so a block costs about the same on every seed; the
    /// seed picks the order, the spellings and the literals.
    fn block(self) -> Vec<Slot> {
        let kinds: &[(Kind, usize)] = match self {
            Mix::Adhoc => &[(Kind::Chain, 13), (Kind::Tree, 7)],
            Mix::AggReport => &[(Kind::AggWhere, 8), (Kind::AggAll, 6), (Kind::Project, 6)],
            Mix::Dashboard => &[(Kind::Fixed, DASHBOARD_STATEMENTS)],
            Mix::Compressed => &[(Kind::Chain, 11), (Kind::Tree, 5), (Kind::DateAgg, 4)],
        };
        kinds
            .iter()
            .flat_map(|&(kind, n)| (0..n).map(move |j| Slot { kind, j, n }))
            .collect()
    }
}

/// An endless seeded stream of one workload's statements.
#[derive(Debug)]
pub struct StmtStream {
    mix: Mix,
    rng: Rng,
    fixed: Vec<Stmt>,
    block: Vec<Slot>,
}

impl StmtStream {
    pub fn next(&mut self, ds: &Dataset) -> Stmt {
        let rng = &mut self.rng;
        if self.block.is_empty() {
            self.block = self.mix.block();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        let slot = self.block.pop().expect("a refilled block is not empty");
        match slot.kind {
            Kind::Chain => {
                let k = 1 + slot.j % 4;
                let sel = log_between(1e-4, 0.5, slot.u(rng));
                let cols = rotating_cols(ds, slot.j / 4, k);
                Stmt::new(ds, Select::Count, Some(chain(rng, ds, &cols, sel)))
            }
            Kind::Tree => Stmt::new(ds, Select::Count, Some(bool_tree(rng, ds, slot.j % 4))),
            Kind::AggWhere => agg_where(rng, ds, slot),
            Kind::AggAll => Stmt::new(ds, Select::Aggs(aggs(slot.j)), None),
            Kind::Project => project(rng, ds, slot),
            Kind::DateAgg => date_range_agg(rng, ds, slot),
            Kind::Fixed => self.fixed[slot.j].clone(),
        }
    }
}

/// A predicate on column `col` matching about `sel` of its uniform ranks,
/// in one of several equivalent spellings with fresh literals.
fn range_pred(rng: &mut Rng, ds: &Dataset, col: usize, sel: f64) -> Pred {
    let c = &ds.cols[col];
    let d = c.domain;
    let w = ((sel * d as f64).round() as u32).clamp(1, d);
    if w == 1 && rng.chance(0.5) {
        return Pred::Cmp(col, Op::Eq, c.value(rng.below(d as u64) as u32));
    }
    match rng.below(4) {
        0 => Pred::Cmp(col, Op::Le, c.value(w - 1)),
        1 if w < d => Pred::Cmp(col, Op::Lt, c.value(w)),
        2 => Pred::Cmp(col, Op::Ge, c.value(d - w)),
        _ => {
            let lo = rng.below((d - w + 1) as u64) as u32;
            Pred::Between(col, c.value(lo), c.value(lo + w - 1))
        }
    }
}

/// `k` distinct filter columns.
fn distinct_cols(rng: &mut Rng, ds: &Dataset, k: usize) -> Vec<usize> {
    let mut cols: Vec<usize> = (0..ds.cols.len()).collect();
    for i in 0..k {
        let j = i + rng.below((cols.len() - i) as u64) as usize;
        cols.swap(i, j);
    }
    cols.truncate(k);
    cols
}

/// `k` consecutive filter columns from `start`, wrapping: slots pick
/// their columns by position, so every block covers the same layouts.
fn rotating_cols(ds: &Dataset, start: usize, k: usize) -> Vec<usize> {
    (0..k).map(|i| (start + i) % ds.cols.len()).collect()
}

/// A conjunction of predicates on the distinct columns `cols` whose
/// product of selectivities is about `sel`.
fn chain(rng: &mut Rng, ds: &Dataset, cols: &[usize], sel: f64) -> Pred {
    let per = sel.powf(1.0 / cols.len() as f64);
    let mut preds: Vec<Pred> = cols.iter().map(|&c| range_pred(rng, ds, c, per)).collect();
    if preds.len() == 1 {
        preds.pop().expect("one predicate")
    } else {
        Pred::And(preds)
    }
}

/// Tree `shape` of four: a disjunction of chains, a negated
/// disjunction, a factorable prefix, or a negated range.
fn bool_tree(rng: &mut Rng, ds: &Dataset, shape: usize) -> Pred {
    let leaf = |rng: &mut Rng| {
        let col = rng.below(ds.cols.len() as u64) as usize;
        let sel = rng.log_uniform(2e-3, 0.3);
        range_pred(rng, ds, col, sel)
    };
    match shape {
        0 => {
            let n = 2 + rng.below(2) as usize;
            Pred::Or(
                (0..n)
                    .map(|_| {
                        let k = 1 + rng.below(2) as usize;
                        let sel = rng.log_uniform(1e-3, 0.2);
                        let cols = distinct_cols(rng, ds, k);
                        chain(rng, ds, &cols, sel)
                    })
                    .collect(),
            )
        }
        1 => Pred::And(vec![
            Pred::Not(Box::new(Pred::Or(vec![leaf(rng), leaf(rng)]))),
            leaf(rng),
        ]),
        2 => Pred::And(vec![leaf(rng), Pred::Or(vec![leaf(rng), leaf(rng)])]),
        _ => {
            let col = rng.below(ds.cols.len() as u64) as usize;
            let wide = range_pred(rng, ds, col, 0.5);
            Pred::And(vec![Pred::Not(Box::new(wide)), leaf(rng)])
        }
    }
}

/// The aggregates of slot `j`: each of the four alone, then two pairs,
/// so a block's aggregate work is the same on every seed.
fn aggs(j: usize) -> Vec<Agg> {
    const SETS: [&[Agg]; 6] = [
        &[Agg::Sum],
        &[Agg::Min],
        &[Agg::Max],
        &[Agg::Avg],
        &[Agg::Sum, Agg::Max],
        &[Agg::Min, Agg::Avg],
    ];
    SETS[j % SETS.len()].to_vec()
}

/// Aggregates at 1 %–100 % selectivity, half of them with a typed
/// predicate on `price` itself.
fn agg_where(rng: &mut Rng, ds: &Dataset, slot: Slot) -> Stmt {
    let k = 1 + slot.j % 2;
    let sel = log_between(0.01, 1.0, slot.u(rng));
    let mut filter = chain(rng, ds, &rotating_cols(ds, slot.j / 2, k), sel);
    if (slot.j / 2).is_multiple_of(2) {
        let kept = (rng.log_uniform(0.1, 1.0) * PRICE_MAX as f64).round() as i64;
        let price = match rng.below(2) {
            0 => Pred::Price(Op::Le, kept),
            _ => Pred::Price(Op::Gt, PRICE_MAX - kept),
        };
        filter = match filter {
            Pred::And(mut ps) => {
                ps.push(price);
                Pred::And(ps)
            }
            other => Pred::And(vec![other, price]),
        };
    }
    Stmt::new(ds, Select::Aggs(aggs(slot.j)), Some(filter))
}

/// A projection with `LIMIT` returning ~10³ rows.
fn project(rng: &mut Rng, ds: &Dataset, slot: Slot) -> Stmt {
    let col = rng.below(ds.cols.len() as u64) as usize;
    let limit = 500 + rng.below(1501) as usize;
    let sel = log_between(1e-3, 0.1, slot.u(rng));
    let filter = chain(rng, ds, &[slot.j % ds.cols.len()], sel);
    Stmt::new(ds, Select::Project { col, limit }, Some(filter))
}

/// Member `i` of the dashboard's fixed set: a third `COUNT(*)`, the rest
/// one aggregate over `price`, all filtering on column `c`. Member `i`'s
/// selectivity and aggregate depend on `i` alone (a log ladder from 5 %
/// to 100 %), so the set costs the same on every seed; the seed picks
/// the literals' spelling and position.
fn dashboard_stmt(rng: &mut Rng, ds: &Dataset, i: usize) -> Stmt {
    let step = i as f64 / (DASHBOARD_STATEMENTS - 1) as f64;
    let sel = 0.05f64.powf(1.0 - step);
    let filter = range_pred(rng, ds, 2, sel);
    let select = if i.is_multiple_of(3) {
        Select::Count
    } else {
        Select::Aggs(vec![Agg::ALL[i % 4]])
    };
    Stmt::new(ds, select, Some(filter))
}

/// Aggregates over a date range of the clustered FoR column, optionally
/// narrowed by a predicate on another compressed column.
fn date_range_agg(rng: &mut Rng, ds: &Dataset, slot: Slot) -> Stmt {
    let sel = log_between(0.01, 0.3, slot.u(rng));
    let days = range_pred(rng, ds, 0, sel);
    let filter = if slot.j.is_multiple_of(2) {
        let col = 1 + rng.below(3) as usize;
        let other_sel = rng.log_uniform(0.05, 0.8);
        let other = range_pred(rng, ds, col, other_sel);
        Pred::And(vec![days, other])
    } else {
        days
    };
    Stmt::new(ds, Select::Aggs(aggs(slot.j)), Some(filter))
}
