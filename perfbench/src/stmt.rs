//! Statements as the benchmark knows them: a small tree that renders to
//! the SQL text the server receives and that the oracle evaluates by
//! itself.

use std::fmt::Write;

use crate::data::Dataset;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Op {
    fn sql(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Ne => "<>",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }

    /// Whether `v OP lit` holds.
    pub fn holds<T: PartialOrd>(self, v: T, lit: T) -> bool {
        match self {
            Op::Eq => v == lit,
            Op::Ne => v != lit,
            Op::Lt => v < lit,
            Op::Le => v <= lit,
            Op::Gt => v > lit,
            Op::Ge => v >= lit,
        }
    }
}

/// A WHERE tree over the dataset's filter columns (by index).
#[derive(Debug, Clone)]
pub enum Pred {
    Cmp(usize, Op, u32),
    Between(usize, u32, u32),
    /// A comparison on the `i64` column `price`.
    Price(Op, i64),
    And(Vec<Pred>),
    Or(Vec<Pred>),
    Not(Box<Pred>),
}

impl Pred {
    /// Whether the tree is a plain conjunction of comparisons (`BETWEEN`
    /// is two of them).
    fn is_conjunctive(&self) -> bool {
        match self {
            Pred::Cmp(..) | Pred::Between(..) | Pred::Price(..) => true,
            Pred::And(ps) => ps.iter().all(Pred::is_conjunctive),
            Pred::Or(_) | Pred::Not(_) => false,
        }
    }

    fn write_sql(&self, ds: &Dataset, out: &mut String) {
        let join = |ps: &[Pred], sep: &str, out: &mut String| {
            out.push('(');
            for (i, p) in ps.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                p.write_sql(ds, out);
            }
            out.push(')');
        };
        match self {
            Pred::Cmp(c, op, lit) => {
                let _ = write!(out, "{} {} {lit}", ds.cols[*c].name, op.sql());
            }
            Pred::Between(c, lo, hi) => {
                let _ = write!(out, "{} BETWEEN {lo} AND {hi}", ds.cols[*c].name);
            }
            Pred::Price(op, lit) => {
                let _ = write!(out, "price {} {lit}", op.sql());
            }
            Pred::And(ps) => join(ps, " AND ", out),
            Pred::Or(ps) => join(ps, " OR ", out),
            Pred::Not(p) => {
                out.push_str("NOT ");
                join(std::slice::from_ref(p), "", out);
            }
        }
    }
}

/// An aggregate over `price`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Sum,
    Min,
    Max,
    Avg,
}

impl Agg {
    pub const ALL: [Agg; 4] = [Agg::Sum, Agg::Min, Agg::Max, Agg::Avg];

    fn sql(self) -> &'static str {
        match self {
            Agg::Sum => "SUM",
            Agg::Min => "MIN",
            Agg::Max => "MAX",
            Agg::Avg => "AVG",
        }
    }
}

/// What a statement selects.
#[derive(Debug, Clone)]
pub enum Select {
    /// `COUNT(*)`.
    Count,
    /// Aggregates over `price`.
    Aggs(Vec<Agg>),
    /// `SELECT <col>, price … LIMIT n`.
    Project { col: usize, limit: usize },
}

/// A statement class, for the per-class latency split. Every workload
/// reports all classes; a class missing from its mix reads 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `COUNT(*)` over a conjunctive chain.
    CountAnd,
    /// `COUNT(*)` over a tree with OR or NOT.
    CountBool,
    /// Aggregates over `price` with a WHERE clause.
    AggWhere,
    /// Aggregates over `price` without a WHERE clause.
    AggAll,
    /// Projections with `LIMIT`.
    Project,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::CountAnd,
        Class::CountBool,
        Class::AggWhere,
        Class::AggAll,
        Class::Project,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::CountAnd => "count_and",
            Class::CountBool => "count_bool",
            Class::AggWhere => "agg_where",
            Class::AggAll => "agg_all",
            Class::Project => "project",
        }
    }
}

/// One statement: its tree, class and SQL text.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub select: Select,
    pub filter: Option<Pred>,
    pub class: Class,
    pub sql: String,
}

impl Stmt {
    pub fn new(ds: &Dataset, select: Select, filter: Option<Pred>) -> Stmt {
        let class = match (&select, &filter) {
            (Select::Count, Some(p)) if !p.is_conjunctive() => Class::CountBool,
            (Select::Count, _) => Class::CountAnd,
            (Select::Aggs(_), Some(_)) => Class::AggWhere,
            (Select::Aggs(_), None) => Class::AggAll,
            (Select::Project { .. }, _) => Class::Project,
        };
        let mut sql = String::from("SELECT ");
        match &select {
            Select::Count => sql.push_str("COUNT(*)"),
            Select::Aggs(aggs) => {
                let items: Vec<String> =
                    aggs.iter().map(|a| format!("{}(price)", a.sql())).collect();
                sql.push_str(&items.join(", "));
            }
            Select::Project { col, .. } => {
                let _ = write!(sql, "{}, price", ds.cols[*col].name);
            }
        }
        let _ = write!(sql, " FROM {}", ds.table);
        if let Some(p) = &filter {
            sql.push_str(" WHERE ");
            p.write_sql(ds, &mut sql);
        }
        if let Select::Project { limit, .. } = select {
            let _ = write!(sql, " LIMIT {limit}");
        }
        Stmt {
            select,
            filter,
            class,
            sql,
        }
    }

    /// Whether the server may run the statement in a shared pass (an
    /// aggregate: `COUNT(*)` or aggregates over `price`).
    pub fn is_shareable(&self) -> bool {
        !matches!(self.select, Select::Project { .. })
    }
}
