//! The row-loop oracle. It evaluates a statement's tree over the raw
//! generated vectors, parses the server's response text, and compares
//! the two. It shares no code with the engine: only the benchmark's own
//! statement tree and the standard library.

use crate::data::Dataset;
use crate::stmt::{Agg, Pred, Select, Stmt};

/// One result cell.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    Int(i128),
    Float(f64),
}

impl Cell {
    fn same(self, other: Cell) -> bool {
        match (self, other) {
            (Cell::Int(a), Cell::Int(b)) => a == b,
            (a, b) => {
                let (a, b) = (a.as_f64(), b.as_f64());
                (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
            }
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            Cell::Int(v) => v as f64,
            Cell::Float(v) => v,
        }
    }
}

/// A statement's answer.
#[derive(Debug, Clone)]
pub enum Answer {
    Count(u64),
    Rows(Vec<Vec<Cell>>),
}

impl Answer {
    /// Whether two answers agree (floats to a relative 1e-9).
    pub fn agrees(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Count(a), Answer::Count(b)) => a == b,
            (Answer::Rows(a), Answer::Rows(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(ra, rb)| {
                        ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| x.same(*y))
                    })
            }
            _ => false,
        }
    }
}

/// Parse a response body: `COUNT(*) = n`, or a header line, one line per
/// row with ` | `-separated cells, and a `(n row(s))` footer.
pub fn parse(body: &str) -> Option<Answer> {
    if let Some(n) = body.strip_prefix("COUNT(*) = ") {
        return n.trim().parse().ok().map(Answer::Count);
    }
    let lines: Vec<&str> = body.lines().collect();
    let (footer, data) = lines.split_last()?;
    let data = data.get(1..)?;
    let n: usize = footer
        .strip_prefix('(')?
        .strip_suffix(" row(s))")?
        .parse()
        .ok()?;
    if n != data.len() {
        return None;
    }
    let rows = data
        .iter()
        .map(|line| {
            line.split(" | ")
                .map(|cell| match cell.parse::<i128>() {
                    Ok(v) => Some(Cell::Int(v)),
                    Err(_) => cell.parse::<f64>().ok().map(Cell::Float),
                })
                .collect::<Option<Vec<Cell>>>()
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Answer::Rows(rows))
}

/// Rows matching `pred`, as a byte mask evaluated one leaf at a time.
fn mask(pred: &Pred, ds: &Dataset) -> Vec<bool> {
    let combine = |ps: &[Pred], f: fn(bool, bool) -> bool| -> Vec<bool> {
        let mut acc = mask(&ps[0], ds);
        for p in &ps[1..] {
            for (a, b) in acc.iter_mut().zip(mask(p, ds)) {
                *a = f(*a, b);
            }
        }
        acc
    };
    match pred {
        Pred::Cmp(c, op, lit) => ds.cols[*c]
            .values
            .iter()
            .map(|&v| op.holds(v, *lit))
            .collect(),
        Pred::Between(c, lo, hi) => ds.cols[*c]
            .values
            .iter()
            .map(|&v| *lo <= v && v <= *hi)
            .collect(),
        Pred::Price(op, lit) => ds.price.iter().map(|&v| op.holds(v, *lit)).collect(),
        Pred::And(ps) => combine(ps, |a, b| a & b),
        Pred::Or(ps) => combine(ps, |a, b| a | b),
        Pred::Not(p) => mask(p, ds).into_iter().map(|m| !m).collect(),
    }
}

/// The answer the engine must give for `stmt`. Aggregates over no rows
/// read 0, as the engine renders them.
pub fn expected(stmt: &Stmt, ds: &Dataset) -> Answer {
    let rows = ds.rows();
    let hit = stmt.filter.as_ref().map(|p| mask(p, ds));
    let matches = |i: usize| hit.as_ref().is_none_or(|m| m[i]);
    match &stmt.select {
        Select::Count => Answer::Count((0..rows).filter(|&i| matches(i)).count() as u64),
        Select::Aggs(aggs) => {
            let (mut n, mut sum) = (0u64, 0i128);
            let (mut min, mut max) = (i64::MAX, i64::MIN);
            for i in (0..rows).filter(|&i| matches(i)) {
                let v = ds.price[i];
                n += 1;
                sum += v as i128;
                min = min.min(v);
                max = max.max(v);
            }
            let row = aggs
                .iter()
                .map(|agg| match (agg, n) {
                    (_, 0) => Cell::Int(0),
                    (Agg::Sum, _) => Cell::Int(sum),
                    (Agg::Min, _) => Cell::Int(min as i128),
                    (Agg::Max, _) => Cell::Int(max as i128),
                    (Agg::Avg, _) => Cell::Float(sum as f64 / n as f64),
                })
                .collect();
            Answer::Rows(vec![row])
        }
        Select::Project { col, limit } => Answer::Rows(
            (0..rows)
                .filter(|&i| matches(i))
                .take(*limit)
                .map(|i| {
                    vec![
                        Cell::Int(ds.cols[*col].values[i] as i128),
                        Cell::Int(ds.price[i] as i128),
                    ]
                })
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_server_renderings() {
        assert!(parse("COUNT(*) = 42").unwrap().agrees(&Answer::Count(42)));
        let rows = parse("SUM(price) | AVG(price)\n1500 | 2.5\n(1 row(s))").unwrap();
        let want = Answer::Rows(vec![vec![Cell::Int(1500), Cell::Float(2.5)]]);
        assert!(rows.agrees(&want));
        assert!(!rows.agrees(&Answer::Rows(vec![vec![Cell::Int(1501), Cell::Float(2.5)]])));
        assert!(
            parse("a | price\n1 | 2\n(2 row(s))").is_none(),
            "footer disagrees"
        );
        assert!(parse("overloaded").is_none());
    }
}
