//! Seeded table generation. A dataset keeps its raw column vectors: the
//! engine receives a [`Table`] built from copies of them, and the oracle
//! answers from the vectors themselves.

use std::time::{Duration, Instant};

use fts_storage::{Column, ColumnDef, DataType, Layout, Table, TableError, DEFAULT_CHUNK_ROWS};

use crate::rng::Rng;

/// Prices are uniform in `1..=PRICE_MAX`.
pub const PRICE_MAX: i64 = 100_000;

/// The two table shapes the workloads scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Table `t`: four plain `u32` filter columns and a plain `i64` price.
    Plain,
    /// Table `z`: four `u32` filter columns fixed to the packed, FoR,
    /// byte-sliced and dictionary layouts, and a plain `i64` price.
    Compressed,
}

/// One `u32` filter column. Its values are `offset + step * r` with the
/// rank `r` in `0..domain`, so a literal of a wanted selectivity is a
/// rank away.
#[derive(Debug)]
pub struct Col {
    /// SQL name.
    pub name: &'static str,
    /// Raw values, one per row.
    pub values: Vec<u32>,
    /// Number of distinct ranks.
    pub domain: u32,
    offset: u32,
    step: u32,
    /// Storage layout the engine gets the column in.
    pub layout: Layout,
}

impl Col {
    /// The value of rank `r` (clamped to the domain).
    pub fn value(&self, r: u32) -> u32 {
        self.offset + self.step * r.min(self.domain - 1)
    }
}

/// A generated table: name, filter columns and the `price` column.
#[derive(Debug)]
pub struct Dataset {
    /// SQL table name.
    pub table: &'static str,
    /// Filter columns, in schema order.
    pub cols: Vec<Col>,
    /// The `i64` aggregate column, last in the schema.
    pub price: Vec<i64>,
}

impl Dataset {
    /// Generate `rows` rows of `shape` from `seed`.
    pub fn generate(shape: Shape, rows: usize, seed: u64) -> Dataset {
        let mut rng = Rng::stream(seed, 1);
        let mut uniform = |domain: u32, offset: u32, step: u32| -> Vec<u32> {
            (0..rows)
                .map(|_| offset + step * rng.below(domain as u64) as u32)
                .collect()
        };
        let col = |name, values, domain, offset, step, layout| Col {
            name,
            values,
            domain,
            offset,
            step,
            layout,
        };
        let (table, cols) = match shape {
            Shape::Plain => (
                "t",
                vec![
                    col(
                        "a",
                        uniform(1_000_000, 0, 1),
                        1_000_000,
                        0,
                        1,
                        Layout::Plain,
                    ),
                    col("b", uniform(10_000, 0, 1), 10_000, 0, 1, Layout::Plain),
                    col("c", uniform(100, 0, 1), 100, 0, 1, Layout::Plain),
                    col("d", uniform(10, 0, 1), 10, 0, 1, Layout::Plain),
                ],
            ),
            Shape::Compressed => {
                // Ship dates: ten years of days in row order plus a little
                // jitter, so FoR blocks are narrow and chunks cover
                // disjoint ranges, as a date column loaded over time does.
                const DAYS: u32 = 3650;
                const JITTER: u32 = 16;
                let mut jitter = Rng::stream(seed, 2);
                let day: Vec<u32> = (0..rows)
                    .map(|i| {
                        let base = (i as u64 * DAYS as u64 / rows.max(1) as u64) as u32;
                        20_000 + base + jitter.below(JITTER as u64) as u32
                    })
                    .collect();
                (
                    "z",
                    vec![
                        col("day", day, DAYS + JITTER, 20_000, 1, Layout::For),
                        col("qty", uniform(4096, 0, 1), 4096, 0, 1, Layout::Packed),
                        col(
                            "code",
                            uniform(1 << 24, 0, 1),
                            1 << 24,
                            0,
                            1,
                            Layout::ByteSliced,
                        ),
                        col(
                            "region",
                            uniform(200, 1000, 37),
                            200,
                            1000,
                            37,
                            Layout::Dict,
                        ),
                    ],
                )
            }
        };
        let mut prices = Rng::stream(seed, 3);
        let price = (0..rows)
            .map(|_| 1 + prices.below(PRICE_MAX as u64) as i64)
            .collect();
        Dataset { table, cols, price }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.price.len()
    }

    /// Raw bytes: rows × Σ column width.
    pub fn raw_bytes(&self) -> u64 {
        (self.rows() * (4 * self.cols.len() + 8)) as u64
    }

    /// Build the engine's table from copies of the raw vectors and encode
    /// each column to its fixed layout. Returns the table and the time
    /// spent in storage (chunking plus encoding).
    pub fn build_table(&self) -> (Table, Duration) {
        let mut schema: Vec<ColumnDef> = self
            .cols
            .iter()
            .map(|c| ColumnDef::new(c.name, DataType::U32))
            .collect();
        schema.push(ColumnDef::new("price", DataType::I64));
        let mut columns: Vec<Column> = self
            .cols
            .iter()
            .map(|c| Column::from_slice(&c.values))
            .collect();
        columns.push(Column::from_slice(&self.price));

        let started = Instant::now();
        let mut table = Table::from_chunked_columns(schema, columns, DEFAULT_CHUNK_ROWS)
            .expect("generated columns match the schema");
        let with = |layout: Layout| -> Vec<usize> {
            (0..self.cols.len())
                .filter(|&i| self.cols[i].layout == layout)
                .collect()
        };
        type Encode = fn(&Table, &[usize]) -> Result<Table, TableError>;
        let encoders: [(Layout, Encode); 4] = [
            (Layout::Packed, Table::with_bitpacking),
            (Layout::For, Table::with_for_encoding),
            (Layout::ByteSliced, Table::with_byte_slicing),
            (Layout::Dict, Table::with_dictionary_encoding),
        ];
        for (layout, encode) in encoders {
            let cols = with(layout);
            if !cols.is_empty() {
                table = encode(&table, &cols).expect("u32 columns encode to every layout");
            }
        }
        (table, started.elapsed())
    }
}

/// Heap bytes of every segment of `table`, per layout, in
/// [`Layout::ALL`] order.
pub fn heap_bytes_by_layout(table: &Table) -> Vec<(Layout, u64)> {
    Layout::ALL
        .iter()
        .map(|&layout| {
            let bytes = table
                .chunks()
                .iter()
                .flat_map(|chunk| chunk.segments())
                .filter(|seg| seg.layout() == layout)
                .map(|seg| seg.heap_bytes() as u64)
                .sum();
            (layout, bytes)
        })
        .collect()
}
