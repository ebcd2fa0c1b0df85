//! # fts-query — the SQL pipeline around the Fused Table Scan
//!
//! A self-contained mini column-store DBMS implementing the paper's
//! Figs. 8–9 pipeline: SQL string → [`parser`] → AST → [`lqp`] (logical
//! plan with bound predicates and selectivity estimates) → [`optimizer`]
//! (pushdown, selectivity reordering, fused-chain tagging) → [`executor`]
//! (per-chunk effective-predicate translation, dictionary value-id
//! rewriting, fused/JIT kernel dispatch, dynamic fallback).
//!
//! Entry point: [`Engine`], a `Send + Sync` core with a copy-on-write
//! catalog, shared kernel caches and a shared calibration registry. One
//! owner (a REPL, a test) or many concurrent frontends (the `fts-server`
//! path) use it alike.

#![warn(missing_docs)]

pub mod ast;
pub mod catalog;
pub mod engine;
pub mod executor;
pub mod lexer;
pub mod lqp;
pub mod optimizer;
pub mod parser;
pub mod stats;

pub use catalog::Catalog;
pub use engine::{Engine, Prepared, QueryError};
pub use executor::{AnalyzeReport, CalibrationRegistry, ExecContext, JitMode, QueryResult};
pub use lqp::{BoundPred, Lqp};
pub use stats::ColumnStats;
