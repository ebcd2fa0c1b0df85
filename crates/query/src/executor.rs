//! Physical execution (paper Fig. 9: LQP Translator → Physical Query Plan
//! → Executor).
//!
//! Per chunk, the scan translator rewrites each bound predicate into its
//! *effective* form and binds it into one fused chain:
//!
//! * a plain 32- or 64-bit segment binds as itself;
//! * a **dictionary** segment of *any* type rewrites into a `u32` value-id
//!   predicate (paper assumption 3);
//! * a **bit-packed** segment binds as a packed source;
//! * frame-of-reference and byte-sliced segments run their own block-mask
//!   kernels, and their position lists intersect with the chain's;
//! * 8- and 16-bit plain columns, which have no fused source, filter the
//!   resulting position list row by row (phase 2).
//!
//! The chain runs with one call: an all-`u32` chain through the
//! pre-monomorphized kernels of `fts-core` or a machine-code kernel from
//! `fts-jit`'s cache (with adaptive calibration), a `u32` + packed chain
//! the JIT can compile through the same JIT entry point, and anything
//! else through `fts-core`'s dynamic entry — the fused driver, or the row
//! loop where the host cannot run it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fts_core::adaptive::{
    candidate_scan_impls, estimate_cost, rank_scan_impls, CalibrationConfig, Calibrator,
    ChainProfile, CostEstimate, Encoding, Phase, PredProfile,
};
use fts_core::{
    best_fused_impl, chain_telemetry, run_fused_auto, run_scan, run_scan_telemetered,
    scan_columns_auto_telemetered, value_key_bits, BoolExpr, BoundVerdict, ChainPred, OutputMode,
    RegWidth, ScanImpl, ScanOutput, ScanTelemetry, TelemetryLevel, TypedPred,
};
use fts_core::{fused_scan_for, scan_bytesliced, ForPred};
use fts_jit::{JitBackend, KernelCache, ScanSig};
use fts_simd::SimdLevel;
use fts_storage::{Chunk, CmpOp, DataType, IdPredicate, PosList, Segment, Value};

use std::sync::atomic::{AtomicU64, Ordering};

use crate::ast::AggFunc;
use crate::catalog::CatalogEntry;
use crate::lqp::{chain_text, BoundAgg, BoundPred, Lqp};

/// How scans execute their fused portion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitMode {
    /// Pre-monomorphized kernels from `fts-core` (the "static" path).
    Off,
    /// Machine-code kernels from the `fts-jit` cache when applicable
    /// (u32 chains of ≤ 5 predicates on AVX-512 hosts), falling back to
    /// the static kernels otherwise.
    On,
}

/// Execution context shared across queries.
pub struct ExecContext {
    /// JIT policy.
    pub jit: JitMode,
    /// Whether scans pick their kernel adaptively (plan-time cost model +
    /// runtime calibration) instead of always using the statically best
    /// fused kernel.
    pub adaptive: bool,
    /// Compiled-kernel cache (used when `jit == On`).
    pub kernels: Arc<KernelCache>,
    /// Compiled-kernel cache for chains with a bit-packed source
    /// (`jit == On`), kept apart so packed kernels do not compete with the
    /// plain chains for cache slots.
    pub packed_kernels: Arc<KernelCache>,
    /// Shared adaptive-calibration state, keyed by (table, sub-chain
    /// signature) — concurrent statements on the same chain feed one
    /// calibrator instead of each re-probing from scratch.
    pub calibration: Arc<CalibrationRegistry>,
    /// Chunks skipped by min/max pruning (observability + tests).
    pub chunks_pruned: AtomicU64,
    /// Chunks actually scanned.
    pub chunks_scanned: AtomicU64,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext {
            jit: if avx512_enabled() {
                JitMode::On
            } else {
                JitMode::Off
            },
            adaptive: true,
            kernels: Arc::new(KernelCache::new(JitBackend::Avx512)),
            packed_kernels: Arc::new(KernelCache::new(JitBackend::Avx512)),
            calibration: Arc::new(CalibrationRegistry::new()),
            chunks_pruned: AtomicU64::new(0),
            chunks_scanned: AtomicU64::new(0),
        }
    }
}

/// Whether the AVX-512 execution paths (JIT included) may run: the host
/// must have the ISA *and* `FTS_FORCE_SIMD` must not cap the level below
/// it — so forcing `scalar`/`avx2` disables machine-code kernels too.
fn avx512_enabled() -> bool {
    fts_simd::detect() >= SimdLevel::Avx512
}

/// Can `OP literal` match any value of a chunk with the given min/max?
/// Conservative under f64 rounding: only prunes when impossibility is
/// certain under the monotone int→f64 map (so `Ne` never prunes).
fn range_can_match(range: Option<(f64, f64)>, op: CmpOp, literal: Value) -> bool {
    let Some((min, max)) = range else {
        // Empty chunk or no orderable values: nothing to find.
        return false;
    };
    let Some(lit) = literal.as_f64() else {
        return true;
    };
    match op {
        CmpOp::Eq => lit >= min && lit <= max,
        CmpOp::Ne => true,
        CmpOp::Lt | CmpOp::Le => min <= lit,
        CmpOp::Gt | CmpOp::Ge => max >= lit,
    }
}

/// A query result.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// `COUNT(*)` result.
    Count(u64),
    /// Materialized rows.
    Rows {
        /// Column headers.
        columns: Vec<String>,
        /// Row-major values.
        rows: Vec<Vec<Value>>,
    },
    /// The optimized plan of an `EXPLAIN` statement.
    Explain(String),
}

impl QueryResult {
    /// The count, for count results.
    pub fn count(&self) -> Option<u64> {
        match self {
            QueryResult::Count(n) => Some(*n),
            QueryResult::Rows { .. } | QueryResult::Explain(_) => None,
        }
    }

    /// Number of result rows (count results report 1 logical row).
    pub fn num_rows(&self) -> usize {
        match self {
            QueryResult::Count(_) => 1,
            QueryResult::Rows { rows, .. } => rows.len(),
            QueryResult::Explain(text) => text.lines().count(),
        }
    }
}

/// Everything an `EXPLAIN ANALYZE` statement observed while executing:
/// merged phase-1 scan telemetry, chunk pruning, phase-2 row-wise filter
/// traffic and JIT kernel-cache activity.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeReport {
    /// Phase-1 scan telemetry merged across all scanned chunks (`morsels`
    /// counts the chunks that contributed).
    pub scan: ScanTelemetry,
    /// Chunks skipped by min/max pruning.
    pub chunks_pruned: u64,
    /// Chunks actually scanned.
    pub chunks_scanned: u64,
    /// Positions entering the row-wise phase-2 filter.
    pub phase2_rows_in: u64,
    /// Positions surviving phase 2.
    pub phase2_rows_out: u64,
    /// Frame-of-reference blocks whose payload was decoded and compared.
    pub for_blocks_scanned: u64,
    /// Frame-of-reference blocks resolved from the header alone (the
    /// compressed-domain rewrite proved the whole chain on them).
    pub for_blocks_pruned: u64,
    /// Byte-sliced 64-row × plane units actually compared.
    pub bs_plane_groups_read: u64,
    /// Byte-sliced plane units skipped by the most-significant-first
    /// early exit.
    pub bs_plane_groups_skipped: u64,
    /// JIT kernel-cache hits during the statement.
    pub jit_hits: u64,
    /// JIT kernel-cache misses (fresh compilations) during the statement.
    pub jit_misses: u64,
    /// JIT kernel-cache evictions during the statement.
    pub jit_evictions: u64,
    /// Time spent compiling machine-code kernels during the statement.
    pub jit_compile_time: Duration,
    /// Packed kernels resident after the statement.
    pub packed_kernels: usize,
    /// What the adaptive kernel selector decided (None when the scan ran
    /// on a chain shape the selector does not cover, or adaptivity is off).
    /// For disjunctive scans the per-sub-chain decisions live in
    /// [`AnalyzeReport::bool_scan`] instead.
    pub adaptive: Option<AdaptiveDecision>,
    /// Per-sub-chain statistics of a disjunctive (`FusedBoolScan`)
    /// statement (None for conjunctive scans).
    pub bool_scan: Option<BoolScanReport>,
    /// End-to-end execution wall time (planning excluded).
    pub wall: Duration,
}

/// What a disjunctive scan did, per fused sub-chain (`EXPLAIN ANALYZE`).
#[derive(Debug, Clone, Default)]
pub struct BoolScanReport {
    /// The factored common-prefix sub-chain (None when the disjuncts share
    /// no predicate).
    pub prefix: Option<SubChainReport>,
    /// Per-disjunct sub-chain reports, in execution order (least selective
    /// first).
    pub disjuncts: Vec<SubChainReport>,
    /// Chunks where the running union saturated (every row already
    /// matched) and the remaining disjuncts were skipped.
    pub saturated_chunks: u64,
}

/// One fused sub-chain of a disjunctive scan.
#[derive(Debug, Clone, Default)]
pub struct SubChainReport {
    /// Human-readable chain, e.g. `b = 1 AND c = 2`.
    pub label: String,
    /// Plan-time selectivity estimate (product over the conjuncts).
    pub expected_selectivity: f64,
    /// Rows of the chunks this sub-chain actually scanned.
    pub rows_scanned: u64,
    /// Positions the sub-chain produced across those chunks.
    pub rows_matched: u64,
    /// Chunks this sub-chain skipped (min/max pruning or union
    /// saturation).
    pub chunks_skipped: u64,
    /// This sub-chain's own adaptive decision. Calibration state is keyed
    /// per sub-chain signature, so probe statistics are never mixed across
    /// the sub-chains of one disjunction.
    pub adaptive: Option<AdaptiveDecision>,
}

impl AnalyzeReport {
    /// Fold one chunk's scan telemetry into the report.
    fn note_scan(&mut self, t: &ScanTelemetry) {
        if self.scan.morsels == 0 {
            self.scan = t.clone();
        } else {
            self.scan.merge(t);
        }
    }

    /// Render the `EXPLAIN ANALYZE` block. `peak_gb_per_sec` is the
    /// machine's peak sequential read bandwidth (e.g.
    /// `fts_core::stride::peak_bandwidth_gbps()`); it anchors the
    /// bandwidth-bound-vs-compute-bound verdict.
    pub fn render(&self, peak_gb_per_sec: f64) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall={:.3?}  chunks: scanned={}  pruned={}",
            self.wall, self.chunks_scanned, self.chunks_pruned
        );
        out.push_str(&self.scan.render());
        if self.phase2_rows_in > 0 {
            let _ = writeln!(
                out,
                "phase 2 (row-wise): rows_in={}  rows_out={}",
                self.phase2_rows_in, self.phase2_rows_out
            );
        }
        if self.for_blocks_scanned + self.for_blocks_pruned > 0 {
            let _ = writeln!(
                out,
                "for scan: blocks_scanned={}  blocks_pruned={}",
                self.for_blocks_scanned, self.for_blocks_pruned
            );
        }
        if self.bs_plane_groups_read + self.bs_plane_groups_skipped > 0 {
            let _ = writeln!(
                out,
                "bytesliced scan: plane_groups_read={}  skipped={}",
                self.bs_plane_groups_read, self.bs_plane_groups_skipped
            );
        }
        if self.jit_hits + self.jit_misses > 0 || self.packed_kernels > 0 {
            let _ = writeln!(
                out,
                "jit: hits={}  misses={}  evictions={}  compile={:.3?}  packed_kernels={}",
                self.jit_hits,
                self.jit_misses,
                self.jit_evictions,
                self.jit_compile_time,
                self.packed_kernels
            );
        }
        if let Some(a) = &self.adaptive {
            let _ = writeln!(
                out,
                "adaptive: winner={}  reprobes={}  selectivity expected={:.4} observed={:.4}",
                a.winner.unwrap_or("(calibrating)"),
                a.reprobes,
                a.expected_selectivity,
                a.observed_selectivity
            );
            if let (Some((name, est_ns)), Some(v)) = (a.plan.first(), a.plan_verdict) {
                let _ = writeln!(out, "  plan: best={name}  est={est_ns:.0}ns  model={v}");
            }
            for (name, morsels, vpu) in &a.probed {
                let _ = writeln!(
                    out,
                    "  probed {name}: {morsels} morsels, {vpu:.0} values/µs"
                );
            }
        }
        if let Some(b) = &self.bool_scan {
            let _ = writeln!(
                out,
                "bool scan: {} disjuncts  saturated_chunks={}",
                b.disjuncts.len(),
                b.saturated_chunks
            );
            let render_chain = |out: &mut String, role: String, s: &SubChainReport| {
                let _ = writeln!(
                    out,
                    "  {role} ꔖ[{}]: sel≈{:.4}  rows {} -> {}  skipped_chunks={}",
                    s.label,
                    s.expected_selectivity,
                    s.rows_scanned,
                    s.rows_matched,
                    s.chunks_skipped
                );
                if let Some(a) = &s.adaptive {
                    let _ = writeln!(
                        out,
                        "    adaptive: winner={}  observed_sel={:.4}",
                        a.winner.unwrap_or("(calibrating)"),
                        a.observed_selectivity
                    );
                }
            };
            if let Some(p) = &b.prefix {
                render_chain(&mut out, "prefix".to_string(), p);
            }
            for (i, d) in b.disjuncts.iter().enumerate() {
                render_chain(&mut out, format!("disjunct {}", i + 1), d);
            }
        }
        let _ = writeln!(
            out,
            "peak read bandwidth={:.2} GB/s -> {}",
            peak_gb_per_sec,
            self.scan.verdict(peak_gb_per_sec)
        );
        out
    }
}

/// A kernel the query-layer adaptive selector can pick for a `u32` chain:
/// the JIT'd machine-code kernel or one of the static engines.
#[derive(Debug, Clone, Copy, PartialEq)]
enum QueryKernel {
    /// Machine-code kernel from the `fts-jit` cache (AVX-512 backend).
    Jit,
    /// A pre-monomorphized engine from `fts-core`.
    Static(ScanImpl),
}

impl QueryKernel {
    fn name(self) -> &'static str {
        match self {
            QueryKernel::Jit => "jit-avx512(w512)",
            QueryKernel::Static(imp) => imp.name(),
        }
    }
}

/// Per-statement adaptive-selection state: the plan-time ranking and the
/// runtime calibrator, shared by every chunk the statement scans (each
/// chunk is one calibration morsel).
pub struct AdaptiveState {
    ranked: Vec<(QueryKernel, CostEstimate)>,
    cal: Calibrator<QueryKernel>,
}

impl AdaptiveState {
    fn decision(&self) -> AdaptiveDecision {
        let report = self.cal.report();
        AdaptiveDecision {
            plan: self
                .ranked
                .iter()
                .map(|(k, c)| (k.name(), c.est_ns))
                .collect(),
            plan_verdict: self.ranked.first().map(|(_, c)| c.verdict()),
            probed: report
                .candidates
                .iter()
                .map(|c| (c.kernel.name(), c.morsels, c.values_per_us()))
                .collect(),
            winner: report.winner.map(QueryKernel::name),
            reprobes: report.reprobes,
            expected_selectivity: report.expected_selectivity,
            observed_selectivity: report.observed_selectivity,
        }
    }
}

/// A sub-chain's calibration identity across statements: the table it
/// scans plus its per-predicate signature.
type CalKey = (String, SubChainKey);

/// Cross-statement calibration state, keyed by (table, sub-chain
/// signature).
///
/// The calibrator for a chain is a little state machine (probe →
/// winner → drift re-probe) whose transitions assume its observations
/// arrive one at a time; two statements interleaving raw `observe`
/// calls on one instance would corrupt probe timings and winner
/// choice. The registry therefore hands out each chain's state behind
/// its own `Mutex`: a statement locks it for the duration of one chunk
/// scan, so observations serialize per chain while different chains —
/// and different tables — calibrate fully in parallel. Sharing the
/// state is also what makes a server warm: the second connection to ask
/// the same question starts in steady state instead of re-probing.
///
/// The key holds literal bits, so a stream of fresh literals would grow
/// the registry without end: past [`fts_jit::cache::DEFAULT_CACHE_CAPACITY`]
/// chains it drops the least-recently-used one, which then recalibrates
/// if it returns.
pub struct CalibrationRegistry {
    states: Mutex<CalStates>,
}

/// The registry's map plus its LRU clock; each entry keeps the tick of
/// its last lookup.
#[derive(Default)]
struct CalStates {
    map: HashMap<CalKey, (Arc<Mutex<AdaptiveState>>, u64)>,
    tick: u64,
}

impl CalibrationRegistry {
    /// Empty registry.
    pub fn new() -> CalibrationRegistry {
        CalibrationRegistry {
            states: Mutex::new(CalStates::default()),
        }
    }

    /// The chain's shared state, building it with `build` on first use.
    /// `build` returning None (chain shape not covered by the selector)
    /// is not cached, so a later statement may still succeed.
    fn get_or_build(
        &self,
        table: &str,
        key: &SubChainKey,
        build: impl FnOnce() -> Option<AdaptiveState>,
    ) -> Option<Arc<Mutex<AdaptiveState>>> {
        let mut states = lock_plain(&self.states);
        states.tick += 1;
        let tick = states.tick;
        let key = (table.to_string(), key.clone());
        if let Some((state, used)) = states.map.get_mut(&key) {
            *used = tick;
            return Some(Arc::clone(state));
        }
        let state = Arc::new(Mutex::new(build()?));
        if states.map.len() >= fts_jit::cache::DEFAULT_CACHE_CAPACITY {
            let lru = states
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(key, _)| key.clone());
            if let Some(lru) = lru {
                states.map.remove(&lru);
            }
        }
        states.map.insert(key, (Arc::clone(&state), tick));
        Some(state)
    }

    /// Mean observed selectivity across calibrated chains of `table` that
    /// mention `column` — the layout advisor's scan-behaviour signal.
    /// `None` until some chain over the column has observed rows.
    pub fn observed_selectivity(&self, table: &str, column: usize) -> Option<f64> {
        let states = lock_plain(&self.states);
        let (mut acc, mut n) = (0.0f64, 0u32);
        for ((t, key), (state, _)) in states.map.iter() {
            if t == table && key.iter().any(|&(c, _, _)| c == column) {
                let sel = lock_plain(state).cal.report().observed_selectivity;
                if sel > 0.0 {
                    acc += sel;
                    n += 1;
                }
            }
        }
        (n > 0).then(|| acc / n as f64)
    }

    /// Number of chains with live calibration state.
    pub fn len(&self) -> usize {
        lock_plain(&self.states).map.len()
    }

    /// Whether no chain has calibration state yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for CalibrationRegistry {
    fn default() -> Self {
        CalibrationRegistry::new()
    }
}

impl std::fmt::Debug for CalibrationRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalibrationRegistry")
            .field("chains", &self.len())
            .finish()
    }
}

/// Lock with poison recovery: calibration state is advisory (it only
/// picks kernels), so a panicking statement must not wedge the server.
fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What the adaptive selector decided for one statement, for
/// `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveDecision {
    /// Plan-time ranking (cheapest first): kernel name, estimated ns for
    /// the whole chain.
    pub plan: Vec<(&'static str, f64)>,
    /// The cost model's bandwidth-vs-compute verdict for the top kernel.
    pub plan_verdict: Option<BoundVerdict>,
    /// Candidates runtime calibration timed: name, probe morsels,
    /// measured values/µs.
    pub probed: Vec<(&'static str, u64, f64)>,
    /// The winning kernel (None while still calibrating).
    pub winner: Option<&'static str>,
    /// Selectivity-drift re-probes triggered during the statement.
    pub reprobes: u32,
    /// Plan-time estimate of the chain's selectivity.
    pub expected_selectivity: f64,
    /// Selectivity actually observed across all scanned rows.
    pub observed_selectivity: f64,
}

/// Build the adaptive-selection state for a statement whose scan the
/// selector covers: a non-empty predicate chain over plain-`u32` or
/// dictionary segments (both run the fused `u32` kernels). Other shapes
/// (packed, typed, row-wise) return None and run their usual path.
fn build_adaptive(
    entry: &CatalogEntry,
    preds: &[BoundPred],
    ctx: &ExecContext,
) -> Option<AdaptiveState> {
    if !ctx.adaptive || preds.is_empty() {
        return None;
    }
    let first = entry.table.chunks().first()?;
    let mut profiles = Vec::with_capacity(preds.len());
    for p in preds {
        let encoding = match first.segment(p.column) {
            Segment::Plain(col) if col.data_type() == DataType::U32 => Encoding::Plain,
            Segment::Dict(_) => Encoding::Dict,
            _ => return None,
        };
        profiles.push(PredProfile {
            selectivity: p.selectivity,
            width_bytes: 4,
            encoding,
        });
    }
    let profile = ChainProfile {
        rows: entry.table.chunks().iter().map(|c| c.rows() as u64).sum(),
        preds: profiles,
    };
    let peak = fts_core::stride::peak_bandwidth_gbps();
    let mut ranked: Vec<(QueryKernel, CostEstimate)> =
        rank_scan_impls(&candidate_scan_impls::<u32>(), &profile, peak)
            .into_iter()
            .map(|r| (QueryKernel::Static(r.kernel), r.cost))
            .collect();
    if ctx.jit == JitMode::On && avx512_enabled() && preds.len() <= fts_jit::MAX_JIT_PREDICATES {
        // The JIT kernel runs the same fused 512-bit algorithm with the
        // literals and operators baked in; model it as the static kernel
        // minus the dispatch overhead so it ranks just ahead of its twin.
        let mut cost = estimate_cost(ScanImpl::FusedAvx512(RegWidth::W512), &profile, peak);
        cost.est_ns *= 0.97;
        cost.compute_ns *= 0.97;
        let at = ranked
            .iter()
            .position(|(_, c)| c.est_ns > cost.est_ns)
            .unwrap_or(ranked.len());
        ranked.insert(at, (QueryKernel::Jit, cost));
    }
    let kernels: Vec<QueryKernel> = ranked.iter().map(|&(k, _)| k).collect();
    let cal = Calibrator::new(
        &kernels,
        profile.expected_selectivity(),
        CalibrationConfig::default(),
    );
    Some(AdaptiveState { ranked, cal })
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The plan has a shape the executor does not support (internal).
    UnsupportedPlan(String),
    /// A predicate's literal/type combination failed at runtime (internal —
    /// the binder should have rejected it).
    PredicateTypeError,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnsupportedPlan(s) => write!(f, "unsupported plan: {s}"),
            ExecError::PredicateTypeError => write!(f, "predicate type error"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Evaluate the predicate chain over one chunk, returning matching
/// positions (chunk-relative).
fn scan_chunk(
    chunk: &Chunk,
    preds: &[BoundPred],
    ctx: &ExecContext,
    mode: OutputMode,
    mut analyze: Option<&mut AnalyzeReport>,
    adaptive: Option<&mut AdaptiveState>,
) -> Result<ScanOutput, ExecError> {
    // 1. Rewrite into effective predicates: plain, dictionary and packed
    // segments bind into one driver chain; FoR and byte-sliced segments
    // keep their own kernels; 8/16-bit plain columns filter row-wise.
    let mut chain: Vec<ChainPred<'_>> = Vec::new();
    let mut for_preds: Vec<(&fts_storage::ForColumn, CmpOp, u32)> = Vec::new();
    let mut bs_preds: Vec<(&fts_storage::ByteSlicedColumn, CmpOp, u32)> = Vec::new();
    let mut dynp: Vec<(&fts_storage::Column, CmpOp, Value)> = Vec::new();

    for p in preds {
        let seg = chunk.segment(p.column);
        let needle = || match p.value {
            Value::U32(n) => Ok(n),
            _ => Err(ExecError::PredicateTypeError),
        };
        match seg {
            Segment::Dict(d) => {
                let ip = d
                    .translate(p.op, p.value)
                    .ok_or(ExecError::PredicateTypeError)?;
                match ip {
                    IdPredicate::MatchNone => {
                        return Ok(match mode {
                            OutputMode::Count => ScanOutput::Count(0),
                            OutputMode::Positions => ScanOutput::Positions(PosList::new()),
                        });
                    }
                    IdPredicate::MatchAll => { /* predicate vanishes */ }
                    IdPredicate::Cmp(op, id) => {
                        chain.push(ChainPred::U32(TypedPred::new(d.value_ids(), op, id)))
                    }
                }
            }
            Segment::Packed(col) => chain.push(ChainPred::Packed {
                col,
                op: p.op,
                needle: needle()?,
            }),
            Segment::For(col) => for_preds.push((col, p.op, needle()?)),
            Segment::ByteSliced(col) => bs_preds.push((col, p.op, needle()?)),
            Segment::Plain(col) => match ChainPred::bind(col, p.op, p.value) {
                Some(cp) => chain.push(cp),
                None if col.data_type().width() < 4 => dynp.push((col, p.op, p.value)),
                None => return Err(ExecError::PredicateTypeError),
            },
        }
    }

    // 2. Phase 1 — one fused scan per layout group: the driver chain, the
    // FoR chain, each byte-sliced predicate. When several groups are
    // present each emits a position list and the lists intersect. An
    // all-u32 driver chain fuses into the FoR chain instead of running
    // alone.
    let rows = chunk.rows() as u32;
    let all_u32 = chain.iter().all(|p| matches!(p, ChainPred::U32(_)));
    let for_plain: &[ChainPred<'_>] = if all_u32 { &chain } else { &[] };
    let chain_alone = !chain.is_empty() && (for_preds.is_empty() || !all_u32);
    let groups = usize::from(chain_alone) + usize::from(!for_preds.is_empty()) + bs_preds.len();
    let phase1_mode = if dynp.is_empty() && groups <= 1 {
        mode
    } else {
        OutputMode::Positions
    };
    let mut outs: Vec<ScanOutput> = Vec::with_capacity(groups);
    if chain_alone {
        outs.push(run_chain(
            &chain,
            ctx,
            phase1_mode,
            analyze.as_deref_mut(),
            adaptive,
        ));
    }
    if !for_preds.is_empty() {
        let plain = for_plain.iter().map(|p| match p {
            ChainPred::U32(tp) => ForPred::Plain(*tp),
            _ => unreachable!("only all-u32 chains join the FoR chain"),
        });
        let fors = for_preds
            .iter()
            .map(|&(col, op, needle)| ForPred::For { col, op, needle });
        let for_chain: Vec<ForPred<'_>> = plain.chain(fors).collect();
        let (out, stats) = fused_scan_for(&for_chain, phase1_mode)
            .map_err(|e| ExecError::UnsupportedPlan(e.to_string()))?;
        if let Some(r) = analyze.as_deref_mut() {
            r.for_blocks_scanned += stats.blocks_scanned;
            r.for_blocks_pruned += stats.blocks_pruned;
        }
        outs.push(out);
    }
    for &(col, op, needle) in &bs_preds {
        let (out, stats) = scan_bytesliced(col, op, needle, phase1_mode);
        if let Some(r) = analyze.as_deref_mut() {
            r.bs_plane_groups_read += stats.plane_groups_read;
            r.bs_plane_groups_skipped += stats.plane_groups_skipped;
        }
        outs.push(out);
    }
    let phase1: ScanOutput = match outs.len() {
        0 => match phase1_mode {
            OutputMode::Count if dynp.is_empty() => ScanOutput::Count(rows as u64),
            _ => ScanOutput::Positions((0..rows).collect()),
        },
        1 => outs.pop().expect("one group"),
        _ => ScanOutput::Positions(intersect_all(outs)),
    };

    if dynp.is_empty() {
        return Ok(match (mode, phase1) {
            (OutputMode::Count, o) => ScanOutput::Count(o.count()),
            (OutputMode::Positions, o) => o,
        });
    }

    // 3. Phase 2 — row-wise filtering of the position list by the 8- and
    // 16-bit plain columns, which have no driver source.
    let positions = phase1.positions().expect("phase 1 produced positions");
    let rows_in = positions.len() as u64;
    let mut out = PosList::new();
    'rows: for pos in positions {
        for (col, op, needle) in &dynp {
            if !col
                .matches_at(pos as usize, *op, *needle)
                .ok_or(ExecError::PredicateTypeError)?
            {
                continue 'rows;
            }
        }
        out.push(pos);
    }
    if let Some(r) = analyze {
        r.phase2_rows_in += rows_in;
        r.phase2_rows_out += out.len() as u64;
    }
    Ok(match mode {
        OutputMode::Count => ScanOutput::Count(out.len() as u64),
        OutputMode::Positions => ScanOutput::Positions(out),
    })
}

/// Intersect the position lists of several phase-1 groups (sorted merge).
fn intersect_all(outs: Vec<ScanOutput>) -> PosList {
    outs.into_iter()
        .map(|out| match out {
            ScanOutput::Positions(pl) => pl,
            ScanOutput::Count(_) => unreachable!("positions requested from every group"),
        })
        .reduce(|acc, pl| acc.intersect(&pl))
        .expect("at least one group")
}

/// Run one driver chain: an all-`u32` chain through [`run_u32_chain`]
/// (JIT and calibrator), a packed chain the JIT can compile through
/// [`run_jit`], anything else through core's dynamic entry (the fused
/// driver, or the row loop where the host cannot run it). Chains longer
/// than one kernel supports are split into groups whose position lists
/// are intersected.
fn run_chain(
    chain: &[ChainPred<'_>],
    ctx: &ExecContext,
    mode: OutputMode,
    mut analyze: Option<&mut AnalyzeReport>,
    adaptive: Option<&mut AdaptiveState>,
) -> ScanOutput {
    let max = fts_core::fused::MAX_PREDICATES;
    if chain.len() > max {
        // Split groups have a different shape than the calibrated chain,
        // so they run uncalibrated.
        let outs = chain
            .chunks(max)
            .map(|group| {
                run_chain(
                    group,
                    ctx,
                    OutputMode::Positions,
                    analyze.as_deref_mut(),
                    None,
                )
            })
            .collect();
        let pl = intersect_all(outs);
        return match mode {
            OutputMode::Count => ScanOutput::Count(pl.len() as u64),
            OutputMode::Positions => ScanOutput::Positions(pl),
        };
    }
    if chain.iter().all(|p| matches!(p, ChainPred::U32(_))) {
        return run_u32_chain(chain, ctx, mode, analyze, adaptive);
    }
    if let Some((out, wall)) = run_jit(chain, ctx, mode) {
        if let Some(r) = analyze {
            r.note_scan(&chain_telemetry("jit-packed", chain, 16, wall));
        }
        return out;
    }
    let level = if analyze.is_some() {
        TelemetryLevel::Full
    } else {
        TelemetryLevel::Off
    };
    let (out, t) = scan_columns_auto_telemetered(chain, mode, level);
    if let Some(r) = analyze {
        r.note_scan(&t);
    }
    out
}

/// Run `chain` through a JIT kernel when JIT is on, AVX-512 is enabled
/// ([`avx512_enabled`], so `FTS_FORCE_SIMD` caps it) and the chain is one
/// the executor compiles: at most [`fts_jit::MAX_JIT_PREDICATES`]
/// predicates, either all plain `u32` ([`ExecContext::kernels`]) or plain
/// `u32` and packed sources with in-domain literals
/// ([`ExecContext::packed_kernels`]). Plain predicates go first, and a
/// packed-only chain needs a driver of at most 16 bits. `None` leaves the
/// chain to the static path. Returns the output and the kernel's wall
/// time.
fn run_jit(
    chain: &[ChainPred<'_>],
    ctx: &ExecContext,
    mode: OutputMode,
) -> Option<(ScanOutput, Duration)> {
    if ctx.jit != JitMode::On || !avx512_enabled() || chain.len() > fts_jit::MAX_JIT_PREDICATES {
        return None;
    }
    let in_domain = |p: &ChainPred<'_>| match *p {
        ChainPred::Packed { col, needle, .. } => needle <= fts_storage::mask_of(col.bits()),
        _ => false,
    };
    let (plain, packed): (Vec<ChainPred<'_>>, Vec<ChainPred<'_>>) =
        chain.iter().partition(|p| matches!(p, ChainPred::U32(_)));
    if !packed.iter().all(in_domain) {
        return None;
    }
    if let (None, Some(ChainPred::Packed { col, .. })) = (plain.first(), packed.first()) {
        if col.bits() > 16 {
            return None;
        }
    }
    let cache = if packed.is_empty() {
        &ctx.kernels
    } else {
        &ctx.packed_kernels
    };
    let ordered: Vec<ChainPred<'_>> = plain.into_iter().chain(packed).collect();
    let sig = ScanSig::of_chain(&ordered, mode == OutputMode::Positions);
    let kernel = cache.get_or_compile(&sig).ok()?;
    let started = Instant::now();
    let out = kernel.run(&ordered).ok()?;
    Some((out, started.elapsed()))
}

/// Run a homogeneous `u32` chain of at most [`fts_core::fused::MAX_PREDICATES`]
/// predicates through the best available engine.
fn run_u32_chain(
    chain: &[ChainPred<'_>],
    ctx: &ExecContext,
    mode: OutputMode,
    analyze: Option<&mut AnalyzeReport>,
    adaptive: Option<&mut AdaptiveState>,
) -> ScanOutput {
    let typed: Vec<TypedPred<'_, u32>> = chain
        .iter()
        .map(|p| match p {
            ChainPred::U32(tp) => *tp,
            _ => unreachable!("an all-u32 chain"),
        })
        .collect();
    // The calibrator (if any) picks this chunk's kernel — a probe
    // candidate while calibrating, the winner in steady state. Without
    // one, the static policy applies: JIT when enabled, else the best
    // pre-monomorphized fused kernel.
    let picked = adaptive.as_ref().map(|s| match s.cal.phase() {
        Phase::Calibrating(k) | Phase::Steady(k) => k,
    });
    let rows = typed[0].data.len() as u64;
    if !matches!(picked, Some(QueryKernel::Static(_))) {
        if let Some((out, wall)) = run_jit(chain, ctx, mode) {
            if let Some(s) = adaptive {
                s.cal
                    .observe(QueryKernel::Jit, rows, wall.as_nanos() as u64, out.count());
            }
            if let Some(r) = analyze {
                // The JIT kernel implements the same per-block fused
                // algorithm as the 512-bit AVX-512 engine, so the
                // scalar-model replay yields its exact stage counters;
                // only the wall time comes from the machine-code run.
                let mut t = fts_core::telemetry::collect(
                    ScanImpl::FusedAvx512(RegWidth::W512),
                    &typed,
                    TelemetryLevel::Full,
                );
                t.impl_name = "jit-avx512(w512)";
                t.wall = wall;
                r.note_scan(&t);
            }
            return out;
        }
    }
    let imp = match picked {
        Some(QueryKernel::Static(imp)) => imp,
        // Adaptive picked JIT but compilation/run failed: fall back.
        _ => best_fused_impl::<u32>(),
    };
    // Calibration uses the kernel's own wall time: `run_scan_telemetered`
    // times the real run before its stage-replay pass, so EXPLAIN ANALYZE
    // does not bias the probe timings.
    let (out, wall) = if let Some(r) = analyze {
        let (out, t) = run_scan_telemetered(imp, &typed, mode, TelemetryLevel::Full)
            .expect("ranked kernels are runnable on this host");
        let wall = t.wall;
        r.note_scan(&t);
        (out, wall)
    } else {
        let started = Instant::now();
        let out = if picked.is_some() {
            run_scan(imp, &typed, mode).expect("ranked kernels are runnable on this host")
        } else {
            run_fused_auto(&typed, mode)
        };
        (out, started.elapsed())
    };
    if let Some(s) = adaptive {
        s.cal.observe(
            QueryKernel::Static(imp),
            rows,
            wall.as_nanos() as u64,
            out.count(),
        );
    }
    out
}

/// Execute an optimized logical plan.
pub fn execute(plan: &Lqp, ctx: &ExecContext) -> Result<QueryResult, ExecError> {
    execute_with(plan, ctx, None)
}

/// Execute a plan and collect an [`AnalyzeReport`] — the `EXPLAIN ANALYZE`
/// path. Scans run at [`TelemetryLevel::Full`], so this costs one extra
/// instrumented pass per chunk; plain [`execute`] stays uninstrumented.
pub fn execute_analyzed(
    plan: &Lqp,
    ctx: &ExecContext,
) -> Result<(QueryResult, AnalyzeReport), ExecError> {
    let mut report = AnalyzeReport::default();
    let jit0 = ctx.kernels.stats();
    let pruned0 = ctx.chunks_pruned.load(Ordering::Relaxed);
    let scanned0 = ctx.chunks_scanned.load(Ordering::Relaxed);
    let started = Instant::now();
    let result = execute_with(plan, ctx, Some(&mut report))?;
    report.wall = started.elapsed();
    let jit1 = ctx.kernels.stats();
    report.jit_hits = jit1.hits.saturating_sub(jit0.hits);
    report.jit_misses = jit1.misses.saturating_sub(jit0.misses);
    report.jit_evictions = jit1.evictions.saturating_sub(jit0.evictions);
    report.jit_compile_time = jit1.compile_time.saturating_sub(jit0.compile_time);
    report.packed_kernels = ctx.packed_kernels.len();
    report.chunks_pruned = ctx
        .chunks_pruned
        .load(Ordering::Relaxed)
        .saturating_sub(pruned0);
    report.chunks_scanned = ctx
        .chunks_scanned
        .load(Ordering::Relaxed)
        .saturating_sub(scanned0);
    Ok((result, report))
}

/// Execute several aggregate statements over the *same* stored table as
/// one chunk-major shared pass (cooperative scan): the outer loop walks
/// the table's chunks once, and every statement evaluates its predicate
/// chain against the chunk while it is hot in cache. With K compatible
/// statements this reads each chunk from memory once instead of K times —
/// the win that makes concurrent-scan batching pay in the bandwidth-bound
/// regime.
///
/// Returns `None` (caller falls back to per-statement execution) unless
/// every plan is an `Aggregate` whose scan bottoms out in the same table.
/// Each statement keeps its own pruning, adaptive state and aggregation,
/// so per-statement results are bit-identical to solo execution.
pub fn execute_shared(
    plans: &[&Lqp],
    ctx: &ExecContext,
) -> Option<Vec<Result<QueryResult, ExecError>>> {
    struct SharedQuery<'p> {
        aggs: &'p [BoundAgg],
        entry: &'p CatalogEntry,
        scan: StatementScan<'p>,
        /// Pure COUNT(*) runs in count mode end to end.
        count_only: bool,
        total: u64,
        states: Vec<AggState>,
        failed: Option<ExecError>,
    }

    if plans.is_empty() {
        return None;
    }
    let mut queries = Vec::with_capacity(plans.len());
    for plan in plans {
        let Lqp::Aggregate { input, aggs } = plan else {
            return None;
        };
        let (entry, scan) = StatementScan::build(input, ctx).ok()?;
        queries.push(SharedQuery {
            aggs,
            entry,
            scan,
            count_only: aggs.len() == 1 && aggs[0].func == AggFunc::Count,
            total: 0,
            states: aggs.iter().map(AggState::new).collect(),
            failed: None,
        });
    }
    let first = queries[0].entry;
    if !queries
        .iter()
        .all(|q| Arc::ptr_eq(&q.entry.table, &first.table))
    {
        return None;
    }

    for (ci, chunk) in first.table.chunks().iter().enumerate() {
        for q in &mut queries {
            if q.failed.is_some() {
                continue;
            }
            if q.scan.prune(q.entry, ci) {
                ctx.chunks_pruned.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            ctx.chunks_scanned.fetch_add(1, Ordering::Relaxed);
            let mode = if q.count_only {
                OutputMode::Count
            } else {
                OutputMode::Positions
            };
            match q.scan.scan(q.entry, ci, chunk, ctx, mode, None) {
                Err(e) => q.failed = Some(e),
                Ok(out) if q.count_only => q.total += out.count(),
                Ok(out) => {
                    let positions = out.positions().expect("positions requested");
                    for pos in positions {
                        for (state, agg) in q.states.iter_mut().zip(q.aggs) {
                            state.accumulate(agg, chunk, pos as usize);
                        }
                    }
                }
            }
        }
    }

    Some(
        queries
            .into_iter()
            .map(|q| {
                if let Some(e) = q.failed {
                    return Err(e);
                }
                if q.count_only {
                    return Ok(QueryResult::Count(q.total));
                }
                Ok(QueryResult::Rows {
                    columns: q.aggs.iter().map(|a| a.label.clone()).collect(),
                    rows: vec![q
                        .states
                        .into_iter()
                        .zip(q.aggs)
                        .map(|(st, agg)| st.finish(agg))
                        .collect()],
                })
            })
            .collect(),
    )
}

fn execute_with(
    plan: &Lqp,
    ctx: &ExecContext,
    mut analyze: Option<&mut AnalyzeReport>,
) -> Result<QueryResult, ExecError> {
    match plan {
        Lqp::Aggregate { input, aggs } => {
            let (entry, mut scan) = StatementScan::build(input, ctx)?;
            // Pure COUNT(*) needs no gathered values — count mode end to end.
            if aggs.len() == 1 && aggs[0].func == AggFunc::Count {
                let mut total = 0u64;
                for (ci, chunk) in entry.table.chunks().iter().enumerate() {
                    if scan.prune(entry, ci) {
                        ctx.chunks_pruned.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    ctx.chunks_scanned.fetch_add(1, Ordering::Relaxed);
                    total += scan
                        .scan(
                            entry,
                            ci,
                            chunk,
                            ctx,
                            OutputMode::Count,
                            analyze.as_deref_mut(),
                        )?
                        .count();
                }
                scan.finish(analyze);
                return Ok(QueryResult::Count(total));
            }
            let mut states: Vec<AggState> = aggs.iter().map(AggState::new).collect();
            for (ci, chunk) in entry.table.chunks().iter().enumerate() {
                if scan.prune(entry, ci) {
                    ctx.chunks_pruned.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                ctx.chunks_scanned.fetch_add(1, Ordering::Relaxed);
                let out = scan.scan(
                    entry,
                    ci,
                    chunk,
                    ctx,
                    OutputMode::Positions,
                    analyze.as_deref_mut(),
                )?;
                let positions = out.positions().expect("positions requested");
                for pos in positions {
                    for (state, agg) in states.iter_mut().zip(aggs) {
                        state.accumulate(agg, chunk, pos as usize);
                    }
                }
            }
            scan.finish(analyze);
            Ok(QueryResult::Rows {
                columns: aggs.iter().map(|a| a.label.clone()).collect(),
                rows: vec![states
                    .into_iter()
                    .zip(aggs)
                    .map(|(st, agg)| st.finish(agg))
                    .collect()],
            })
        }
        Lqp::Limit { input, n } => {
            let inner = execute_with(input, ctx, analyze)?;
            Ok(match inner {
                QueryResult::Rows { columns, mut rows } => {
                    rows.truncate(*n as usize);
                    QueryResult::Rows { columns, rows }
                }
                other => other,
            })
        }
        Lqp::Project {
            input,
            columns,
            names,
        } => {
            let (entry, mut scan) = StatementScan::build(input, ctx)?;
            let mut rows: Vec<Vec<Value>> = Vec::new();
            for (ci, chunk) in entry.table.chunks().iter().enumerate() {
                if scan.prune(entry, ci) {
                    ctx.chunks_pruned.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                ctx.chunks_scanned.fetch_add(1, Ordering::Relaxed);
                let out = scan.scan(
                    entry,
                    ci,
                    chunk,
                    ctx,
                    OutputMode::Positions,
                    analyze.as_deref_mut(),
                )?;
                let positions = out.positions().expect("positions requested");
                for pos in positions {
                    rows.push(
                        columns
                            .iter()
                            .map(|&c| chunk.segment(c).value_at(pos as usize))
                            .collect(),
                    );
                }
            }
            scan.finish(analyze);
            Ok(QueryResult::Rows {
                columns: names.clone(),
                rows,
            })
        }
        other => Err(ExecError::UnsupportedPlan(format!("{other:?}"))),
    }
}

/// Running state of one aggregate expression.
enum AggState {
    Count(u64),
    /// Integer SUM/AVG accumulate exactly in i128; floats in f64.
    Sum {
        ints: i128,
        floats: f64,
        n: u64,
        is_float: bool,
    },
    MinMax {
        best: Option<Value>,
        want_max: bool,
    },
}

impl AggState {
    fn new(agg: &BoundAgg) -> AggState {
        match agg.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum | AggFunc::Avg => AggState::Sum {
                ints: 0,
                floats: 0.0,
                n: 0,
                is_float: false,
            },
            AggFunc::Min => AggState::MinMax {
                best: None,
                want_max: false,
            },
            AggFunc::Max => AggState::MinMax {
                best: None,
                want_max: true,
            },
        }
    }

    fn accumulate(&mut self, agg: &BoundAgg, chunk: &Chunk, row: usize) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum {
                ints,
                floats,
                n,
                is_float,
            } => {
                let v = chunk
                    .segment(agg.column.expect("SUM/AVG bind a column"))
                    .value_at(row);
                match value_num(v) {
                    Num::Int(i) => *ints += i,
                    Num::Float(f) => {
                        *floats += f;
                        *is_float = true;
                    }
                }
                *n += 1;
            }
            AggState::MinMax { best, want_max } => {
                let v = chunk
                    .segment(agg.column.expect("MIN/MAX bind a column"))
                    .value_at(row);
                let better = match best {
                    None => true,
                    Some(b) => {
                        let ord = num_cmp(value_num(v), value_num(*b));
                        if *want_max {
                            ord == std::cmp::Ordering::Greater
                        } else {
                            ord == std::cmp::Ordering::Less
                        }
                    }
                };
                if better {
                    *best = Some(v);
                }
            }
        }
    }

    fn finish(self, agg: &BoundAgg) -> Value {
        match self {
            AggState::Count(n) => Value::U64(n),
            AggState::Sum {
                ints,
                floats,
                n,
                is_float,
            } => {
                if agg.func == AggFunc::Avg {
                    let total = floats + ints as f64;
                    return Value::F64(if n == 0 { 0.0 } else { total / n as f64 });
                }
                if is_float {
                    Value::F64(floats + ints as f64)
                } else {
                    Value::I64(ints.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::I64(0)),
        }
    }
}

enum Num {
    Int(i128),
    Float(f64),
}

fn value_num(v: Value) -> Num {
    match v {
        Value::I8(x) => Num::Int(x as i128),
        Value::I16(x) => Num::Int(x as i128),
        Value::I32(x) => Num::Int(x as i128),
        Value::I64(x) => Num::Int(x as i128),
        Value::U8(x) => Num::Int(x as i128),
        Value::U16(x) => Num::Int(x as i128),
        Value::U32(x) => Num::Int(x as i128),
        Value::U64(x) => Num::Int(x as i128),
        Value::F32(x) => Num::Float(x as f64),
        Value::F64(x) => Num::Float(x),
    }
}

fn num_cmp(a: Num, b: Num) -> std::cmp::Ordering {
    match (a, b) {
        (Num::Int(x), Num::Int(y)) => x.cmp(&y),
        (x, y) => {
            let fx = match x {
                Num::Int(i) => i as f64,
                Num::Float(f) => f,
            };
            let fy = match y {
                Num::Int(i) => i as f64,
                Num::Float(f) => f,
            };
            fx.partial_cmp(&fy).unwrap_or(std::cmp::Ordering::Equal)
        }
    }
}

/// What a statement's scan subtree computes, as the executor sees it.
enum ScanSpec<'a> {
    /// A conjunctive chain (possibly empty — bare table scan).
    Conjunct(&'a [BoundPred]),
    /// Factored disjunction: `prefix ∧ (d₁ ∨ … ∨ dₙ)` of fused sub-chains.
    Bool {
        /// Shared prefix conjunction (may be empty).
        prefix: &'a [BoundPred],
        /// The disjuncts, each a conjunctive fused sub-chain.
        disjuncts: &'a [Vec<BoundPred>],
    },
    /// NNF tree whose DNF blew past the cap: row-wise evaluation.
    Tree(&'a BoolExpr<BoundPred>),
}

/// Unwrap a scan subtree: (fused chain | bool scan | σ tree | single
/// filter | bare table) directly over a stored table.
fn scan_root(plan: &Lqp) -> Result<(&str, &CatalogEntry, ScanSpec<'_>), ExecError> {
    fn table_of<'p>(input: &'p Lqp, what: &str) -> Result<(&'p str, &'p CatalogEntry), ExecError> {
        match input {
            Lqp::StoredTable { name, entry, .. } => Ok((name, entry)),
            other => Err(ExecError::UnsupportedPlan(format!("{what} over {other:?}"))),
        }
    }
    match plan {
        Lqp::StoredTable { name, entry, .. } => Ok((name, entry, ScanSpec::Conjunct(&[]))),
        Lqp::Filter { input, pred } => {
            let (name, entry) = table_of(input, "filter")?;
            Ok((name, entry, ScanSpec::Conjunct(std::slice::from_ref(pred))))
        }
        Lqp::FusedFilterChain { input, preds } => {
            let (name, entry) = table_of(input, "chain")?;
            Ok((name, entry, ScanSpec::Conjunct(preds)))
        }
        Lqp::FusedBoolScan {
            input,
            prefix,
            disjuncts,
        } => {
            let (name, entry) = table_of(input, "bool scan")?;
            Ok((name, entry, ScanSpec::Bool { prefix, disjuncts }))
        }
        Lqp::FilterTree { input, expr } => {
            let (name, entry) = table_of(input, "tree")?;
            Ok((name, entry, ScanSpec::Tree(expr)))
        }
        other => Err(ExecError::UnsupportedPlan(format!("{other:?}"))),
    }
}

/// Whether min/max pruning proves this chunk cannot produce matches.
fn prune_chunk(entry: &CatalogEntry, chunk_idx: usize, preds: &[BoundPred]) -> bool {
    !preds.is_empty()
        && preds
            .iter()
            .any(|p| !range_can_match(entry.chunk_ranges[chunk_idx][p.column], p.op, p.value))
}

/// Whether min/max pruning proves a *boolean tree* cannot match a chunk:
/// a conjunction can match only if every child can, a disjunction if any
/// child can. (`Not` never appears in NNF trees; stay conservative.)
fn tree_can_match(entry: &CatalogEntry, chunk_idx: usize, expr: &BoolExpr<BoundPred>) -> bool {
    match expr {
        BoolExpr::Pred(p) => {
            range_can_match(entry.chunk_ranges[chunk_idx][p.column], p.op, p.value)
        }
        BoolExpr::And(cs) => cs.iter().all(|c| tree_can_match(entry, chunk_idx, c)),
        BoolExpr::Or(ds) => ds.iter().any(|d| tree_can_match(entry, chunk_idx, d)),
        BoolExpr::Not(_) => true,
    }
}

/// Row-wise evaluation of one bound leaf (the `FilterTree` fallback path —
/// works uniformly over plain, dictionary and packed segments).
fn leaf_matches(chunk: &Chunk, p: &BoundPred, row: usize) -> bool {
    let ord = num_cmp(
        value_num(chunk.segment(p.column).value_at(row)),
        value_num(p.value),
    );
    use std::cmp::Ordering::*;
    match p.op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

/// A sub-chain's identity for adaptive-calibration bookkeeping: one entry
/// per predicate — (column, operator, literal bits). Two sub-chains with
/// the same key scan the same data with the same predicates, so they may
/// share probe statistics; any difference means separate calibrators.
type SubChainKey = Vec<(usize, u8, u64)>;

fn sub_chain_key(preds: &[BoundPred]) -> SubChainKey {
    preds
        .iter()
        .map(|p| (p.column, p.op as u8, value_key_bits(p.value)))
        .collect()
}

/// Per-sub-chain execution counters for a disjunctive scan.
#[derive(Default)]
struct SubChainCounters {
    rows_scanned: u64,
    rows_matched: u64,
    chunks_skipped: u64,
}

/// Per-statement scan driver: the scan spec plus adaptive-calibration
/// state, keyed by sub-chain signature. Keying per sub-chain is what keeps
/// a disjunction's calibrations honest — each sub-chain has its own
/// selectivity and cost profile, and folding probe timings from different
/// sub-chains into one calibrator would corrupt every decision derived
/// from it (winner choice, drift re-probes, observed selectivity).
struct StatementScan<'a> {
    spec: ScanSpec<'a>,
    /// Handles into the shared [`CalibrationRegistry`]: concurrent
    /// statements on the same (table, sub-chain) share one calibrator.
    adaptive: HashMap<SubChainKey, Arc<Mutex<AdaptiveState>>>,
    /// Counters parallel to [prefix?, disjunct…] for `ScanSpec::Bool`.
    prefix_counters: SubChainCounters,
    disjunct_counters: Vec<SubChainCounters>,
    saturated_chunks: u64,
}

impl<'a> StatementScan<'a> {
    /// Resolve the scan subtree and attach per-sub-chain adaptive state
    /// from the context's shared registry.
    fn build(plan: &'a Lqp, ctx: &ExecContext) -> Result<(&'a CatalogEntry, Self), ExecError> {
        let (table, entry, spec) = scan_root(plan)?;
        let mut adaptive = HashMap::new();
        let mut disjunct_counters = Vec::new();
        match &spec {
            ScanSpec::Conjunct(preds) => {
                let key = sub_chain_key(preds);
                if let Some(state) = ctx
                    .calibration
                    .get_or_build(table, &key, || build_adaptive(entry, preds, ctx))
                {
                    adaptive.insert(key, state);
                }
            }
            ScanSpec::Bool { prefix, disjuncts } => {
                for chain in std::iter::once(*prefix).chain(disjuncts.iter().map(Vec::as_slice)) {
                    if let std::collections::hash_map::Entry::Vacant(slot) =
                        adaptive.entry(sub_chain_key(chain))
                    {
                        if let Some(state) = ctx
                            .calibration
                            .get_or_build(table, slot.key(), || build_adaptive(entry, chain, ctx))
                        {
                            slot.insert(state);
                        }
                    }
                }
                disjunct_counters = disjuncts
                    .iter()
                    .map(|_| SubChainCounters::default())
                    .collect();
            }
            ScanSpec::Tree(_) => {}
        }
        Ok((
            entry,
            StatementScan {
                spec,
                adaptive,
                prefix_counters: SubChainCounters::default(),
                disjunct_counters,
                saturated_chunks: 0,
            },
        ))
    }

    /// Whether min/max pruning proves this chunk cannot produce matches.
    fn prune(&self, entry: &CatalogEntry, chunk_idx: usize) -> bool {
        match &self.spec {
            ScanSpec::Conjunct(preds) => prune_chunk(entry, chunk_idx, preds),
            ScanSpec::Bool { prefix, disjuncts } => {
                prune_chunk(entry, chunk_idx, prefix)
                    || disjuncts.iter().all(|d| prune_chunk(entry, chunk_idx, d))
            }
            ScanSpec::Tree(expr) => !tree_can_match(entry, chunk_idx, expr),
        }
    }

    /// Evaluate the spec over one chunk.
    fn scan(
        &mut self,
        entry: &CatalogEntry,
        chunk_idx: usize,
        chunk: &Chunk,
        ctx: &ExecContext,
        mode: OutputMode,
        mut analyze: Option<&mut AnalyzeReport>,
    ) -> Result<ScanOutput, ExecError> {
        match &self.spec {
            ScanSpec::Conjunct(preds) => {
                // Hold the chain's calibration lock for the chunk: the
                // phase read and the observe that follows must see no
                // interleaved writer, or probe timings would corrupt.
                let mut guard = self
                    .adaptive
                    .get(&sub_chain_key(preds))
                    .map(|s| lock_plain(s));
                scan_chunk(chunk, preds, ctx, mode, analyze, guard.as_deref_mut())
            }
            ScanSpec::Bool { prefix, disjuncts } => {
                let rows = chunk.rows();
                // Prefix sub-chain first: it gates every disjunct.
                let prefix_pos: Option<PosList> = if prefix.is_empty() {
                    None
                } else {
                    let mut guard = self
                        .adaptive
                        .get(&sub_chain_key(prefix))
                        .map(|s| lock_plain(s));
                    let out = scan_chunk(
                        chunk,
                        prefix,
                        ctx,
                        OutputMode::Positions,
                        analyze.as_deref_mut(),
                        guard.as_deref_mut(),
                    )?;
                    drop(guard);
                    let ScanOutput::Positions(pl) = out else {
                        unreachable!("positions requested")
                    };
                    self.prefix_counters.rows_scanned += rows as u64;
                    self.prefix_counters.rows_matched += pl.len() as u64;
                    if pl.is_empty() {
                        for c in &mut self.disjunct_counters {
                            c.chunks_skipped += 1;
                        }
                        return Ok(match mode {
                            OutputMode::Count => ScanOutput::Count(0),
                            OutputMode::Positions => ScanOutput::Positions(PosList::new()),
                        });
                    }
                    Some(pl)
                };
                // Mask-union of the disjunct sub-chains, least selective
                // first; once the running union saturates (every row of
                // the chunk matches) the remaining disjuncts are skipped.
                let mut acc = PosList::new();
                let mut saturated = false;
                for (d, counters) in disjuncts.iter().zip(&mut self.disjunct_counters) {
                    if acc.len() == rows {
                        saturated = true;
                        counters.chunks_skipped += 1;
                        continue;
                    }
                    if prune_chunk(entry, chunk_idx, d) {
                        counters.chunks_skipped += 1;
                        continue;
                    }
                    let mut guard = self.adaptive.get(&sub_chain_key(d)).map(|s| lock_plain(s));
                    let out = scan_chunk(
                        chunk,
                        d,
                        ctx,
                        OutputMode::Positions,
                        analyze.as_deref_mut(),
                        guard.as_deref_mut(),
                    )?;
                    drop(guard);
                    let ScanOutput::Positions(pl) = out else {
                        unreachable!("positions requested")
                    };
                    counters.rows_scanned += rows as u64;
                    counters.rows_matched += pl.len() as u64;
                    acc = acc.union(&pl);
                }
                if saturated {
                    self.saturated_chunks += 1;
                }
                let result = match prefix_pos {
                    Some(p) => p.intersect(&acc),
                    None => acc,
                };
                Ok(match mode {
                    OutputMode::Count => ScanOutput::Count(result.len() as u64),
                    OutputMode::Positions => ScanOutput::Positions(result),
                })
            }
            ScanSpec::Tree(expr) => {
                // Row-wise fallback (DNF blowup): evaluate the tree with
                // short-circuiting per row.
                let rows = chunk.rows();
                let mut out = PosList::new();
                for row in 0..rows {
                    if expr.eval(&mut |p| leaf_matches(chunk, p, row)) {
                        out.push(row as u32);
                    }
                }
                if let Some(r) = analyze {
                    r.phase2_rows_in += rows as u64;
                    r.phase2_rows_out += out.len() as u64;
                }
                Ok(match mode {
                    OutputMode::Count => ScanOutput::Count(out.len() as u64),
                    OutputMode::Positions => ScanOutput::Positions(out),
                })
            }
        }
    }

    /// Record the statement's adaptive decisions and per-sub-chain
    /// statistics into an `EXPLAIN ANALYZE` report.
    fn finish(&self, analyze: Option<&mut AnalyzeReport>) {
        let Some(report) = analyze else { return };
        match &self.spec {
            ScanSpec::Conjunct(preds) => {
                if let Some(state) = self.adaptive.get(&sub_chain_key(preds)) {
                    report.adaptive = Some(lock_plain(state).decision());
                }
            }
            ScanSpec::Bool { prefix, disjuncts } => {
                let sub_report =
                    |preds: &[BoundPred], counters: &SubChainCounters| SubChainReport {
                        label: chain_text(preds),
                        expected_selectivity: preds.iter().map(|p| p.selectivity).product(),
                        rows_scanned: counters.rows_scanned,
                        rows_matched: counters.rows_matched,
                        chunks_skipped: counters.chunks_skipped,
                        adaptive: self
                            .adaptive
                            .get(&sub_chain_key(preds))
                            .map(|s| lock_plain(s).decision()),
                    };
                report.bool_scan = Some(BoolScanReport {
                    prefix: (!prefix.is_empty()).then(|| sub_report(prefix, &self.prefix_counters)),
                    disjuncts: disjuncts
                        .iter()
                        .zip(&self.disjunct_counters)
                        .map(|(d, c)| sub_report(d, c))
                        .collect(),
                    saturated_chunks: self.saturated_chunks,
                });
            }
            ScanSpec::Tree(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::lqp::plan;
    use crate::optimizer::optimize;
    use crate::parser::parse;
    use fts_storage::{Column, ColumnDef, Table};

    fn make_ctx(jit: JitMode) -> ExecContext {
        ExecContext {
            jit,
            ..Default::default()
        }
    }

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let t = Table::from_chunked_columns(
            vec![
                ColumnDef::new("a", DataType::U32),
                ColumnDef::new("b", DataType::U32),
                ColumnDef::new("big", DataType::I64),
                ColumnDef::new("f", DataType::F32),
            ],
            vec![
                Column::from_fn(1000, |i| (i % 10) as u32),
                Column::from_fn(1000, |i| (i % 4) as u32),
                Column::from_fn(1000, |i| i as i64 - 500),
                Column::from_fn(1000, |i| (i % 8) as f32),
            ],
            256, // multiple chunks
        )
        .unwrap();
        cat.register("t", t.clone());
        cat.register("t_dict", t.with_dictionary_encoding(&[0, 2]).unwrap());
        cat
    }

    fn run(sql: &str, jit: JitMode) -> QueryResult {
        let cat = catalog();
        let ctx = make_ctx(jit);
        let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
        execute(&p, &ctx).unwrap()
    }

    fn expected_count(f: impl Fn(usize) -> bool) -> u64 {
        (0..1000).filter(|&i| f(i)).count() as u64
    }

    #[test]
    fn count_star_paper_query() {
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        assert!(expected > 0, "test data must produce matches");
        for jit in [JitMode::Off, JitMode::On] {
            let r = run("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 1", jit);
            assert_eq!(r, QueryResult::Count(expected), "{jit:?}");
        }
    }

    #[test]
    fn count_without_where() {
        assert_eq!(
            run("SELECT COUNT(*) FROM t", JitMode::Off),
            QueryResult::Count(1000)
        );
    }

    #[test]
    fn dictionary_segments_scan_as_value_ids() {
        // Column `a` and `big` are dictionary-encoded in t_dict.
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        let r = run(
            "SELECT COUNT(*) FROM t_dict WHERE a = 5 AND b = 1",
            JitMode::On,
        );
        assert_eq!(r, QueryResult::Count(expected));

        // Range predicate over a dict-encoded i64 column → u32 id range.
        let expected = expected_count(|i| (i as i64 - 500) >= 250);
        let r = run("SELECT COUNT(*) FROM t_dict WHERE big >= 250", JitMode::On);
        assert_eq!(r, QueryResult::Count(expected));

        // Literal not in the dictionary: Ne matches everything.
        let r = run(
            "SELECT COUNT(*) FROM t_dict WHERE big <> 123456",
            JitMode::Off,
        );
        assert_eq!(r, QueryResult::Count(1000));
    }

    #[test]
    fn bitpacked_segments_scan_via_packed_kernel() {
        let cat = catalog();
        let base = cat.get("t").unwrap().table.as_ref().clone();
        let packed = base.with_bitpacking(&[0, 1]).unwrap();
        let mut cat2 = Catalog::new();
        cat2.register("tp", packed);
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM tp WHERE a = 5 AND b = 1").unwrap(),
                &cat2,
            )
            .unwrap(),
        );
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(expected));

        // Mixed: packed driver + plain follow-up + dynamic i64 predicate.
        let expected = expected_count(|i| i % 10 == 5 && (i as i64 - 500) < 0);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM tp WHERE a = 5 AND big < 0").unwrap(),
                &cat2,
            )
            .unwrap(),
        );
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(expected));
    }

    #[test]
    fn packed_chains_use_the_packed_jit_cache() {
        if !fts_simd::has_avx512() || !std::arch::is_x86_feature_detected!("avx512vbmi2") {
            eprintln!("skipping: no AVX-512 VBMI2");
            return;
        }
        let cat = catalog();
        let base = cat.get("t").unwrap().table.as_ref().clone();
        let packed = base.with_bitpacking(&[0, 1]).unwrap();
        let mut cat2 = Catalog::new();
        cat2.register("tp", packed);
        let ctx = make_ctx(JitMode::On);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM tp WHERE a = 5 AND b = 1").unwrap(),
                &cat2,
            )
            .unwrap(),
        );
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(expected));
        assert!(
            !ctx.packed_kernels.is_empty(),
            "packed JIT kernel must be compiled"
        );
        // Re-running hits the cache, same result.
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(expected));
        assert_eq!(ctx.packed_kernels.len(), 1);
    }

    #[test]
    fn for_and_bytesliced_segments_scan_fused() {
        let cat = catalog();
        let base = cat.get("t").unwrap().table.as_ref().clone();
        let mut cat2 = Catalog::new();
        cat2.register("tf", base.with_for_encoding(&[0]).unwrap());
        cat2.register("tb", base.with_byte_slicing(&[1]).unwrap());
        cat2.register(
            "tfb",
            base.with_for_encoding(&[0])
                .unwrap()
                .with_byte_slicing(&[1])
                .unwrap(),
        );
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        for jit in [JitMode::Off, JitMode::On] {
            let ctx = make_ctx(jit);
            // FoR driver + plain follow-up: one fused FoR chain.
            // Plain driver + byte-sliced predicate: two groups intersect.
            // FoR + byte-sliced: both compressed layouts in one statement.
            for table in ["tf", "tb", "tfb"] {
                let sql = format!("SELECT COUNT(*) FROM {table} WHERE a = 5 AND b = 1");
                let p = optimize(plan(&parse(&sql).unwrap(), &cat2).unwrap());
                assert_eq!(
                    execute(&p, &ctx).unwrap(),
                    QueryResult::Count(expected),
                    "{table} {jit:?}"
                );
            }
        }
        // Compressed layouts + an i64 driver-chain predicate, intersected.
        let expected = expected_count(|i| i % 10 == 5 && (i as i64 - 500) < 0);
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM tfb WHERE a = 5 AND big < 0").unwrap(),
                &cat2,
            )
            .unwrap(),
        );
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(expected));
        // Positions path: projection over a FoR-encoded filter column.
        let p = optimize(
            plan(
                &parse("SELECT a, b FROM tfb WHERE a = 5 AND b = 1 LIMIT 4").unwrap(),
                &cat2,
            )
            .unwrap(),
        );
        let QueryResult::Rows { rows, .. } = execute(&p, &ctx).unwrap() else {
            panic!("rows expected")
        };
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row[0], Value::U32(5));
            assert_eq!(row[1], Value::U32(1));
        }
    }

    #[test]
    fn mixed_u32_and_dynamic_chain() {
        let expected = expected_count(|i| i % 10 == 5 && (i as i64 - 500) < 0);
        let r = run(
            "SELECT COUNT(*) FROM t WHERE a = 5 AND big < 0",
            JitMode::On,
        );
        assert_eq!(r, QueryResult::Count(expected));
    }

    #[test]
    fn homogeneous_i64_chain_uses_typed_kernel() {
        let expected = expected_count(|i| (i as i64 - 500) >= -100 && (i as i64 - 500) < 100);
        let r = run(
            "SELECT COUNT(*) FROM t WHERE big >= -100 AND big < 100",
            JitMode::Off,
        );
        assert_eq!(r, QueryResult::Count(expected));
    }

    #[test]
    fn homogeneous_f32_chain_uses_typed_kernel() {
        let expected = expected_count(|i| (i % 8) as f32 >= 2.0 && ((i % 8) as f32) < 6.0);
        let r = run(
            "SELECT COUNT(*) FROM t WHERE f >= 2.0 AND f < 6.0",
            JitMode::Off,
        );
        assert_eq!(r, QueryResult::Count(expected));
    }

    #[test]
    fn projection_and_limit() {
        let r = run(
            "SELECT a, big FROM t WHERE a = 5 AND b = 1 LIMIT 3",
            JitMode::On,
        );
        let QueryResult::Rows { columns, rows } = r else {
            panic!("{r:?}")
        };
        assert_eq!(columns, vec!["a", "big"]);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row[0], Value::U32(5));
        }
        // First matching row is i=25 (i%10==5, i%4==1? no…) — verify against
        // the generator directly instead of hand-computing.
        let first = (0..1000).find(|&i| i % 10 == 5 && i % 4 == 1).unwrap();
        assert_eq!(rows[0][1], Value::I64(first as i64 - 500));
    }

    #[test]
    fn select_star() {
        let r = run(
            "SELECT * FROM t WHERE a = 5 AND b = 1 LIMIT 2",
            JitMode::Off,
        );
        let QueryResult::Rows { columns, rows } = r else {
            panic!()
        };
        assert_eq!(columns, vec!["a", "b", "big", "f"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 4);
    }

    #[test]
    fn jit_and_static_agree_across_operators() {
        for op in ["=", "<>", "<", "<=", ">", ">="] {
            let sql = format!("SELECT COUNT(*) FROM t WHERE a {op} 5 AND b {op} 2");
            let a = run(&sql, JitMode::Off);
            let b = run(&sql, JitMode::On);
            assert_eq!(a, b, "{op}");
        }
    }

    #[test]
    fn aggregate_functions() {
        // SUM/MIN/MAX/AVG over the rows matching a = 5 (big = i - 500).
        let matching: Vec<i64> = (0..1000)
            .filter(|i| i % 10 == 5)
            .map(|i| i as i64 - 500)
            .collect();
        let r = run(
            "SELECT COUNT(*), SUM(big), MIN(big), MAX(big), AVG(big) FROM t WHERE a = 5",
            JitMode::On,
        );
        let QueryResult::Rows { columns, rows } = r else {
            panic!("{r:?}")
        };
        assert_eq!(
            columns,
            vec!["count(*)", "sum(big)", "min(big)", "max(big)", "avg(big)"]
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::U64(matching.len() as u64));
        assert_eq!(rows[0][1], Value::I64(matching.iter().sum()));
        assert_eq!(rows[0][2], Value::I64(*matching.iter().min().unwrap()));
        assert_eq!(rows[0][3], Value::I64(*matching.iter().max().unwrap()));
        let avg = matching.iter().sum::<i64>() as f64 / matching.len() as f64;
        assert_eq!(rows[0][4], Value::F64(avg));
    }

    #[test]
    fn float_aggregates_and_empty_input() {
        let r = run(
            "SELECT SUM(f), AVG(f) FROM t WHERE a = 5 AND b = 1",
            JitMode::Off,
        );
        let QueryResult::Rows { rows, .. } = r else {
            panic!()
        };
        let expected_sum: f64 = (0..1000)
            .filter(|i| i % 10 == 5 && i % 4 == 1)
            .map(|i| (i % 8) as f64)
            .sum();
        assert_eq!(rows[0][0], Value::F64(expected_sum));

        // Nothing matches: SUM = 0, AVG = 0, MIN/MAX fall back to 0.
        let r = run(
            "SELECT SUM(big), AVG(big), MIN(big) FROM t WHERE a = 5 AND a = 6",
            JitMode::Off,
        );
        let QueryResult::Rows { rows, .. } = r else {
            panic!()
        };
        assert_eq!(rows[0][0], Value::I64(0));
        assert_eq!(rows[0][1], Value::F64(0.0));
        assert_eq!(rows[0][2], Value::I64(0));
    }

    #[test]
    fn chains_longer_than_one_kernel_split_and_intersect() {
        // 10 predicates exceed MAX_PREDICATES (8): the executor must split.
        let mut cat = Catalog::new();
        let cols: Vec<Column> = (0..10)
            .map(|c| Column::from_fn(500, move |i| ((i as u32).wrapping_mul(c + 3)) % 3))
            .collect();
        let schema = (0..10)
            .map(|c| ColumnDef::new(format!("c{c}"), DataType::U32))
            .collect();
        cat.register("wide", Table::from_columns(schema, cols.clone()).unwrap());
        let sql = format!(
            "SELECT COUNT(*) FROM wide WHERE {}",
            (0..10)
                .map(|c| format!("c{c} = 0"))
                .collect::<Vec<_>>()
                .join(" AND ")
        );
        let expected = (0..500usize)
            .filter(|&i| (0..10u32).all(|c| (i as u32).wrapping_mul(c + 3).is_multiple_of(3)))
            .count() as u64;
        for jit in [JitMode::Off, JitMode::On] {
            let ctx = make_ctx(jit);
            let p = optimize(plan(&parse(&sql).unwrap(), &cat).unwrap());
            assert_eq!(
                execute(&p, &ctx).unwrap(),
                QueryResult::Count(expected),
                "{jit:?}"
            );
        }
    }

    #[test]
    fn chunk_pruning_skips_impossible_chunks() {
        // A sorted column chunked into 4: each chunk covers a disjoint
        // range, so an equality hits exactly one chunk.
        let mut cat = Catalog::new();
        cat.register(
            "sorted",
            Table::from_chunked_columns(
                vec![
                    ColumnDef::new("k", DataType::U32),
                    ColumnDef::new("v", DataType::U32),
                ],
                vec![
                    Column::from_fn(1000, |i| i as u32),
                    Column::from_fn(1000, |i| (i % 7) as u32),
                ],
                250,
            )
            .unwrap(),
        );
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM sorted WHERE k = 600 AND v < 7").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(1));
        assert_eq!(
            ctx.chunks_pruned.load(Ordering::Relaxed),
            3,
            "3 of 4 chunks pruned"
        );
        assert_eq!(ctx.chunks_scanned.load(Ordering::Relaxed), 1);

        // Range predicate prunes the low chunks only.
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM sorted WHERE k >= 750").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(250));
        assert_eq!(ctx.chunks_pruned.load(Ordering::Relaxed), 3);

        // Ne never prunes (f64-rounding conservatism).
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM sorted WHERE k <> 5").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(999));
        assert_eq!(ctx.chunks_pruned.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn range_can_match_is_conservative() {
        let r = Some((10.0, 20.0));
        assert!(range_can_match(r, CmpOp::Eq, Value::U32(10)));
        assert!(range_can_match(r, CmpOp::Eq, Value::U32(20)));
        assert!(!range_can_match(r, CmpOp::Eq, Value::U32(9)));
        assert!(!range_can_match(r, CmpOp::Eq, Value::U32(21)));
        // Strict compares stay conservative at the exact boundary (f64
        // rounding of 64-bit values makes boundary pruning unsound).
        assert!(range_can_match(r, CmpOp::Lt, Value::U32(10)));
        assert!(!range_can_match(r, CmpOp::Lt, Value::U32(9)));
        assert!(range_can_match(r, CmpOp::Le, Value::U32(10)));
        assert!(range_can_match(r, CmpOp::Gt, Value::U32(20)));
        assert!(!range_can_match(r, CmpOp::Gt, Value::U32(21)));
        assert!(range_can_match(r, CmpOp::Ge, Value::U32(20)));
        assert!(
            range_can_match(r, CmpOp::Ne, Value::U32(15)),
            "Ne never prunes"
        );
        assert!(
            !range_can_match(None, CmpOp::Eq, Value::U32(1)),
            "empty chunk"
        );
    }

    #[test]
    fn explain_analyze_reports_full_scan_telemetry() {
        let cat = catalog();
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        for jit in [JitMode::Off, JitMode::On] {
            let ctx = make_ctx(jit);
            let p = optimize(
                plan(
                    &parse("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 1").unwrap(),
                    &cat,
                )
                .unwrap(),
            );
            let (result, report) = execute_analyzed(&p, &ctx).unwrap();
            assert_eq!(result, QueryResult::Count(expected), "{jit:?}");
            assert!(report.scan.enabled, "{jit:?}");
            assert_eq!(report.scan.rows, 1000, "{jit:?}: all 4 chunks scanned");
            assert_eq!(report.chunks_scanned, 4, "{jit:?}");
            assert_eq!(report.chunks_pruned, 0, "{jit:?}");
            assert_eq!(report.scan.predicates, 2, "{jit:?}");
            // Chain survivors across all chunks equal the query's count.
            assert_eq!(
                *report.scan.pred_survivors.last().unwrap(),
                expected,
                "{jit:?}"
            );
            assert!(report
                .scan
                .selectivities()
                .iter()
                .all(|s| (0.0..=1.0).contains(s)));
            let text = report.render(10.0);
            assert!(text.contains("Scan ["), "{text}");
            assert!(text.contains("chunks: scanned=4"), "{text}");
            assert!(text.contains("-bound"), "{text}");
            if jit == JitMode::On && avx512_enabled() {
                assert!(
                    report.jit_hits + report.jit_misses > 0,
                    "JIT cache was exercised"
                );
                assert!(text.contains("jit:"), "{text}");
            }
        }
    }

    #[test]
    fn explain_analyze_counts_phase2_rows() {
        let cat = catalog();
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM t WHERE a = 5 AND big < 0").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let (result, report) = execute_analyzed(&p, &ctx).unwrap();
        let expected = expected_count(|i| i % 10 == 5 && (i as i64 - 500) < 0);
        assert_eq!(result, QueryResult::Count(expected));
        // `big < 0` prunes the two chunks whose min is ≥ 0 (rows 512..1000);
        // on the rest the i64 predicate is a driver stage, so nothing
        // reaches the row-wise phase.
        assert_eq!(report.chunks_pruned, 2);
        assert_eq!(report.phase2_rows_in, 0);

        // 16-bit columns have no driver source: they filter the phase-1
        // positions row by row.
        let mut cat = Catalog::new();
        cat.register(
            "s",
            Table::from_chunked_columns(
                vec![
                    ColumnDef::new("a", DataType::U32),
                    ColumnDef::new("small", DataType::U16),
                ],
                vec![
                    Column::from_fn(1000, |i| (i % 10) as u32),
                    Column::from_fn(1000, |i| (i % 3) as u16),
                ],
                256,
            )
            .unwrap(),
        );
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM s WHERE a = 5 AND small = 1").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let (result, report) = execute_analyzed(&p, &ctx).unwrap();
        let expected = expected_count(|i| i % 10 == 5 && i % 3 == 1);
        assert_eq!(result, QueryResult::Count(expected));
        assert_eq!(report.phase2_rows_in, expected_count(|i| i % 10 == 5));
        assert_eq!(report.phase2_rows_out, expected);
        let text = report.render(10.0);
        assert!(text.contains("phase 2"), "{text}");
    }

    #[test]
    fn explain_analyze_covers_typed_and_untracked_paths() {
        // Homogeneous i64 chain: telemetry comes from the typed fused scan.
        let cat = catalog();
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM t WHERE big >= -100 AND big < 100").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let (result, report) = execute_analyzed(&p, &ctx).unwrap();
        let expected = expected_count(|i| (i as i64 - 500) >= -100 && (i as i64 - 500) < 100);
        assert_eq!(result, QueryResult::Count(expected));
        assert!(report.scan.enabled);
        // The range chain prunes the lowest and highest chunk; the two
        // middle chunks (rows 256..768) are scanned.
        assert_eq!(report.chunks_pruned, 2);
        assert_eq!(report.scan.rows, 512);
        assert_eq!(*report.scan.pred_survivors.last().unwrap(), expected);

        // Analyzed and plain execution agree on results.
        let plain = execute(&p, &ctx).unwrap();
        assert_eq!(plain, result);
    }

    /// A table with enough chunks that calibration (3 probe morsels by
    /// default) converges and steady state covers most of the scan.
    fn many_chunk_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let t = Table::from_chunked_columns(
            vec![
                ColumnDef::new("a", DataType::U32),
                ColumnDef::new("b", DataType::U32),
            ],
            vec![
                Column::from_fn(20_480, |i| (i % 10) as u32),
                Column::from_fn(20_480, |i| (i % 4) as u32),
            ],
            512, // 40 chunks
        )
        .unwrap();
        cat.register("big", t);
        cat
    }

    #[test]
    fn adaptive_selector_converges_and_matches_static() {
        let cat = many_chunk_catalog();
        let expected = (0..20_480).filter(|i| i % 10 == 5 && i % 4 == 1).count() as u64;
        let sql = "SELECT COUNT(*) FROM big WHERE a = 5 AND b = 1";
        for jit in [JitMode::Off, JitMode::On] {
            let ctx = make_ctx(jit);
            assert!(ctx.adaptive, "adaptive selection is on by default");
            let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
            let (result, report) = execute_analyzed(&p, &ctx).unwrap();
            assert_eq!(result, QueryResult::Count(expected), "{jit:?}");
            let a = report.adaptive.as_ref().expect("u32 chain is covered");
            assert!(a.winner.is_some(), "{jit:?}: 40 chunks must converge");
            assert!(!a.plan.is_empty());
            assert!(a.plan_verdict.is_some());
            // Every probed candidate was actually timed.
            assert!(!a.probed.is_empty());
            for &(name, morsels, _) in &a.probed {
                assert!(morsels >= 1, "{jit:?}: {name} never probed");
            }
            // Observed chain selectivity: i ≡ 5 (mod 20) → 1 in 20 rows.
            assert!((a.observed_selectivity - 0.05).abs() < 1e-6, "{jit:?}");
            let text = report.render(10.0);
            assert!(text.contains("adaptive: winner="), "{text}");
            assert!(text.contains("values/µs"), "{text}");
            assert!(text.contains("plan: best="), "{text}");

            // Adaptive off: same answer, no decision recorded.
            let ctx_off = ExecContext {
                jit,
                adaptive: false,
                ..Default::default()
            };
            let (result_off, report_off) = execute_analyzed(&p, &ctx_off).unwrap();
            assert_eq!(result_off, QueryResult::Count(expected), "{jit:?}");
            assert!(report_off.adaptive.is_none());
        }
    }

    #[test]
    fn adaptive_projection_agrees_with_static_rows() {
        let cat = many_chunk_catalog();
        let sql = "SELECT a, b FROM big WHERE a = 5 AND b = 1";
        let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
        let ctx_on = make_ctx(JitMode::On);
        let ctx_off = ExecContext {
            jit: JitMode::Off,
            adaptive: false,
            ..Default::default()
        };
        assert_eq!(
            execute(&p, &ctx_on).unwrap(),
            execute(&p, &ctx_off).unwrap(),
            "adaptive row order must match the static engines"
        );
    }

    #[test]
    fn adaptive_steady_state_does_not_thrash_the_jit_cache() {
        if !avx512_enabled() {
            eprintln!("skipping: no AVX-512");
            return;
        }
        let cat = many_chunk_catalog();
        let sql = "SELECT COUNT(*) FROM big WHERE a = 5 AND b = 1";
        let ctx = make_ctx(JitMode::On);
        let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
        let (_, first) = execute_analyzed(&p, &ctx).unwrap();
        // First statement may compile the chain's one kernel; re-running the same statement must be all
        // cache hits — calibration never thrashes compilation.
        assert!(first.jit_misses <= 1, "count-mode chain: {first:?}");
        let (_, second) = execute_analyzed(&p, &ctx).unwrap();
        assert_eq!(second.jit_misses, 0, "steady state recompiled: {second:?}");
        assert_eq!(second.jit_evictions, 0);
    }

    #[test]
    fn one_chain_maps_to_one_kernel_with_and_without_calibration() {
        if !avx512_enabled() {
            eprintln!("skipping: no AVX-512");
            return;
        }
        let cat = many_chunk_catalog();
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM big WHERE a = 5 AND b = 1").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        // Uncalibrated first: once the chain has calibration state, later
        // statements reuse it whatever `adaptive` says.
        let mut ctx = make_ctx(JitMode::On);
        ctx.adaptive = false;
        execute(&p, &ctx).unwrap();
        assert_eq!(ctx.kernels.len(), 1);
        let hits = ctx.kernels.stats().hits;
        ctx.adaptive = true;
        execute(&p, &ctx).unwrap();
        assert!(ctx.calibration.len() == 1 && ctx.kernels.stats().hits > hits);
        assert_eq!(ctx.kernels.len(), 1, "both paths share one cache entry");
    }

    /// Calibration state for a two-kernel chain, driven to steady state
    /// with `Jit` as the winner.
    fn steady_state() -> AdaptiveState {
        let kernels = [
            QueryKernel::Jit,
            QueryKernel::Static(ScanImpl::FusedAvx512(RegWidth::W512)),
        ];
        let mut cal = Calibrator::new(&kernels, 0.5, CalibrationConfig::default());
        while let Phase::Calibrating(k) = cal.phase() {
            let ns = if k == QueryKernel::Jit { 1_000 } else { 9_000 };
            cal.observe(k, 1 << 20, ns, 1 << 19);
        }
        AdaptiveState {
            ranked: Vec::new(),
            cal,
        }
    }

    #[test]
    fn calibration_registry_is_bounded() {
        let registry = CalibrationRegistry::new();
        for i in 0..10_000u64 {
            registry.get_or_build("t", &vec![(0, 0, i)], || Some(steady_state()));
            assert!(registry.len() <= fts_jit::cache::DEFAULT_CACHE_CAPACITY);
        }
        assert_eq!(registry.len(), fts_jit::cache::DEFAULT_CACHE_CAPACITY);
    }

    #[test]
    fn hot_chain_keeps_its_winner_through_churn() {
        let registry = CalibrationRegistry::new();
        let hot: SubChainKey = vec![(1, 0, 7)];
        let first = registry
            .get_or_build("t", &hot, || Some(steady_state()))
            .unwrap();
        for i in 0..10_000u64 {
            let again = registry
                .get_or_build("t", &hot, || panic!("hot chain evicted at statement {i}"))
                .unwrap();
            assert!(Arc::ptr_eq(&first, &again));
            registry.get_or_build("t", &vec![(0, 0, i)], || Some(steady_state()));
        }
        let state = lock_plain(&first);
        assert!(matches!(state.cal.phase(), Phase::Steady(QueryKernel::Jit)));
    }

    #[test]
    fn query_result_helpers() {
        let r = QueryResult::Count(5);
        assert_eq!(r.count(), Some(5));
        assert_eq!(r.num_rows(), 1);
        let r = QueryResult::Rows {
            columns: vec![],
            rows: vec![vec![], vec![]],
        };
        assert_eq!(r.count(), None);
        assert_eq!(r.num_rows(), 2);
    }
}
