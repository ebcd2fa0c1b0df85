//! Per-layer metrics of a traced run: counter deltas over the untraced
//! half, span medians and self times over the traced half, and the
//! `AnalyzeReport`s of the analyzed replays.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use fts_query::executor::AdaptiveDecision;
use fts_query::AnalyzeReport;
use fts_server::QueryServer;

use crate::stats::{median, ratio};
use crate::stmt::Class;
use crate::{Live, LoopOut, Metric};

/// Executions of each traced statement: wire, handle, pipeline, analyze.
const EXECUTIONS_PER_TRACED: u64 = 4;

/// Program counters read through public accessors.
pub struct Counters {
    jit_hits: u64,
    jit_misses: u64,
    jit_evictions: u64,
    jit_compile: Duration,
    kernels: usize,
    chains: usize,
    admitted: u64,
    queued: u64,
    shared_queries: u64,
}

impl Counters {
    /// `KernelCache::stats()`, `SchedCounters::snapshot()` and
    /// `CalibrationRegistry::len()` of `server`'s engine.
    pub fn of(server: &QueryServer) -> Counters {
        let ctx = server.engine().context();
        let jit = ctx.kernels.stats();
        let sched = server.counters().snapshot();
        Counters {
            jit_hits: jit.hits,
            jit_misses: jit.misses,
            jit_evictions: jit.evictions,
            jit_compile: jit.compile_time,
            kernels: ctx.kernels.len() + ctx.packed_kernels.len(),
            chains: ctx.calibration.len(),
            admitted: sched.admitted,
            queued: sched.queued,
            shared_queries: sched.shared_queries,
        }
    }
}

fn values(m: &BTreeMap<u64, f64>) -> Vec<f64> {
    m.values().copied().collect()
}

fn total(m: &BTreeMap<u64, f64>) -> f64 {
    m.values().sum()
}

/// The per-layer metrics, by name. `plain` is the untraced half (counter
/// deltas `before`→`after`, class latencies), `traced` the traced half.
pub fn per_layer(
    live: &Live,
    plain: &LoopOut,
    traced: &LoopOut,
    before: &Counters,
    after: &Counters,
) -> Vec<Metric> {
    let spans = traced.spans.as_ref().expect("a traced loop records spans");
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };
    let reports: Vec<&AnalyzeReport> = traced.analyzed.iter().map(|a| &a.report).collect();
    let n_reports = reports.len() as f64;
    let sum = |f: &dyn Fn(&AnalyzeReport) -> u64| -> f64 {
        reports.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    let handle = spans.durations_ms("server.handle");
    let sched_wait = spans.self_ms("server.handle");
    let execute = spans.durations_ms("query.execute");
    let post_scan = spans.self_ms("query.execute");
    let scan = spans.durations_ms("core.scan");
    let median_ms = |name: &str| median(&values(&spans.durations_ms(name)));

    // server
    let shareable = plain.records.iter().filter(|r| r.stmt.is_shareable());
    let bytes_out: usize = plain.records.iter().map(|r| r.frame_bytes()).sum();
    put("server.wire_rtt_us", median_ms("client.ping") * 1e3, "us");
    put(
        "server.frame_bytes_out",
        ratio(bytes_out as f64, plain.records.len() as f64),
        "bytes",
    );
    put("server.handle_ms", median(&values(&handle)), "ms");
    put("server.sched_wait_ms", median(&values(&sched_wait)), "ms");
    put(
        "server.shared_hit_rate",
        ratio(
            (after.shared_queries - before.shared_queries) as f64,
            shareable.count() as f64,
        ),
        "ratio",
    );
    put(
        "server.queued_frac",
        ratio(
            (after.queued - before.queued) as f64,
            (after.admitted - before.admitted) as f64,
        ),
        "ratio",
    );
    put("server.render_ms", median_ms("server.render"), "ms");

    // query
    let (pruned, scanned) = (sum(&|r| r.chunks_pruned), sum(&|r| r.chunks_scanned));
    put("query.prepare_us", median_ms("query.prepare") * 1e3, "us");
    put("query.execute_ms", median(&values(&execute)), "ms");
    put("query.post_scan_ms", median(&values(&post_scan)), "ms");
    put(
        "query.phase2_rows_in",
        ratio(sum(&|r| r.phase2_rows_in), n_reports),
        "rows",
    );
    put(
        "query.phase2_pass_frac",
        ratio(sum(&|r| r.phase2_rows_out), sum(&|r| r.phase2_rows_in)),
        "ratio",
    );
    put(
        "query.chunks_pruned_frac",
        ratio(pruned, pruned + scanned),
        "ratio",
    );
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for r in &plain.records {
        by_class.entry(r.stmt.class).or_default().push(r.latency_ms);
    }
    for class in Class::ALL {
        let p50 = by_class.get(&class).map_or(0.0, |l| median(l));
        put(&format!("query.class_p50_ms.{}", class.name()), p50, "ms");
    }

    // jit
    let hits = (after.jit_hits - before.jit_hits) as f64;
    let misses = (after.jit_misses - before.jit_misses) as f64;
    let compile_ms = (after.jit_compile - before.jit_compile).as_secs_f64() * 1e3;
    put("jit.hit_rate", ratio(hits, hits + misses), "ratio");
    put("jit.misses", misses, "count");
    put(
        "jit.evictions",
        (after.jit_evictions - before.jit_evictions) as f64,
        "count",
    );
    put("jit.compile_ms", compile_ms, "ms");
    put("jit.kernels_resident", after.kernels as f64, "count");

    // core
    let peak = fts_core::stride::peak_bandwidth_gbps();
    let scan_s: f64 = reports.iter().map(|r| r.scan.wall.as_secs_f64()).sum();
    let gbps = ratio(sum(&|r| r.scan.bytes_touched), scan_s) / 1e9;
    // Probe morsels are a chain's lifetime total, so each distinct chain
    // counts once, against every chunk scan of the traced statements.
    let probed = |d: &Option<AdaptiveDecision>| {
        d.as_ref()
            .map_or(0, |d| d.probed.iter().map(|p| p.1).sum::<u64>())
    };
    let mut probes: HashMap<&str, u64> = HashMap::new();
    let (mut bool_passes, mut saturated) = (Vec::new(), Vec::new());
    for a in &traced.analyzed {
        probes.insert(&a.sql, probed(&a.report.adaptive));
        if let Some(b) = &a.report.bool_scan {
            for sub in b.prefix.iter().chain(&b.disjuncts) {
                probes.insert(&sub.label, probed(&sub.adaptive));
            }
            bool_passes.push((b.prefix.is_some() as usize + b.disjuncts.len()) as f64);
            saturated.push(b.saturated_chunks as f64);
        }
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    put("core.scan_ms", median(&values(&scan)), "ms");
    put("core.scan_gbps", gbps, "GB/s");
    put("core.scan_bw_frac", ratio(gbps, peak), "ratio");
    put("core.peak_gbps", peak, "GB/s");
    put(
        "core.calib_probe_frac",
        ratio(
            probes.values().sum::<u64>() as f64,
            scanned * EXECUTIONS_PER_TRACED as f64,
        ),
        "ratio",
    );
    put("core.calibrated_chains", after.chains as f64, "count");
    put("core.bool_passes", mean(&bool_passes), "count");
    put("core.bool_saturated_chunks", mean(&saturated), "count");

    // storage
    let for_pruned = sum(&|r| r.for_blocks_pruned);
    let for_scanned = sum(&|r| r.for_blocks_scanned);
    let bs_skipped = sum(&|r| r.bs_plane_groups_skipped);
    let bs_read = sum(&|r| r.bs_plane_groups_read);
    put(
        "storage.for_block_prune_frac",
        ratio(for_pruned, for_pruned + for_scanned),
        "ratio",
    );
    put(
        "storage.bs_plane_skip_frac",
        ratio(bs_skipped, bs_skipped + bs_read),
        "ratio",
    );
    put(
        "storage.for_blocks_scanned",
        ratio(for_scanned, n_reports),
        "count",
    );
    put(
        "storage.bs_plane_groups_read",
        ratio(bs_read, n_reports),
        "count",
    );
    for &(layout, bytes) in &live.heap {
        put(
            &format!("storage.heap_bytes.{layout}"),
            bytes as f64,
            "bytes",
        );
    }
    put("storage.encode_s", live.encode.as_secs_f64(), "s");

    // Self time per layer from the span tree, per traced statement, and
    // the shares the workload records quote.
    let by_layer = spans.self_time_by_layer();
    let n_traced = traced.records.len().max(1) as f64;
    for layer in ["server", "query", "jit", "core"] {
        let t = by_layer.get(layer).copied().unwrap_or_default();
        put(
            &format!("self_ms.{layer}"),
            t.as_secs_f64() * 1e3 / n_traced,
            "ms",
        );
    }
    let latencies = |l: &LoopOut| l.records.iter().map(|r| r.latency_ms).collect::<Vec<_>>();
    let plain_latency = latencies(plain);
    put(
        "share.scan_of_execute",
        ratio(total(&scan), total(&execute)),
        "ratio",
    );
    put(
        "share.post_scan_of_execute",
        ratio(total(&post_scan), total(&execute)),
        "ratio",
    );
    put(
        "share.sched_wait_of_handle",
        ratio(total(&sched_wait), total(&handle)),
        "ratio",
    );
    put(
        "share.jit_compile_of_latency",
        ratio(compile_ms, plain_latency.iter().sum()),
        "ratio",
    );

    // Tracing overhead: the traced half's wire latency against the
    // untraced half's, as a share of the latter.
    let untraced = median(&plain_latency);
    put(
        "trace.overhead_frac",
        ratio(median(&latencies(traced)) - untraced, untraced),
        "ratio",
    );
    put("trace.statements", traced.records.len() as f64, "count");
    out
}
