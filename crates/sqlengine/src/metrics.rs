//! Per-operator execution metrics fed from [`PlanProfiler`] output.
//!
//! The serving runtime installs a [`tag_metrics::MetricsHub`] on the
//! database ([`crate::Database::install_metrics_hub`]); every profiled
//! query then folds its node profiles into per-operator-kind counters
//! and windowed latency histograms:
//!
//! - `tag_sqlengine_operator_executions_total{op=...}`
//! - `tag_sqlengine_operator_rows_total{op=...}` (rows produced)
//! - `tag_sqlengine_operator_lm_prompts_total{op=...}`
//! - `tag_sqlengine_operator_seconds{op=...}` (wall time *including*
//!   children, matching the profiler's per-node semantics)
//!
//! The columnar executor ([`crate::chunk_exec`]) adds per-morsel
//! instruments through the same sink:
//!
//! - `tag_sqlengine_exec_morsels_total{op=...}` (batches produced)
//! - `tag_sqlengine_exec_chunk_rows{op=...}` (rows per batch,
//!   encoded 1 row = 1ms into the latency bucket layout)
//! - `tag_sqlengine_exec_workers_busy` (pool occupancy gauge, fed by
//!   the [`PoolObserver`] hooks)
//!
//! Every statement records morsels and every morsel task touches the
//! gauge, so both live in [`OnceLock`]s registered on first use: the
//! per-statement path takes no lock, and concurrent statements on a
//! shared database never contend on the sink.
//!
//! The operator kind is the first token of the profiler label
//! ("TableScan schools" → `op="TableScan"`), keeping cardinality at
//! the operator vocabulary, not the table vocabulary. Plan-cache
//! hit/miss counters are *not* duplicated here: the serving layer
//! scrapes [`crate::PlanCacheStats`] through a hub collector, which
//! keeps the cumulative counts exact without new hot-path work.

use crate::morsel::PoolObserver;
use crate::profile::NodeProfile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use tag_metrics::{Counter, Gauge, MetricsHub, WindowedHistogram};

struct OpInstruments {
    executions: Arc<Counter>,
    rows_out: Arc<Counter>,
    lm_prompts: Arc<Counter>,
    elapsed: Arc<WindowedHistogram>,
}

struct MorselInstruments {
    morsels: Arc<Counter>,
    chunk_rows: Arc<WindowedHistogram>,
}

/// The operator kinds the columnar executor reports morsels for; the
/// variant name is the `op` label, and each kind has one instrument
/// slot.
#[allow(missing_docs)] // variants are the plan operators' names
#[derive(Debug, Clone, Copy)]
pub enum MorselOp {
    TableScan,
    IndexProbe,
    IndexRangeScan,
    Values,
    Filter,
    Project,
    Aggregate,
    HashJoin,
    NestedLoopJoin,
    Sort,
    TopK,
    Limit,
    Distinct,
}

const MORSEL_OPS: usize = MorselOp::Distinct as usize + 1;

/// Hub-backed sink for plan-profiler node records.
pub struct ExecMetrics {
    active: bool,
    hub: Arc<MetricsHub>,
    ops: Mutex<HashMap<String, OpInstruments>>,
    morsel_ops: [OnceLock<MorselInstruments>; MORSEL_OPS],
    busy: AtomicI64,
    workers_busy: OnceLock<Arc<Gauge>>,
}

impl std::fmt::Debug for ExecMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecMetrics")
            .field("active", &self.active)
            .finish()
    }
}

impl ExecMetrics {
    /// A sink registering instruments on `hub`. Inactive (records
    /// nothing) when the hub is a no-op registry.
    pub fn new(hub: Arc<MetricsHub>) -> ExecMetrics {
        ExecMetrics {
            active: hub.is_enabled(),
            hub,
            ops: Mutex::new(HashMap::new()),
            morsel_ops: std::array::from_fn(|_| OnceLock::new()),
            busy: AtomicI64::new(0),
            workers_busy: OnceLock::new(),
        }
    }

    /// Record one chunked operator's output batches: a morsel count per
    /// operator kind plus a per-batch row-count distribution.
    ///
    /// The histogram (`tag_sqlengine_exec_chunk_rows`) reuses the
    /// latency-bucket layout by encoding **1 row as 1 millisecond**, so
    /// the default 8192-row morsel lands in the 10-second top bucket
    /// and degenerate single-digit batches in the bottom ones.
    pub fn record_morsels(&self, op: MorselOp, batch_rows: impl IntoIterator<Item = usize>) {
        if !self.active {
            return;
        }
        let inst = self.morsel_ops[op as usize].get_or_init(|| {
            let op = format!("{op:?}");
            let labels = [("op", op.as_str())];
            MorselInstruments {
                morsels: self.hub.counter(
                    "tag_sqlengine_exec_morsels_total",
                    "Batches produced by chunked operators, by operator kind.",
                    &labels,
                ),
                chunk_rows: self.hub.histogram(
                    "tag_sqlengine_exec_chunk_rows",
                    "Rows per output batch of chunked operators (encoded 1 row = 1ms).",
                    &labels,
                ),
            }
        });
        for rows in batch_rows {
            inst.morsels.inc();
            inst.chunk_rows.observe(Duration::from_millis(rows as u64));
        }
    }

    fn workers_gauge(&self) -> Option<&Arc<Gauge>> {
        if !self.active {
            return None;
        }
        Some(self.workers_busy.get_or_init(|| {
            self.hub.gauge(
                "tag_sqlengine_exec_workers_busy",
                "Morsel-pool workers currently executing a task.",
                &[],
            )
        }))
    }

    /// Fold one profiled query's node records into the hub.
    pub fn record(&self, nodes: &[NodeProfile]) {
        if !self.active {
            return;
        }
        let mut ops = self.ops.lock().unwrap_or_else(|e| e.into_inner());
        for node in nodes {
            let kind = node.label.split_whitespace().next().unwrap_or("Unknown");
            let hub = &self.hub;
            let inst = ops.entry(kind.to_string()).or_insert_with(|| {
                let labels = [("op", kind)];
                OpInstruments {
                    executions: hub.counter(
                        "tag_sqlengine_operator_executions_total",
                        "Plan-operator executions by operator kind (profiled queries).",
                        &labels,
                    ),
                    rows_out: hub.counter(
                        "tag_sqlengine_operator_rows_total",
                        "Rows produced by operator kind (profiled queries).",
                        &labels,
                    ),
                    lm_prompts: hub.counter(
                        "tag_sqlengine_operator_lm_prompts_total",
                        "LM prompts issued by operator kind (semantic operators only).",
                        &labels,
                    ),
                    elapsed: hub.histogram(
                        "tag_sqlengine_operator_seconds",
                        "Per-operator wall time including children (profiled queries).",
                        &labels,
                    ),
                }
            });
            inst.executions.inc();
            inst.rows_out.add(node.rows_out as u64);
            inst.lm_prompts.add(node.lm_calls);
            inst.elapsed.observe(node.elapsed);
        }
    }
}

/// Worker-occupancy hook for the morsel pool: the
/// `tag_sqlengine_exec_workers_busy` gauge tracks how many workers are
/// executing a task right now (the [`Gauge`] API is set-only, so the
/// count lives in an atomic here and the gauge mirrors it).
impl PoolObserver for ExecMetrics {
    fn task_started(&self) {
        let now = self.busy.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(g) = self.workers_gauge() {
            g.set(now as f64);
        }
    }

    fn task_finished(&self) {
        let now = self.busy.fetch_sub(1, Ordering::Relaxed) - 1;
        if let Some(g) = self.workers_gauge() {
            g.set(now as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn node(label: &str, rows_out: usize, lm: u64, ms: u64) -> NodeProfile {
        NodeProfile {
            label: label.to_string(),
            depth: 0,
            parent: None,
            rows_in: 0,
            rows_out,
            elapsed: Duration::from_millis(ms),
            lm_calls: lm,
            lm_prompt_tokens: 0,
            lm_completion_tokens: 0,
        }
    }

    #[test]
    fn nodes_fold_into_per_operator_series() {
        let hub = Arc::new(MetricsHub::new());
        let m = ExecMetrics::new(Arc::clone(&hub));
        m.record(&[
            node("TableScan schools", 100, 0, 1),
            node("TableScan races", 50, 0, 1),
            node("SemFilter is_urban", 20, 20, 40),
        ]);
        let text = hub.render();
        assert!(text.contains("tag_sqlengine_operator_executions_total{op=\"TableScan\"} 2"));
        assert!(text.contains("tag_sqlengine_operator_rows_total{op=\"TableScan\"} 150"));
        assert!(text.contains("tag_sqlengine_operator_lm_prompts_total{op=\"SemFilter\"} 20"));
        assert!(text.contains("tag_sqlengine_operator_seconds_count{op=\"SemFilter\"} 1"));
    }

    #[test]
    fn noop_hub_records_nothing() {
        let hub = Arc::new(MetricsHub::noop());
        let m = ExecMetrics::new(Arc::clone(&hub));
        m.record(&[node("TableScan schools", 100, 0, 1)]);
        m.record_morsels(MorselOp::TableScan, [100, 20]);
        m.task_started();
        m.task_finished();
        assert_eq!(hub.render(), "");
        assert!(m.ops.lock().unwrap_or_else(|e| e.into_inner()).is_empty());
    }

    #[test]
    fn morsel_instruments_and_worker_gauge() {
        let hub = Arc::new(MetricsHub::new());
        let m = ExecMetrics::new(Arc::clone(&hub));
        m.record_morsels(MorselOp::TableScan, [8192, 8192, 100]);
        m.record_morsels(MorselOp::Filter, [40]);
        m.task_started();
        m.task_started();
        m.task_finished();
        let text = hub.render();
        assert!(text.contains("tag_sqlengine_exec_morsels_total{op=\"TableScan\"} 3"));
        assert!(text.contains("tag_sqlengine_exec_morsels_total{op=\"Filter\"} 1"));
        assert!(text.contains("tag_sqlengine_exec_chunk_rows_count{op=\"TableScan\"} 3"));
        assert!(text.contains("tag_sqlengine_exec_workers_busy 1"));
    }
}
