//! The SQL engine's executor: columnar, with morsel-driven parallelism.
//!
//! Every statement [`crate::Database`] runs — plain, profiled, scattered
//! subplans and subqueries — executes here. Operators exchange
//! [`Batch`]es of typed column vectors instead of `Vec<Row>`, and
//! per-batch work is distributed over a morsel worker pool
//! ([`crate::morsel`]). The row-at-a-time [`crate::exec`] executor runs
//! the same [`Plan`] trees and is kept as the reference the parity tests
//! compare against.
//!
//! # Shape
//!
//! Table scans split the table's cached columnar chunk
//! ([`crate::table::Table::columnar`]) into morsel-sized zero-copy
//! `Range` batches; index probes and range scans select their row ids
//! from the same chunk, in probe order. Every downstream operator treats
//! *batches as the unit of parallelism* (filter narrows them, project
//! rebuilds them, aggregate folds per-batch partials). Operators run one
//! at a time, bottom-up — the reference executor's operator order — with
//! parallelism *inside* each operator.
//!
//! # Determinism contract
//!
//! Results are byte-identical to the reference executor for every worker
//! count and morsel size:
//!
//! - [`crate::morsel::parallel_map`] returns per-batch results in batch
//!   order; every merge folds them in that order.
//! - Aggregates keep per-(group, call) [`PartialAgg`] accumulators —
//!   the public scatter-gather partials — fed with global row seqs, so
//!   COUNT/MIN/MAX merge exactly and order-sensitive states
//!   (SUM/TOTAL/AVG/GROUP_CONCAT and all DISTINCT aggregates) replay
//!   through the reference [`AggState`] in seq order; float
//!   non-associativity and integer-overflow promotion can never
//!   reorder. Group output order is first-seen under the morsel-order
//!   merge — the reference order.
//! - The parallel sort orders by `(key, global seq)` — a total order
//!   equal to the reference stable sort (see
//!   [`crate::exec::compare_keys`]'s ordering contract).
//! - Hash-join build inserts right rows in global row order; probe
//!   preserves left order per batch.
//! - Errors: the lowest-indexed failing batch wins. Inside a batch, a
//!   filter, projection, sort-key or join-key kernel that made at most
//!   one fallible row pass ([`crate::vector::column_passes`]) already
//!   failed on the first failing row, after exactly the calls the
//!   reference makes; otherwise the kernel replays the batch row-major
//!   to raise the error the reference would raise first. A failing
//!   aggregate replays whole through the reference accumulators.

use crate::ast::JoinKind;
use crate::catalog::Catalog;
use crate::chunk::{batches_len, batches_to_rows, concat_batches_chunk, Batch, Chunk, ColumnData};
use crate::error::{SqlError, SqlResult};
use crate::exec::{aggregate_rows, compare_keys, eval_keys, index_leaf, is_identity, AggState};
use crate::expr::{BoundExpr, EvalCtx};
use crate::metrics::{ExecMetrics, MorselOp};
use crate::morsel::{parallel_map, ExecPolicy, NoObserver, PoolObserver};
use crate::partial::PartialAgg;
use crate::plan::{AggCall, Plan, SortKey};
use crate::profile::{node_label, PlanProfiler};
use crate::schema::Row;
use crate::value::Value;
use crate::vector::column_passes;
use std::collections::HashMap;
use std::sync::Arc;

/// Execute a plan, producing materialized rows. `metrics` receives the
/// per-morsel instruments and pool occupancy; `profiler` times every
/// node on the calling thread (the profiler is not `Sync`, so each
/// node's elapsed time covers its full parallel fan-out).
pub fn execute(
    plan: &Plan,
    catalog: &Catalog,
    policy: ExecPolicy,
    metrics: Option<&ExecMetrics>,
    profiler: Option<&PlanProfiler>,
) -> SqlResult<Vec<Row>> {
    let ctx = ChunkCtx {
        catalog,
        policy,
        metrics,
        prof: profiler,
    };
    Ok(batches_to_rows(&ctx.exec_node(plan)?))
}

static NO_OBSERVER: NoObserver = NoObserver;

struct ChunkCtx<'a> {
    catalog: &'a Catalog,
    policy: ExecPolicy,
    metrics: Option<&'a ExecMetrics>,
    prof: Option<&'a PlanProfiler>,
}

impl<'a> ChunkCtx<'a> {
    fn eval(&self) -> EvalCtx<'a> {
        EvalCtx {
            catalog: Some(self.catalog),
        }
    }

    fn observer(&self) -> &dyn PoolObserver {
        match self.metrics {
            Some(m) => m,
            None => &NO_OBSERVER,
        }
    }

    /// Fan per-batch work over the morsel pool, collapsing to the
    /// lowest-indexed error (see the module determinism contract).
    fn fan<T: Send>(
        &self,
        tasks: usize,
        f: impl Fn(usize) -> SqlResult<T> + Sync,
    ) -> SqlResult<Vec<T>> {
        parallel_map(tasks, self.policy.workers, self.observer(), f)
            .into_iter()
            .collect()
    }

    fn note(&self, op: MorselOp, batches: &[Batch]) {
        if let Some(m) = self.metrics {
            m.record_morsels(op, batches.iter().map(Batch::len));
        }
    }

    fn exec_node(&self, plan: &Plan) -> SqlResult<Vec<Batch>> {
        let Some(p) = self.prof else {
            return self.exec_impl(plan);
        };
        let token = p.enter(node_label(plan));
        let result = self.exec_impl(plan);
        p.exit(token, result.as_ref().map(|b| batches_len(b)).unwrap_or(0));
        result
    }

    fn exec_impl(&self, plan: &Plan) -> SqlResult<Vec<Batch>> {
        match plan {
            Plan::TableScan { table, .. } => {
                let chunk = self.catalog.table(table)?.columnar();
                let batches: Vec<Batch> = self
                    .policy
                    .morsels(chunk.len())
                    .into_iter()
                    .map(|(s, e)| Batch::range(Arc::clone(&chunk), s, e))
                    .collect();
                self.note(MorselOp::TableScan, &batches);
                Ok(batches)
            }
            Plan::IndexProbe { .. } | Plan::IndexRangeScan { .. } => {
                let (t, ids) = index_leaf(plan, self.catalog)?;
                let chunk = t.columnar();
                let ids: Vec<u32> = ids.into_iter().map(|id| id as u32).collect();
                let batches: Vec<Batch> = self
                    .policy
                    .morsels(ids.len())
                    .into_iter()
                    .map(|(s, e)| Batch::select(Arc::clone(&chunk), ids[s..e].to_vec()))
                    .collect();
                let op = match plan {
                    Plan::IndexProbe { .. } => MorselOp::IndexProbe,
                    _ => MorselOp::IndexRangeScan,
                };
                self.note(op, &batches);
                Ok(batches)
            }
            Plan::Values { rows, .. } => {
                let ctx = self.eval();
                let rows = rows
                    .iter()
                    .map(|exprs| exprs.iter().map(|e| e.eval_ctx(&[], &ctx)).collect())
                    .collect::<SqlResult<Vec<Row>>>()?;
                let out = if rows.is_empty() {
                    Vec::new()
                } else {
                    vec![Batch::from_rows(plan.width(), &rows)]
                };
                self.note(MorselOp::Values, &out);
                Ok(out)
            }
            Plan::Filter { input, predicate } => {
                let batches = self.exec_node(input)?;
                let ctx = self.eval();
                let passes = crate::vector::mask_passes(predicate);
                let out = self.fan(batches.len(), |i| {
                    let b = &batches[i];
                    match crate::vector::eval_filter(predicate, b, &ctx) {
                        Ok(keep) => Ok(b.narrow(&keep)),
                        Err(e) => Err(first_row_error(b, e, passes, |row| {
                            predicate.eval_predicate_ctx(row, &ctx).map(|_| ())
                        })),
                    }
                })?;
                let out: Vec<Batch> = out.into_iter().filter(|b| !b.is_empty()).collect();
                self.note(MorselOp::Filter, &out);
                Ok(out)
            }
            Plan::Project { input, exprs, .. } => {
                let batches = self.exec_node(input)?;
                if is_identity(exprs, batches.iter().map(Batch::width)) {
                    self.note(MorselOp::Project, &batches);
                    return Ok(batches);
                }
                let ctx = self.eval();
                let passes = exprs.iter().map(column_passes).sum();
                let out = self.fan(batches.len(), |i| {
                    let b = &batches[i];
                    let cols: SqlResult<Vec<ColumnData>> = exprs
                        .iter()
                        .map(|e| crate::vector::eval_column(e, b, &ctx))
                        .collect();
                    match cols {
                        Ok(_) if exprs.is_empty() => {
                            // Zero-width projection: len can't be derived
                            // from columns, so carry it through rows.
                            Ok(Batch::from_rows(0, &vec![Vec::new(); b.len()]))
                        }
                        Ok(cols) => Ok(Batch::owned(Chunk::new(cols))),
                        Err(e) => Err(first_row_error(b, e, passes, |row| {
                            for e in exprs {
                                e.eval_ctx(row, &ctx)?;
                            }
                            Ok(())
                        })),
                    }
                })?;
                let out: Vec<Batch> = out.into_iter().filter(|b| !b.is_empty()).collect();
                self.note(MorselOp::Project, &out);
                Ok(out)
            }
            Plan::Aggregate {
                input, group, aggs, ..
            } => self.aggregate(input, group, aggs),
            Plan::HashJoin {
                left,
                right,
                kind,
                left_key,
                right_key,
                residual,
            } => self.hash_join(left, right, *kind, left_key, right_key, residual.as_ref()),
            Plan::NestedLoopJoin {
                left,
                right,
                kind,
                on,
            } => self.nested_loop_join(left, right, *kind, on.as_ref()),
            Plan::Sort { input, keys } => self.sort(input, keys),
            Plan::TopK {
                input,
                keys,
                k,
                offset,
            } => self.top_k(input, keys, *k, *offset),
            Plan::Limit {
                input,
                limit,
                offset,
            } => {
                let batches = self.exec_node(input)?;
                let total = batches_len(&batches);
                let start = (*offset as usize).min(total);
                let end = match limit {
                    Some(l) => (start + *l as usize).min(total),
                    None => total,
                };
                let mut out = Vec::new();
                let mut pos = 0;
                for b in &batches {
                    let (bs, be) = (pos, pos + b.len());
                    pos = be;
                    let s = start.max(bs);
                    let e = end.min(be);
                    if s < e {
                        out.push(b.slice_local(s - bs, e - bs));
                    }
                }
                self.note(MorselOp::Limit, &out);
                Ok(out)
            }
            Plan::Distinct { input } => {
                let batches = self.exec_node(input)?;
                // Local first-occurrence pass per batch (parallel), then
                // a sequential cross-batch dedup in batch order — the
                // reference first-occurrence order.
                let locals = self.fan(batches.len(), |i| {
                    let b = &batches[i];
                    let mut seen = std::collections::HashSet::with_capacity(b.len());
                    let mut keep: Vec<(u32, Row)> = Vec::new();
                    for local in 0..b.len() {
                        let row: Row = (0..b.width()).map(|c| b.value_at(local, c)).collect();
                        if seen.insert(row.clone()) {
                            keep.push((local as u32, row));
                        }
                    }
                    Ok(keep)
                })?;
                let mut global = std::collections::HashSet::new();
                let mut out = Vec::new();
                for (b, keep) in batches.iter().zip(locals) {
                    let survivors: Vec<u32> = keep
                        .into_iter()
                        .filter(|(_, row)| global.insert(row.clone()))
                        .map(|(local, _)| local)
                        .collect();
                    if !survivors.is_empty() {
                        out.push(b.narrow(&survivors));
                    }
                }
                self.note(MorselOp::Distinct, &out);
                Ok(out)
            }
            Plan::Sem { .. } => Err(SqlError::Unsupported(
                "semantic plans execute through a SemDelegate (see tag_sql::execute_sem), \
                 not the relational executor"
                    .into(),
            )),
        }
    }

    /// Group-by aggregation with per-batch partials merged in batch
    /// order (see the module determinism contract for why SUM/TOTAL/AVG
    /// and DISTINCT partials are replayed rather than merged).
    fn aggregate(
        &self,
        input: &Plan,
        group: &[BoundExpr],
        aggs: &[AggCall],
    ) -> SqlResult<Vec<Batch>> {
        let batches = self.exec_node(input)?;
        let ctx = self.eval();
        // Global row seq of each batch's first row: the batch-order
        // prefix sum, so partials merge under the seq contract of
        // [`PartialAgg`].
        let mut bases = Vec::with_capacity(batches.len());
        let mut base = 0u64;
        for b in &batches {
            bases.push(base);
            base += b.len() as u64;
        }
        // An accumulator error (SUM over text) may precede the first
        // evaluation error in row order, so a failing aggregate replays
        // whole, row-wise, through the reference accumulators.
        let replay_error = |kernel_err: SqlError| -> SqlError {
            match aggregate_rows(&batches_to_rows(&batches), group, aggs, &ctx) {
                Err(e) => e,
                Ok(_) => kernel_err,
            }
        };
        let locals = self
            .fan(batches.len(), |i| {
                local_aggregate(&batches[i], bases[i], group, aggs, &ctx)
            })
            .map_err(replay_error)?;

        // Morsel-order merge: first-seen group order and first-seen
        // representative keys, exactly like the reference single pass.
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut states: Vec<Vec<PartialAgg>> = Vec::new();
        for local in locals {
            for (key, partials) in local.keys.into_iter().zip(local.states) {
                match index.get(&key) {
                    Some(&gi) => {
                        for (mine, theirs) in states[gi].iter_mut().zip(partials) {
                            mine.merge(theirs)?;
                        }
                    }
                    None => {
                        index.insert(key.clone(), keys.len());
                        keys.push(key);
                        states.push(partials);
                    }
                }
            }
        }

        // Global aggregation over an empty input still yields one row.
        if group.is_empty() && keys.is_empty() {
            let row: Row = aggs
                .iter()
                .map(|a| AggState::new(a.func).finish(&a.separator))
                .collect();
            let out = vec![Batch::from_rows(aggs.len(), &[row])];
            self.note(MorselOp::Aggregate, &out);
            return Ok(out);
        }

        let width = group.len() + aggs.len();
        let mut columns: Vec<Vec<Value>> =
            (0..width).map(|_| Vec::with_capacity(keys.len())).collect();
        for (key, partials) in keys.into_iter().zip(states) {
            for (c, v) in key.into_iter().enumerate() {
                columns[c].push(v);
            }
            for (i, (p, a)) in partials.into_iter().zip(aggs).enumerate() {
                // Finish-time errors (e.g. SUM over non-numeric values)
                // replay for the exact error.
                columns[group.len() + i].push(p.finish(a).map_err(replay_error)?);
            }
        }
        let out = if columns.first().map(Vec::len).unwrap_or(0) == 0 && width > 0 {
            Vec::new()
        } else {
            vec![Batch::owned(Chunk::new(
                columns.into_iter().map(ColumnData::from_values).collect(),
            ))]
        };
        self.note(MorselOp::Aggregate, &out);
        Ok(out)
    }

    fn hash_join(
        &self,
        left: &Plan,
        right: &Plan,
        kind: JoinKind,
        left_key: &BoundExpr,
        right_key: &BoundExpr,
        residual: Option<&BoundExpr>,
    ) -> SqlResult<Vec<Batch>> {
        let left_b = self.exec_node(left)?;
        let right_b = self.exec_node(right)?;
        let (lw, rw) = (left.width(), right.width());
        let ctx = self.eval();

        // Build side: key columns evaluated per batch in parallel, then
        // a sequential insert pass in global row order — the reference
        // build order, so duplicate-key chains match exactly.
        let right_chunk = concat_batches_chunk(&right_b, rw);
        let right_keys = {
            let whole = Batch::range(Arc::clone(&right_chunk), 0, right_chunk.len());
            let ranges = self.policy.morsels(right_chunk.len());
            let cols = self.fan(ranges.len(), |i| {
                let (s, e) = ranges[i];
                let view = whole.slice_local(s, e);
                // One expression, one pass: its error is already exact.
                crate::vector::eval_column(right_key, &view, &ctx)
            })?;
            ColumnData::concat(cols)
        };
        let mut table: HashMap<Value, Vec<u32>> = HashMap::with_capacity(right_chunk.len());
        for i in 0..right_keys.len() {
            if right_keys.is_null(i) {
                continue; // NULL keys never join
            }
            table
                .entry(right_keys.value_at(i))
                .or_default()
                .push(i as u32);
        }

        // Probe side: per left batch in parallel, preserving left order.
        let pairs = self.fan(left_b.len(), |bi| {
            probe_batch(
                &left_b[bi],
                left_key,
                residual,
                kind,
                &table,
                &right_chunk,
                &ctx,
            )
        })?;

        // Output: per left batch, gather left columns by local id and
        // right columns by (optional) global right id.
        let out = self.fan(left_b.len(), |bi| {
            let pairs = &pairs[bi];
            let b = &left_b[bi];
            if pairs.is_empty() {
                return Ok(None);
            }
            let left_ids: Vec<u32> = pairs.iter().map(|(l, _)| *l).collect();
            let right_ids: Vec<Option<u32>> = pairs.iter().map(|(_, r)| *r).collect();
            let mut cols = Vec::with_capacity(lw + rw);
            let narrowed = b.narrow(&left_ids);
            for c in 0..lw {
                cols.push(narrowed.gather_column(c));
            }
            for c in 0..rw {
                cols.push(right_chunk.column(c).gather_opt(&right_ids));
            }
            Ok(Some(Batch::owned(Chunk::new(cols))))
        })?;
        let out: Vec<Batch> = out.into_iter().flatten().collect();
        self.note(MorselOp::HashJoin, &out);
        Ok(out)
    }

    fn nested_loop_join(
        &self,
        left: &Plan,
        right: &Plan,
        kind: JoinKind,
        on: Option<&BoundExpr>,
    ) -> SqlResult<Vec<Batch>> {
        let left_b = self.exec_node(left)?;
        let right_b = self.exec_node(right)?;
        let (lw, rw) = (left.width(), right.width());
        let ctx = self.eval();
        let right_chunk = concat_batches_chunk(&right_b, rw);
        let n_right = right_chunk.len();

        let out = self.fan(left_b.len(), |bi| {
            let b = &left_b[bi];
            // Row-major within the batch — the reference loop order, so
            // predicate errors surface identically.
            let mut pairs: Vec<(u32, Option<u32>)> = Vec::new();
            let mut combined: Row = Vec::with_capacity(lw + rw);
            for local in 0..b.len() {
                let left_row: Row = (0..lw).map(|c| b.value_at(local, c)).collect();
                let mut matched = false;
                for r in 0..n_right {
                    let keep = match on {
                        Some(pred) => {
                            combined.clear();
                            combined.extend_from_slice(&left_row);
                            combined.extend((0..rw).map(|c| right_chunk.value_at(r, c)));
                            pred.eval_predicate_ctx(&combined, &ctx)?
                        }
                        None => true,
                    };
                    if keep {
                        matched = true;
                        pairs.push((local as u32, Some(r as u32)));
                    }
                }
                if kind == JoinKind::Left && !matched {
                    pairs.push((local as u32, None));
                }
            }
            if pairs.is_empty() {
                return Ok(None);
            }
            let left_ids: Vec<u32> = pairs.iter().map(|(l, _)| *l).collect();
            let right_ids: Vec<Option<u32>> = pairs.iter().map(|(_, r)| *r).collect();
            let narrowed = b.narrow(&left_ids);
            let mut cols = Vec::with_capacity(lw + rw);
            for c in 0..lw {
                cols.push(narrowed.gather_column(c));
            }
            for c in 0..rw {
                cols.push(right_chunk.column(c).gather_opt(&right_ids));
            }
            Ok(Some(Batch::owned(Chunk::new(cols))))
        })?;
        let out: Vec<Batch> = out.into_iter().flatten().collect();
        self.note(MorselOp::NestedLoopJoin, &out);
        Ok(out)
    }

    fn sort(&self, input: &Plan, keys: &[SortKey]) -> SqlResult<Vec<Batch>> {
        let batches = self.exec_node(input)?;
        let ctx = self.eval();
        // Parallel key evaluation per batch.
        let keyed = self.fan(batches.len(), |i| sort_keys_for(&batches[i], keys, &ctx))?;
        // (key, batch, local): the (batch, local) pair is the global
        // input sequence, making the comparison a total order equal to
        // the reference stable sort (compare_keys contract).
        let mut entries: Vec<(Vec<Value>, u32, u32)> = Vec::with_capacity(batches_len(&batches));
        for (bi, batch_keys) in keyed.into_iter().enumerate() {
            for (local, key) in batch_keys.into_iter().enumerate() {
                entries.push((key, bi as u32, local as u32));
            }
        }
        entries.sort_unstable_by(|a, b| {
            compare_keys(&a.0, &b.0, keys)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        let out = self.gather_ordered(&batches, &entries, input.width())?;
        self.note(MorselOp::Sort, &out);
        Ok(out)
    }

    fn top_k(
        &self,
        input: &Plan,
        keys: &[SortKey],
        k: usize,
        offset: usize,
    ) -> SqlResult<Vec<Batch>> {
        let batches = self.exec_node(input)?;
        let want = k.saturating_add(offset);
        if want == 0 {
            return Ok(Vec::new());
        }
        let ctx = self.eval();
        // Per-batch local top-`want` under (key, local seq): a superset
        // of the global winners from that batch.
        let locals = self.fan(batches.len(), |i| {
            let batch_keys = sort_keys_for(&batches[i], keys, &ctx)?;
            let mut top: Vec<(Vec<Value>, u32)> = Vec::with_capacity(want + 1);
            for (local, key) in batch_keys.into_iter().enumerate() {
                let entry = (key, local as u32);
                let cmp = |a: &(Vec<Value>, u32), b: &(Vec<Value>, u32)| {
                    compare_keys(&a.0, &b.0, keys).then(a.1.cmp(&b.1))
                };
                if top.len() < want {
                    top.push(entry);
                    if top.len() == want {
                        top.sort_unstable_by(cmp);
                    }
                } else if top
                    .last()
                    .is_some_and(|worst| cmp(&entry, worst) == std::cmp::Ordering::Less)
                {
                    let pos = top
                        .binary_search_by(|e| cmp(e, &entry))
                        .unwrap_or_else(|p| p);
                    top.insert(pos, entry);
                    top.pop();
                }
            }
            Ok(top)
        })?;
        let mut entries: Vec<(Vec<Value>, u32, u32)> = Vec::new();
        for (bi, local) in locals.into_iter().enumerate() {
            for (key, l) in local {
                entries.push((key, bi as u32, l));
            }
        }
        entries.sort_unstable_by(|a, b| {
            compare_keys(&a.0, &b.0, keys)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        let picked: Vec<(Vec<Value>, u32, u32)> =
            entries.into_iter().skip(offset).take(k).collect();
        let out = self.gather_ordered(&batches, &picked, input.width())?;
        self.note(MorselOp::TopK, &out);
        Ok(out)
    }

    /// Build the output chunk for an ordered (batch, local) permutation,
    /// one column at a time (columns gathered in parallel).
    fn gather_ordered(
        &self,
        batches: &[Batch],
        entries: &[(Vec<Value>, u32, u32)],
        width: usize,
    ) -> SqlResult<Vec<Batch>> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        let cols = self.fan(width, |c| {
            Ok(ColumnData::from_values(
                entries
                    .iter()
                    .map(|(_, b, l)| batches[*b as usize].value_at(*l as usize, c))
                    .collect(),
            ))
        })?;
        if width == 0 {
            return Ok(vec![Batch::from_rows(0, &vec![Vec::new(); entries.len()])]);
        }
        Ok(vec![Batch::owned(Chunk::new(cols))])
    }
}

/// Evaluate sort keys for every row of a batch, falling back to a
/// row-major replay on error so the error matches the reference.
fn sort_keys_for(batch: &Batch, keys: &[SortKey], ctx: &EvalCtx<'_>) -> SqlResult<Vec<Vec<Value>>> {
    let cols: SqlResult<Vec<ColumnData>> = keys
        .iter()
        .map(|k| crate::vector::eval_column(&k.expr, batch, ctx))
        .collect();
    let cols = match cols {
        Ok(cols) => cols,
        Err(e) => {
            let passes = keys.iter().map(|k| column_passes(&k.expr)).sum();
            return Err(first_row_error(batch, e, passes, |row| {
                eval_keys(row, keys, ctx).map(|_| ())
            }));
        }
    };
    Ok((0..batch.len())
        .map(|i| cols.iter().map(|c| c.value_at(i)).collect())
        .collect())
}

/// Probe one left batch against the build table, producing
/// `(left local id, matched right global id)` pairs in left-row order.
#[allow(clippy::too_many_arguments)]
fn probe_batch(
    batch: &Batch,
    left_key: &BoundExpr,
    residual: Option<&BoundExpr>,
    kind: JoinKind,
    table: &HashMap<Value, Vec<u32>>,
    right_chunk: &Chunk,
    ctx: &EvalCtx<'_>,
) -> SqlResult<Vec<(u32, Option<u32>)>> {
    let keys = match crate::vector::eval_column(left_key, batch, ctx) {
        Ok(keys) => keys,
        Err(e) => {
            // The reference interleaves key and residual evaluation, so
            // a fallible residual forces a row-major replay.
            let passes = 1 + residual.map_or(0, column_passes);
            return Err(first_row_error(batch, e, passes, |row| {
                let key = left_key.eval_ctx(row, ctx)?;
                if let (false, Some(pred)) = (key.is_null(), residual) {
                    if let Some(ids) = table.get(&key) {
                        for &r in ids {
                            let mut combined = row.clone();
                            combined.extend(
                                (0..right_chunk.width())
                                    .map(|c| right_chunk.value_at(r as usize, c)),
                            );
                            pred.eval_predicate_ctx(&combined, ctx)?;
                        }
                    }
                }
                Ok(())
            }));
        }
    };
    let (lw, rw) = (batch.width(), right_chunk.width());
    let mut pairs: Vec<(u32, Option<u32>)> = Vec::new();
    for local in 0..batch.len() {
        let mut matched = false;
        if !keys.is_null(local) {
            if let Some(ids) = table.get(&keys.value_at(local)) {
                match residual {
                    None => {
                        matched = !ids.is_empty();
                        pairs.extend(ids.iter().map(|&r| (local as u32, Some(r))));
                    }
                    Some(pred) => {
                        let mut combined: Row = Vec::with_capacity(lw + rw);
                        for &r in ids {
                            combined.clear();
                            combined.extend((0..lw).map(|c| batch.value_at(local, c)));
                            combined.extend((0..rw).map(|c| right_chunk.value_at(r as usize, c)));
                            if pred.eval_predicate_ctx(&combined, ctx)? {
                                matched = true;
                                pairs.push((local as u32, Some(r)));
                            }
                        }
                    }
                }
            }
        }
        if kind == JoinKind::Left && !matched {
            pairs.push((local as u32, None));
        }
    }
    Ok(pairs)
}

/// One batch's local aggregation: first-seen keys plus partial states.
/// The partials are the public scatter-gather accumulators
/// ([`PartialAgg`]), fed with global row seqs (`base_seq` + local
/// offset) so the batch-order merge is just the seq-order merge.
struct LocalAgg {
    keys: Vec<Vec<Value>>,
    states: Vec<Vec<PartialAgg>>,
}

fn local_aggregate(
    batch: &Batch,
    base_seq: u64,
    group: &[BoundExpr],
    aggs: &[AggCall],
    ctx: &EvalCtx<'_>,
) -> SqlResult<LocalAgg> {
    // On an evaluation error the caller replays the whole aggregate
    // row-wise for the reference error (an accumulator error may come
    // first in row order).
    let group_cols = group
        .iter()
        .map(|g| crate::vector::eval_column(g, batch, ctx))
        .collect::<SqlResult<Vec<_>>>()?;
    let arg_cols = aggs
        .iter()
        .map(|a| {
            a.arg
                .as_ref()
                .map(|e| crate::vector::eval_column(e, batch, ctx))
                .transpose()
        })
        .collect::<SqlResult<Vec<_>>>()?;

    let mut local = LocalAgg {
        keys: Vec::new(),
        states: Vec::new(),
    };
    let new_states = |local: &mut LocalAgg, key: Vec<Value>| -> usize {
        local.keys.push(key);
        local
            .states
            .push(aggs.iter().map(PartialAgg::new).collect());
        local.keys.len() - 1
    };

    // Typed single-column group fast paths avoid per-row Vec<Value> key
    // allocation and enum hashing on the hottest shapes (GROUP BY one
    // Int or Text column). Cross-type key unification (Int(7) vs
    // Float(7.0)) is impossible inside one typed column; the cross-batch
    // merge handles it globally through Value's own hash/eq.
    enum Lookup<'k> {
        Int(HashMap<i64, usize>, Option<usize>),
        Text(HashMap<&'k str, usize>, Option<usize>),
        General(HashMap<Vec<Value>, usize>),
    }
    let mut lookup = match (group.len(), group_cols.first()) {
        (1, Some(ColumnData::Int { .. })) => Lookup::Int(HashMap::new(), None),
        (1, Some(ColumnData::Text { .. })) => Lookup::Text(HashMap::new(), None),
        _ => Lookup::General(HashMap::new()),
    };

    for i in 0..batch.len() {
        let gi = match &mut lookup {
            Lookup::Int(map, null_slot) => {
                let ColumnData::Int { values, validity } = &group_cols[0] else {
                    unreachable!("lookup variant fixed at construction");
                };
                if validity[i] {
                    match map.get(&values[i]) {
                        Some(&gi) => gi,
                        None => {
                            let gi = new_states(&mut local, vec![Value::Int(values[i])]);
                            map.insert(values[i], gi);
                            gi
                        }
                    }
                } else {
                    match null_slot {
                        Some(gi) => *gi,
                        None => {
                            let gi = new_states(&mut local, vec![Value::Null]);
                            *null_slot = Some(gi);
                            gi
                        }
                    }
                }
            }
            Lookup::Text(map, null_slot) => {
                let ColumnData::Text { values, validity } = &group_cols[0] else {
                    unreachable!("lookup variant fixed at construction");
                };
                if validity[i] {
                    match map.get(values[i].as_str()) {
                        Some(&gi) => gi,
                        None => {
                            let gi = new_states(&mut local, vec![Value::Text(values[i].clone())]);
                            map.insert(values[i].as_str(), gi);
                            gi
                        }
                    }
                } else {
                    match null_slot {
                        Some(gi) => *gi,
                        None => {
                            let gi = new_states(&mut local, vec![Value::Null]);
                            *null_slot = Some(gi);
                            gi
                        }
                    }
                }
            }
            Lookup::General(map) => {
                let key: Vec<Value> = group_cols.iter().map(|c| c.value_at(i)).collect();
                match map.get(&key) {
                    Some(&gi) => gi,
                    None => {
                        let gi = new_states(&mut local, key.clone());
                        map.insert(key, gi);
                        gi
                    }
                }
            }
        };
        for (a, col) in arg_cols.iter().enumerate() {
            let v = match col {
                Some(c) => c.value_at(i),
                None => Value::Int(1), // COUNT(*) marker
            };
            local.states[gi][a].update(base_seq + i as u64, v);
        }
    }
    Ok(local)
}

/// The error the reference executor would raise first for this batch.
/// A kernel that made at most one fallible row pass stopped at the first
/// failing row, so its own error is that error. Otherwise the rows are
/// replayed in order through `row_try` and its first error returned,
/// falling back to the kernel's own error if the replay unexpectedly
/// succeeds (it cannot, but never panic on an error path).
fn first_row_error(
    batch: &Batch,
    kernel_err: SqlError,
    passes: usize,
    row_try: impl Fn(&Row) -> SqlResult<()>,
) -> SqlError {
    if passes <= 1 {
        return kernel_err;
    }
    for local in 0..batch.len() {
        let row: Row = (0..batch.width())
            .map(|c| batch.value_at(local, c))
            .collect();
        if let Err(e) = row_try(&row) {
            return e;
        }
    }
    kernel_err
}
