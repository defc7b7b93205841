//! The row-at-a-time reference executor.
//!
//! Statements execute through the columnar executor
//! ([`crate::chunk_exec`]). This module runs the same [`Plan`] trees one
//! row at a time, operator by operator, and is kept as the oracle the
//! parity tests and `scale-bench` compare against ([`reference_query`]).
//! Its accumulators ([`AggState`], [`aggregate_rows`]) and sort-key
//! helpers ([`compare_keys`], [`eval_keys`]) are shared with the
//! columnar executor, which replays through them where byte identity
//! needs the row order. Subqueries are the exception to "row at a
//! time": the planner folds uncorrelated ones and expressions run
//! correlated ones through the columnar executor in both executors, so
//! the parity tests also compare subquery bodies as top-level
//! statements.
//!
//! # Row ownership
//!
//! A [`RowSet`] holds `Cow` rows: stored rows stay borrowed from table
//! storage through scans, index probes, filters, limits, `DISTINCT`,
//! sorts and identity projections; only an operator that creates a row
//! (a computed projection, a join, an aggregate, `VALUES`) owns it.
//! [`execute`] materializes the root's rows exactly once, so a
//! statement copies each stored row it returns once and no other.

use crate::ast::JoinKind;
use crate::catalog::Catalog;
use crate::engine::Database;
use crate::error::{SqlError, SqlResult};
use crate::expr::{BoundExpr, EvalCtx};
use crate::parser::parse_statement;
use crate::plan::{AggCall, AggFunc, Plan, SortKey};
use crate::result::ResultSet;
use crate::schema::Row;
use crate::table::{Table, TableIndex};
use crate::value::Value;
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::HashMap;

/// An operator's output: rows borrowed from table storage (`'a` is the
/// catalog's lifetime) or created by the operator.
type RowSet<'a> = Vec<Cow<'a, Row>>;

/// Execute a plan against a catalog, producing materialized rows.
pub fn execute(plan: &Plan, catalog: &Catalog) -> SqlResult<Vec<Row>> {
    exec_node(plan, catalog).map(|rows| rows.into_iter().map(Cow::into_owned).collect())
}

/// Answer a read-only statement the way [`Database::query`] does, but
/// through this reference executor: planned without the plan cache, run
/// without any scatter executor, compound arms combined identically.
pub fn reference_query(db: &Database, sql: &str) -> SqlResult<ResultSet> {
    let plan = db.plan_statement(&parse_statement(sql)?)?;
    crate::engine::run_arms(&plan, |arm| execute(&arm.plan, db.catalog()))
}

fn exec_node<'a>(plan: &Plan, catalog: &'a Catalog) -> SqlResult<RowSet<'a>> {
    let ctx = EvalCtx {
        catalog: Some(catalog),
    };
    match plan {
        Plan::TableScan { table, .. } => Ok(catalog
            .table(table)?
            .rows()
            .iter()
            .map(Cow::Borrowed)
            .collect()),
        Plan::IndexProbe { .. } | Plan::IndexRangeScan { .. } => {
            let (t, ids) = index_leaf(plan, catalog)?;
            Ok(ids.into_iter().map(|id| Cow::Borrowed(t.row(id))).collect())
        }
        Plan::Values { rows, .. } => rows
            .iter()
            .map(|exprs| {
                exprs
                    .iter()
                    .map(|e| e.eval_ctx(&[], &ctx))
                    .collect::<SqlResult<Row>>()
                    .map(Cow::Owned)
            })
            .collect(),
        Plan::Filter { input, predicate } => {
            let rows = exec_node(input, catalog)?;
            let mut out = Vec::with_capacity(rows.len() / 2);
            for row in rows {
                if predicate.eval_predicate_ctx(&row, &ctx)? {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Plan::Project { input, exprs, .. } => {
            let rows = exec_node(input, catalog)?;
            if is_identity(exprs, rows.iter().map(|r| r.len())) {
                return Ok(rows);
            }
            let mut out = Vec::with_capacity(rows.len());
            for row in &rows {
                let projected = exprs
                    .iter()
                    .map(|e| e.eval_ctx(row, &ctx))
                    .collect::<SqlResult<Row>>()?;
                out.push(Cow::Owned(projected));
            }
            Ok(out)
        }
        Plan::NestedLoopJoin {
            left,
            right,
            kind,
            on,
        } => nested_loop_join(left, right, *kind, on.as_ref(), catalog),
        Plan::HashJoin {
            left,
            right,
            kind,
            left_key,
            right_key,
            residual,
        } => hash_join(
            left,
            right,
            *kind,
            left_key,
            right_key,
            residual.as_ref(),
            catalog,
        ),
        Plan::Aggregate {
            input, group, aggs, ..
        } => {
            let rows = exec_node(input, catalog)?;
            let out = aggregate_rows(&rows, group, aggs, &ctx)?;
            Ok(out.into_iter().map(Cow::Owned).collect())
        }
        Plan::Sort { input, keys } => {
            let mut rows = exec_node(input, catalog)?;
            sort_rows(&mut rows, keys, &ctx)?;
            Ok(rows)
        }
        Plan::TopK {
            input,
            keys,
            k,
            offset,
        } => {
            let rows = exec_node(input, catalog)?;
            top_k(rows, keys, *k, *offset, &ctx)
        }
        Plan::Limit {
            input,
            limit,
            offset,
        } => {
            let mut rows = exec_node(input, catalog)?;
            let start = (*offset as usize).min(rows.len());
            let end = match limit {
                Some(l) => (start + *l as usize).min(rows.len()),
                None => rows.len(),
            };
            rows.truncate(end);
            rows.drain(..start);
            Ok(rows)
        }
        Plan::Distinct { input } => {
            let mut rows = exec_node(input, catalog)?;
            let first_seen: Vec<bool> = {
                let mut seen = std::collections::HashSet::with_capacity(rows.len());
                rows.iter().map(|row| seen.insert(&**row)).collect()
            };
            let mut first_seen = first_seen.into_iter();
            rows.retain(|_| first_seen.next().unwrap_or(false));
            Ok(rows)
        }
        Plan::Sem { .. } => Err(SqlError::Unsupported(
            "semantic plans execute through a SemDelegate (see tag_sql::execute_sem), \
             not the relational executor"
                .into(),
        )),
    }
}

/// The table an index leaf (`IndexProbe`/`IndexRangeScan`) reads and
/// its row ids, in probe order. Shared with the columnar executor.
pub(crate) fn index_leaf<'a>(
    plan: &Plan,
    catalog: &'a Catalog,
) -> SqlResult<(&'a Table, Vec<usize>)> {
    let index = |table: &str, column: usize| -> SqlResult<(&'a Table, &'a TableIndex)> {
        let t = catalog.table(table)?;
        let idx = t.index_on(column).ok_or_else(|| {
            SqlError::Eval(format!(
                "plan references missing index on {table} col#{column}"
            ))
        })?;
        Ok((t, idx))
    };
    match plan {
        Plan::IndexProbe {
            table,
            key_column,
            key,
            ..
        } => {
            let (t, idx) = index(table, *key_column)?;
            Ok((t, idx.probe(key)))
        }
        Plan::IndexRangeScan {
            table,
            key_column,
            range,
            ..
        } => {
            let (t, idx) = index(table, *key_column)?;
            let ids = idx
                .probe_range(range.low.as_ref(), range.high.as_ref())
                .ok_or_else(|| SqlError::Eval("range scan requires a B-tree index".into()))?;
            Ok((t, ids))
        }
        _ => Err(SqlError::Eval(format!(
            "{} is not an index leaf",
            crate::profile::node_label(plan)
        ))),
    }
}

/// True when projecting rows of the given widths through `exprs` would
/// reproduce every row unchanged (`SELECT *` and friends): `exprs` is
/// `#0, #1, …, #n-1` and every row has exactly `n` values. Such a
/// projection passes its input through instead of copying it (in both
/// executors).
pub(crate) fn is_identity(exprs: &[BoundExpr], mut widths: impl Iterator<Item = usize>) -> bool {
    exprs
        .iter()
        .enumerate()
        .all(|(i, e)| matches!(e, BoundExpr::ColumnRef(j) if *j == i))
        && widths.all(|w| w == exprs.len())
}

fn nested_loop_join<'a>(
    left: &Plan,
    right: &Plan,
    kind: JoinKind,
    on: Option<&BoundExpr>,
    catalog: &'a Catalog,
) -> SqlResult<RowSet<'a>> {
    let left_rows = exec_node(left, catalog)?;
    let right_rows = exec_node(right, catalog)?;
    let right_width = right.width();
    let ctx = EvalCtx {
        catalog: Some(catalog),
    };
    let mut out = Vec::new();
    let mut combined = Vec::new();
    for l in left_rows {
        let mut matched = false;
        for r in &right_rows {
            combined.clear();
            combined.extend_from_slice(&l);
            combined.extend_from_slice(r);
            let keep = match on {
                Some(pred) => pred.eval_predicate_ctx(&combined, &ctx)?,
                None => true,
            };
            if keep {
                matched = true;
                out.push(Cow::Owned(combined.clone()));
            }
        }
        if kind == JoinKind::Left && !matched {
            out.push(Cow::Owned(null_extended(l, right_width)));
        }
    }
    Ok(out)
}

fn hash_join<'a>(
    left: &Plan,
    right: &Plan,
    kind: JoinKind,
    left_key: &BoundExpr,
    right_key: &BoundExpr,
    residual: Option<&BoundExpr>,
    catalog: &'a Catalog,
) -> SqlResult<RowSet<'a>> {
    let left_rows = exec_node(left, catalog)?;
    let right_rows = exec_node(right, catalog)?;
    let right_width = right.width();
    let ctx = EvalCtx {
        catalog: Some(catalog),
    };

    // Build on the right side (probe preserves left order, which keeps
    // LEFT joins simple).
    let mut table: HashMap<Value, Vec<usize>> = HashMap::with_capacity(right_rows.len());
    for (i, r) in right_rows.iter().enumerate() {
        let key = right_key.eval_ctx(r, &ctx)?;
        if key.is_null() {
            continue; // NULL keys never join
        }
        table.entry(key).or_default().push(i);
    }

    let mut out = Vec::new();
    let mut combined = Vec::new();
    for l in left_rows {
        let key = left_key.eval_ctx(&l, &ctx)?;
        let mut matched = false;
        if !key.is_null() {
            if let Some(ids) = table.get(&key) {
                for &i in ids {
                    combined.clear();
                    combined.extend_from_slice(&l);
                    combined.extend_from_slice(&right_rows[i]);
                    let keep = match residual {
                        Some(pred) => pred.eval_predicate_ctx(&combined, &ctx)?,
                        None => true,
                    };
                    if keep {
                        matched = true;
                        out.push(Cow::Owned(combined.clone()));
                    }
                }
            }
        }
        if kind == JoinKind::Left && !matched {
            out.push(Cow::Owned(null_extended(l, right_width)));
        }
    }
    Ok(out)
}

/// A LEFT join's unmatched left row, padded with `width` NULLs.
fn null_extended(left: Cow<'_, Row>, width: usize) -> Row {
    let mut row = left.into_owned();
    row.extend(std::iter::repeat_n(Value::Null, width));
    row
}

/// Accumulator for one aggregate call. Shared with the columnar executor
/// (`crate::chunk_exec`), whose per-morsel partial aggregates feed the
/// same state machine so results stay byte-identical.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(i64),
    Sum { acc: Value, saw: bool },
    Total(f64),
    Avg { sum: f64, n: i64 },
    MinMax { best: Option<Value>, want_min: bool },
    Concat { parts: Vec<String> },
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                acc: Value::Int(0),
                saw: false,
            },
            AggFunc::Total => AggState::Total(0.0),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::MinMax {
                best: None,
                want_min: true,
            },
            AggFunc::Max => AggState::MinMax {
                best: None,
                want_min: false,
            },
            AggFunc::GroupConcat => AggState::Concat { parts: Vec::new() },
        }
    }

    pub(crate) fn update(&mut self, v: &Value) -> SqlResult<()> {
        // SQL aggregates skip NULL inputs (COUNT(*) passes a non-null marker).
        if v.is_null() {
            return Ok(());
        }
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum { acc, saw } => {
                *acc = crate::value::arith::add(acc, v)?;
                *saw = true;
            }
            AggState::Total(t) => {
                *t += v.as_f64().unwrap_or(0.0);
            }
            AggState::Avg { sum, n } => {
                let x = v
                    .coerce_numeric()
                    .ok()
                    .and_then(|c| c.as_f64())
                    .unwrap_or(0.0);
                *sum += x;
                *n += 1;
            }
            AggState::MinMax { best, want_min } => {
                let replace = match best {
                    None => true,
                    Some(b) => {
                        if *want_min {
                            v < b
                        } else {
                            v > b
                        }
                    }
                };
                if replace {
                    *best = Some(v.clone());
                }
            }
            AggState::Concat { parts } => parts.push(v.to_string()),
        }
        Ok(())
    }

    pub(crate) fn finish(self, separator: &str) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum { acc, saw } => {
                if saw {
                    acc
                } else {
                    Value::Null
                }
            }
            AggState::Total(t) => Value::Float(t),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::Concat { parts } => {
                if parts.is_empty() {
                    Value::Null
                } else {
                    Value::Text(parts.join(separator))
                }
            }
        }
    }
}

/// Row-level aggregation, split out so the columnar executor can replay
/// the exact reference semantics (including error order) on its inputs.
pub(crate) fn aggregate_rows<R: Borrow<Row>>(
    rows: &[R],
    group: &[BoundExpr],
    aggs: &[AggCall],
    ctx: &EvalCtx<'_>,
) -> SqlResult<Vec<Row>> {
    // Groups in first-seen order: (key values, states, distinct sets),
    // found through `slots` by key.
    type DistinctSets = Vec<Option<std::collections::HashSet<Value>>>;
    let mut groups: Vec<(Vec<Value>, Vec<AggState>, DistinctSets)> = Vec::new();
    let mut slots: HashMap<Vec<Value>, usize> = HashMap::new();

    for row in rows {
        let row: &Row = row.borrow();
        let key: Vec<Value> = group
            .iter()
            .map(|g| g.eval_ctx(row, ctx))
            .collect::<SqlResult<_>>()?;
        let slot = match slots.get(&key) {
            Some(&slot) => slot,
            None => {
                let slot = groups.len();
                slots.insert(key.clone(), slot);
                groups.push((
                    key,
                    aggs.iter().map(|a| AggState::new(a.func)).collect(),
                    aggs.iter()
                        .map(|a| a.distinct.then(std::collections::HashSet::new))
                        .collect(),
                ));
                slot
            }
        };
        let (_, states, distinct) = &mut groups[slot];
        for (i, agg) in aggs.iter().enumerate() {
            let v = match &agg.arg {
                Some(e) => e.eval_ctx(row, ctx)?,
                None => Value::Int(1), // COUNT(*) marker
            };
            if let Some(seen) = &mut distinct[i] {
                if v.is_null() || !seen.insert(v.clone()) {
                    continue;
                }
            }
            states[i].update(&v)?;
        }
    }

    // Global aggregation with no groups over an empty input still yields
    // one row of "empty" aggregate results.
    if group.is_empty() && groups.is_empty() {
        let states: Vec<AggState> = aggs.iter().map(|a| AggState::new(a.func)).collect();
        let row: Row = states
            .into_iter()
            .zip(aggs)
            .map(|(s, a)| s.finish(&a.separator))
            .collect();
        return Ok(vec![row]);
    }

    Ok(groups
        .into_iter()
        .map(|(mut row, states, _)| {
            for (s, a) in states.into_iter().zip(aggs) {
                row.push(s.finish(&a.separator));
            }
            row
        })
        .collect())
}

/// Compare two rows under the given sort keys (keys already evaluated).
///
/// # Ordering contract
///
/// This comparison is a *partial* order over rows: rows with equal keys
/// compare `Equal`. The executor turns it into a total, deterministic
/// order with an explicit tiebreak on **input sequence** (`seq`, the
/// 0-based position of the row in the operator's input):
///
/// - [`sort_rows`] uses a stable sort, which is exactly
///   `compare_keys(a, b).then(a.seq.cmp(&b.seq))` — ties keep input
///   order, for ascending *and* descending keys (descending reverses
///   the key comparison only, never the tiebreak).
/// - [`top_k`] makes the same tiebreak explicit in its heap ordering
///   (`(key, seq)`), which is what makes `TopK` byte-identical to
///   `Sort + Limit` at every `k`/`offset` split point.
///
/// The columnar executor (`crate::chunk_exec`) relies on this contract:
/// its parallel sort/merge orders by `(key, global seq)` — a total
/// order — so output bytes are independent of morsel boundaries and
/// worker count. `sort_contract_regression` in this module's tests pins
/// the behavior.
pub(crate) fn compare_keys(a: &[Value], b: &[Value], keys: &[SortKey]) -> Ordering {
    for (i, k) in keys.iter().enumerate() {
        let ord = a[i].total_cmp(&b[i]);
        let ord = if k.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

pub(crate) fn eval_keys(row: &Row, keys: &[SortKey], ctx: &EvalCtx<'_>) -> SqlResult<Vec<Value>> {
    keys.iter().map(|k| k.expr.eval_ctx(row, ctx)).collect()
}

/// Stable sort by the given keys: equal-key rows keep their input order
/// (see the [`compare_keys`] ordering contract).
fn sort_rows(rows: &mut RowSet<'_>, keys: &[SortKey], ctx: &EvalCtx<'_>) -> SqlResult<()> {
    let mut keyed = Vec::with_capacity(rows.len());
    for row in rows.drain(..) {
        keyed.push((eval_keys(&row, keys, ctx)?, row));
    }
    keyed.sort_by(|a, b| compare_keys(&a.0, &b.0, keys));
    rows.extend(keyed.into_iter().map(|(_, r)| r));
    Ok(())
}

/// Heap-based top-(offset + k), then a final sort of the survivors.
/// Ties are broken by input sequence (`seq`), which makes the result
/// byte-identical to `Sort + Limit` — see the [`compare_keys`] contract.
fn top_k<'a>(
    rows: RowSet<'a>,
    keys: &[SortKey],
    k: usize,
    offset: usize,
    eval_ctx: &EvalCtx<'_>,
) -> SqlResult<RowSet<'a>> {
    let want = k.saturating_add(offset);
    if want == 0 {
        return Ok(Vec::new());
    }

    // Max-heap of the worst current survivors; (keys, seq) ordering makes
    // the heap behave like the stable sort.
    struct Entry<'a> {
        key: Vec<Value>,
        seq: usize,
        row: Cow<'a, Row>,
    }
    struct Ctx<'a>(&'a [SortKey]);
    impl Ctx<'_> {
        fn cmp(&self, a: &Entry<'_>, b: &Entry<'_>) -> Ordering {
            compare_keys(&a.key, &b.key, self.0).then(a.seq.cmp(&b.seq))
        }
    }

    let ctx = Ctx(keys);
    let mut heap: Vec<Entry<'a>> = Vec::with_capacity(want + 1);
    for (seq, row) in rows.into_iter().enumerate() {
        let key = eval_keys(&row, keys, eval_ctx)?;
        let entry = Entry { key, seq, row };
        if heap.len() < want {
            heap.push(entry);
            if heap.len() == want {
                heap.sort_by(|a, b| ctx.cmp(a, b));
            }
        } else if heap
            .last()
            .is_some_and(|worst| ctx.cmp(&entry, worst) == Ordering::Less)
        {
            // Insert in sorted position; drop the worst. `want` is small
            // (a LIMIT), so the linear insert is fine.
            let pos = heap
                .binary_search_by(|e| ctx.cmp(e, &entry))
                .unwrap_or_else(|p| p);
            heap.insert(pos, entry);
            heap.pop();
        }
    }
    if heap.len() < want {
        heap.sort_by(|a, b| ctx.cmp(a, b));
    }
    Ok(heap
        .into_iter()
        .skip(offset)
        .take(k)
        .map(|e| e.row)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, Schema};
    use crate::table::Table;

    fn catalog() -> Catalog {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("id", DataType::Integer),
                Column::new("grp", DataType::Text),
                Column::new("x", DataType::Real),
            ])
            .unwrap(),
        );
        for i in 0..10i64 {
            t.insert(vec![
                Value::Int(i),
                Value::text(if i % 2 == 0 { "even" } else { "odd" }),
                Value::Float(i as f64 * 1.5),
            ])
            .unwrap();
        }
        let mut c = Catalog::new();
        c.add_table(t).unwrap();
        c
    }

    fn scan() -> Plan {
        Plan::TableScan {
            table: "t".into(),
            columns: vec!["id".into(), "grp".into(), "x".into()],
        }
    }

    fn colref(i: usize) -> BoundExpr {
        BoundExpr::ColumnRef(i)
    }

    #[test]
    fn scan_and_filter() {
        let c = catalog();
        let plan = Plan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::Binary {
                op: crate::ast::BinOp::Gt,
                lhs: Box::new(colref(0)),
                rhs: Box::new(BoundExpr::Literal(Value::Int(6))),
            },
        };
        let rows = execute(&plan, &c).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn aggregate_grouped() {
        let c = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(scan()),
            group: vec![colref(1)],
            group_names: vec!["grp".into()],
            aggs: vec![
                AggCall {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                    separator: ",".into(),
                    name: "n".into(),
                },
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(colref(0)),
                    distinct: false,
                    separator: ",".into(),
                    name: "s".into(),
                },
            ],
        };
        let rows = execute(&plan, &c).unwrap();
        assert_eq!(rows.len(), 2);
        // first-seen order: "even" first (id 0)
        assert_eq!(rows[0][0], Value::text("even"));
        assert_eq!(rows[0][1], Value::Int(5));
        assert_eq!(rows[0][2], Value::Int(2 + 4 + 6 + 8));
        assert_eq!(rows[1][2], Value::Int(1 + 3 + 5 + 7 + 9));
    }

    #[test]
    fn aggregate_empty_input_global() {
        let c = catalog();
        let empty = Plan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::Literal(Value::from(false)),
        };
        let plan = Plan::Aggregate {
            input: Box::new(empty),
            group: vec![],
            group_names: vec![],
            aggs: vec![
                AggCall {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                    separator: ",".into(),
                    name: "n".into(),
                },
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(colref(0)),
                    distinct: false,
                    separator: ",".into(),
                    name: "s".into(),
                },
                AggCall {
                    func: AggFunc::Total,
                    arg: Some(colref(0)),
                    distinct: false,
                    separator: ",".into(),
                    name: "t".into(),
                },
            ],
        };
        let rows = execute(&plan, &c).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[0][1], Value::Null);
        assert_eq!(rows[0][2], Value::Float(0.0));
    }

    #[test]
    fn count_distinct() {
        let c = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(scan()),
            group: vec![],
            group_names: vec![],
            aggs: vec![AggCall {
                func: AggFunc::Count,
                arg: Some(colref(1)),
                distinct: true,
                separator: ",".into(),
                name: "n".into(),
            }],
        };
        let rows = execute(&plan, &c).unwrap();
        assert_eq!(rows[0][0], Value::Int(2)); // "even", "odd"
    }

    #[test]
    fn sort_and_limit() {
        let c = catalog();
        let plan = Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(scan()),
                keys: vec![SortKey {
                    expr: colref(0),
                    descending: true,
                }],
            }),
            limit: Some(3),
            offset: 1,
        };
        let rows = execute(&plan, &c).unwrap();
        let ids: Vec<Value> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(8), Value::Int(7), Value::Int(6)]);
    }

    /// Pins the sort determinism contract: equal-key rows keep input
    /// order (ascending and descending), and TopK's `(key, seq)` heap
    /// ordering matches Sort + Limit across every offset split. The
    /// columnar executor's parallel merge depends on this.
    #[test]
    fn sort_contract_regression() {
        // Duplicate keys with distinct payloads so tie order is visible.
        let mut t = Table::new(
            "ties",
            Schema::new(vec![
                Column::new("k", DataType::Integer),
                Column::new("payload", DataType::Integer),
            ])
            .unwrap(),
        );
        for (i, k) in [3i64, 1, 3, 2, 1, 3, 2, 1].iter().enumerate() {
            t.insert(vec![Value::Int(*k), Value::Int(i as i64)])
                .unwrap();
        }
        let mut c = Catalog::new();
        c.add_table(t).unwrap();
        let scan = Plan::TableScan {
            table: "ties".into(),
            columns: vec!["k".into(), "payload".into()],
        };
        for descending in [false, true] {
            let keys = vec![SortKey {
                expr: colref(0),
                descending,
            }];
            let sorted = execute(
                &Plan::Sort {
                    input: Box::new(scan.clone()),
                    keys: keys.clone(),
                },
                &c,
            )
            .unwrap();
            // Ties keep input order: within each key group, payloads
            // (input positions) are strictly increasing.
            for w in sorted.windows(2) {
                if w[0][0] == w[1][0] {
                    assert!(
                        w[0][1] < w[1][1],
                        "tie broke input order (descending={descending}): {sorted:?}"
                    );
                }
            }
            // TopK == Sort + Limit at every (k, offset) split, including
            // splits that land inside a tie group.
            for offset in 0..sorted.len() {
                for k in 0..=sorted.len() - offset {
                    let via_topk = execute(
                        &Plan::TopK {
                            input: Box::new(scan.clone()),
                            keys: keys.clone(),
                            k,
                            offset,
                        },
                        &c,
                    )
                    .unwrap();
                    assert_eq!(
                        via_topk,
                        sorted[offset..offset + k].to_vec(),
                        "k={k} offset={offset} descending={descending}"
                    );
                }
            }
        }
    }

    #[test]
    fn topk_matches_sort_limit() {
        let c = catalog();
        let keys = vec![SortKey {
            expr: colref(2),
            descending: true,
        }];
        let sorted = execute(
            &Plan::Limit {
                input: Box::new(Plan::Sort {
                    input: Box::new(scan()),
                    keys: keys.clone(),
                }),
                limit: Some(4),
                offset: 2,
            },
            &c,
        )
        .unwrap();
        let topk = execute(
            &Plan::TopK {
                input: Box::new(scan()),
                keys,
                k: 4,
                offset: 2,
            },
            &c,
        )
        .unwrap();
        assert_eq!(sorted, topk);
    }

    #[test]
    fn nested_loop_inner_and_left() {
        let mut c = catalog();
        let mut u = Table::new(
            "u",
            Schema::new(vec![
                Column::new("id", DataType::Integer),
                Column::new("tag", DataType::Text),
            ])
            .unwrap(),
        );
        u.insert(vec![Value::Int(1), Value::text("one")]).unwrap();
        u.insert(vec![Value::Int(2), Value::text("two")]).unwrap();
        c.add_table(u).unwrap();

        let uscan = Plan::TableScan {
            table: "u".into(),
            columns: vec!["id".into(), "tag".into()],
        };
        let on = BoundExpr::Binary {
            op: crate::ast::BinOp::Eq,
            lhs: Box::new(colref(0)),
            rhs: Box::new(colref(3)),
        };
        let inner = Plan::NestedLoopJoin {
            left: Box::new(scan()),
            right: Box::new(uscan.clone()),
            kind: JoinKind::Inner,
            on: Some(on.clone()),
        };
        assert_eq!(execute(&inner, &c).unwrap().len(), 2);

        let left = Plan::NestedLoopJoin {
            left: Box::new(scan()),
            right: Box::new(uscan),
            kind: JoinKind::Left,
            on: Some(on),
        };
        let rows = execute(&left, &c).unwrap();
        assert_eq!(rows.len(), 10);
        let nulls = rows.iter().filter(|r| r[3].is_null()).count();
        assert_eq!(nulls, 8);
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let mut c = catalog();
        let mut u = Table::new(
            "u",
            Schema::new(vec![
                Column::new("id", DataType::Integer),
                Column::new("tag", DataType::Text),
            ])
            .unwrap(),
        );
        for i in 0..5 {
            u.insert(vec![Value::Int(i % 3), Value::text(format!("t{i}"))])
                .unwrap();
        }
        c.add_table(u).unwrap();
        let uscan = Plan::TableScan {
            table: "u".into(),
            columns: vec!["id".into(), "tag".into()],
        };
        for kind in [JoinKind::Inner, JoinKind::Left] {
            let nl = Plan::NestedLoopJoin {
                left: Box::new(scan()),
                right: Box::new(uscan.clone()),
                kind,
                on: Some(BoundExpr::Binary {
                    op: crate::ast::BinOp::Eq,
                    lhs: Box::new(colref(0)),
                    rhs: Box::new(colref(3)),
                }),
            };
            let hj = Plan::HashJoin {
                left: Box::new(scan()),
                right: Box::new(uscan.clone()),
                kind,
                left_key: colref(0),
                right_key: colref(0), // relative to right row
                residual: None,
            };
            let mut a = execute(&nl, &c).unwrap();
            let mut b = execute(&hj, &c).unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn distinct_dedups() {
        let c = catalog();
        let plan = Plan::Distinct {
            input: Box::new(Plan::Project {
                input: Box::new(scan()),
                exprs: vec![colref(1)],
                columns: vec!["grp".into()],
            }),
        };
        let rows = execute(&plan, &c).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn group_concat() {
        let c = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Filter {
                input: Box::new(scan()),
                predicate: BoundExpr::Binary {
                    op: crate::ast::BinOp::Lt,
                    lhs: Box::new(colref(0)),
                    rhs: Box::new(BoundExpr::Literal(Value::Int(3))),
                },
            }),
            group: vec![],
            group_names: vec![],
            aggs: vec![AggCall {
                func: AggFunc::GroupConcat,
                arg: Some(colref(0)),
                distinct: false,
                separator: "|".into(),
                name: "ids".into(),
            }],
        };
        let rows = execute(&plan, &c).unwrap();
        assert_eq!(rows[0][0], Value::text("0|1|2"));
    }
}
