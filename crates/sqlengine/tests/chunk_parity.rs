//! Property tests: the columnar executor behind [`Database::query`] is
//! byte-identical to the row-at-a-time reference executor — results
//! *and* errors — over randomized tables, NULL patterns, plan shapes
//! (with and without an index), worker counts (1/2/8), and morsel sizes
//! (down to 1 row per morsel, forcing cross-batch merges even on tiny
//! tables).

use proptest::prelude::*;
use std::sync::Arc;
use tag_sql::exec::reference_query;
use tag_sql::{Database, ExecPolicy, Value};

/// Random cell drawn from all four storage classes. Narrow domains on
/// purpose: small ints and two-letter strings force group-key
/// collisions, join matches, and sort ties, which is where merge order
/// bugs live. Column affinity coerces at insert time, identically for
/// both executors, so mixed draws per column are fine.
fn cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-8i64..8).prop_map(Value::Int),
        (-100i64..100).prop_map(|v| Value::Float(v as f64 / 4.0)),
        "[ab]{0,2}".prop_map(Value::text),
    ]
}

/// Fold a statement's rows or error message to a comparable string.
fn fold(result: tag_sql::SqlResult<tag_sql::ResultSet>) -> Result<String, String> {
    result
        .map(|rs| format!("{:?}", rs.rows))
        .map_err(|e| e.message().to_string())
}

/// `t(a, b, c)` holding `rows`; `indexed` adds a B-tree index on `a`, so
/// equality and range predicates on `a` plan as index probes and range
/// scans.
fn build_db(rows: Vec<Vec<Value>>, indexed: bool) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER, b REAL, c TEXT)")
        .expect("create");
    if indexed {
        db.execute("CREATE INDEX idx_a ON t (a)").expect("index");
    }
    db.catalog_mut()
        .table_mut("t")
        .expect("table t")
        .insert_all(rows)
        .expect("insert rows");
    db
}

/// The plan-shape pool: every relational operator, including
/// mixed-type intermediate columns (CASE), NULL join keys, residual join
/// predicates, DISTINCT aggregates, an error-raising aggregate (SUM over
/// text), index leaves, a folded always-false filter (`Values`), and
/// uncorrelated and correlated subqueries.
fn queries(k: i64, j: i64) -> Vec<String> {
    vec![
        "SELECT * FROM t".into(),
        format!("SELECT * FROM t WHERE a > {k}"),
        format!("SELECT a, CASE WHEN a > {k} THEN b ELSE c END FROM t"),
        "SELECT a + b, c FROM t".into(),
        "SELECT a IS NULL, NOT (b > 0.0) FROM t".into(),
        "SELECT c, COUNT(*), SUM(a), AVG(b), MIN(a), MAX(c) FROM t GROUP BY c".into(),
        "SELECT a, c, COUNT(*) FROM t GROUP BY a, c ORDER BY a, c".into(),
        "SELECT COUNT(DISTINCT a), GROUP_CONCAT(c) FROM t".into(),
        "SELECT SUM(b), TOTAL(a) FROM t".into(),
        "SELECT * FROM t ORDER BY c, a DESC".into(),
        format!("SELECT a FROM t ORDER BY b LIMIT {} OFFSET {}", k.max(0), j),
        format!("SELECT * FROM t LIMIT {j}"),
        "SELECT DISTINCT c FROM t".into(),
        "SELECT t1.a, t2.b FROM t t1 JOIN t t2 ON t1.c = t2.c WHERE t1.a < t2.a".into(),
        "SELECT t1.a, t2.b FROM t t1 LEFT JOIN t t2 ON t1.a = t2.a ORDER BY t1.a, t2.b".into(),
        "SELECT a FROM t UNION SELECT CAST(b AS INTEGER) FROM t".into(),
        // Error parity: SUM over a text column fails inside the
        // accumulator; the chunked path must surface the identical
        // message via its serial-replay fallback.
        "SELECT SUM(c) FROM t".into(),
        format!("SELECT c FROM t WHERE b * a > {k} ORDER BY a LIMIT 3"),
        format!("SELECT * FROM t WHERE a = {k}"),
        format!("SELECT c, b FROM t WHERE a >= {k} AND a < {}", k + j),
        format!("SELECT a, COUNT(*) FROM t WHERE a <= {k} GROUP BY a"),
        "SELECT a, c FROM t WHERE 1 = 0".into(),
        "SELECT COUNT(*), SUM(a) FROM t WHERE 1 = 0".into(),
        "SELECT a, (SELECT MAX(b) FROM t) FROM t".into(),
        "SELECT * FROM t WHERE b > (SELECT AVG(b) FROM t)".into(),
        format!("SELECT * FROM t WHERE a IN (SELECT a FROM t WHERE b > {k})"),
        "SELECT a, (SELECT COUNT(*) FROM t t2 WHERE t2.c = t1.c) FROM t t1".into(),
        "SELECT * FROM t t1 WHERE EXISTS (SELECT 1 FROM t t2 WHERE t2.a = t1.a AND t2.b > t1.b)"
            .into(),
        // Both executors run subqueries columnar, so each subquery body
        // above is also compared top-level, with a literal standing in
        // for the outer column of the correlated ones.
        "SELECT MAX(b) FROM t".into(),
        "SELECT AVG(b) FROM t".into(),
        format!("SELECT a FROM t WHERE b > {k}"),
        "SELECT COUNT(*) FROM t t2 WHERE t2.c = 'a'".into(),
        format!("SELECT 1 FROM t t2 WHERE t2.a = {k} AND t2.b > 0.5"),
    ]
}

/// The pool reaches the leaves it claims to: index probes and range
/// scans on the indexed table, and a folded `VALUES` for `WHERE 1 = 0`.
#[test]
fn pool_plans_index_and_values_leaves() {
    let db = build_db(Vec::new(), true);
    let plans: Vec<String> = queries(2, 3)
        .iter()
        .filter_map(|sql| db.explain(sql).ok())
        .collect();
    for leaf in ["IndexProbe", "IndexRangeScan", "Values"] {
        assert!(
            plans.iter().any(|p| p.contains(leaf)),
            "no {leaf} plan in the pool"
        );
    }
}

/// A metrics hub sees plain `query` statements, not just profiled ones:
/// every statement runs through the columnar executor, which records
/// its per-morsel instruments.
#[test]
fn plain_queries_record_morsel_instruments() {
    let db = build_db(
        vec![vec![Value::Int(1), Value::Float(0.5), Value::text("a")]],
        false,
    );
    let hub = Arc::new(tag_metrics::MetricsHub::new());
    db.install_metrics_hub(Arc::clone(&hub));
    db.query("SELECT a FROM t WHERE b > 0.0").expect("query");
    let text = hub.render();
    for op in ["TableScan", "Filter", "Project"] {
        let series = format!("tag_sqlengine_exec_chunk_rows_count{{op=\"{op}\"}} 1");
        assert!(text.contains(&series), "missing {series} in:\n{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_matches_reference_byte_for_byte(
        rows in prop::collection::vec(prop::collection::vec(cell(), 3..4), 0..40),
        k in -5i64..5,
        j in 0i64..6,
        morsel_rows in 1usize..17,
    ) {
        for indexed in [false, true] {
            let db = build_db(rows.clone(), indexed);
            for sql in queries(k, j) {
                let reference = fold(reference_query(&db, &sql));
                for workers in [1usize, 2, 8] {
                    db.set_exec_policy(ExecPolicy { workers, morsel_rows });
                    let columnar = fold(db.query(&sql));
                    prop_assert_eq!(
                        &reference,
                        &columnar,
                        "divergence on {:?} (indexed={}, workers={}, morsel_rows={})",
                        sql,
                        indexed,
                        workers,
                        morsel_rows
                    );
                }
            }
        }
    }
}
