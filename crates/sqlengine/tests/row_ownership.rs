//! Regression tests for the executor's borrowed row path: operators pass
//! rows borrowed from table storage until one of them creates a row, and
//! each statement materializes its output once, at the root. None of
//! that may be observable: rows, errors, the first failing row, and the
//! profiler's per-node `in=`/`out=` counts are pinned here.

use std::sync::{Arc, Mutex};
use tag_sql::{Database, FnUdf, SqlError, Value};

const ROWS: i64 = 12;

/// `t(a, b, c)` with distinct `a`, repeating `b` (indexed), and a NULL
/// in every fourth `c`; `u(a, tag)` joins a subset of `t.a`.
fn db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t (a INTEGER, b TEXT, c REAL);
         CREATE TABLE u (a INTEGER, tag TEXT);
         CREATE INDEX idx_a ON t (a);
         CREATE INDEX idx_b ON t (b);",
    )
    .expect("schema");
    for i in 0..ROWS {
        let c = if i % 4 == 3 {
            "NULL".to_owned()
        } else {
            format!("{}", i as f64 * 0.5)
        };
        db.execute(&format!("INSERT INTO t VALUES ({i}, 'b{}', {c})", i % 3))
            .expect("insert t");
    }
    for i in (0..ROWS).step_by(3) {
        db.execute(&format!("INSERT INTO u VALUES ({i}, 'tag{i}')"))
            .expect("insert u");
    }
    db
}

/// The rows of `t` exactly as stored.
fn stored_rows() -> Vec<Vec<Value>> {
    (0..ROWS)
        .map(|i| {
            let c = if i % 4 == 3 {
                Value::Null
            } else {
                Value::Float(i as f64 * 0.5)
            };
            vec![Value::Int(i), Value::text(format!("b{}", i % 3)), c]
        })
        .collect()
}

fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows
}

/// Register `probe(x)`: returns `x`, logs every argument, and fails on
/// `x = fail_at` with a message naming the value.
fn with_probe(db: &mut Database, fail_at: i64) -> Arc<Mutex<Vec<i64>>> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&seen);
    let probe = FnUdf::new("probe", Some(1), move |args: &[Value]| {
        let x = args[0].as_i64().unwrap_or(-1);
        log.lock().unwrap_or_else(|e| e.into_inner()).push(x);
        if x == fail_at {
            Err(SqlError::Udf(format!("probe failed on a = {x}")))
        } else {
            Ok(Value::Int(x))
        }
    });
    db.register_udf(Arc::new(probe));
    seen
}

#[test]
fn failing_filter_or_project_returns_the_first_rows_error() {
    let fail_at = 5;
    for sql in [
        "SELECT * FROM t WHERE probe(a) >= 0",
        "SELECT probe(a) FROM t",
        "SELECT b, probe(a) FROM t WHERE c IS NULL OR c >= 0",
        // LIMIT does not cut evaluation short: every input row of the
        // projection is evaluated, so the error still surfaces.
        "SELECT probe(a) FROM t LIMIT 2",
    ] {
        for profiled in [false, true] {
            let mut db = db();
            let seen = with_probe(&mut db, fail_at);
            let err = if profiled {
                db.query_profiled(sql).map(|(rs, _)| rs).unwrap_err()
            } else {
                db.query(sql).unwrap_err()
            };
            assert_eq!(
                err.to_string(),
                "udf error: probe failed on a = 5",
                "{sql} (profiled={profiled})"
            );
            // Rows are evaluated in storage order and evaluation stops at
            // the first failure.
            let expected: Vec<i64> = (0..=fail_at).collect();
            assert_eq!(
                *seen.lock().unwrap_or_else(|e| e.into_inner()),
                expected,
                "{sql} (profiled={profiled})"
            );
        }
    }
}

#[test]
fn identity_projection_passes_rows_through_and_others_build_rows() {
    let db = db();
    let stored = stored_rows();
    assert_eq!(rows(&db, "SELECT * FROM t"), stored);
    assert_eq!(rows(&db, "SELECT a, b, c FROM t"), stored);
    let swapped: Vec<Vec<Value>> = stored
        .iter()
        .map(|r| vec![r[1].clone(), r[0].clone()])
        .collect();
    assert_eq!(rows(&db, "SELECT b, a FROM t"), swapped);
    let doubled: Vec<Vec<Value>> = stored
        .iter()
        .map(|r| vec![r[0].clone(), r[0].clone()])
        .collect();
    assert_eq!(rows(&db, "SELECT a, a FROM t"), doubled);
    let prefix: Vec<Vec<Value>> = stored
        .iter()
        .map(|r| vec![r[0].clone(), r[1].clone()])
        .collect();
    assert_eq!(rows(&db, "SELECT a, b FROM t"), prefix);
    let computed: Vec<Vec<Value>> = stored
        .iter()
        .map(|r| {
            let a = r[0].as_i64().unwrap_or(0);
            vec![Value::Int(a + 1), Value::text(format!("{}x", r[1]))]
        })
        .collect();
    assert_eq!(rows(&db, "SELECT a + 1, b || 'x' FROM t"), computed);
    // `*` over a join passes the joined (created) rows through.
    let joined = rows(&db, "SELECT * FROM t JOIN u ON t.a = u.a");
    let expected: Vec<Vec<Value>> = stored
        .iter()
        .filter(|r| r[0].as_i64().unwrap_or(-1) % 3 == 0)
        .map(|r| {
            let a = r[0].as_i64().unwrap_or(0);
            let mut row = r.clone();
            row.extend([Value::Int(a), Value::text(format!("tag{a}"))]);
            row
        })
        .collect();
    assert_eq!(joined, expected);
    // Storage is untouched by any of the above.
    assert_eq!(rows(&db, "SELECT * FROM t"), stored);
}

#[test]
fn limit_and_offset_at_zero_length_and_past_the_end() {
    let db = db();
    for (source, access) in [
        ("SELECT * FROM t", "TableScan t"),
        ("SELECT * FROM t WHERE c > 1.0", "TableScan t"),
        ("SELECT * FROM t WHERE b = 'b1'", "IndexProbe t"),
        ("SELECT * FROM t WHERE a >= 4", "IndexRangeScan t"),
        ("SELECT a, b FROM t WHERE b = 'b2'", "IndexProbe t"),
    ] {
        let (_, plan) = db.query_profiled(source).expect("profiled");
        assert!(
            plan.contains(access),
            "{source} should use {access}:\n{plan}"
        );
        let full = rows(&db, source);
        let n = full.len();
        assert!(n > 1, "{source} returns too few rows to test limits");
        for limit in [0, 1, n, n + 3] {
            for offset in [0, 1, n, n + 3] {
                let sql = format!("{source} LIMIT {limit} OFFSET {offset}");
                let start = offset.min(n);
                let end = (start + limit).min(n);
                assert_eq!(rows(&db, &sql), full[start..end].to_vec(), "{sql}");
            }
        }
    }
}

/// Strip timings from a profile rendering: `label  (in=… out=…)` per
/// node, as `perfbench` parses it for `sqlengine.rows_in_per_row_out`.
fn shape(plan: &str) -> Vec<String> {
    plan.lines()
        .map(|line| match line.split_once(" time=") {
            Some((head, _)) => format!("{head})"),
            None => line.to_owned(),
        })
        .collect()
}

#[test]
fn profiled_and_plain_queries_agree_and_profiles_are_pinned() {
    let db = db();
    let cases: &[(&str, &[&str])] = &[
        (
            "SELECT * FROM t",
            &["Project  (in=12 out=12)", "  TableScan t  (in=0 out=12)"],
        ),
        (
            "SELECT * FROM t WHERE c > 1.0 LIMIT 3",
            &[
                "Limit limit=Some(3) offset=0  (in=6 out=3)",
                "  Project  (in=6 out=6)",
                "    Filter  (in=12 out=6)",
                "      TableScan t  (in=0 out=12)",
            ],
        ),
        (
            "SELECT b, a FROM t WHERE b = 'b1'",
            &[
                "Project  (in=4 out=4)",
                "  IndexProbe t col#1  (in=0 out=4)",
            ],
        ),
        (
            "SELECT DISTINCT b FROM t WHERE a >= 4 ORDER BY b DESC",
            &[
                "Sort 1 keys  (in=3 out=3)",
                "  Distinct  (in=8 out=3)",
                "    Project  (in=8 out=8)",
                "      IndexRangeScan t col#0  (in=0 out=8)",
            ],
        ),
        (
            "SELECT a, c FROM t ORDER BY c DESC LIMIT 2 OFFSET 1",
            &[
                "TopK k=2 offset=1  (in=12 out=2)",
                "  Project  (in=12 out=12)",
                "    TableScan t  (in=0 out=12)",
            ],
        ),
        (
            "SELECT b, COUNT(*), SUM(c) FROM t GROUP BY b",
            &[
                "Project  (in=3 out=3)",
                "  Aggregate groups=1 aggs=2  (in=12 out=3)",
                "    TableScan t  (in=0 out=12)",
            ],
        ),
        (
            "SELECT t.a, u.tag FROM t LEFT JOIN u ON t.a = u.a WHERE t.c IS NOT NULL",
            &[
                "Project  (in=9 out=9)",
                "  HashJoin LEFT  (in=13 out=9)",
                "    Filter  (in=12 out=9)",
                "      TableScan t  (in=0 out=12)",
                "    TableScan u  (in=0 out=4)",
            ],
        ),
    ];
    for (sql, expected) in cases {
        let plain = db.query(sql).expect("plain");
        let (profiled, plan) = db.query_profiled(sql).expect("profiled");
        assert_eq!(plain.rows, profiled.rows, "{sql}");
        assert_eq!(plain.columns, profiled.columns, "{sql}");
        let mut want: Vec<String> = expected.iter().map(|l| (*l).to_owned()).collect();
        want.push("plan_cache: hit".to_owned());
        assert_eq!(shape(&plan), want, "{sql}");
    }
}
