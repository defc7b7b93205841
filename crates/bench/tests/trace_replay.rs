//! Tracing is observation only: replaying the whole benchmark with a
//! trace active must produce byte-identical answers to the untraced
//! baseline, and every captured span tree must be well-formed.
//!
//! The same replay checks the SQL engine against its reference: every
//! statement the 80×5 workload ran (the traced `sql: …` annotations,
//! which record the text verbatim) must give the same rows, or the same
//! error text, from the row-at-a-time reference executor as from
//! `Database::query`, at one worker and at eight.

use std::collections::{BTreeSet, HashSet};
use tag_bench::{Harness, MethodId};
use tag_sql::exec::reference_query;
use tag_sql::ExecPolicy;
use tag_trace::{SpanRecord, Stage, Trace};

/// Direct children must fit inside their parent: each child's wall time
/// is bounded by the parent's, and sequential siblings sum to at most
/// the parent's duration (plus a little slack for timer granularity).
fn assert_durations_nest(spans: &[SpanRecord]) {
    let slack = std::time::Duration::from_micros(50);
    for parent in spans {
        let children: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.parent == Some(parent.id))
            .collect();
        let sum: std::time::Duration = children.iter().map(|c| c.wall).sum();
        assert!(
            sum <= parent.wall + slack,
            "children of span {} ({}) sum to {:?} > parent {:?}",
            parent.id,
            parent.label,
            sum,
            parent.wall
        );
    }
}

fn assert_well_formed(spans: &[SpanRecord]) {
    assert!(!spans.is_empty());
    let trace_id = spans[0].trace_id;
    let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique");
    let mut roots = 0usize;
    for s in spans {
        assert_eq!(s.trace_id, trace_id, "one trace per request");
        match s.parent {
            None => roots += 1,
            Some(p) => {
                assert!(ids.contains(&p), "parent {p} of span {} exists", s.id);
                assert_ne!(p, s.id, "no self-parenting");
            }
        }
    }
    assert_eq!(roots, 1, "exactly one root (the request span)");
    let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
    assert_eq!(root.stage, Stage::Request);
    assert_durations_nest(spans);
}

/// Fold a statement's rows or error text to a comparable string.
fn fold(result: tag_sql::SqlResult<tag_sql::ResultSet>) -> Result<String, String> {
    result
        .map(|rs| format!("{:?} {:?}", rs.columns, rs.rows))
        .map_err(|e| e.to_string())
}

/// Replay 80 queries × 5 methods traced and untraced; returns the total
/// span count and every distinct `(domain, SQL text)` the replay ran.
fn traced_replay(harness: &Harness) -> (usize, BTreeSet<(&'static str, String)>) {
    let queries: Vec<(usize, &'static str)> =
        harness.queries().iter().map(|q| (q.id, q.domain)).collect();
    assert_eq!(queries.len(), 80, "TAG-Bench is 80 queries");
    let mut total_spans = 0usize;
    let mut statements = BTreeSet::new();
    for method in MethodId::all() {
        for &(id, domain) in &queries {
            let baseline = harness.run_one(method, id);
            let (trace, sink) = Trace::memory();
            let traced = tag_trace::with_trace(&trace, || {
                let _root = tag_trace::span(Stage::Request, method.label());
                harness.run_one(method, id)
            });
            // Byte identity, not just semantic equality.
            assert_eq!(
                format!("{:?}", traced.answer),
                format!("{:?}", baseline.answer),
                "{} query {id}: tracing changed the answer",
                method.label()
            );
            let spans = sink.take();
            assert_well_formed(&spans);
            total_spans += spans.len();
            for s in spans.iter().filter(|s| s.label == "sql") {
                for sql in s.annotations.iter().filter_map(|a| a.strip_prefix("sql: ")) {
                    statements.insert((domain, sql.to_owned()));
                }
            }
        }
    }
    (total_spans, statements)
}

/// Every statement gives the reference executor's rows or error text,
/// at the default policy and at 8 workers over 7-row morsels (forcing
/// cross-morsel merges: group order, sort seq, lowest-indexed error).
fn assert_matches_reference(harness: &Harness, statements: &BTreeSet<(&'static str, String)>) {
    let mut failed = 0usize;
    let parallel = ExecPolicy {
        workers: 8,
        morsel_rows: 7,
    };
    for (domain, sql) in statements {
        let db = &harness.env(domain).db;
        let reference = fold(reference_query(db, sql));
        let default = db.exec_policy();
        let served = fold(db.query(sql));
        db.set_exec_policy(parallel);
        let served_parallel = fold(db.query(sql));
        db.set_exec_policy(default);
        assert_eq!(served, reference, "{domain}: {sql}");
        assert_eq!(served_parallel, reference, "{domain} ({parallel:?}): {sql}");
        failed += usize::from(reference.is_err());
    }
    assert!(
        failed < statements.len(),
        "every one of the {failed} statements failed"
    );
}

#[test]
fn traced_benchmark_replay_is_byte_identical_and_well_formed() {
    let harness = Harness::small();
    let (total_spans, statements) = traced_replay(&harness);
    assert!(
        total_spans > 400,
        "spans were actually captured: {total_spans}"
    );
    assert!(statements.len() > 100, "{} statements", statements.len());
    assert_matches_reference(&harness, &statements);
}

#[test]
fn standard_scale_statements_match_the_reference_executor() {
    let harness = Harness::standard();
    let (_, statements) = traced_replay(&harness);
    assert!(statements.len() > 100, "{} statements", statements.len());
    assert_matches_reference(&harness, &statements);
}
