//! `scale-bench` — the million-row scale sweep of the columnar
//! executor.
//!
//! Per-operator rows/s over the `schools` domain at three tiers (small /
//! standard / huge = 10⁶ rows, generated through the bulk fast path):
//! the row-at-a-time reference executor
//! (`tag_sql::exec::reference_query`, the "serial" arm) against the
//! columnar executor with 1 and 8 workers, plus the
//! scan→filter→aggregate pipeline the acceptance gate measures. Every
//! columnar arm's rows are compared row-for-row against the reference.
//! The 80×5 benchmark's own statements are checked against the
//! reference by `crates/bench/tests/trace_replay.rs`.
//!
//! Output goes to `BENCH_scale.json`. Exit is non-zero on any mismatch,
//! or (full mode) when the huge-tier pipeline speedup at 8 workers
//! falls under the `--threshold` multiplier (default 3×).
//!
//! `--smoke` keeps CI fast: the standard-tier sweep only, byte-identity
//! enforced, the speedup gate skipped.

use std::fmt::Write as _;
use std::time::Instant;
use tag_datagen::{schools, Scale};
use tag_sql::exec::reference_query;
use tag_sql::{Database, ExecPolicy, ResultSet, SqlResult};

fn usage() -> ! {
    eprintln!("usage: scale-bench [--seed N] [--rounds N] [--threshold X] [--json PATH] [--smoke]");
    std::process::exit(2);
}

struct OpSpec {
    name: &'static str,
    sql: &'static str,
}

/// The per-operator suite. `rows/s` is input rows (table cardinality)
/// over wall time — a throughput basis that is comparable across
/// operators with different output cardinalities.
const OPS: &[OpSpec] = &[
    OpSpec {
        name: "scan",
        sql: "SELECT * FROM schools",
    },
    OpSpec {
        name: "filter",
        sql: "SELECT * FROM schools WHERE AvgScrMath > 640",
    },
    OpSpec {
        name: "project",
        sql: "SELECT CDSCode, AvgScrMath + AvgScrRead FROM schools",
    },
    OpSpec {
        name: "aggregate",
        sql: "SELECT City, COUNT(*), AVG(AvgScrMath) FROM schools GROUP BY City",
    },
    OpSpec {
        name: "sort",
        sql: "SELECT CDSCode FROM schools ORDER BY AvgScrMath, CDSCode",
    },
    OpSpec {
        name: "hash_join",
        sql: "SELECT COUNT(*) FROM schools s JOIN satscores t ON s.CDSCode = t.cds \
              WHERE t.AvgScrVerbal > s.AvgScrMath",
    },
    OpSpec {
        name: "scan_filter_aggregate",
        sql: "SELECT City, COUNT(*), AVG(AvgScrMath) FROM schools \
              WHERE AvgScrMath > 550 GROUP BY City",
    },
];

/// Minimum wall seconds over `rounds` runs of `sql` through `run`
/// (answers returned once for identity checks).
fn time_query(
    db: &Database,
    sql: &str,
    rounds: usize,
    run: fn(&Database, &str) -> SqlResult<ResultSet>,
) -> (f64, Vec<Vec<tag_sql::Value>>) {
    let mut best = f64::INFINITY;
    let mut rows = Vec::new();
    for _ in 0..rounds.max(1) {
        let started = Instant::now();
        let rs = run(db, sql).expect("bench query");
        let wall = started.elapsed().as_secs_f64();
        if wall < best {
            best = wall;
        }
        rows = rs.rows;
    }
    (best, rows)
}

struct OpResult {
    name: &'static str,
    serial_rps: f64,
    w1_rps: f64,
    w8_rps: f64,
    speedup_w8: f64,
    mismatches: usize,
}

fn sweep_tier(seed: u64, n: usize, rounds: usize) -> Vec<OpResult> {
    let domain = schools::generate_bulk(seed, n);
    let db = domain.db;
    let basis = n as f64;
    let mut out = Vec::new();
    for op in OPS {
        let (serial_s, serial_rows) = time_query(&db, op.sql, rounds, reference_query);
        db.set_exec_policy(ExecPolicy::with_workers(1));
        let (w1_s, w1_rows) = time_query(&db, op.sql, rounds, Database::query);
        db.set_exec_policy(ExecPolicy::with_workers(8));
        let (w8_s, w8_rows) = time_query(&db, op.sql, rounds, Database::query);
        let mismatches = usize::from(w1_rows != serial_rows) + usize::from(w8_rows != serial_rows);
        if mismatches > 0 {
            eprintln!("MISMATCH op {} at n={n}", op.name);
        }
        out.push(OpResult {
            name: op.name,
            serial_rps: basis / serial_s,
            w1_rps: basis / w1_s,
            w8_rps: basis / w8_s,
            speedup_w8: serial_s / w8_s,
            mismatches,
        });
    }
    out
}

fn main() {
    let mut seed = 42u64;
    let mut rounds = 3usize;
    let mut threshold = 3.0f64;
    let mut json_path = "BENCH_scale.json".to_owned();
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--json" => json_path = args.next().unwrap_or_else(|| usage()),
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }

    let mut total_mismatches = 0usize;
    // Throughput tiers.
    let tiers: &[(&str, usize)] = if smoke {
        &[("standard", Scale::default().schools)][..]
    } else {
        &[
            ("small", Scale::small().schools),
            ("standard", Scale::default().schools),
            ("huge", Scale::huge().schools),
        ][..]
    };
    let mut tiers_json = String::new();
    let mut gate_speedup = f64::NAN;
    for (tier, n) in tiers {
        eprintln!("sweeping tier {tier} ({n} rows)...");
        let results = sweep_tier(seed, *n, rounds);
        let mut ops_json = String::new();
        for r in &results {
            total_mismatches += r.mismatches;
            if *tier == "huge" && r.name == "scan_filter_aggregate" {
                gate_speedup = r.speedup_w8;
            }
            let _ = write!(
                ops_json,
                "{}{{\"op\":\"{}\",\"serial_rows_per_s\":{:.0},\"chunked_w1_rows_per_s\":{:.0},\
                 \"chunked_w8_rows_per_s\":{:.0},\"speedup_w8\":{:.2},\"mismatches\":{}}}",
                if ops_json.is_empty() { "" } else { "," },
                r.name,
                r.serial_rps,
                r.w1_rps,
                r.w8_rps,
                r.speedup_w8,
                r.mismatches,
            );
            eprintln!(
                "  {:<22} serial {:>12.0} rows/s   w1 {:>12.0}   w8 {:>12.0}   x{:.2}",
                r.name, r.serial_rps, r.w1_rps, r.w8_rps, r.speedup_w8
            );
        }
        let _ = write!(
            tiers_json,
            "{}{{\"tier\":\"{tier}\",\"rows\":{n},\"ops\":[{ops_json}]}}",
            if tiers_json.is_empty() { "" } else { "," },
        );
    }

    let gate_ok = smoke || gate_speedup >= threshold;
    let json = format!(
        "{{\"bench\":\"scale-bench\",\"seed\":{seed},\"smoke\":{smoke},\"rounds\":{rounds},\
         \"tiers\":[{tiers_json}],\
         \"gate\":{{\"pipeline\":\"scan_filter_aggregate\",\"tier\":\"huge\",\"workers\":8,\
         \"threshold\":{threshold},\"speedup\":{},\"passed\":{}}},\
         \"total_mismatches\":{total_mismatches}}}",
        if gate_speedup.is_nan() {
            "null".to_owned()
        } else {
            format!("{gate_speedup:.2}")
        },
        gate_ok,
    );
    std::fs::write(&json_path, &json).expect("write json");
    eprintln!("wrote {json_path}");

    if total_mismatches > 0 {
        eprintln!("FAIL: {total_mismatches} byte-identity mismatches");
        std::process::exit(1);
    }
    if !gate_ok {
        eprintln!("FAIL: huge-tier pipeline speedup {gate_speedup:.2} < {threshold}");
        std::process::exit(1);
    }
    eprintln!("ok");
}
