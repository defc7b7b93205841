//! Traced-run tooling: span self time, attribution of self time to the
//! workspace crates (the benchmark's layers: `core`, `sqlengine`,
//! `semops`, `lm`, `embed`, `shard`, `serve`, plus `loadgen` for the
//! open-loop generator's own lateness), and the span JSONL file.
//!
//! Self time is a span's wall time minus the part of its interval that
//! its children cover. Children can overlap (scattered shard fragments
//! run concurrently), so the covered part is the union of the children's
//! intervals, clipped to the parent.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use tag_trace::{SpanRecord, Stage};

/// The benchmark's own span around a public in-process method call.
pub const SPAN_METHOD: &str = "bench.run_method";
/// The benchmark's own span around a `LanguageModel` call.
pub const SPAN_LM: &str = "bench.lm";

/// The layer (crate) a span's self time belongs to.
pub fn layer_of(span: &SpanRecord) -> &'static str {
    let label = span.label.as_str();
    if label == SPAN_LM {
        "lm"
    } else if label == "sql" {
        "sqlengine"
    } else if label.starts_with("shard=") {
        "shard"
    } else if span.stage == Stage::Retrieve {
        "embed"
    } else if label.starts_with("sem_") || label == "filter" {
        "semops"
    } else {
        // Method roots (the benchmark's and the server's), synthesis,
        // generation and rerank scoring all live in tag-core.
        "core"
    }
}

/// Microsecond interval `[start, end)` of a span.
fn interval(s: &SpanRecord) -> (f64, f64) {
    let start = s.start_us as f64;
    (start, start + s.wall.as_secs_f64() * 1e6)
}

/// Self time of every span, in microseconds, index-aligned with `spans`.
/// Spans of different traces never parent each other.
pub fn self_times_us(spans: &[SpanRecord]) -> Vec<f64> {
    let mut children: HashMap<(u64, u64), Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry((s.trace_id, p)).or_default().push(i);
        }
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = interval(s);
            let mut kids: Vec<(f64, f64)> = children
                .get(&(s.trace_id, s.id))
                .into_iter()
                .flatten()
                .map(|&c| {
                    let (a, b) = interval(&spans[c]);
                    (a.max(lo), b.min(hi))
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (hi - lo - covered).max(0.0)
        })
        .collect()
}

/// Rows read by the leaves of a traced SQL statement's profiled plan and
/// rows returned by its root, from the `(in=… out=…)` annotations.
pub fn sql_rows(span: &SpanRecord) -> (u64, u64) {
    let nodes: Vec<(usize, u64)> = span
        .annotations
        .iter()
        .filter_map(|a| {
            let out = a.split("out=").nth(1)?.split(' ').next()?.parse().ok()?;
            a.contains("(in=")
                .then(|| (a.len() - a.trim_start().len(), out))
        })
        .collect();
    let rows_in = nodes
        .iter()
        .enumerate()
        .filter(|(i, (depth, _))| nodes.get(i + 1).is_none_or(|(d, _)| d <= depth))
        .map(|(_, (_, out))| out)
        .sum();
    let rows_out = nodes.first().map_or(0, |(_, out)| *out);
    (rows_in, rows_out)
}

/// Per-layer self time and per-stage LM usage accumulated over a traced
/// phase, with the JSONL lines of every span kept for the artifact.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self time per layer, ms.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Request wall time the benchmark measured, ms.
    pub wall_ms: f64,
    /// Request wall time charged to a named layer, ms.
    pub attributed_ms: f64,
    /// Virtual LM seconds per span stage.
    pub lm_virtual_s: BTreeMap<&'static str, f64>,
    /// LM batch rounds recorded on spans.
    pub lm_rounds: u64,
    /// Self time of the method root spans, ms.
    pub root_self_ms: f64,
    /// Rows in / rows out over every traced SQL statement.
    pub sql_rows: (u64, u64),
    /// One JSON object per span.
    pub lines: Vec<String>,
}

impl Attribution {
    /// Charge one request: `wall_ms` as measured by the benchmark,
    /// `extra` layer time known from outside the spans (the serving
    /// tier's queueing and hand-offs), and the request's spans.
    pub fn add_request(
        &mut self,
        wall_ms: f64,
        extra: &[(&'static str, f64)],
        spans: &[SpanRecord],
    ) {
        let selfs = self_times_us(spans);
        let mut charged = 0.0;
        for (layer, ms) in extra {
            *self.layer_ms.entry(layer).or_default() += ms;
            charged += ms;
        }
        for (s, self_us) in spans.iter().zip(&selfs) {
            let layer = layer_of(s);
            let ms = self_us / 1e3;
            *self.layer_ms.entry(layer).or_default() += ms;
            charged += ms;
            if s.parent.is_none() {
                self.root_self_ms += ms;
            }
            if s.label == "sql" {
                let (i, o) = sql_rows(s);
                self.sql_rows.0 += i;
                self.sql_rows.1 += o;
            }
            *self.lm_virtual_s.entry(s.stage.as_str()).or_default() += s.lm.virtual_seconds;
            self.lm_rounds += s.lm.rounds;
            let json = s.to_json();
            self.lines.push(format!(
                "{{\"layer\":\"{layer}\",\"self_us\":{self_us:.1},{}",
                &json[1..]
            ));
        }
        self.wall_ms += wall_ms;
        self.attributed_ms += charged.min(wall_ms);
    }

    /// Share of request wall time no named layer accounts for, percent.
    pub fn unattributed_pct(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        100.0 * (self.wall_ms - self.attributed_ms).max(0.0) / self.wall_ms
    }

    /// Write the span lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in &self.lines {
            writeln!(f, "{line}")?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tag_trace::LmUsage;

    fn span(id: u64, parent: Option<u64>, label: &str, start_us: u64, wall_us: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            id,
            parent,
            stage: Stage::Exec,
            label: label.to_owned(),
            start_us,
            wall: Duration::from_micros(wall_us),
            lm: LmUsage::default(),
            annotations: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "sql", 10, 40),     // [10, 50)
            span(3, Some(1), "shard=0", 30, 40), // [30, 70): overlaps 2
            span(4, Some(1), "shard=1", 90, 30), // [90, 120): clipped to 100
            span(5, Some(2), "sql", 20, 10),     // grandchild: only 2's
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs[0], 100.0 - 60.0 - 10.0);
        assert_eq!(selfs[1], 30.0);
        assert_eq!(selfs[2], 40.0);
        assert_eq!(selfs[3], 30.0);
        assert_eq!(selfs[4], 10.0);
    }

    #[test]
    fn spans_of_other_traces_are_not_children() {
        let mut other = span(2, Some(1), "sql", 10, 50);
        other.trace_id = 2;
        let selfs = self_times_us(&[span(1, None, "root", 0, 100), other]);
        assert_eq!(selfs[0], 100.0);
    }

    #[test]
    fn layers_are_named_after_crates() {
        let mut retrieve = span(1, None, "row embeddings", 0, 1);
        retrieve.stage = Stage::Retrieve;
        assert_eq!(layer_of(&retrieve), "embed");
        assert_eq!(layer_of(&span(1, None, "sql", 0, 1)), "sqlengine");
        assert_eq!(layer_of(&span(1, None, "sem_filter", 0, 1)), "semops");
        assert_eq!(layer_of(&span(1, None, SPAN_LM, 0, 1)), "lm");
        assert_eq!(layer_of(&span(1, None, "shard=3", 0, 1)), "shard");
        assert_eq!(layer_of(&span(1, None, SPAN_METHOD, 0, 1)), "core");
    }

    #[test]
    fn sql_rows_reads_leaves_and_root() {
        let mut s = span(1, None, "sql", 0, 1);
        s.annotations = vec![
            "sql: SELECT a FROM t JOIN u".into(),
            "Project  (in=5 out=5 time=1µs)".into(),
            "  HashJoin  (in=300 out=5 time=9µs)".into(),
            "    TableScan t  (in=0 out=100 time=3µs)".into(),
            "    TableScan u  (in=0 out=200 time=3µs)".into(),
            "plan_cache: hit".into(),
        ];
        assert_eq!(sql_rows(&s), (300, 5));
    }

    #[test]
    fn attribution_charges_layers_and_reports_the_gap() {
        let mut a = Attribution::default();
        let spans = vec![
            span(1, None, SPAN_METHOD, 0, 800),
            span(2, Some(1), "sql", 100, 300),
        ];
        a.add_request(1.0, &[("serve", 0.1)], &spans);
        assert!((a.layer_ms["core"] - 0.5).abs() < 1e-9);
        assert!((a.layer_ms["sqlengine"] - 0.3).abs() < 1e-9);
        assert!((a.unattributed_pct() - 10.0).abs() < 1e-6);
        assert_eq!(a.lines.len(), 2);
        assert!(a.lines[0].starts_with("{\"layer\":\"core\",\"self_us\":500.0,\"trace\":1,"));
    }
}
