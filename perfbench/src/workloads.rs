//! The two workloads, their set-up, reference answers, timed phases and
//! the traced run that attributes time to layers, plus the closed-loop
//! capacity probe that sets the `serve-open` arrival rate.
//!
//! Every workload runs against the production defaults
//! (`ServerConfig::default()`, `SimConfig::default()`, default database
//! execution policy) and sets no knob. The served corpus is generated at
//! [`DATA_SEED`], the seed TAG-Bench's Table 1 uses; `--seed` drives the
//! traffic: replay order, the generated question stream and the arrival
//! schedule.

use crate::gen::{self, Item};
use crate::layers::{Attribution, SPAN_LM, SPAN_METHOD};
use crate::stats::{median, ms, percentile, OpenLoopSample};
use crate::tally::{submit_once, Tally};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tag_bench::{build_benchmark, BenchQuery, Oracle};
use tag_core::answer::{exact_match, Answer};
use tag_core::env::TagEnv;
use tag_datagen::{generate_all, DomainData, Scale};
use tag_lm::model::{LanguageModel, LmRequest, LmResponse, LmResult};
use tag_lm::sim::{SimConfig, SimLm};
use tag_serve::{format_answer, run_method, MethodName, Request, Server, ServerConfig};
use tag_trace::{MemSink, SpanRecord, Stage, Trace};

/// Seed of the generated corpus (TAG-Bench's Table 1 seed).
pub const DATA_SEED: u64 = 42;
/// Arrival rate of `serve-open`, requests per second: a quarter of the
/// 2-client closed-loop capacity measured with [`capacity`], which
/// leaves headroom when the host is slow (see `README.md`).
pub const OPEN_RATE: f64 = 113.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TAG-Bench's 80 questions × 5 methods, serial, in process.
    TagBench,
    /// Open-loop Poisson arrivals through `Server::submit`.
    ServeOpen,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::TagBench, Workload::ServeOpen];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TagBench => "tagbench",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Traffic seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Where the traced run writes its span JSONL.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        n,
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Every answer matched its reference and every invariant held.
    pub correct: bool,
    /// Failure accounting over the measured phases.
    pub tally: Tally,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail lines.
    pub notes: Vec<String>,
}

/// Run one workload.
pub fn run(opts: &Opts) -> Report {
    match opts.workload {
        Workload::TagBench => run_replay(opts),
        Workload::ServeOpen => run_served(opts),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset this process's `VmHWM` to its current resident set, so the
/// peak counts from here on and not the benchmark's own set-up material
/// (reference answers, oracle inputs) that has already been dropped.
fn reset_peak_rss(notes: &mut Vec<String>) {
    let before = peak_rss_mb();
    match std::fs::write("/proc/self/clear_refs", "5") {
        Ok(()) => notes.push(format!(
            "peak RSS reset before the timed phase: {before:.1} MiB -> {:.1} MiB",
            peak_rss_mb()
        )),
        Err(e) => notes.push(format!("cannot reset the peak RSS: {e}")),
    }
}

/// Run `f`, catching a panic as `None` without printing it.
fn quietly<T>(f: impl FnOnce() -> T) -> Option<T> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    std::panic::set_hook(hook);
    out
}

/// The oracle's label for a query, or `None` when the query is an
/// aggregation or ill-posed over this data (a tied superlative).
fn label(oracle: &Oracle, q: &BenchQuery, domain: &DomainData) -> Option<Vec<String>> {
    quietly(|| oracle.answer(q, domain)).flatten()
}

/// A `LanguageModel` wrapper that times every call and, when a trace is
/// installed, opens a [`SPAN_LM`] span around it.
struct TimedLm {
    inner: Arc<dyn LanguageModel>,
    wall_ns: AtomicU64,
}

impl TimedLm {
    fn new(inner: Arc<dyn LanguageModel>) -> Self {
        TimedLm {
            inner,
            wall_ns: AtomicU64::new(0),
        }
    }

    /// Wall time spent inside the model so far.
    fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed))
    }
}

impl LanguageModel for TimedLm {
    fn generate_batch(&self, requests: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
        let _span = tag_trace::span(Stage::Gen, SPAN_LM);
        let t = Instant::now();
        let out = self.inner.generate_batch(requests);
        self.wall_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn elapsed_seconds(&self) -> f64 {
        self.inner.elapsed_seconds()
    }

    fn reset_metrics(&self) {
        self.inner.reset_metrics();
    }

    fn batches(&self) -> u64 {
        self.inner.batches()
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn usage(&self) -> (f64, u64, u64) {
        self.inner.usage()
    }
}

/// Cumulative counters of the database, engine and retrieval layers,
/// summed over a set of environments.
#[derive(Debug, Default, Clone, Copy)]
struct EnvCounters {
    statements: u64,
    plan_hits: u64,
    plan_misses: u64,
    probes: u64,
    rows_scanned: u64,
}

impl EnvCounters {
    fn read<'a>(envs: impl IntoIterator<Item = &'a TagEnv>) -> Self {
        let mut c = EnvCounters::default();
        for env in envs {
            c.statements += env.db.statements_run();
            let p = env.db.plan_cache_stats();
            c.plan_hits += p.hits;
            c.plan_misses += p.misses;
            if let Some(store) = env.row_store_if_built() {
                let r = store.retrieval_stats();
                c.probes += r.probes;
                c.rows_scanned += r.rows_scanned;
            }
        }
        c
    }

    fn since(self, before: EnvCounters) -> Self {
        EnvCounters {
            statements: self.statements - before.statements,
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            probes: self.probes - before.probes,
            rows_scanned: self.rows_scanned - before.rows_scanned,
        }
    }
}

/// LM and semantic-engine work of a phase.
#[derive(Debug, Default, Clone, Copy)]
struct LmWork {
    calls: u64,
    rounds: u64,
    virtual_s: f64,
    prompts_cached: u64,
    prompts_lm: u64,
    engine_batches: u64,
    engine_batch_size: usize,
}

/// Exact-match (hits, labelled pairs) per method.
type ExactMatch = BTreeMap<&'static str, (usize, usize)>;

/// What one measured phase produced.
#[derive(Debug, Default)]
struct Phase {
    elapsed_s: f64,
    latencies_ms: Vec<f64>,
    method_ms: BTreeMap<&'static str, Vec<f64>>,
    lm: LmWork,
    env: EnvCounters,
    em_by_method: ExactMatch,
    attribution: Attribution,
}

impl Phase {
    fn answered(&self) -> usize {
        self.latencies_ms.len()
    }

    fn mean_latency_ms(&self) -> f64 {
        ratio(self.latencies_ms.iter().sum(), self.answered() as f64)
    }
}

/// Count one labelled answer towards its method's exact-match score.
fn score(
    em: &mut ExactMatch,
    method: MethodName,
    answer: &Answer,
    truth: &[String],
    ordered: bool,
) {
    let e = em.entry(method.as_str()).or_default();
    e.0 += usize::from(exact_match(answer, truth, ordered));
    e.1 += 1;
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(p: &Phase, setup_s: &[f64], tally: &Tally, notes: &mut Vec<String>) -> Vec<Metric> {
    let n = p.answered();
    let mut em = (0, 0);
    for (m, (hit, of)) in &p.em_by_method {
        notes.push(format!(
            "exact_match {m} = {:.4} ({hit}/{of})",
            ratio(*hit as f64, *of as f64)
        ));
        em = (em.0 + hit, em.1 + of);
    }
    // The tail is printed, not reported: on serve-open it moves by more
    // than any allowed bound between identical runs on a shared VM.
    let tail = |q: f64| {
        let t = percentile(&p.latencies_ms, q);
        format!("p{q}_ms = {} (n={}, {} beyond)", t.value, t.n, t.beyond)
    };
    let reps: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    notes.push(format!("set-ups (s): {}", reps.join(" ")));
    let supported = crate::stats::highest_supported(n);
    notes.push(format!(
        "{}; highest supported percentile: {}",
        tail(99.0),
        supported.map_or("none".into(), tail)
    ));
    vec![
        metric("qps", ratio(n as f64, p.elapsed_s), "1/s", n),
        metric("p50_ms", percentile(&p.latencies_ms, 50.0).value, "ms", n),
        metric(
            "lm_calls_per_q",
            ratio(p.lm.calls as f64, n as f64),
            "count",
            n,
        ),
        metric(
            "lm_virtual_s_per_q",
            ratio(p.lm.virtual_s, n as f64),
            "s",
            n,
        ),
        metric(
            "exact_match",
            ratio(em.0 as f64, em.1 as f64),
            "ratio",
            em.1,
        ),
        // 1 − error rate: sheds and deadline drops leave the run correct
        // but pull this below 1.
        metric(
            "answered_ratio",
            tally.answered_ratio(),
            "ratio",
            tally.attempted as usize,
        ),
        metric("setup_s", median(setup_s), "s", setup_s.len()),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ]
}

/// Serving-tier layer figures (all zero for the in-process workload).
#[derive(Debug, Default)]
struct ServeLayer {
    queue_wait_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    occupancy: [f64; 3],
    batch: tag_serve::BatchStats,
    cache_hits: u64,
    cache_lookups: u64,
    scatters: u64,
}

/// Set-up timings of the traced run.
#[derive(Debug, Default)]
struct SetupTimes {
    generate_s: f64,
    index_build_s: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn per_layer(
    p: &Phase,
    serve: &ServeLayer,
    setup: &SetupTimes,
    lm_wall: Duration,
    untraced_mean_ms: f64,
    tally: &Tally,
) -> Vec<Metric> {
    let n = p.answered();
    let per_q = |x: f64| ratio(x, n as f64);
    let a = &p.attribution;
    let layer = |name: &str| a.layer_ms.get(name).copied().unwrap_or(0.0);
    let b = &serve.batch;
    let mut out = vec![
        metric(
            "serve.queue_wait_ms.p99",
            percentile(&serve.queue_wait_ms, 99.0).value,
            "ms",
            serve.queue_wait_ms.len(),
        ),
        metric(
            "serve.exec_ms.p50",
            percentile(&serve.exec_ms, 50.0).value,
            "ms",
            serve.exec_ms.len(),
        ),
        metric(
            "serve.overhead_ms.p50",
            percentile(&serve.overhead_ms, 50.0).value,
            "ms",
            serve.overhead_ms.len(),
        ),
    ];
    for (stage, occ) in ["syn", "exec", "gen"].iter().zip(serve.occupancy) {
        out.push(metric(
            format!("serve.stage_occupancy.{stage}"),
            occ,
            "ratio",
            n,
        ));
    }
    let rounds = b.rounds as f64;
    out.extend([
        metric("serve.batch.rounds_per_q", per_q(rounds), "count", n),
        metric(
            "serve.batch.solo_rounds_share",
            ratio(rounds - b.cross_request_rounds as f64, rounds),
            "ratio",
            b.rounds as usize,
        ),
        metric(
            "serve.batch.cross_request_share",
            ratio(b.cross_request_rounds as f64, rounds),
            "ratio",
            b.rounds as usize,
        ),
        metric(
            "serve.batch.prompts_per_round",
            ratio(b.prompts as f64, rounds),
            "count",
            b.rounds as usize,
        ),
        metric(
            "serve.batch.fallback_rounds",
            b.fallback_rounds as f64,
            "count",
            1,
        ),
        metric(
            "serve.answer_cache.hit_rate",
            ratio(serve.cache_hits as f64, serve.cache_lookups as f64),
            "ratio",
            serve.cache_lookups as usize,
        ),
        metric("serve.shed.queue_full", tally.queue_full as f64, "count", 1),
        metric("serve.shed.deadline", tally.deadline as f64, "count", 1),
    ]);
    for m in MethodName::all() {
        let v = p.method_ms.get(m.as_str()).map_or(&[][..], Vec::as_slice);
        out.push(metric(
            format!("core.method_ms.{m}.p50"),
            percentile(v, 50.0).value,
            "ms",
            v.len(),
        ));
    }
    let lm = &p.lm;
    let prompts = (lm.prompts_cached + lm.prompts_lm) as f64;
    out.extend([
        metric("core.self_ms_per_q", per_q(a.root_self_ms), "ms", n),
        metric("sqlengine.sql_ms_per_q", per_q(layer("sqlengine")), "ms", n),
        metric(
            "sqlengine.statements_per_q",
            per_q(p.env.statements as f64),
            "count",
            n,
        ),
        metric(
            "sqlengine.rows_in_per_row_out",
            ratio(a.sql_rows.0 as f64, a.sql_rows.1 as f64),
            "ratio",
            p.env.statements as usize,
        ),
        metric(
            "sqlengine.plan_cache.hit_rate",
            ratio(
                p.env.plan_hits as f64,
                (p.env.plan_hits + p.env.plan_misses) as f64,
            ),
            "ratio",
            (p.env.plan_hits + p.env.plan_misses) as usize,
        ),
        metric("semops.prompts_per_q", per_q(prompts), "count", n),
        metric(
            "semops.prompt_cache.hit_rate",
            ratio(lm.prompts_cached as f64, prompts),
            "ratio",
            prompts as usize,
        ),
        metric(
            "semops.round_occupancy",
            ratio(
                lm.prompts_lm as f64,
                (lm.engine_batches * lm.engine_batch_size as u64) as f64,
            ),
            "ratio",
            lm.engine_batches as usize,
        ),
    ]);
    for stage in ["syn", "exec", "gen", "rerank"] {
        let v = a.lm_virtual_s.get(stage).copied().unwrap_or(0.0);
        out.push(metric(format!("lm.virtual_s.{stage}"), per_q(v), "s", n));
    }
    out.extend([
        metric("lm.rounds_per_q", per_q(a.lm_rounds as f64), "count", n),
        metric("lm.wall_ms_per_q", per_q(ms(lm_wall)), "ms", n),
        metric("embed.retrieve_ms_per_q", per_q(layer("embed")), "ms", n),
        metric(
            "embed.rows_scanned_per_probe",
            ratio(p.env.rows_scanned as f64, p.env.probes as f64),
            "count",
            p.env.probes as usize,
        ),
        metric("embed.index_build_s", setup.index_build_s, "s", 1),
        metric("datagen.generate_s", setup.generate_s, "s", 1),
        metric(
            "shard.scatters_per_q",
            per_q(serve.scatters as f64),
            "count",
            n,
        ),
        metric("trace.unattributed_pct", a.unattributed_pct(), "%", n),
        metric(
            "trace.overhead_pct",
            100.0 * (ratio(p.mean_latency_ms(), untraced_mean_ms) - 1.0),
            "%",
            n,
        ),
    ]);
    out
}

/// The most request wall time the traced run may leave unattributed.
const MAX_UNATTRIBUTED_PCT: f64 = 5.0;

/// Write the traced phase's spans and check its attribution.
fn finish_traced(opts: &Opts, p: &Phase, report: &mut Report) {
    let path = opts.out_dir.join(format!(
        "{}-seed{}.spans.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    match p.attribution.write_jsonl(&path) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            p.attribution.lines.len(),
            path.display()
        )),
        Err(e) => report
            .notes
            .push(format!("cannot write {}: {e}", path.display())),
    }
    let gap = p.attribution.unattributed_pct();
    report.notes.push(format!(
        "layers cover {:.2}% of request wall time",
        100.0 - gap
    ));
    for (layer, ms) in &p.attribution.layer_ms {
        report.notes.push(format!(
            "layer {layer}: {:.4} ms/q",
            ratio(*ms, p.answered() as f64)
        ));
    }
    if gap > MAX_UNATTRIBUTED_PCT {
        report.correct = false;
        report.notes.push(format!(
            "FAIL: {gap:.2}% of request wall time is unattributed"
        ));
    }
}

// ---------------------------------------------------------------------
// The in-process replay: tagbench.

/// Per-question protocol of TAG-Bench's Table 1: every (method,
/// question) pair runs on a freshly reset environment (LM clock and
/// semantic-engine cache), so answers, LM counts and virtual seconds do
/// not depend on the order of pairs.
struct Replay {
    envs: HashMap<&'static str, TagEnv>,
    q: Questions,
    timed_lm: Option<Arc<TimedLm>>,
}

/// The benchmark side of an in-process workload.
struct Questions {
    /// (domain, question text) per query.
    questions: Vec<(&'static str, String)>,
    /// Oracle label and whether order matters, per query.
    truths: Vec<Option<(Vec<String>, bool)>>,
    pairs: Vec<(MethodName, usize)>,
}

impl Questions {
    /// TAG-Bench's questions, labelled by the oracle over the generated
    /// data, and every (method, question) pair.
    fn new(domains: &[DomainData]) -> Questions {
        let queries: Vec<BenchQuery> = build_benchmark(domains);
        let methods = MethodName::all();
        let oracle = Oracle::new();
        let truths = queries
            .iter()
            .map(|q| {
                let d = domains.iter().find(|d| d.name == q.domain)?;
                label(&oracle, q, d).map(|t| (t, q.ordered()))
            })
            .collect();
        let pairs = methods
            .iter()
            .flat_map(|&m| (0..queries.len()).map(move |i| (m, i)))
            .collect();
        Questions {
            questions: queries.iter().map(|q| (q.domain, q.question())).collect(),
            truths,
            pairs,
        }
    }
}

/// One answered pair.
struct Asked {
    answer: Option<Answer>,
    latency: Duration,
    calls: u64,
    rounds: u64,
    virtual_s: f64,
    engine: tag_semops::EngineStats,
    batch_size: usize,
}

/// An in-process set-up: environments over the workload's data.
struct Built {
    envs: HashMap<&'static str, TagEnv>,
    /// The benchmark side, when asked for.
    questions: Option<Questions>,
    timed_lm: Option<Arc<TimedLm>>,
    times: SetupTimes,
    /// Process work from the first byte of data to ready, seconds.
    ready_s: f64,
}

impl Built {
    /// Generate the data and build its environments and their retrieval
    /// indexes. With `questions`, the oracle labels the data between the
    /// two, outside the set-up time, so the data is never copied.
    fn new(traced: bool, questions: bool) -> Built {
        let t = Instant::now();
        let domains = generate_all(DATA_SEED, Scale::default());
        let generate_s = t.elapsed().as_secs_f64();
        let questions = questions.then(|| Questions::new(&domains));
        let t = Instant::now();
        let sim: Arc<dyn LanguageModel> = Arc::new(SimLm::new(SimConfig::default()));
        let timed_lm = traced.then(|| Arc::new(TimedLm::new(Arc::clone(&sim))));
        let lm = timed_lm
            .clone()
            .map_or(sim, |t| t as Arc<dyn LanguageModel>);
        let envs: HashMap<&'static str, TagEnv> = domains
            .into_iter()
            .map(|d| (d.name, TagEnv::new(d.db, Arc::clone(&lm))))
            .collect();
        let t_index = Instant::now();
        for env in envs.values() {
            let _ = env.row_store();
        }
        let index_build_s = t_index.elapsed().as_secs_f64();
        Built {
            envs,
            questions,
            timed_lm,
            times: SetupTimes {
                generate_s,
                index_build_s,
            },
            ready_s: generate_s + t.elapsed().as_secs_f64(),
        }
    }
}

impl Replay {
    fn ask(&self, (method, qi): (MethodName, usize)) -> Asked {
        let (domain, text) = &self.q.questions[qi];
        let env = &self.envs[domain];
        env.reset_metrics();
        let t = Instant::now();
        let answer = catch_unwind(AssertUnwindSafe(|| {
            let _span = tag_trace::span(Stage::Request, SPAN_METHOD);
            run_method(method, text, env)
        }))
        .ok();
        let latency = t.elapsed();
        Asked {
            answer,
            latency,
            calls: env.lm.calls(),
            rounds: env.lm.batches(),
            virtual_s: env.elapsed_seconds(),
            engine: env.engine.stats(),
            batch_size: env.engine.batch_size(),
        }
    }

    /// The untimed warm-up pass: reference answers and the oracle
    /// exact-match count over the labelled pairs.
    fn warm_up(&self) -> (Vec<Option<String>>, ExactMatch) {
        let mut em = BTreeMap::new();
        let refs = self
            .q
            .pairs
            .iter()
            .map(|&(method, qi)| {
                let a = self.ask((method, qi)).answer?;
                if let Some((truth, ordered)) = &self.q.truths[qi] {
                    score(&mut em, method, &a, truth, *ordered);
                }
                Some(format_answer(&a))
            })
            .collect();
        (refs, em)
    }

    /// Replay whole passes over every pair, each in a fresh seeded
    /// order, until `seconds` have elapsed, checking every answer.
    fn phase(
        &self,
        rng: &mut StdRng,
        seconds: f64,
        refs: &[Option<String>],
        sink: Option<&MemSink>,
        tally: &mut Tally,
    ) -> Phase {
        let mut p = Phase::default();
        let before = EnvCounters::read(self.envs.values());
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let mut order: Vec<usize> = (0..self.q.pairs.len()).collect();
            order.shuffle(rng);
            for i in order {
                let pair = self.q.pairs[i];
                let a = self.ask(pair);
                let lat = ms(a.latency);
                match (&a.answer, &refs[i]) {
                    (Some(ans), Some(r)) => tally.answer(&format_answer(ans), r),
                    _ => tally.panic(),
                }
                p.latencies_ms.push(lat);
                p.method_ms.entry(pair.0.as_str()).or_default().push(lat);
                p.lm.calls += a.calls;
                p.lm.rounds += a.rounds;
                p.lm.virtual_s += a.virtual_s;
                p.lm.prompts_cached += a.engine.cache_hits;
                p.lm.prompts_lm += a.engine.lm_prompts;
                p.lm.engine_batches += a.engine.lm_batches;
                p.lm.engine_batch_size = a.batch_size;
                if let Some(sink) = sink {
                    p.attribution.add_request(lat, &[], &sink.take());
                }
            }
        }
        p.elapsed_s = start.elapsed().as_secs_f64();
        p.env = EnvCounters::read(self.envs.values()).since(before);
        p
    }
}

fn run_replay(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut built = None;
    for rep in 1..=reps {
        drop(built.take());
        let b = Built::new(opts.trace, rep == reps);
        setup_s.push(b.ready_s);
        built = Some(b);
    }
    let built = built.expect("at least one set-up");
    let replay = Replay {
        envs: built.envs,
        q: built.questions.expect("questions of the last set-up"),
        timed_lm: built.timed_lm,
    };
    let setup = built.times;
    let (refs, em) = replay.warm_up();
    reset_peak_rss(&mut report.notes);
    let mut tally = Tally::default();
    if opts.trace {
        let base = replay.phase(&mut rng, opts.seconds / 2.0, &refs, None, &mut tally);
        let lm_before = replay
            .timed_lm
            .as_ref()
            .map_or(Duration::ZERO, |t| t.wall());
        let (trace, sink) = Trace::memory();
        let p = tag_trace::with_trace(&trace, || {
            replay.phase(&mut rng, opts.seconds / 2.0, &refs, Some(&sink), &mut tally)
        });
        let lm_wall = replay
            .timed_lm
            .as_ref()
            .map_or(Duration::ZERO, |t| t.wall())
            - lm_before;
        report.metrics = per_layer(
            &p,
            &ServeLayer::default(),
            &setup,
            lm_wall,
            base.mean_latency_ms(),
            &tally,
        );
        report.correct = tally.clean();
        finish_traced(opts, &p, &mut report);
    } else {
        let mut p = replay.phase(&mut rng, opts.seconds, &refs, None, &mut tally);
        p.em_by_method = em;
        report.metrics = end_to_end(&p, &setup_s, &tally, &mut report.notes);
        report.correct = tally.clean();
    }
    report.tally = tally;
    report
}

// ---------------------------------------------------------------------
// The served workload, serve-open, and the closed-loop capacity probe.

/// How the client saw one reply.
struct Seen {
    /// Latency, from the due time in an open loop.
    latency_ms: f64,
    /// How late the load generator sent the request.
    lateness_ms: f64,
    /// The request's spans, in a traced phase.
    spans: Option<Vec<SpanRecord>>,
}

/// Served set-up plus the benchmark-side material: the stream, its
/// serial reference answers and the oracle labels of round 0.
struct Served {
    server: Server,
    items: Vec<Item>,
    refs: Vec<Option<String>>,
    truths: Vec<Option<(Vec<String>, bool)>>,
}

fn start_server() -> (Server, f64) {
    let t = Instant::now();
    let domains = generate_all(DATA_SEED, Scale::default());
    let generate_s = t.elapsed().as_secs_f64();
    (
        Server::start(domains, SimConfig::default(), ServerConfig::default()),
        generate_s,
    )
}

impl Served {
    fn setup(
        seed: u64,
        reps: usize,
        n_items: usize,
        setup_s: &mut Vec<f64>,
    ) -> (Served, SetupTimes) {
        let mut server = None;
        let mut times = SetupTimes::default();
        for _ in 0..reps {
            drop(server.take());
            let t = Instant::now();
            let (s, generate_s) = start_server();
            setup_s.push(t.elapsed().as_secs_f64());
            times.generate_s = generate_s;
            server = Some(s);
        }
        let server = server.expect("at least one set-up");
        // Plain environments: the same data, one simulated LM, no
        // server. They give the reference answers and the stream's slot
        // values.
        let domains = generate_all(DATA_SEED, Scale::default());
        let templates = build_benchmark(&domains);
        let items = gen::stream(seed, &domains, &templates, n_items);
        let oracle = Oracle::new();
        let truths = templates
            .iter()
            .map(|q| {
                let d = domains.iter().find(|d| d.name == q.domain)?;
                label(&oracle, q, d).map(|t| (t, q.ordered()))
            })
            .collect();
        let sim: Arc<dyn LanguageModel> = Arc::new(SimLm::new(SimConfig::default()));
        let envs: HashMap<&'static str, TagEnv> = domains
            .into_iter()
            .map(|d| (d.name, TagEnv::new(d.db, Arc::clone(&sim))))
            .collect();
        let t = Instant::now();
        for env in envs.values() {
            let _ = env.row_store();
        }
        times.index_build_s = t.elapsed().as_secs_f64();
        let refs = items
            .iter()
            .map(|it| {
                catch_unwind(AssertUnwindSafe(|| {
                    format_answer(&run_method(it.method, &it.question, &envs[it.domain]))
                }))
                .ok()
            })
            .collect();
        (
            Served {
                server,
                items,
                refs,
                truths,
            },
            times,
        )
    }

    fn envs(&self) -> Vec<&TagEnv> {
        self.server
            .domains()
            .iter()
            .filter_map(|d| self.server.env(d).map(|e| &**e))
            .collect()
    }

    fn lm(&self) -> Arc<dyn LanguageModel> {
        let d = self.server.domains();
        Arc::clone(&self.server.env(&d[0]).expect("served domain").lm)
    }

    fn engine_work(&self) -> LmWork {
        let lm = self.lm();
        let (virtual_s, rounds, calls) = lm.usage();
        let mut w = LmWork {
            calls,
            rounds,
            virtual_s,
            ..LmWork::default()
        };
        for env in self.envs() {
            let s = env.engine.stats();
            w.prompts_cached += s.cache_hits;
            w.prompts_lm += s.lm_prompts;
            w.engine_batches += s.lm_batches;
            w.engine_batch_size = env.engine.batch_size();
        }
        w
    }

    fn scatters(&self) -> u64 {
        self.server
            .domains()
            .iter()
            .filter_map(|d| self.server.shard_set(d))
            .map(|s| s.scatter_stats().scattered)
            .sum()
    }

    /// The server's spans for a reply, fetched right away: the trace ring
    /// keeps only the most recent requests.
    fn spans(
        &self,
        traced: bool,
        r: &Result<tag_serve::Response, tag_serve::ServeError>,
    ) -> Option<Vec<SpanRecord>> {
        traced.then(|| {
            r.as_ref()
                .ok()
                .and_then(|r| r.trace_id)
                .and_then(|id| self.server.trace(id))
                .unwrap_or_default()
        })
    }

    /// Check one reply and record its timings.
    fn reply(
        &self,
        i: usize,
        result: Result<tag_serve::Response, tag_serve::ServeError>,
        seen: Seen,
        p: &mut Phase,
        serve: &mut ServeLayer,
        tally: &mut Tally,
    ) {
        let item = &self.items[i];
        let resp = match result {
            Ok(r) => r,
            Err(e) => return tally.error(&e),
        };
        match &self.refs[i] {
            Some(r) => tally.answer(&format_answer(&resp.answer), r),
            None => tally.panic(),
        }
        if item.original {
            if let Some((truth, ordered)) = &self.truths[item.template] {
                score(
                    &mut p.em_by_method,
                    item.method,
                    &resp.answer,
                    truth,
                    *ordered,
                );
            }
        }
        let (queue, exec, total) = (ms(resp.queue_wait), ms(resp.exec), ms(resp.total));
        let Seen {
            latency_ms,
            lateness_ms,
            spans,
        } = seen;
        p.latencies_ms.push(latency_ms);
        p.method_ms
            .entry(item.method.as_str())
            .or_default()
            .push(exec);
        serve.queue_wait_ms.push(queue);
        serve.exec_ms.push(exec);
        serve
            .overhead_ms
            .push(latency_ms - lateness_ms - exec - queue);
        if let Some(spans) = spans {
            // The serving tier owns queueing and stage hand-offs, the
            // load generator its own lateness, and the spans cover
            // execution. What none covers (reply delivery to the
            // client) stays unattributed.
            let serve_ms = queue + (total - exec - queue).max(0.0);
            let extra = [("serve", serve_ms), ("loadgen", lateness_ms)];
            p.attribution.add_request(latency_ms, &extra, &spans);
        }
    }

    /// Measure `items[range]` with open-loop Poisson arrivals at
    /// [`OPEN_RATE`]: one thread sends on schedule, one collects replies.
    fn phase(
        &self,
        range: std::ops::Range<usize>,
        rng: &mut StdRng,
        traced: bool,
        tally: &mut Tally,
    ) -> (Phase, ServeLayer, Vec<f64>) {
        let mut p = Phase::default();
        let mut serve = ServeLayer::default();
        let mut lateness = Vec::new();
        let env_before = EnvCounters::read(self.envs());
        let lm_before = self.engine_work();
        let batch_before = self.server.batch_stats();
        let cache_before = self.server.cache().stats();
        let pipe_before = self.server.pipeline_snapshot();
        let scatter_before = self.scatters();
        let start = Instant::now();
        let mut due = Duration::ZERO;
        let schedule: Vec<(usize, Duration)> = range
            .map(|i| {
                let gap = -(1.0 - rng.gen::<f64>()).ln() / OPEN_RATE;
                due += Duration::from_secs_f64(gap);
                (i, due)
            })
            .collect();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let collector = s.spawn(|| {
                let mut done = Vec::new();
                for (i, due, sent, handle) in rx {
                    let r = tag_serve::ReplyHandle::wait(handle);
                    let at = start.elapsed();
                    let spans = self.spans(traced, &r);
                    done.push((i, due, sent, r, at, spans));
                }
                done
            });
            for (i, due) in schedule {
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed();
                lateness.push(ms(sent.saturating_sub(due)));
                let it = &self.items[i];
                let req = Request::new(it.domain, it.method, it.question.clone());
                if let Some(h) = submit_once(&self.server, req, tally) {
                    tx.send((i, due, sent, h)).expect("collector alive");
                }
            }
            drop(tx);
            let done = collector.join().expect("collector thread");
            for (i, due, sent, r, at, spans) in done {
                p.elapsed_s = p.elapsed_s.max(at.as_secs_f64());
                let service = r.as_ref().map_or(Duration::ZERO, |r| r.total);
                let sample = OpenLoopSample { due, sent, service };
                let seen = Seen {
                    latency_ms: ms(sample.latency()),
                    lateness_ms: ms(sample.lateness()),
                    spans,
                };
                self.reply(i, r, seen, &mut p, &mut serve, tally);
            }
        });
        p.env = EnvCounters::read(self.envs()).since(env_before);
        let lm = self.engine_work();
        p.lm = LmWork {
            calls: lm.calls - lm_before.calls,
            rounds: lm.rounds - lm_before.rounds,
            virtual_s: lm.virtual_s - lm_before.virtual_s,
            prompts_cached: lm.prompts_cached - lm_before.prompts_cached,
            prompts_lm: lm.prompts_lm - lm_before.prompts_lm,
            engine_batches: lm.engine_batches - lm_before.engine_batches,
            engine_batch_size: lm.engine_batch_size,
        };
        let b = self.server.batch_stats();
        serve.batch = tag_serve::BatchStats {
            submissions: b.submissions - batch_before.submissions,
            rounds: b.rounds - batch_before.rounds,
            cross_request_rounds: b.cross_request_rounds - batch_before.cross_request_rounds,
            prompts: b.prompts - batch_before.prompts,
            max_merged_submissions: b.max_merged_submissions,
            fallback_rounds: b.fallback_rounds - batch_before.fallback_rounds,
        };
        let c = self.server.cache().stats();
        serve.cache_hits = c.hits - cache_before.hits;
        serve.cache_lookups = serve.cache_hits + c.misses - cache_before.misses;
        let pipe = self.server.pipeline_snapshot();
        for (k, (now, then)) in pipe.iter().zip(&pipe_before).enumerate() {
            let busy = (now.busy - then.busy).as_secs_f64();
            serve.occupancy[k] = ratio(busy, now.workers as f64 * p.elapsed_s);
        }
        serve.scatters = self.scatters() - scatter_before;
        (p, serve, lateness)
    }
}

fn run_served(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let n_items = (OPEN_RATE * opts.seconds).ceil() as usize;
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let (served, setup) = Served::setup(opts.seed, reps, n_items, &mut setup_s);
    reset_peak_rss(&mut report.notes);
    let mut tally = Tally::default();
    let n = served.items.len();
    if n < n_items {
        report
            .notes
            .push(format!("stream ends after {n} of {n_items} requests"));
    }
    let (p, serve) = if opts.trace {
        let (base, base_serve, _) = served.phase(0..n / 2, &mut rng, false, &mut tally);
        let (p, mut serve, _) = served.phase(n / 2..n, &mut rng, true, &mut tally);
        report.metrics = per_layer(
            &p,
            &serve,
            &setup,
            Duration::ZERO,
            base.mean_latency_ms(),
            &tally,
        );
        serve.cache_hits += base_serve.cache_hits;
        (p, serve)
    } else {
        let (p, serve, lateness) = served.phase(0..n, &mut rng, false, &mut tally);
        report.metrics = end_to_end(&p, &setup_s, &tally, &mut report.notes);
        report.notes.push(format!(
            "arrivals {OPEN_RATE}/s; generator lateness p50 {:.4} ms, p99 {:.4} ms (n={})",
            percentile(&lateness, 50.0).value,
            percentile(&lateness, 99.0).value,
            lateness.len()
        ));
        report.notes.push(format!(
            "cross-request LM rounds {:.4} of {}; queue-full sheds {}",
            ratio(
                serve.batch.cross_request_rounds as f64,
                serve.batch.rounds as f64
            ),
            serve.batch.rounds,
            tally.queue_full
        ));
        (p, serve)
    };
    report.correct = tally.clean();
    if serve.cache_hits > 0 {
        report.correct = false;
        report.notes.push(format!(
            "FAIL: {} answer-cache hits on a stream of distinct questions",
            serve.cache_hits
        ));
    }
    if opts.trace {
        finish_traced(opts, &p, &mut report);
    }
    served.server.shutdown();
    report.tally = tally;
    report
}

/// Closed-loop capacity of the `serve-open` set-up: `clients` threads
/// each send the stream's next request as soon as their previous one is
/// answered, for `seconds`. Not a workload: it measures the capacity
/// that [`OPEN_RATE`] is half of. Every answer is checked as in a
/// workload; `qps` is the capacity.
pub fn capacity(seed: u64, seconds: f64, clients: usize) -> Report {
    let mut report = Report::default();
    // More than the stream has room for: the probe ends with the time
    // or the stream, whichever comes first.
    let n_items = 10 * gen::ROUND_ITEMS;
    let (served, _) = Served::setup(seed, 1, n_items, &mut Vec::new());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let start = Instant::now();
    let done: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(it) = served.items.get(i) else { break };
                        let t = Instant::now();
                        let req = Request::new(it.domain, it.method, it.question.clone());
                        let r = served.server.ask(req);
                        out.push((i, r, ms(t.elapsed())));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut p = Phase {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    let mut tally = Tally::default();
    for (i, r, latency_ms) in done {
        let seen = Seen {
            latency_ms,
            lateness_ms: 0.0,
            spans: None,
        };
        served.reply(i, r, seen, &mut p, &mut ServeLayer::default(), &mut tally);
    }
    let n = p.answered();
    report.metrics = vec![
        metric("qps", ratio(n as f64, p.elapsed_s), "1/s", n),
        metric("p50_ms", percentile(&p.latencies_ms, 50.0).value, "ms", n),
        metric(
            "answered_ratio",
            tally.answered_ratio(),
            "ratio",
            tally.attempted as usize,
        ),
    ];
    report.notes.push(format!(
        "closed loop, {} clients; stream of {} requests",
        clients,
        served.items.len()
    ));
    report.correct = tally.clean();
    served.server.shutdown();
    report.tally = tally;
    report
}
