//! The distinct-question generator behind the served workloads.
//!
//! A stream is built in rounds. Round 0 is TAG-Bench itself: the 80
//! queries, each asked with all 5 methods. Every later round
//! re-instantiates each of the 80 templates once with fresh slot values
//! — thresholds drawn from the template's own column in the generated
//! data, `k`, post titles and circuits drawn from the data, and regions,
//! players, continents, genres and semantic properties drawn from the
//! templates' own vocabularies — and again asks each question with all
//! 5 methods. A round is five blocks of 80 requests: each block asks
//! every question of the round once, 16 of them with each method, so
//! methods interleave and the prefix a timed run gets through has the
//! stream's mix of templates and methods.
//!
//! No two items share an answer-cache key (domain, method, normalized
//! question), so a served stream never hits the answer cache. When a
//! template runs out of unseen instances, its slot in the round goes to
//! another template of the same query type (same knowledge/reasoning
//! kind first), which keeps every round's query-type mix at TAG-Bench's
//! 20/20/20/20. A round that cannot be filled ends the stream.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use tag_bench::{BenchQuery, QueryType};
use tag_datagen::DomainData;
use tag_lm::nlq::{NlFilter, NlQuery, SemProperty};
use tag_serve::{normalize_question, MethodName};
use tag_sql::Value;

/// Questions per round (one per TAG-Bench template).
pub const ROUND_QUESTIONS: usize = 80;

/// Requests per round: every question with each of the 5 methods.
pub const ROUND_ITEMS: usize = ROUND_QUESTIONS * 5;

/// Requests per block (a fifth of a round).
pub const BLOCK_ITEMS: usize = ROUND_QUESTIONS;

/// Unseen-instance draws tried per template before it counts as spent.
const ATTEMPTS: usize = 48;

/// A drawn `k` stays within this far below / above the template's `k`.
const K_BELOW: usize = 3;
const K_ABOVE: usize = 5;

/// A drawn threshold's quantile in its column stays within this distance
/// of the template threshold's quantile, so instances keep roughly the
/// template's selectivity (and hence its cost).
const QUANTILE_SPREAD: f64 = 0.05;

/// One request of a served stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Target domain.
    pub domain: &'static str,
    /// Method to run.
    pub method: MethodName,
    /// The question text.
    pub question: String,
    /// Query type of the template it instantiates.
    pub qtype: QueryType,
    /// Index (into the template list) of the template it instantiates.
    pub template: usize,
    /// Whether this is the TAG-Bench query itself (round 0), which has
    /// an oracle label unless it is an aggregation.
    pub original: bool,
}

/// The answer-cache key of an item.
pub fn cache_key(item: &Item) -> (&'static str, MethodName, String) {
    (item.domain, item.method, normalize_question(&item.question))
}

/// Slot vocabularies: what the data and the templates offer.
struct Vocab {
    titles: Vec<String>,
    circuits: Vec<String>,
    regions: Vec<String>,
    persons: Vec<String>,
    continents: Vec<String>,
    genres: Vec<String>,
    properties: BTreeMap<String, Vec<SemProperty>>,
    /// Sorted values of every column a template thresholds, keyed by
    /// (domain, table, column).
    columns: BTreeMap<(&'static str, String, String), Vec<f64>>,
}

/// The values of one column of a generated table (empty if absent).
fn column<'a>(domains: &'a [DomainData], domain: &str, table: &str, col: &str) -> Vec<&'a Value> {
    domains
        .iter()
        .find(|d| d.name == domain)
        .and_then(|d| d.db.catalog().table(table).ok())
        .and_then(|t| {
            let i = t.schema().index_of(col)?;
            Some(t.rows().iter().map(|r| &r[i]).collect())
        })
        .unwrap_or_default()
}

fn distinct_column(domains: &[DomainData], domain: &str, table: &str, col: &str) -> Vec<String> {
    let set: BTreeSet<String> = column(domains, domain, table, col)
        .into_iter()
        .map(Value::to_string)
        .collect();
    set.into_iter().collect()
}

fn sorted_column(domains: &[DomainData], domain: &str, table: &str, col: &str) -> Vec<f64> {
    let mut v: Vec<f64> = column(domains, domain, table, col)
        .into_iter()
        .filter_map(Value::as_f64)
        .filter(|x| x.is_finite())
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

impl Vocab {
    fn new(domains: &[DomainData], templates: &[BenchQuery]) -> Self {
        let mut words: [BTreeSet<String>; 4] = Default::default();
        let mut properties: BTreeMap<String, Vec<SemProperty>> = BTreeMap::new();
        let mut columns = BTreeMap::new();
        let mut note = |attr: &str, p: SemProperty| {
            let seen = properties.entry(attr.to_owned()).or_default();
            if !seen.contains(&p) {
                seen.push(p);
            }
        };
        for t in templates {
            if let NlQuery::SemanticRank {
                property, on_attr, ..
            } = &t.query
            {
                note(on_attr, *property);
            }
            for f in t.query.filters() {
                match f {
                    NlFilter::NumCmp { attr, .. } => {
                        let key = (t.domain, t.query.entity().to_owned(), attr.clone());
                        columns.entry(key).or_insert_with_key(|(d, table, col)| {
                            sorted_column(domains, d, table, col)
                        });
                        true
                    }
                    NlFilter::InRegion { region } => words[0].insert(region.clone()),
                    NlFilter::TallerThan { person } => words[1].insert(person.clone()),
                    NlFilter::CircuitContinent { continent } => words[2].insert(continent.clone()),
                    NlFilter::TextEq { attr, value } if attr == "genre" => {
                        words[3].insert(value.clone())
                    }
                    NlFilter::Semantic { attr, property } => {
                        note(attr, *property);
                        true
                    }
                    _ => false,
                };
            }
        }
        let [regions, persons, continents, genres] = words.map(|w| w.into_iter().collect());
        Vocab {
            titles: distinct_column(domains, "codebase_community", "posts", "Title"),
            circuits: distinct_column(domains, "formula_1", "races", "Circuit"),
            regions,
            persons,
            continents,
            genres,
            properties,
            columns,
        }
    }

    /// A threshold from the data near the template's: the column's value
    /// at a quantile within [`QUANTILE_SPREAD`] of the template value's
    /// quantile, rounded to a whole number so it renders exactly.
    fn threshold(
        &self,
        rng: &mut StdRng,
        key: (&'static str, &str, &str),
        template: f64,
    ) -> Option<f64> {
        let (domain, entity, attr) = key;
        let col = self
            .columns
            .get(&(domain, entity.to_owned(), attr.to_owned()))
            .filter(|c| !c.is_empty())?;
        let last = (col.len() - 1) as f64;
        let q0 = col.partition_point(|v| *v <= template) as f64 / col.len() as f64;
        let q = (q0 + rng.gen_range(-QUANTILE_SPREAD..QUANTILE_SPREAD)).clamp(0.0, 1.0);
        Some(col[(q * last).round() as usize].round())
    }
}

fn pick(rng: &mut StdRng, words: &[String], slot: &mut String) {
    if let Some(w) = words.choose(rng) {
        slot.clone_from(w);
    }
}

fn filters_mut(q: &mut NlQuery) -> &mut [NlFilter] {
    match q {
        NlQuery::Superlative { filters, .. }
        | NlQuery::Count { filters, .. }
        | NlQuery::List { filters, .. }
        | NlQuery::TopK { filters, .. }
        | NlQuery::Summarize { filters, .. }
        | NlQuery::ProvideInfo { filters, .. } => filters,
        NlQuery::SemanticRank { .. } => &mut [],
    }
}

/// Draw one instance of `template` with fresh slot values.
fn instantiate(v: &Vocab, rng: &mut StdRng, template: &BenchQuery) -> NlQuery {
    let mut q = template.query.clone();
    let mut redraw_k =
        |k: &mut usize| *k = rng.gen_range(k.saturating_sub(K_BELOW).max(2)..=*k + K_ABOVE);
    if let NlQuery::TopK { k, .. } = &mut q {
        redraw_k(k);
    }
    if let NlQuery::SemanticRank {
        k,
        property,
        on_attr,
        ..
    } = &mut q
    {
        redraw_k(k);
        if let Some(p) = v
            .properties
            .get(on_attr.as_str())
            .and_then(|p| p.choose(rng))
        {
            *property = *p;
        }
    }
    let entity = q.entity().to_owned();
    for f in filters_mut(&mut q) {
        match f {
            NlFilter::NumCmp { attr, value, .. } => {
                if let Some(x) = v.threshold(rng, (template.domain, &entity, attr), *value) {
                    *value = x;
                }
            }
            NlFilter::TextEq { attr, value } if attr == "genre" => pick(rng, &v.genres, value),
            NlFilter::TextEq { value, .. } => pick(rng, &v.titles, value),
            NlFilter::InRegion { region } => pick(rng, &v.regions, region),
            NlFilter::TallerThan { person } => pick(rng, &v.persons, person),
            NlFilter::CircuitContinent { continent } => pick(rng, &v.continents, continent),
            NlFilter::AtCircuit { circuit } => pick(rng, &v.circuits, circuit),
            NlFilter::Semantic { attr, property } => {
                if let Some(p) = v.properties.get(attr.as_str()).and_then(|p| p.choose(rng)) {
                    *property = *p;
                }
            }
            NlFilter::EuCountry | NlFilter::ClassicMovie | NlFilter::VerticalIs { .. } => {}
        }
    }
    q
}

/// A seeded stream of at most `max_items` requests over `templates`
/// (TAG-Bench as built by `tag_bench::build_benchmark` on `domains`).
pub fn stream(
    seed: u64,
    domains: &[DomainData],
    templates: &[BenchQuery],
    max_items: usize,
) -> Vec<Item> {
    let vocab = Vocab::new(domains, templates);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_57AE);
    let mut seen: HashSet<(&'static str, String)> = HashSet::new();
    let mut spent = vec![false; templates.len()];
    let mut items = Vec::with_capacity(max_items);
    let mut round = 0usize;
    while items.len() < max_items {
        // (template index, question text, original?)
        let mut questions: Vec<(usize, String, bool)> = Vec::with_capacity(ROUND_QUESTIONS);
        if round == 0 {
            for (i, t) in templates.iter().enumerate() {
                let text = t.question();
                seen.insert((t.domain, normalize_question(&text)));
                questions.push((i, text, true));
            }
        } else {
            let mut order: Vec<usize> = (0..templates.len()).collect();
            order.shuffle(&mut rng);
            for ti in order {
                let t = &templates[ti];
                // This template first, then the same (type, kind), then
                // the same type: the round's type mix never drifts.
                let mut fallbacks: Vec<usize> = (0..templates.len())
                    .filter(|&j| j != ti && templates[j].qtype == t.qtype)
                    .collect();
                fallbacks.shuffle(&mut rng);
                fallbacks.sort_by_key(|&j| templates[j].kind != t.kind);
                let found = std::iter::once(ti).chain(fallbacks).find_map(|j| {
                    if spent[j] {
                        return None;
                    }
                    let tj = &templates[j];
                    for _ in 0..ATTEMPTS {
                        let q = instantiate(&vocab, &mut rng, tj);
                        let text = q.render();
                        if NlQuery::parse(&text).as_ref() != Some(&q) {
                            continue;
                        }
                        if seen.insert((tj.domain, normalize_question(&text))) {
                            return Some((j, text));
                        }
                    }
                    spent[j] = true;
                    None
                });
                match found {
                    Some((j, text)) => questions.push((j, text, false)),
                    None => return items,
                }
            }
        }
        // Five blocks per round: each block asks every question once,
        // and question q meets method (q + block) mod 5, so a block has
        // 16 requests per method and a round gives every question every
        // method.
        let mut methods = MethodName::all();
        methods.shuffle(&mut rng);
        let mut batch = Vec::with_capacity(ROUND_ITEMS);
        for block in 0..methods.len() {
            let mut order: Vec<usize> = (0..questions.len()).collect();
            order.shuffle(&mut rng);
            for qi in order {
                let (ti, text, original) = &questions[qi];
                let t = &templates[*ti];
                batch.push(Item {
                    domain: t.domain,
                    method: methods[(qi + block) % methods.len()],
                    question: text.clone(),
                    qtype: t.qtype,
                    template: *ti,
                    original: *original,
                });
            }
        }
        let room = max_items - items.len();
        items.extend(batch.into_iter().take(room));
        round += 1;
    }
    items
}
