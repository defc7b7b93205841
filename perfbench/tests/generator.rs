//! The served workloads' question stream: seeded, distinct, parseable,
//! and mixed like TAG-Bench.

use std::collections::{BTreeMap, HashSet};
use tag_bench::{build_benchmark, BenchQuery, QueryType};
use tag_datagen::{generate_all, DomainData, Scale};
use tag_lm::nlq::NlQuery;
use tag_perfbench::gen::{cache_key, stream, BLOCK_ITEMS, ROUND_ITEMS, ROUND_QUESTIONS};
use tag_serve::MethodName;

fn corpus() -> (Vec<DomainData>, Vec<BenchQuery>) {
    let domains = generate_all(42, Scale::default());
    let templates = build_benchmark(&domains);
    (domains, templates)
}

#[test]
fn same_seed_same_requests() {
    let (domains, templates) = corpus();
    let a = stream(7, &domains, &templates, 1200);
    let b = stream(7, &domains, &templates, 1200);
    assert_eq!(a, b);
    let c = stream(8, &domains, &templates, 1200);
    assert_ne!(a, c, "another seed must give another stream");
}

#[test]
fn no_two_requests_share_an_answer_cache_key() {
    let (domains, templates) = corpus();
    for seed in [1, 2, 3] {
        let items = stream(seed, &domains, &templates, 9 * ROUND_ITEMS);
        assert_eq!(
            items.len(),
            9 * ROUND_ITEMS,
            "seed {seed}: stream ended early"
        );
        let keys: HashSet<_> = items.iter().map(cache_key).collect();
        assert_eq!(keys.len(), items.len(), "seed {seed}: repeated cache key");
    }
}

#[test]
fn every_question_round_trips_through_the_parser() {
    let (domains, templates) = corpus();
    for item in stream(5, &domains, &templates, 4000) {
        let parsed = NlQuery::parse(&item.question)
            .unwrap_or_else(|| panic!("does not parse: {}", item.question));
        assert_eq!(parsed.render(), item.question);
    }
}

#[test]
fn every_round_has_tag_bench_s_mix() {
    let (domains, templates) = corpus();
    let want: BTreeMap<&str, usize> = [
        QueryType::MatchBased,
        QueryType::Comparison,
        QueryType::Ranking,
        QueryType::Aggregation,
    ]
    .into_iter()
    .map(|t| {
        let n = templates.iter().filter(|q| q.qtype == t).count();
        (t.label(), n * MethodName::all().len())
    })
    .collect();
    let items = stream(11, &domains, &templates, 9 * ROUND_ITEMS);
    assert_eq!(items.len(), 9 * ROUND_ITEMS);
    for (r, round) in items.chunks(ROUND_ITEMS).enumerate() {
        let mut got: BTreeMap<&str, usize> = BTreeMap::new();
        let mut methods: BTreeMap<&str, usize> = BTreeMap::new();
        for item in round {
            *got.entry(item.qtype.label()).or_default() += 1;
            *methods.entry(item.method.as_str()).or_default() += 1;
            assert_eq!(item.original, r == 0, "round {r}");
        }
        assert_eq!(got, want, "round {r}");
        assert!(methods.values().all(|&n| n == ROUND_QUESTIONS), "round {r}");
        // Every block asks each of the round's questions once, 16 per method.
        let questions: HashSet<&str> = round.iter().map(|i| i.question.as_str()).collect();
        for block in round.chunks(BLOCK_ITEMS) {
            let asked: HashSet<&str> = block.iter().map(|i| i.question.as_str()).collect();
            assert_eq!(asked, questions, "round {r}");
            for m in MethodName::all() {
                let n = block.iter().filter(|i| i.method == m).count();
                assert_eq!(n, BLOCK_ITEMS / 5, "round {r} {m}");
            }
        }
    }
}

#[test]
fn round_zero_is_tag_bench_itself() {
    let (domains, templates) = corpus();
    let items = stream(3, &domains, &templates, ROUND_ITEMS);
    let asked: HashSet<(&str, String)> = items
        .iter()
        .map(|i| (i.domain, i.question.clone()))
        .collect();
    let bench: HashSet<(&str, String)> =
        templates.iter().map(|q| (q.domain, q.question())).collect();
    assert_eq!(asked, bench);
}
