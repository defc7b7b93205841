//! A tour of the LOTUS-style semantic operator runtime (`tag-semops`):
//! relational verbs plus `sem_filter`, `sem_topk`, and `sem_agg` — the
//! building blocks of the hand-written TAG pipelines in Appendix C.
//!
//! Run with: `cargo run --example semantic_operators`

use std::sync::Arc;
use tag_repro::tag_datagen::community;
use tag_repro::tag_lm::nlq::SemProperty;
use tag_repro::tag_lm::prompts::SemClaim;
use tag_repro::tag_lm::sim::{SimConfig, SimLm};
use tag_repro::tag_semops::{sem_agg, sem_filter, sem_topk, DataFrame, SemEngine};
use tag_repro::tag_sql::Value;

fn main() {
    // Data: the community domain's posts + comments.
    let domain = community::generate(42, 80);
    let mut db = domain.db;
    let engine = SemEngine::new(Arc::new(SimLm::new(SimConfig::default())));

    // Appendix C ranking pipeline: top-5 posts by ViewCount, reordered
    // by an LM judging which Title is most technical.
    let posts = DataFrame::from_result(db.execute("SELECT * FROM posts").unwrap());
    let top5 = posts.sort_by("ViewCount", true).unwrap().head(5);
    println!("Top-5 posts by ViewCount:");
    for v in top5.column("Title").unwrap() {
        println!("  - {v}");
    }
    let ranked = sem_topk(&engine, top5, "Title", SemProperty::Technical, 5).unwrap();
    println!("\nsem_topk (most technical first):");
    for v in ranked.column("Title").unwrap() {
        println!("  - {v}");
    }

    // Appendix C filter pattern: sem_filter over *unique* values, then an
    // exact isin — here, sarcastic comments on one post.
    let comments = DataFrame::from_result(db.execute("SELECT * FROM comments").unwrap());
    let first_post = comments
        .filter_col("PostId", |v| v == &Value::Int(1))
        .unwrap();
    let sarcastic = sem_filter(
        &engine,
        first_post.clone(),
        "Text",
        &SemClaim::Property(SemProperty::Sarcastic),
    )
    .unwrap();
    println!(
        "\nsem_filter: {} of {} comments on post 1 judged sarcastic:",
        sarcastic.len(),
        first_post.len()
    );
    for v in sarcastic.column("Text").unwrap() {
        println!("  - {v}");
    }

    // sem_agg: summarize the comments of post 1 (hierarchical fold kicks
    // in automatically when the input outgrows the context window).
    let summary = sem_agg(
        &engine,
        &first_post,
        "Summarize the comments",
        Some(&["Text"]),
    )
    .unwrap();
    println!("\nsem_agg summary of post 1's comments:\n  {summary}");

    let stats = engine.stats();
    println!(
        "\nEngine stats: {} prompts in {} batches ({} cache hits).",
        stats.lm_prompts, stats.lm_batches, stats.cache_hits
    );
}
