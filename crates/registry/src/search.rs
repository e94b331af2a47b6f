//! The three registry search modes (paper §4).
//!
//! Each mode has two implementations with an identical result contract —
//! same hits, same scores, same score-then-id order:
//!
//! * the **indexed path** (default) serves from the DAO's
//!   incrementally-maintained [`SearchIndex`](crate::index::SearchIndex);
//! * the **linear scan** is the original O(corpus) implementation, kept
//!   as the differential oracle behind [`SearchOptions::force_scan`]
//!   (the same oracle pattern the script VM uses for the tree-walker).
//!
//! The index declines queries it cannot answer exactly (disabled, or a
//! degraded/dimension-mismatched vector matrix) and the scan takes over,
//! so callers never see a behaviour difference.

use crate::dao::Dao;
use crate::index::SearchIndex;
pub use crate::index::VecField;
use laminar_embed::models::EmbeddingModel;
use laminar_embed::{cosine_prenorm, l2_norm, Embedding};
use laminar_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// What to search over (the client's `search_type` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchType {
    /// Processing Elements only.
    Pe,
    /// Workflows only.
    Workflow,
    /// Both (the default).
    Both,
}

impl SearchType {
    /// Parse the client-facing string.
    pub fn parse(s: &str) -> Option<SearchType> {
        Some(match s.to_ascii_lowercase().as_str() {
            "pe" => SearchType::Pe,
            "workflow" => SearchType::Workflow,
            "both" => SearchType::Both,
            _ => return None,
        })
    }

    /// Client-facing string.
    pub fn as_str(&self) -> &'static str {
        match self {
            SearchType::Pe => "pe",
            SearchType::Workflow => "workflow",
            SearchType::Both => "both",
        }
    }
}

/// How to interpret the query (the client's `query_type` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryType {
    /// Natural-language query: semantic search over descriptions for PEs
    /// (Figure 7), normalized partial matching for workflows (Figure 6).
    Text,
    /// Code-snippet query: completion-style retrieval over code
    /// embeddings (Figure 8).
    Code,
}

impl QueryType {
    /// Parse the client-facing string.
    pub fn parse(s: &str) -> Option<QueryType> {
        Some(match s.to_ascii_lowercase().as_str() {
            "text" => QueryType::Text,
            "code" => QueryType::Code,
            _ => return None,
        })
    }

    /// Client-facing string.
    pub fn as_str(&self) -> &'static str {
        match self {
            QueryType::Text => "text",
            QueryType::Code => "code",
        }
    }
}

/// One search result row (what Figures 6–8 print).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Entity id (peId or workflowId).
    pub id: i64,
    /// Entity name.
    pub name: String,
    /// `"pe"` or `"workflow"`.
    pub kind: &'static str,
    /// Stored description (possibly auto-generated).
    pub description: String,
    /// Whether the description was generated by the summarizer.
    pub auto_described: bool,
    /// Similarity score (cosine for semantic/code; 1.0 for text matches).
    pub score: f64,
}

/// Default number of hits a search returns when the caller does not ask
/// for more (the `limit` request parameter).
pub const DEFAULT_SEARCH_LIMIT: usize = 25;

/// Per-query knobs threaded from the server endpoint down to the search
/// implementations.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Maximum hits to return; only winners are materialized.
    pub limit: usize,
    /// Bypass the index and run the linear-scan oracle.
    pub force_scan: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions { limit: DEFAULT_SEARCH_LIMIT, force_scan: false }
    }
}

/// Normalization used by text search: lowercase, alphanumeric words only.
pub fn normalize_text(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { ' ' })
        .collect::<String>()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// Does `haystack` contain `needle` after normalization (partial matching,
/// paper §4.1)?
pub fn text_matches(needle: &str, haystack: &str) -> bool {
    let n = normalize_text(needle);
    if n.is_empty() {
        return false;
    }
    normalize_text(haystack).contains(&n)
}

/// `text_matches` with the needle already normalized — the per-entity
/// loop hoists the query normalization out instead of redoing it for
/// every haystack field.
fn contains_normalized(needle_norm: &str, haystack: &str) -> bool {
    normalize_text(haystack).contains(needle_norm)
}

/// How often search ran the linear scan instead of the index, shown
/// under `index` in `GET /registry/stats` so no fallback is silent.
/// Atomic: searches run under the registry's read lock.
#[derive(Debug, Default)]
pub struct ScanFallbacks {
    /// Index lookups that declined: a disabled index, a degraded
    /// (mixed-dimension) matrix, or a query whose dimension mismatches
    /// the matrix.
    pub declines: AtomicU64,
    /// Search requests that asked for the scan (`forceScan`).
    pub forced: AtomicU64,
}

/// The index's answer, or `None` when the caller must scan: the request
/// forced the scan, or the index declined (counted).
fn from_index<T>(
    dao: &Dao,
    opts: &SearchOptions,
    lookup: impl FnOnce(&SearchIndex) -> Option<T>,
) -> Option<T> {
    if opts.force_scan {
        return None;
    }
    let answer = lookup(dao.index());
    if answer.is_none() {
        dao.fallbacks().declines.fetch_add(1, Ordering::Relaxed);
    }
    answer
}

/// Text search over workflows (Figure 6) — names, entry points and
/// descriptions.
pub fn text_search_workflows(dao: &Dao, user_id: i64, query: &str, opts: &SearchOptions) -> Vec<SearchHit> {
    let needle = normalize_text(query);
    if needle.is_empty() {
        return Vec::new();
    }
    if let Some(ids) = from_index(dao, opts, |index| index.text_workflows(user_id, &needle, opts.limit)) {
        return ids.into_iter().filter_map(|id| workflow_hit(id, dao.workflow_row(id)?)).collect();
    }
    let mut hits = Vec::new();
    for (id, row) in dao.workflow_rows_of_user(user_id) {
        if hits.len() >= opts.limit {
            break;
        }
        if ["workflowName", "entryPoint", "description"]
            .iter()
            .any(|field| contains_normalized(&needle, row[*field].as_str().unwrap_or("")))
        {
            hits.extend(workflow_hit(id, row));
        }
    }
    hits
}

/// Text search over PE names/descriptions (non-semantic fallback).
pub fn text_search_pes(dao: &Dao, user_id: i64, query: &str, opts: &SearchOptions) -> Vec<SearchHit> {
    let needle = normalize_text(query);
    if needle.is_empty() {
        return Vec::new();
    }
    if let Some(ids) = from_index(dao, opts, |index| index.text_pes(user_id, &needle, opts.limit)) {
        return ids.into_iter().filter_map(|id| pe_hit(id, dao.pe_row(id)?, 1.0)).collect();
    }
    let mut hits = Vec::new();
    for (id, row) in dao.pe_rows_of_user(user_id) {
        if hits.len() >= opts.limit {
            break;
        }
        if ["peName", "description"]
            .iter()
            .any(|field| contains_normalized(&needle, row[*field].as_str().unwrap_or("")))
        {
            hits.extend(pe_hit(id, row, 1.0));
        }
    }
    hits
}

/// Semantic code search (Figure 7): embed the query with the search model
/// and rank the user's PEs by cosine against their *stored* description
/// embeddings (computed once at registration — paper §3.1.1).
pub fn semantic_search_pes(
    dao: &Dao,
    user_id: i64,
    query: &str,
    model: &dyn EmbeddingModel,
    opts: &SearchOptions,
) -> Vec<SearchHit> {
    let q = model.embed_text(query);
    ranked_pe_hits(dao, user_id, &q, VecField::Desc, opts)
}

/// Code completion retrieval (Figure 8): embed the snippet with the
/// completion model and rank by stored code embeddings.
pub fn completion_search_pes(
    dao: &Dao,
    user_id: i64,
    snippet: &str,
    model: &dyn EmbeddingModel,
    opts: &SearchOptions,
) -> Vec<SearchHit> {
    let q = model.embed_code(snippet);
    ranked_pe_hits(dao, user_id, &q, VecField::Code, opts)
}

/// Rank a user's PEs by cosine against `query` in `field` space and
/// materialize the best `opts.limit` as hits.
///
/// Indexed path: the sparse block kernel over the user's blocked matrix
/// into a bounded top-k heap. Scan path: decode just the scored
/// embedding of every stored row into one reused buffer, score it with
/// the dense kernel and sort. The two kernels return the same bits and
/// both orders are `(score desc, id asc)`, so the results are identical;
/// only the winners' name/description strings are ever cloned into hits.
pub fn ranked_pe_hits(
    dao: &Dao,
    user_id: i64,
    query: &Embedding,
    field: VecField,
    opts: &SearchOptions,
) -> Vec<SearchHit> {
    let scored = match from_index(dao, opts, |index| index.top_pes(user_id, field, query, opts.limit)) {
        Some(ranked) => ranked,
        None => {
            let qnorm = l2_norm(&query.values);
            let mut values = Vec::new();
            let mut scored: Vec<(i64, f64)> = Vec::new();
            for (id, row) in dao.pe_rows_of_user(user_id) {
                if Embedding::decode_into(&row[field.column()], &mut values).is_none() {
                    continue;
                }
                assert_eq!(query.dim(), values.len(), "cosine over mismatched dimensions");
                scored.push((id, cosine_prenorm(&query.values, qnorm, &values, l2_norm(&values)) as f64));
            }
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
            });
            scored.truncate(opts.limit);
            scored
        }
    };
    scored.into_iter().filter_map(|(id, score)| pe_hit(id, dao.pe_row(id)?, score)).collect()
}

/// A PE hit read straight off its stored row: no embedding or code
/// decode.
fn pe_hit(id: i64, row: &Value, score: f64) -> Option<SearchHit> {
    Some(SearchHit {
        id,
        name: row["peName"].as_str()?.to_string(),
        kind: "pe",
        description: row["description"].as_str().unwrap_or("").to_string(),
        auto_described: row["descriptionGenerated"].as_bool().unwrap_or(false),
        score,
    })
}

/// A workflow hit read straight off its stored row; workflows are named
/// by entry point and always match text with score 1.0.
fn workflow_hit(id: i64, row: &Value) -> Option<SearchHit> {
    Some(SearchHit {
        id,
        name: row["entryPoint"].as_str()?.to_string(),
        kind: "workflow",
        description: row["description"].as_str().unwrap_or("").to_string(),
        auto_described: false,
        score: 1.0,
    })
}

/// Render hits as the table the client prints (Figures 6–8).
pub fn format_hits(hits: &[SearchHit]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<6} {:<10} {:<26} {:<8} {}\n", "id", "kind", "name", "score", "description"));
    for h in hits {
        let desc = if h.auto_described { format!("{} [auto]", h.description) } else { h.description.clone() };
        out.push_str(&format!("{:<6} {:<10} {:<26} {:<8.4} {}\n", h.id, h.kind, h.name, h.score, desc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_and_partial_match() {
        assert_eq!(normalize_text("  Is-Prime  Workflow! "), "is prime workflow");
        assert!(text_matches("prime", "isPrime"));
        assert!(text_matches("PRIME", "Workflow that prints random prime numbers"));
        assert!(!text_matches("prime", "wordcount"));
        assert!(!text_matches("", "anything"));
    }

    #[test]
    fn parse_round_trips() {
        for t in [SearchType::Pe, SearchType::Workflow, SearchType::Both] {
            assert_eq!(SearchType::parse(t.as_str()), Some(t));
        }
        for q in [QueryType::Text, QueryType::Code] {
            assert_eq!(QueryType::parse(q.as_str()), Some(q));
        }
        assert_eq!(SearchType::parse("nope"), None);
        assert_eq!(QueryType::parse("nope"), None);
    }

    #[test]
    fn format_marks_auto_descriptions() {
        let hits = vec![SearchHit {
            id: 3,
            name: "IsPrime".into(),
            kind: "pe",
            description: "Checks primality".into(),
            auto_described: true,
            score: 0.91,
        }];
        let table = format_hits(&hits);
        assert!(table.contains("IsPrime"));
        assert!(table.contains("[auto]"));
        assert!(table.contains("0.91"));
    }
}
