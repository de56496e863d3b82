//! Per-layer metrics of the traced pass.

use std::collections::HashMap;

use slm_runtime::prob::{prefix_prompt, suffix_prompt};
use slm_runtime::ModelConfig;
use text_engine::sentence::SentenceSplitter;

use crate::deploy::Engines;
use crate::serve::{Outcome, SessionCounts};
use crate::stats::{percentile, sorted};
use crate::trace::{distinct_cells, hash_of, self_times, Recorder, Span, SpanKind};
use crate::workload::Sessions;
use crate::{metric, Metric};

/// Multiply-adds of one `forward_block_states` call, counted as 2 FLOPs
/// each, from the `ModelConfig` shapes: the seven projections of every
/// layer plus causal attention over `pos + i + 1` keys for block token `i`.
pub fn block_flops(cfg: &ModelConfig, tokens: u32, pos: u32) -> f64 {
    let (h, t) = (cfg.hidden as f64, f64::from(tokens));
    let kv = (cfg.n_kv_heads * cfg.head_dim()) as f64;
    let projections =
        2.0 * t * h * (2.0 * h + 2.0 * kv) + 2.0 * t * 3.0 * h * cfg.ffn_hidden as f64;
    let keys = t * f64::from(pos) + t * (t + 1.0) / 2.0;
    let attention = 4.0 * (cfg.n_heads * cfg.head_dim()) as f64 * keys;
    cfg.n_layers as f64 * (projections + attention)
}

pub struct Layers {
    pub metrics: Vec<Metric>,
    pub info: Vec<(String, String)>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Layers {
    /// Metrics of the traced pass: its spans and `p_yes` calls, its queue
    /// waits, and the counters of every session deployment it used.
    pub fn compute(
        session: &Sessions,
        engines: Option<&Engines>,
        rec: &Recorder,
        outcomes: &[Outcome],
        sessions: &[SessionCounts],
    ) -> Self {
        let spans = rec.spans();
        let selfs = self_times(&spans);
        let ms = |ns: u64| ns as f64 / 1e6;
        let requests = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Request)
            .count()
            .max(1) as f64;
        let sum = |pred: &dyn Fn(&Span) -> bool, of_self: bool| -> u64 {
            spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| pred(s))
                .map(|(s, &own)| if of_self { own } else { s.dur() })
                .sum()
        };
        let wall = sum(&|s| s.kind == SpanKind::Request, false);
        let mut m = Vec::new();

        let waits = sorted(outcomes.iter().map(Outcome::wait_ms).collect());
        m.push(metric(
            "queue.wait_p50_ms",
            percentile(&waits, 0.5).unwrap_or(f64::NAN),
            "ms",
        ));
        m.push(metric(
            "queue.wait_p99_ms",
            percentile(&waits, 0.99).unwrap_or(f64::NAN),
            "ms",
        ));
        m.push(metric("request.service_ms", ms(wall) / requests, "ms/req"));
        m.push(metric(
            "verified.self_ms_per_req",
            ms(sum(&|s| s.kind == SpanKind::Request, true)) / requests,
            "ms/req",
        ));

        let cells = rec.cells();
        let verify_busy = sum(&|s| s.kind == SpanKind::Verify, false);
        m.push(metric("verifier.calls", cells.len() as f64, "count"));
        m.push(metric(
            "verifier.calls_per_cell",
            ratio(
                cells.len() as f64,
                distinct_cells(&cells, session.len()) as f64,
            ),
            "ratio",
        ));
        m.push(metric(
            "verifier.busy_ms",
            ms(verify_busy) / requests,
            "ms/req",
        ));
        m.push(metric(
            "verifier.concurrency",
            ratio(verify_busy as f64, wall as f64),
            "ratio",
        ));
        m.push(metric(
            "verifier.self_ms",
            ms(sum(&|s| s.kind == SpanKind::Verify, true)) / requests,
            "ms/req",
        ));

        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        let (mut p_hits, mut p_misses, mut p_evict, mut cow, mut peak, mut rejected) =
            (0, 0, 0, 0, 0, 0);
        for counts in sessions {
            hits += counts.cache.hits;
            misses += counts.cache.misses;
            evictions += counts.cache.evictions;
            let mut pages = 0;
            for (prefix, pool) in &counts.paged {
                p_hits += prefix.hits;
                p_misses += prefix.misses;
                p_evict += prefix.evictions;
                cow += pool.cow_copies;
                rejected += pool.rejected;
                pages += pool.peak_live as u64;
            }
            peak = peak.max(pages);
        }
        m.push(metric(
            "cache.hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
            "frac",
        ));
        m.push(metric("cache.lookups", (hits + misses) as f64, "count"));
        m.push(metric("cache.evictions", evictions as f64, "count"));

        let prefilled: u64 = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Block)
            .map(|s| u64::from(s.tokens))
            .sum();
        // Prompt tokens of every engine call, recovered after the run: the
        // request's response is split as the detector splits it, and the
        // sentence found by its hash.
        let prompt_tokens: u64 = engines.map_or(0, |e| {
            let mut memo: HashMap<(u64, u64), u64> = HashMap::new();
            cells
                .iter()
                .map(|c| {
                    *memo.entry((c.prefix, c.sentence)).or_insert_with(|| {
                        let r = session.get(c.request as usize);
                        let sentence = SentenceSplitter::new()
                            .split(r.response)
                            .into_iter()
                            .map(|s| s.text.to_string())
                            .find(|s| hash_of(&[s]) == c.sentence)
                            .unwrap_or_else(|| r.response.to_string());
                        let prefix = e
                            .tokenizer
                            .encode(&prefix_prompt(r.question, r.context), true);
                        let suffix = e.tokenizer.encode(&suffix_prompt(&sentence), false);
                        (prefix.len() + suffix.len()) as u64
                    })
                })
                .sum()
        });
        m.push(metric(
            "paged.hit_rate",
            ratio(p_hits as f64, (p_hits + p_misses) as f64),
            "frac",
        ));
        m.push(metric(
            "paged.reused_token_frac",
            ratio(
                prompt_tokens.saturating_sub(prefilled) as f64,
                prompt_tokens as f64,
            ),
            "frac",
        ));
        m.push(metric("paged.evictions", p_evict as f64, "count"));
        m.push(metric("paged.cow_copies", cow as f64, "count"));
        m.push(metric("paged.pages_peak", peak as f64, "count"));
        m.push(metric("paged.rejected", rejected as f64, "count"));

        let configs = engines.map(Engines::configs).unwrap_or_default();
        let mut block_busy_all = 0;
        for (i, name) in Engines::names().iter().enumerate() {
            let blocks: Vec<&Span> = spans
                .iter()
                .filter(|s| s.kind == SpanKind::Block && s.member == i)
                .collect();
            let heads = || {
                spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Head && s.member == i)
            };
            let busy: u64 = blocks.iter().map(|s| s.dur()).sum();
            block_busy_all += busy;
            let flops: f64 = configs.get(i).map_or(0.0, |cfg| {
                blocks
                    .iter()
                    .map(|s| block_flops(cfg, s.tokens, s.pos))
                    .sum()
            });
            let tokens: u64 = blocks.iter().map(|s| u64::from(s.tokens)).sum();
            m.push(metric(
                format!("model.{name}.block_calls"),
                blocks.len() as f64,
                "count",
            ));
            m.push(metric(
                format!("model.{name}.block_tokens"),
                tokens as f64,
                "count",
            ));
            m.push(metric(
                format!("model.{name}.block_busy_ms"),
                ms(busy) / requests,
                "ms/req",
            ));
            m.push(metric(
                format!("model.{name}.block_gflops"),
                ratio(flops, busy as f64),
                "GFLOP/s",
            ));
            m.push(metric(
                format!("model.{name}.head_calls"),
                heads().count() as f64,
                "count",
            ));
            m.push(metric(
                format!("model.{name}.head_busy_ms"),
                ms(heads().map(Span::dur).sum()) / requests,
                "ms/req",
            ));
        }
        m.push(metric(
            "model.block_busy_frac",
            ratio(block_busy_all as f64, wall as f64),
            "frac",
        ));
        m.push(metric(
            "trace.self_sum_frac",
            ratio(selfs.iter().sum::<u64>() as f64, wall as f64),
            "frac",
        ));

        let info = vec![
            ("queue_wait_samples".into(), waits.len().to_string()),
            (
                "block_gflops_basis".into(),
                "operation count computed from ModelConfig shapes (2 FLOPs per multiply-add), \
                 divided by traced block time"
                    .into(),
            ),
            ("spans".into(), spans.len().to_string()),
        ];
        Self { metrics: m, info }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_flops_grow_with_tokens_and_position() {
        let cfg = ModelConfig::qwen2_like(1000);
        let one = block_flops(&cfg, 1, 0);
        assert!(block_flops(&cfg, 2, 0) > 2.0 * one - 1.0);
        assert!(block_flops(&cfg, 1, 100) > one);
    }
}
