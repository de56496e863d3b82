//! In-memory span tracing from the benchmark's own code.
//!
//! The traced deployment wraps each ensemble member's model in
//! [`TracedModel`] (timing `forward_block_states` and `finish_logits`) and
//! each verifier in [`TracedVerifier`] (timing `p_yes`); the serving loop
//! opens one `request` span around every `ask_with` call. Spans are kept in
//! memory and written out when the run ends. The untraced deployment holds
//! none of these wrappers.

use std::cell::RefCell;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use slm_runtime::{InferenceModel, KvStore, ModelConfig, VerificationRequest, YesNoVerifier};
use tensor::Matrix;

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One `ResilientVerifiedPipeline::ask_with` call.
    Request,
    /// One `YesNoVerifier::p_yes` call.
    Verify,
    /// One `InferenceModel::forward_block_states` call.
    Block,
    /// One `InferenceModel::finish_logits` call.
    Head,
}

impl SpanKind {
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Verify => "verifier.p_yes",
            SpanKind::Block => "model.forward_block_states",
            SpanKind::Head => "model.finish_logits",
        }
    }
}

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    pub request: u64,
    pub kind: SpanKind,
    /// Ensemble member index (unused for `Request`).
    pub member: usize,
    pub start: u64,
    pub end: u64,
    /// Block spans: tokens in the block and the KV position it starts at.
    pub tokens: u32,
    pub pos: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread of one traced deployment.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    /// Root span of the request being served: the parent of spans opened on
    /// batch worker threads, whose own stacks are empty.
    current_root: AtomicU64,
    current_request: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Every `p_yes` call, for the per-cell and token-reuse counts computed
    /// after the run.
    cells: Mutex<Vec<Cell>>,
}

/// One `p_yes` call: the request it served and the cell it probed.
#[derive(Debug, Clone)]
pub struct Cell {
    pub request: u64,
    pub member: usize,
    /// Hash of (question, context).
    pub prefix: u64,
    /// Hash of the sentence.
    pub sentence: u64,
}

/// An open span; records itself when dropped.
pub struct Guard<'r> {
    rec: &'r Recorder,
    span: Span,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.span.end = self.rec.now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.span.id) {
                s.pop();
            }
        });
        self.rec
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(self.span.clone());
    }
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current_root: AtomicU64::new(0),
            current_request: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            cells: Mutex::new(Vec::new()),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span of this thread (or under
    /// the current request's root span).
    pub fn open(&self, kind: SpanKind, member: usize) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s
                .last()
                .copied()
                .unwrap_or_else(|| self.current_root.load(Ordering::Relaxed));
            s.push(id);
            parent
        });
        if kind == SpanKind::Request {
            self.current_root.store(id, Ordering::Relaxed);
        }
        Guard {
            rec: self,
            span: Span {
                id,
                parent: if kind == SpanKind::Request { 0 } else { parent },
                request: self.current_request.load(Ordering::Relaxed),
                kind,
                member,
                start: self.now(),
                end: 0,
                tokens: 0,
                pos: 0,
            },
        }
    }

    /// Open the root span of request `request`.
    pub fn open_request(&self, request: u64) -> Guard<'_> {
        self.current_request.store(request, Ordering::Relaxed);
        self.open(SpanKind::Request, 0)
    }

    /// All finished spans, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Every `p_yes` call, in call order.
    pub fn cells(&self) -> Vec<Cell> {
        self.cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, members: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let member = match s.kind {
                SpanKind::Request => "",
                _ => members.get(s.member).map_or("", String::as_str),
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"member\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"tokens\":{},\"pos\":{}}}",
                s.id,
                s.parent,
                s.request,
                s.kind.label(),
                member,
                s.start,
                s.end,
                s.tokens,
                s.pos
            )?;
        }
        out.flush()
    }
}

/// Hash of some strings, for cell identity.
pub fn hash_of(parts: &[&str]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

/// Distinct (session, member, question, context, sentence) cells among
/// `cells`, for sessions of `session_len` requests.
pub fn distinct_cells(cells: &[Cell], session_len: usize) -> usize {
    cells
        .iter()
        .map(|c| {
            (
                c.request as usize / session_len,
                c.member,
                c.prefix,
                c.sentence,
            )
        })
        .collect::<HashSet<_>>()
        .len()
}

/// A model wrapper timing the two per-block entry points of the engine.
#[derive(Debug, Clone)]
pub struct TracedModel<M> {
    inner: M,
    member: usize,
    rec: Arc<Recorder>,
}

impl<M> TracedModel<M> {
    pub fn new(inner: M, member: usize, rec: Arc<Recorder>) -> Self {
        Self { inner, member, rec }
    }
}

impl<M: InferenceModel> InferenceModel for TracedModel<M> {
    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }

    fn forward_token<C: KvStore>(&self, token: u32, cache: &mut C) -> Vec<f32> {
        self.inner.forward_token(token, cache)
    }

    fn forward_block_states<C: KvStore>(&self, tokens: &[u32], cache: &mut C) -> Matrix {
        let mut g = self.rec.open(SpanKind::Block, self.member);
        g.span.tokens = tokens.len() as u32;
        g.span.pos = cache.len() as u32;
        self.inner.forward_block_states(tokens, cache)
    }

    fn finish_logits(&self, last_residual: &[f32]) -> Vec<f32> {
        let _g = self.rec.open(SpanKind::Head, self.member);
        self.inner.finish_logits(last_residual)
    }
}

/// A verifier wrapper timing `p_yes`.
pub struct TracedVerifier<V> {
    inner: V,
    member: usize,
    rec: Arc<Recorder>,
}

impl<V> TracedVerifier<V> {
    pub fn new(inner: V, member: usize, rec: Arc<Recorder>) -> Self {
        Self { inner, member, rec }
    }
}

impl<V: YesNoVerifier> YesNoVerifier for TracedVerifier<V> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn p_yes(&self, request: &VerificationRequest<'_>) -> f64 {
        let p = {
            let _g = self.rec.open(SpanKind::Verify, self.member);
            self.inner.p_yes(request)
        };
        self.rec
            .cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Cell {
                request: self.rec.current_request.load(Ordering::Relaxed),
                member: self.member,
                prefix: hash_of(&[request.question, request.context]),
                sentence: hash_of(&[request.response]),
            });
        p
    }

    fn exposes_probabilities(&self) -> bool {
        self.inner.exposes_probabilities()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
/// Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            kind,
            member: 0,
            start,
            end,
            tokens: 0,
            pos: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // request [0, 100) with two overlapping verify spans [10, 40) and
        // [30, 60); the first has model children [12, 20) and [25, 38).
        let spans = vec![
            span(1, 0, SpanKind::Request, 0, 100),
            span(2, 1, SpanKind::Verify, 10, 40),
            span(3, 1, SpanKind::Verify, 30, 60),
            span(4, 2, SpanKind::Block, 12, 20),
            span(5, 2, SpanKind::Head, 25, 38),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50, 30 - 21, 30, 8, 13]);
    }

    #[test]
    fn self_times_sum_to_the_root_when_children_do_not_overlap() {
        let spans = vec![
            span(1, 0, SpanKind::Request, 0, 100),
            span(2, 1, SpanKind::Verify, 10, 40),
            span(3, 1, SpanKind::Verify, 50, 90),
            span(4, 3, SpanKind::Block, 55, 85),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span(1, 0, SpanKind::Request, 10, 20),
            span(2, 1, SpanKind::Verify, 5, 15),
        ];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn wrappers_are_bit_neutral() {
        use slm_runtime::bpe::Bpe;
        use slm_runtime::{EngineVerifier, Precision, QuantizedLM, TransformerLM};

        let bpe = Bpe::train(
            &[
                "the store operates from 9 am to 5 pm",
                "is the answer correct according to the context reply yes or no",
            ],
            300,
        );
        let cfg = ModelConfig::qwen2_like(bpe.vocab_size());
        let f32_model = TransformerLM::synthetic(cfg.clone(), 7);
        let int8_model = QuantizedLM::synthetic(cfg.with_precision(Precision::Int8), 7);
        let rec = Recorder::new();
        let prompt = bpe.encode("context: the store operates from 9 am to 5 pm", true);

        let plain = f32_model.prefill(&prompt, &mut f32_model.new_cache());
        let traced = TracedModel::new(f32_model.clone(), 0, Arc::clone(&rec));
        assert_eq!(
            plain,
            traced.prefill(&prompt, &mut traced.new_cache()),
            "f32 logits"
        );
        let plain = int8_model.prefill(&prompt, &mut int8_model.new_cache());
        let traced = TracedModel::new(int8_model.clone(), 1, Arc::clone(&rec));
        assert_eq!(
            plain,
            traced.prefill(&prompt, &mut traced.new_cache()),
            "int8 logits"
        );

        let request = VerificationRequest::new("hours?", "the store operates from 9 am", "9 am");
        let plain = EngineVerifier::new("m", int8_model.clone(), bpe.clone());
        let traced = TracedVerifier::new(
            EngineVerifier::new("m", TracedModel::new(int8_model, 0, Arc::clone(&rec)), bpe),
            0,
            Arc::clone(&rec),
        );
        assert_eq!(
            plain.p_yes(&request).to_bits(),
            traced.p_yes(&request).to_bits()
        );
        assert_eq!(traced.name(), "m", "cache keys see the same model name");

        let spans = rec.spans();
        assert!(spans
            .iter()
            .any(|s| s.kind == SpanKind::Block && s.member == 1));
        assert!(spans.iter().any(|s| s.kind == SpanKind::Head));
        let verify = spans
            .iter()
            .find(|s| s.kind == SpanKind::Verify)
            .expect("p_yes span");
        assert!(spans
            .iter()
            .filter(|s| s.start >= verify.start
                && s.end <= verify.end
                && s.kind != SpanKind::Verify)
            .all(|s| s.parent == verify.id));
        assert_eq!(rec.cells().len(), 1);
    }

    #[test]
    fn spans_nest_by_thread_and_fall_back_to_the_request_root() {
        let rec = Recorder::new();
        {
            let _r = rec.open_request(9);
            {
                let _v = rec.open(SpanKind::Verify, 1);
                let _b = rec.open(SpanKind::Block, 1);
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _v = rec.open(SpanKind::Verify, 0);
                });
            });
        }
        let spans = rec.spans();
        let by =
            |k: SpanKind, m: usize| spans.iter().find(|s| s.kind == k && s.member == m).unwrap();
        let root = by(SpanKind::Request, 0);
        assert_eq!(root.parent, 0);
        assert_eq!(by(SpanKind::Verify, 1).parent, root.id);
        assert_eq!(by(SpanKind::Block, 1).parent, by(SpanKind::Verify, 1).id);
        assert_eq!(
            by(SpanKind::Verify, 0).parent,
            root.id,
            "worker thread span"
        );
        assert!(spans.iter().all(|s| s.request == 9));
    }
}
