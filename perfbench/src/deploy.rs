//! The fixed deployment every workload serves through.
//!
//! Built from library defaults except where stated:
//! - `ResilientDetector::reliable` with `DetectorConfig { parallel: true, ..Default::default() }`;
//! - one `VerificationCache` at `CacheConfig::default()`;
//! - `FailurePolicy::Abstain` and the fixed threshold [`THRESHOLD`];
//! - engine workloads: the paper's Qwen2 + MiniCPM pair as a mixed-precision
//!   ensemble (`qwen2_like` at int8 as a `QuantizedLM`, `minicpm_like` at
//!   f32), each an `EngineVerifier` with its own `PagedPrefixCache` at
//!   `PrefixCacheConfig::default()` over a pool of [`POOL_PAGES`] pages, and
//!   one BPE tokenizer trained on the workload's corpus;
//! - `sim_guardrail`: `qwen2_sim` + `minicpm_sim` instead of the engines.

use std::sync::Arc;

use hallu_core::{DetectorConfig, HallucinationDetector, ResilientDetector};
use rag::pipeline::RagPipeline;
use rag::verified::{FailurePolicy, ResilientVerifiedPipeline};
use slm_runtime::bpe::Bpe;
use slm_runtime::{
    minicpm_sim, qwen2_sim, CacheConfig, EngineVerifier, InferenceModel, ModelConfig, PagedKvPool,
    PagedPoolConfig, PagedPrefixCache, Precision, PrefixCacheConfig, QuantizedLM, TransformerLM,
    VerificationCache, YesNoVerifier,
};
use vectordb::collection::Collection;
use vectordb::embed::HashingEmbedder;
use vectordb::flat::FlatIndex;
use vectordb::metric::Metric;

use crate::trace::{Recorder, TracedModel, TracedVerifier};
use crate::workload::corpus;

/// Serve when the verification score is at least this.
pub const THRESHOLD: f64 = 0.45;
/// Tokenizer training target; the handbook corpus saturates below it.
pub const VOCAB_TARGET: usize = 4096;
/// Pages per member pool: 64 cached prefixes of up to two pages each, plus
/// the forks in flight.
pub const POOL_PAGES: usize = 320;
const QWEN2_SEED: u64 = 0x5177_454e;
const MINICPM_SEED: u64 = 0x4d43_504d;

/// The engine pair's weights and tokenizer: built once per deployment, and
/// shared with the plain reference detector of the correctness gate.
#[derive(Clone)]
pub struct Engines {
    pub tokenizer: Bpe,
    pub qwen2: QuantizedLM,
    pub minicpm: TransformerLM,
}

impl Engines {
    /// Train the tokenizer on the workload corpus and build both members
    /// (the int8 member is quantized from its f32 weights here).
    pub fn build(seed: u64) -> Self {
        let tokenizer = Bpe::train(&corpus(seed), VOCAB_TARGET);
        let vocab = tokenizer.vocab_size();
        Self {
            qwen2: QuantizedLM::synthetic(
                ModelConfig::qwen2_like(vocab).with_precision(Precision::Int8),
                QWEN2_SEED,
            ),
            minicpm: TransformerLM::synthetic(ModelConfig::minicpm_like(vocab), MINICPM_SEED),
            tokenizer,
        }
    }

    /// Member display names, in slot order.
    pub fn names() -> Vec<String> {
        vec!["qwen2_int8".to_string(), "minicpm_f32".to_string()]
    }

    /// Member configs, in slot order.
    pub fn configs(&self) -> Vec<ModelConfig> {
        vec![self.qwen2.config().clone(), self.minicpm.config().clone()]
    }

    /// The plain detector over the same weights: sequential, no caches.
    pub fn plain(&self) -> HallucinationDetector {
        let names = Self::names();
        HallucinationDetector::new(
            vec![
                Box::new(EngineVerifier::new(
                    &names[0],
                    self.qwen2.clone(),
                    self.tokenizer.clone(),
                )),
                Box::new(EngineVerifier::new(
                    &names[1],
                    self.minicpm.clone(),
                    self.tokenizer.clone(),
                )),
            ],
            DetectorConfig::default(),
        )
    }
}

/// One deployment: the pipeline plus handles on every cache it owns.
pub struct Deployment {
    pub pipeline: ResilientVerifiedPipeline<FlatIndex>,
    pub cache: Arc<VerificationCache>,
    /// One paged prefix cache per engine member (empty on the sims).
    pub paged: Vec<Arc<PagedPrefixCache>>,
    /// The span recorder of a traced deployment.
    pub recorder: Option<Arc<Recorder>>,
}

/// Ensemble member names, in slot order.
pub fn member_names(engines: Option<&Engines>) -> Vec<String> {
    match engines {
        Some(_) => Engines::names(),
        None => [qwen2_sim(), minicpm_sim()]
            .iter()
            .map(|s| s.name().to_string())
            .collect(),
    }
}

fn paged_cache(cfg: &ModelConfig) -> Arc<PagedPrefixCache> {
    let pool = Arc::new(PagedKvPool::new(PagedPoolConfig::for_model(
        cfg, POOL_PAGES,
    )));
    Arc::new(PagedPrefixCache::new(pool, PrefixCacheConfig::default()))
}

fn engine_verifier<M: InferenceModel + Send + Sync + 'static>(
    name: &str,
    model: M,
    tokenizer: &Bpe,
    paged: &Arc<PagedPrefixCache>,
    member: usize,
    recorder: Option<&Arc<Recorder>>,
) -> Box<dyn YesNoVerifier> {
    match recorder {
        None => Box::new(
            EngineVerifier::new(name, model, tokenizer.clone()).with_paged_cache(Arc::clone(paged)),
        ),
        Some(rec) => Box::new(TracedVerifier::new(
            EngineVerifier::new(
                name,
                TracedModel::new(model, member, Arc::clone(rec)),
                tokenizer.clone(),
            )
            .with_paged_cache(Arc::clone(paged)),
            member,
            Arc::clone(rec),
        )),
    }
}

impl Deployment {
    /// Build the workload's deployment. `engines` is `Some` exactly on the
    /// engine workloads; a `recorder` adds the span wrappers.
    pub fn build(engines: Option<&Engines>, recorder: Option<&Arc<Recorder>>) -> Self {
        let rec = recorder;
        let names = member_names(engines);
        let (verifiers, paged): (Vec<Box<dyn YesNoVerifier>>, _) = match engines {
            Some(e) => {
                let paged: Vec<_> = e.configs().iter().map(paged_cache).collect();
                let verifiers = vec![
                    engine_verifier(&names[0], e.qwen2.clone(), &e.tokenizer, &paged[0], 0, rec),
                    engine_verifier(
                        &names[1],
                        e.minicpm.clone(),
                        &e.tokenizer,
                        &paged[1],
                        1,
                        rec,
                    ),
                ];
                (verifiers, paged)
            }
            None => {
                let verifiers = [qwen2_sim(), minicpm_sim()]
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| match rec {
                        None => Box::new(s) as Box<dyn YesNoVerifier>,
                        Some(r) => Box::new(TracedVerifier::new(s, i, Arc::clone(r))),
                    })
                    .collect();
                (verifiers, Vec::new())
            }
        };
        let cache = Arc::new(VerificationCache::new(CacheConfig::default()));
        let detector = ResilientDetector::reliable(
            verifiers,
            DetectorConfig {
                parallel: true,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("ensemble is non-empty: {e}"))
        .with_cache(Arc::clone(&cache));
        let rag = RagPipeline::new(
            Collection::new(
                Box::new(HashingEmbedder::new(128, 3)),
                FlatIndex::new(128, Metric::Cosine),
            ),
            1,
        );
        Self {
            pipeline: ResilientVerifiedPipeline::new(
                rag,
                detector,
                THRESHOLD,
                FailurePolicy::Abstain,
            ),
            cache,
            paged,
            recorder: recorder.cloned(),
        }
    }

    /// The plain reference detector for a sim deployment.
    pub fn plain_sims() -> HallucinationDetector {
        HallucinationDetector::new(
            vec![Box::new(qwen2_sim()), Box::new(minicpm_sim())],
            DetectorConfig::default(),
        )
    }
}
