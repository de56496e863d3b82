//! Workload definitions: the seeded request sessions and arrival schedules.
//!
//! Every input is a pure function of the workload name and `--seed`; the
//! program under test only ever sees the generated requests.
//!
//! A workload is a *session*: a fixed request sequence served from cold by
//! a fresh deployment. Every phase of a run serves whole sessions back to
//! back, each on its own fresh deployment, so all phases see the same mix
//! of cache hits and misses and every session must produce the same
//! verdicts.

use std::collections::HashSet;

use hallu_dataset::{Dataset, DatasetBuilder, ResponseLabel};

/// Sets in one `handbook_burst` session; the first variant's sets are also
/// the tokenizer corpus of the handbook workloads.
const BURST_SETS: usize = 300;
/// `handbook_scattered`: the dataset its contexts are drawn from, and the
/// distinct (question, context) cells one session visits. More cells than
/// the 64-entry prefix cache holds, so a context is evicted before it
/// returns in the next label pass.
const SCATTERED_SETS: usize = 1000;
const SCATTERED_CELLS: usize = 200;
/// `sim_guardrail`: dataset size and draws per session.
const SIM_SETS: usize = 3000;
const SIM_DRAWS: usize = 10_000;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dataset sets in order, each set's three responses back to back.
    HandbookBurst,
    /// Every distinct (question, context) once per pass, shuffled; each
    /// pass gives every cell another of its three responses.
    HandbookScattered,
    /// Seeded draws from a large dataset, scored by the behavioural sims.
    SimGuardrail,
}

/// Fixed serving parameters of one workload (recorded in `BENCHMARK.json`).
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Open-loop Poisson rate for the latency metrics, requests/s.
    pub nominal_rps: f64,
    /// Latency limit for `slo_met_frac` and the rate ladder, ms.
    pub limit_ms: f64,
    /// Offered rates searched for `max_rate_rps`, ascending.
    pub ladder: Vec<f64>,
    /// Closed-loop rotations through the variants (30-second run); each
    /// request's service time is the fastest of its repetitions.
    pub reps: usize,
    /// Leading requests checked bit for bit against the plain detector.
    pub plain_requests: usize,
    /// Floor on `auc_correct_vs_wrong`, or `None` where the scores carry no
    /// signal (random engine weights).
    pub auc_floor: Option<f64>,
}

impl Spec {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        use Kind::*;
        let (kind, name, nominal_rps, limit_ms, reps, plain) = match name {
            "handbook_burst" => (HandbookBurst, "handbook_burst", 45.0, 100.0, 3, 24),
            "handbook_scattered" => (HandbookScattered, "handbook_scattered", 20.0, 100.0, 2, 16),
            "sim_guardrail" => (SimGuardrail, "sim_guardrail", 2500.0, 5.0, 8, 3000),
            _ => return None,
        };
        Some(Spec {
            kind,
            name,
            nominal_rps,
            limit_ms,
            ladder: ladder(nominal_rps),
            reps,
            plain_requests: plain,
            auc_floor: (kind == Kind::SimGuardrail).then_some(0.75),
        })
    }

    /// The spec with its repetitions scaled to a run of `seconds`.
    pub fn scaled(mut self, seconds: f64) -> Self {
        self.reps = ((self.reps as f64 * seconds / 30.0).round() as usize).max(1);
        self
    }

    /// Whether the ensemble runs the transformer engines (vs the sims).
    pub fn uses_engine(&self) -> bool {
        self.kind != Kind::SimGuardrail
    }
}

/// The fixed rate ladder: 96 geometric rungs from 0.25× to 8× the nominal
/// rate (each rung 3.7% above the last).
pub fn ladder(nominal_rps: f64) -> Vec<f64> {
    const RUNGS: usize = 96;
    let (lo, hi) = (0.25f64, 8.0f64);
    (0..RUNGS)
        .map(|i| {
            let f = lo * (hi / lo).powf(i as f64 / (RUNGS - 1) as f64);
            (nominal_rps * f * 10.0).round() / 10.0
        })
        .collect()
}

/// splitmix64: the benchmark's only random source.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derive an independent seed from the run seed and a purpose tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    SplitMix::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Tokenizer training text of the handbook workloads: every context,
/// question and response of the `handbook_burst` session's 300 sets.
pub fn corpus(seed: u64) -> Vec<String> {
    DatasetBuilder::new(derive(seed, 1), BURST_SETS)
        .build()
        .sets
        .into_iter()
        .flat_map(|s| {
            [s.context, s.question]
                .into_iter()
                .chain(s.responses.into_iter().map(|r| r.text))
        })
        .collect()
}

/// One session's requests: indices into the dataset they were drawn from.
pub struct Session {
    dataset: Dataset,
    items: Vec<(u32, ResponseLabel)>,
}

/// One request: a (question, context, response) triple with its label.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    pub question: &'a str,
    pub context: &'a str,
    pub response: &'a str,
    pub label: ResponseLabel,
}

impl Session {
    /// The workload's session for `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        match kind {
            Kind::HandbookBurst => {
                let dataset = DatasetBuilder::new(derive(seed, 1), BURST_SETS).build();
                let items = (0..BURST_SETS as u32)
                    .flat_map(|s| ResponseLabel::ALL.map(|label| (s, label)))
                    .collect();
                Self { dataset, items }
            }
            Kind::HandbookScattered => {
                let dataset = DatasetBuilder::new(derive(seed, 2), SCATTERED_SETS).build();
                let mut seen = HashSet::new();
                let mut cells: Vec<u32> = (0..SCATTERED_SETS as u32)
                    .filter(|&s| {
                        let set = &dataset.sets[s as usize];
                        seen.insert((set.question.as_str(), set.context.as_str()))
                    })
                    .collect();
                let mut rng = SplitMix::new(derive(seed, 3));
                for i in (1..cells.len()).rev() {
                    cells.swap(i, rng.below(i + 1));
                }
                cells.truncate(SCATTERED_CELLS);
                // Pass p gives cell i label (i + p) mod 3: each cell gets
                // all three responses, and every pass mixes the labels
                // evenly, so the passes cost the same.
                let items = (0..3)
                    .flat_map(|pass| {
                        cells
                            .iter()
                            .enumerate()
                            .map(move |(i, &s)| (s, ResponseLabel::ALL[(i + pass) % 3]))
                    })
                    .collect();
                Self { dataset, items }
            }
            Kind::SimGuardrail => {
                let dataset = DatasetBuilder::new(derive(seed, 4), SIM_SETS).build();
                let mut rng = SplitMix::new(derive(seed, 5));
                let items = (0..SIM_DRAWS)
                    .map(|_| (rng.below(SIM_SETS) as u32, ResponseLabel::ALL[rng.below(3)]))
                    .collect();
                Self { dataset, items }
            }
        }
    }

    /// Requests per session.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Request `i` of the session.
    pub fn get(&self, i: usize) -> Request<'_> {
        let (s, label) = self.items[i];
        let set = &self.dataset.sets[s as usize];
        Request {
            question: &set.question,
            context: &set.context,
            response: &set.response(label).text,
            label,
        }
    }
}

/// Session variants (differently seeded sessions) a phase rotates through,
/// so a run averages over more than one request mix.
pub const VARIANTS: usize = 2;

/// The variants of a workload's session, served in rotation: phase request
/// `k` is request `k % len` of variant `(k / len) % VARIANTS`.
pub struct Sessions {
    variants: Vec<Session>,
}

impl Sessions {
    /// Variant 0 is seeded by `seed` itself (so the burst session's sets are
    /// the tokenizer corpus); the others by seeds derived from it.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let variants: Vec<Session> = (0..VARIANTS)
            .map(|v| {
                Session::new(
                    kind,
                    if v == 0 {
                        seed
                    } else {
                        derive(seed, 1000 + v as u64)
                    },
                )
            })
            .collect();
        assert!(
            variants.iter().all(|s| s.len() == variants[0].len()),
            "equal session lengths"
        );
        Self { variants }
    }

    /// Requests per session.
    pub fn len(&self) -> usize {
        self.variants[0].len()
    }

    /// Requests in one rotation through every variant.
    pub fn cycle(&self) -> usize {
        self.len() * self.variants.len()
    }

    /// Phase request `k`.
    pub fn get(&self, k: usize) -> Request<'_> {
        let len = self.len();
        self.variants[(k / len) % self.variants.len()].get(k % len)
    }
}

/// Seeded Poisson arrivals: the offsets (seconds from the phase start) at
/// which `n` requests fall due at `rate_rps`.
pub fn arrivals(seed: u64, rate_rps: f64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix::new(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // 1 - u lies in (0, 1], so the log is finite.
            t += -(1.0 - rng.next_f64()).ln() / rate_rps;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_deterministic_per_seed() {
        let a = arrivals(7, 130.0, 500);
        assert_eq!(a, arrivals(7, 130.0, 500));
        assert_ne!(a, arrivals(8, 130.0, 500));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "offsets increase");
        // Mean inter-arrival gap is 1/rate within sampling error.
        let mean_gap = a[a.len() - 1] / a.len() as f64;
        assert!((mean_gap * 130.0 - 1.0).abs() < 0.15, "{mean_gap}");
    }

    #[test]
    fn sessions_are_deterministic_per_seed() {
        for kind in [
            Kind::HandbookBurst,
            Kind::HandbookScattered,
            Kind::SimGuardrail,
        ] {
            let (a, b, c) = (
                Session::new(kind, 3),
                Session::new(kind, 3),
                Session::new(kind, 4),
            );
            assert_eq!(a.len(), b.len());
            assert!((0..a.len()).all(|i| a.get(i).response == b.get(i).response));
            assert!((0..a.len().min(c.len())).any(|i| a.get(i).response != c.get(i).response));
        }
    }

    #[test]
    fn scattered_contexts_return_only_in_the_next_pass_with_another_label() {
        let s = Session::new(Kind::HandbookScattered, 5);
        assert_eq!(s.len(), 3 * SCATTERED_CELLS);
        let first = s.get(0);
        let visits: Vec<usize> = (0..s.len())
            .filter(|&i| s.get(i).context == first.context && s.get(i).question == first.question)
            .collect();
        assert_eq!(visits, vec![0, SCATTERED_CELLS, 2 * SCATTERED_CELLS]);
        let labels: HashSet<_> = visits.iter().map(|&i| s.get(i).label).collect();
        assert_eq!(labels.len(), 3, "each visit sends another response");
        let pass_labels = |p: usize| {
            (p * SCATTERED_CELLS..(p + 1) * SCATTERED_CELLS)
                .filter(|&i| s.get(i).label == ResponseLabel::Correct)
                .count()
        };
        assert!((0..3).all(|p| pass_labels(p).abs_diff(SCATTERED_CELLS / 3) <= 1));
    }

    #[test]
    fn phases_rotate_through_the_variants() {
        let s = Sessions::new(Kind::HandbookBurst, 3);
        assert_eq!(s.cycle(), VARIANTS * s.len());
        assert_eq!(
            s.get(0).response,
            Session::new(Kind::HandbookBurst, 3).get(0).response
        );
        assert_ne!(s.get(0).response, s.get(s.len()).response);
        assert_eq!(s.get(1).response, s.get(s.cycle() + 1).response);
    }

    #[test]
    fn burst_sends_each_set_back_to_back() {
        let s = Session::new(Kind::HandbookBurst, 5);
        assert_eq!(s.len(), 3 * BURST_SETS);
        for label in 0..3 {
            assert_eq!(s.get(label).context, s.get(0).context);
            assert_eq!(s.get(label).label, ResponseLabel::ALL[label]);
        }
    }

    #[test]
    fn ladder_is_ascending_and_spans_the_nominal_rate() {
        let l = ladder(100.0);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
        assert!(l[0] < 100.0 && *l.last().unwrap() > 100.0);
    }
}
