//! The correctness gate: any failed check fails the run.

use hallu_core::{explain, HallucinationDetector};

use slm_runtime::CacheStats;

use crate::deploy::THRESHOLD;
use crate::serve::{Outcome, SessionCounts, Verdict};
use crate::workload::Sessions;

/// Collects failed checks.
#[derive(Debug, Default)]
pub struct Gate {
    pub failures: Vec<String>,
    pub checks: usize,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Every request `0..sent` of a phase has exactly one outcome, in order.
    pub fn one_verdict_each(&mut self, phase: &str, outcomes: &[Outcome], sent: usize) {
        let ok = outcomes.len() == sent && outcomes.iter().enumerate().all(|(k, o)| o.index == k);
        self.check(ok, || {
            format!(
                "{phase}: {} outcomes for {sent} sent requests",
                outcomes.len()
            )
        });
    }

    /// `got` must equal `want` bit for bit.
    pub fn same_verdicts(&mut self, what: &str, want: &[Verdict], got: &[Verdict]) {
        let mismatch = first_mismatch(want, got);
        self.check(mismatch.is_none(), || match mismatch {
            Some(i) => format!(
                "{what}: verdict {i} differs: {:?} vs {:?}",
                want.get(i),
                got.get(i)
            ),
            None => String::new(),
        });
    }

    /// Every session in `got` must repeat `canonical`, the verdicts of one
    /// rotation through the session variants (phase request `k` is request
    /// `k % canonical.len()` of the rotation).
    pub fn repeats_session(&mut self, phase: &str, canonical: &[Verdict], got: &[Outcome]) {
        let len = canonical.len();
        let bad = got.iter().find(|o| {
            o.verdict != Verdict::Unserved
                && first_mismatch(&[canonical[o.index % len]], &[o.verdict]).is_some()
        });
        self.check(bad.is_none(), || {
            let o = bad.expect("a mismatch");
            format!(
                "{phase}: request {} gave {:?}, its session position gave {:?}",
                o.index,
                o.verdict,
                canonical[o.index % len]
            )
        });
    }

    /// Every fully served session must leave the same counters as the
    /// first session of its variant (session `j` is variant `j % variants`). Once the
    /// verification cache evicts, which entry goes depends on the recency
    /// order that the parallel probe workers update in a racy order, so
    /// only its lookup count is compared; returns whether the comparison
    /// was exact.
    pub fn same_counts(
        &mut self,
        phase: &str,
        sessions: &[SessionCounts],
        len: usize,
        variants: usize,
    ) -> bool {
        let exact = sessions.iter().all(|s| s.cache.evictions == 0);
        let key = |s: &SessionCounts| {
            let mut s = s.clone();
            if !exact {
                let lookups = s.cache.hits + s.cache.misses;
                s.cache = CacheStats {
                    hits: lookups,
                    ..CacheStats::default()
                };
            }
            s
        };
        let keys: Vec<SessionCounts> = sessions.iter().map(key).collect();
        let differs = (variants..keys.len()).find(|&j| {
            sessions[j].served == len
                && sessions[j % variants].served == len
                && keys[j] != keys[j % variants]
        });
        self.check(differs.is_none(), || {
            let j = differs.unwrap_or(0);
            format!(
                "{phase}: session {j} counts {:?} differ from {:?}",
                keys[j],
                keys[j % variants]
            )
        });
        exact
    }
}

/// Index of the first verdict that differs in kind or score bits.
pub fn first_mismatch(a: &[Verdict], b: &[Verdict]) -> Option<usize> {
    let same = |x: &Verdict, y: &Verdict| match (x, y) {
        (Verdict::Served(p), Verdict::Served(q)) | (Verdict::Blocked(p), Verdict::Blocked(q)) => {
            p.to_bits() == q.to_bits()
        }
        _ => x == y,
    };
    (0..a.len().max(b.len())).find(|&i| match (a.get(i), b.get(i)) {
        (Some(x), Some(y)) => !same(x, y),
        _ => true,
    })
}

/// FNV-1a digest of the verdicts (kind and score bits, in order).
pub fn digest(verdicts: impl IntoIterator<Item = Verdict>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in verdicts {
        let (tag, bits) = match v {
            Verdict::Served(s) => (1, s.to_bits()),
            Verdict::Blocked(s) => (2, s.to_bits()),
            Verdict::Abstained => (3, 0),
            Verdict::Unserved => (4, 0),
        };
        eat(tag);
        eat(bits);
    }
    h
}

/// The plain detector's verdicts for session requests `0..n`: calibrate
/// then score, sequentially, exactly as `ask_with` orders them.
pub fn plain_verdicts(
    plain: &mut HallucinationDetector,
    session: &Sessions,
    n: usize,
) -> Vec<Verdict> {
    (0..n)
        .map(|i| {
            let r = session.get(i);
            plain.calibrate(r.question, r.context, r.response);
            let result = plain.score(r.question, r.context, r.response);
            if explain(&result, THRESHOLD).accepted {
                Verdict::Served(result.score)
            } else {
                Verdict::Blocked(result.score)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_rejects_a_perturbed_verdict() {
        let want = vec![
            Verdict::Served(0.61),
            Verdict::Blocked(0.2),
            Verdict::Abstained,
        ];
        let mut gate = Gate::default();
        gate.same_verdicts("identical", &want, &want.clone());
        assert!(gate.passed());

        let mut nudged = want.clone();
        nudged[1] = Verdict::Blocked(f64::from_bits(0.2f64.to_bits() + 1));
        gate.same_verdicts("one ulp", &want, &nudged);
        assert!(!gate.passed());
        assert!(
            gate.failures[0].contains("verdict 1"),
            "{:?}",
            gate.failures
        );

        let mut flipped = want.clone();
        flipped[0] = Verdict::Blocked(0.61);
        assert_eq!(first_mismatch(&want, &flipped), Some(0));
        assert_eq!(
            first_mismatch(&want, &want[..2]),
            Some(2),
            "a missing verdict"
        );
        assert_ne!(digest(want.iter().copied()), digest(flipped));
    }

    fn outcome(index: usize, verdict: Verdict) -> Outcome {
        Outcome {
            index,
            due: 0.0,
            start: 0.0,
            end: 0.0,
            verdict,
        }
    }

    #[test]
    fn every_session_must_repeat_the_canonical_verdicts() {
        let canonical = [Verdict::Served(0.7), Verdict::Blocked(0.1)];
        let phase: Vec<Outcome> = [0.7, 0.1, 0.7, 0.1]
            .iter()
            .enumerate()
            .map(|(k, &s)| {
                outcome(
                    k,
                    if k % 2 == 0 {
                        Verdict::Served(s)
                    } else {
                        Verdict::Blocked(s)
                    },
                )
            })
            .collect();
        let mut gate = Gate::default();
        gate.repeats_session("ok", &canonical, &phase);
        assert!(gate.passed());
        let mut perturbed = phase.clone();
        perturbed[3].verdict = Verdict::Blocked(0.1000001);
        gate.repeats_session("perturbed", &canonical, &perturbed);
        assert!(!gate.passed());
        assert!(
            gate.failures[0].contains("request 3"),
            "{:?}",
            gate.failures
        );
    }

    #[test]
    fn counts_must_repeat_per_variant_and_lookups_once_the_cache_evicts() {
        let counts = |hits, misses, evictions| SessionCounts {
            served: 4,
            cache: CacheStats {
                hits,
                misses,
                evictions,
                ..CacheStats::default()
            },
            paged: Vec::new(),
        };
        let mut gate = Gate::default();
        // Two variants: sessions 0 and 2 are variant 0, 1 and 3 variant 1.
        let same = [
            counts(5, 3, 0),
            counts(7, 1, 0),
            counts(5, 3, 0),
            counts(7, 1, 0),
        ];
        assert!(gate.same_counts("exact", &same, 4, 2));
        assert!(gate.passed());
        let moved = [
            counts(5, 3, 0),
            counts(7, 1, 0),
            counts(4, 4, 0),
            counts(7, 1, 0),
        ];
        gate.same_counts("moved hit", &moved, 4, 2);
        assert_eq!(gate.failures.len(), 1);
        let evicting = [
            counts(5, 3, 1),
            counts(7, 1, 0),
            counts(4, 4, 2),
            counts(7, 1, 0),
        ];
        assert!(!gate.same_counts("evicting", &evicting, 4, 2));
        assert_eq!(gate.failures.len(), 1, "same lookups once the cache evicts");
        let lost = [
            counts(5, 3, 1),
            counts(7, 1, 0),
            counts(4, 3, 2),
            counts(7, 1, 0),
        ];
        gate.same_counts("lost lookup", &lost, 4, 2);
        assert_eq!(gate.failures.len(), 2);
    }

    #[test]
    fn every_request_needs_exactly_one_outcome() {
        let o = |index| outcome(index, Verdict::Abstained);
        let mut gate = Gate::default();
        gate.one_verdict_each("ok", &[o(0), o(1)], 2);
        assert!(gate.passed());
        gate.one_verdict_each("duplicate", &[o(0), o(0)], 2);
        gate.one_verdict_each("missing", &[o(0)], 2);
        assert_eq!(gate.failures.len(), 2);
    }
}
