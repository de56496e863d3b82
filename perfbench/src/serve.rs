//! The benchmark's own serving loop.
//!
//! `ResilientVerifiedPipeline::ask_with` takes `&mut self`, so the main
//! thread serves one request at a time from a FIFO arrival queue: request
//! `k` falls due at its scheduled offset and starts once it is due and every
//! earlier request has finished. Latency runs from the due time to the
//! verdict, so a stall also charges the requests queued behind it.
//!
//! Phase request `k` is served by the fresh deployment of session
//! `k / len` (see [`Fleet`] and [`Sessions`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rag::pipeline::RagAnswer;
use rag::verified::ResilientAnswer;
use slm_runtime::{CacheStats, PoolStats, PrefixStats};

use crate::deploy::{Deployment, Engines};
use crate::trace::Recorder;
use crate::workload::Sessions;

/// The disposition of one request, with the score bits where one exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Served(f64),
    Blocked(f64),
    /// The detector abstained (or the pipeline left the answer unverified).
    Abstained,
    /// Never started: the phase hit its cutoff first.
    Unserved,
}

impl Verdict {
    pub fn score(self) -> Option<f64> {
        match self {
            Verdict::Served(s) | Verdict::Blocked(s) => Some(s),
            Verdict::Abstained | Verdict::Unserved => None,
        }
    }

    /// Whether the request got a scored verdict (served or blocked).
    pub fn verified(self) -> bool {
        self.score().is_some()
    }
}

/// One request's timeline, in seconds from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Position in the phase.
    pub index: usize,
    pub due: f64,
    pub start: f64,
    pub end: f64,
    pub verdict: Verdict,
}

impl Outcome {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.due) * 1e3
    }

    pub fn wait_ms(&self) -> f64 {
        (self.start - self.due) * 1e3
    }

    pub fn service_ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// Cache counters of one session's deployment, taken when it retires.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCounts {
    /// Requests the session served (all of them unless the phase was cut).
    pub served: usize,
    pub cache: CacheStats,
    /// Per engine member: prefix-cache and page-pool counters.
    pub paged: Vec<(PrefixStats, PoolStats)>,
}

impl SessionCounts {
    fn of(dep: &Deployment, served: usize) -> Self {
        Self {
            served,
            cache: dep.cache.stats(),
            paged: dep
                .paged
                .iter()
                .map(|p| (p.stats(), p.pool().stats()))
                .collect(),
        }
    }
}

/// The deployments one phase serves through: one fresh deployment per
/// session, all built before the phase starts. A session's deployment is
/// dropped when the next session begins.
pub struct Fleet<'s> {
    sessions: &'s Sessions,
    ready: Vec<Deployment>,
    current: Option<(Deployment, usize)>,
    retired: Vec<SessionCounts>,
}

impl<'s> Fleet<'s> {
    pub fn new(
        sessions: &'s Sessions,
        engines: Option<&Engines>,
        recorder: Option<&Arc<Recorder>>,
        count: usize,
    ) -> Self {
        Self {
            sessions,
            ready: (0..count)
                .map(|_| Deployment::build(engines, recorder))
                .collect(),
            current: None,
            retired: Vec::new(),
        }
    }

    /// Serve phase request `k`; returns the verdict and the service
    /// interval (seconds from `t0`). The request is built before the clock
    /// starts; a traced deployment wraps the call in a `request` span.
    fn serve(&mut self, k: usize, t0: Instant) -> (Verdict, f64, f64) {
        if k.is_multiple_of(self.sessions.len()) || self.current.is_none() {
            self.retire();
            let dep = self.ready.pop().expect("a fresh deployment per session");
            self.current = Some((dep, 0));
        }
        let (dep, served) = self.current.as_mut().expect("current session");
        *served += 1;
        let r = self.sessions.get(k);
        let answer = RagAnswer {
            question: r.question.to_string(),
            context: r.context.to_string(),
            response: r.response.to_string(),
            prompt: String::new(),
        };
        let start = t0.elapsed().as_secs_f64();
        let out = match &dep.recorder {
            Some(rec) => {
                let _span = rec.open_request(k as u64);
                dep.pipeline.ask_with(answer)
            }
            None => dep.pipeline.ask_with(answer),
        };
        let end = t0.elapsed().as_secs_f64();
        let verdict = match out {
            ResilientAnswer::Served { score, .. } => Verdict::Served(score),
            ResilientAnswer::Blocked { score, .. } => Verdict::Blocked(score),
            ResilientAnswer::Unverified { .. } | ResilientAnswer::Abstained { .. } => {
                Verdict::Abstained
            }
        };
        (verdict, start, end)
    }

    fn retire(&mut self) {
        if let Some((dep, served)) = self.current.take() {
            self.retired.push(SessionCounts::of(&dep, served));
        }
    }

    /// Retire the last session and return every session's counters.
    pub fn finish(mut self) -> Vec<SessionCounts> {
        self.retire();
        self.retired
    }
}

/// Sleep, then spin, until `offset` seconds after `t0`; returns the time
/// reached.
fn wait_until(t0: Instant, offset: f64) -> f64 {
    loop {
        let now = t0.elapsed().as_secs_f64();
        let ahead = offset - now;
        if ahead <= 0.0 {
            return now;
        }
        if ahead > 0.002 {
            std::thread::sleep(Duration::from_secs_f64(ahead - 0.001));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: phase requests `0..offsets.len()` fall due at `offsets`
/// (seconds from now). Requests still queued `cutoff_s` after the start are
/// not served; their latency is counted up to the cutoff.
pub fn open_loop(fleet: &mut Fleet<'_>, offsets: &[f64], cutoff_s: f64) -> Vec<Outcome> {
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(offsets.len());
    for (index, &due) in offsets.iter().enumerate() {
        let now = wait_until(t0, due);
        let (verdict, start, end) = if now > cutoff_s {
            (Verdict::Unserved, now, now)
        } else {
            fleet.serve(index, t0)
        };
        out.push(Outcome {
            index,
            due,
            start,
            end,
            verdict,
        });
    }
    out
}

/// Closed loop, one client: serve phase requests `0..n` back to back.
/// Returns the outcomes (due = start) and the elapsed time.
pub fn closed_loop(fleet: &mut Fleet<'_>, n: usize) -> (Vec<Outcome>, f64) {
    let t0 = Instant::now();
    let out = (0..n)
        .map(|index| {
            let (verdict, start, end) = fleet.serve(index, t0);
            Outcome {
                index,
                due: start,
                start,
                end,
                verdict,
            }
        })
        .collect();
    (out, t0.elapsed().as_secs_f64())
}

/// Trace-driven FIFO replay: the same single-server queue the live loops
/// run, fed by `offsets` and by the measured `served` requests' service
/// times and verdicts, cycled in order. Deterministic for given inputs.
pub fn replay_fifo(offsets: &[f64], served: &[Outcome]) -> Vec<Outcome> {
    let mut free_at = 0.0f64;
    offsets
        .iter()
        .enumerate()
        .map(|(index, &due)| {
            let measured = &served[index % served.len()];
            let start = due.max(free_at);
            free_at = start + (measured.end - measured.start);
            Outcome {
                index,
                due,
                start,
                end: free_at,
                verdict: measured.verdict,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_queues_behind_earlier_requests() {
        let served: Vec<Outcome> = [0.010, 0.030]
            .iter()
            .enumerate()
            .map(|(index, &s)| Outcome {
                index,
                due: 0.0,
                start: 1.0,
                end: 1.0 + s,
                verdict: Verdict::Served(0.5),
            })
            .collect();
        let out = replay_fifo(&[0.0, 0.005, 0.100], &served);
        let lat: Vec<f64> = out
            .iter()
            .map(|o| (o.latency_ms() * 1e6).round() / 1e6)
            .collect();
        // The second request waits 5 ms for the first; the third finds the
        // server idle and reuses the first service time again.
        assert_eq!(lat, vec![10.0, 35.0, 10.0]);
        assert_eq!(out[1].wait_ms().round(), 5.0);
    }
}
