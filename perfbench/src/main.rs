//! Wall-clock request → verdict benchmark for the guarded detector.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload handbook_burst --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on untraced deployments;
//! `--trace 1` runs the traced pass and reports the per-layer metrics. Both
//! check every verdict and exit non-zero if any check fails. The last line
//! of standard output is the result object; spans and a full record (host,
//! provenance, sample counts) go to `.bench_out/`. See `README.md`.

mod deploy;
mod gate;
mod host;
mod layers;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use hallu_dataset::ResponseLabel;

use crate::deploy::{member_names, Deployment, Engines};
use crate::gate::Gate;
use crate::serve::{closed_loop, open_loop, replay_fifo, Fleet, Outcome, SessionCounts, Verdict};
use crate::stats::{median, min_samples, percentile, sorted};
use crate::trace::Recorder;
use crate::workload::{arrivals, derive, Sessions, Spec, VARIANTS};

/// Setups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// An open-loop phase stops serving at this multiple of its last due time;
/// requests still queued then count as failed and as latency misses.
const CUTOFF: f64 = 1.25;
/// Seed of every arrival schedule. It does not follow `--seed`: runs with
/// different seeds differ in request content but meet the same arrival
/// bursts, so the queueing tail reflects the program rather than the luck of
/// the draw, and two commits are compared under identical bursts.
const ARRIVALS: u64 = 0x00a7_7a1c;
/// Arrivals replayed per ladder rung: this many sessions, at least
/// `REPLAY_MIN` requests.
const REPLAY_SESSIONS: usize = 10;
const REPLAY_MIN: usize = 20_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn verdicts(outcomes: &[Outcome]) -> Vec<Verdict> {
    outcomes.iter().map(|o| o.verdict).collect()
}

/// Time one full setup: generate the sessions, train the tokenizer, build
/// the weights (and int8 calibration), allocate caches and pools.
fn setup(spec: &Spec, seed: u64) -> (f64, Sessions, Option<Engines>) {
    let t = Instant::now();
    let session = Sessions::new(spec.kind, seed);
    let engines = spec.uses_engine().then(|| Engines::build(seed));
    drop(Deployment::build(engines.as_ref(), None));
    (t.elapsed().as_secs_f64(), session, engines)
}

/// The first phase's first rotation through the session variants is the
/// canonical verdict sequence: check its leading requests bit for bit
/// against the plain detector.
fn canonical(
    gate: &mut Gate,
    spec: &Spec,
    session: &Sessions,
    engines: Option<&Engines>,
    first: &[Outcome],
) -> Vec<Verdict> {
    let canonical = verdicts(&first[..session.cycle()]);
    let mut plain = match engines {
        Some(e) => e.plain(),
        None => Deployment::plain_sims(),
    };
    let n = spec.plain_requests.min(session.len());
    let want = gate::plain_verdicts(&mut plain, session, n);
    gate.same_verdicts("plain HallucinationDetector parity", &want, &canonical[..n]);
    canonical
}

/// Check one phase: one outcome per sent request, every session repeating
/// the canonical verdicts, and identical counters for every full session of
/// a variant (returns whether those counters were compared exactly).
fn check_phase(
    gate: &mut Gate,
    phase: &str,
    canonical: &[Verdict],
    outcomes: &[Outcome],
    sent: usize,
    sessions: &[SessionCounts],
) -> bool {
    gate.one_verdict_each(phase, outcomes, sent);
    gate.repeats_session(phase, canonical, outcomes);
    gate.same_counts(phase, sessions, canonical.len() / VARIANTS, VARIANTS)
}

/// AUC of the verification score, correct (positive) vs wrong responses,
/// over the canonical verdicts of every variant.
fn auc(session: &Sessions, verdicts: &[Verdict]) -> f64 {
    let examples: Vec<(f64, bool)> = verdicts
        .iter()
        .enumerate()
        .filter_map(|(i, v)| match (v.score(), session.get(i).label) {
            (Some(s), ResponseLabel::Correct) => Some((s, true)),
            (Some(s), ResponseLabel::Wrong) => Some((s, false)),
            _ => None,
        })
        .collect();
    eval::roc::auc(&examples)
}

/// Ladder rung verdict: p99 within the limit (at most 1% of the sent
/// requests over it, unverified ones included) and no growing backlog (the
/// last quarter of the requests waited, on average, less than the limit).
fn probe_passes(outcomes: &[Outcome], limit_ms: f64) -> bool {
    let misses = outcomes
        .iter()
        .filter(|o| !o.verdict.verified() || o.latency_ms() > limit_ms)
        .count();
    let tail = &outcomes[outcomes.len() * 3 / 4..];
    let tail_wait = tail.iter().map(Outcome::wait_ms).sum::<f64>() / tail.len().max(1) as f64;
    misses * 100 <= outcomes.len() && tail_wait <= limit_ms
}

struct RunResult {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    info: Vec<(String, String)>,
}

/// Run-record entry: how the per-session counters were compared.
fn counts_compared(exact: bool) -> (String, String) {
    let how = if exact {
        "exact"
    } else {
        "lookups only (evictions)"
    };
    ("cache_counts_compared".into(), how.into())
}

fn unverified(outcomes: &[Outcome]) -> usize {
    outcomes.iter().filter(|o| !o.verdict.verified()).count()
}

fn end_to_end(spec: &Spec, args: &Args, gate: &mut Gate) -> RunResult {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let (secs, session, engines) = setup(spec, args.seed);
        setups.push(secs);
        built.get_or_insert((session, engines));
    }
    let (session, engines) = built.expect("at least one setup");
    let engines = engines.as_ref();
    let len = session.len();
    let spec = &spec.clone().scaled(args.seconds);

    // Closed loop, one client: `reps` rotations through the variants.
    let cycle = session.cycle();
    let n = spec.reps * cycle;
    let mut fleet = Fleet::new(&session, engines, None, spec.reps * VARIANTS);
    let (closed, closed_s) = closed_loop(&mut fleet, n);
    let canonical = canonical(gate, spec, &session, engines, &closed);
    let exact_counts = check_phase(gate, "closed loop", &canonical, &closed, n, &fleet.finish());
    let sessions_s: Vec<f64> = closed
        .chunks(len)
        .map(|c| c.iter().map(Outcome::service_ms).sum::<f64>() / 1e3)
        .collect();

    // Each request of the rotation at its fastest repetition: host
    // interference only ever adds time, so the minimum is the steadiest
    // estimate of what the program itself costs.
    let fastest: Vec<Outcome> = (0..cycle)
        .map(|p| {
            (0..spec.reps)
                .map(|r| closed[r * cycle + p])
                .min_by(|a, b| a.service_ms().total_cmp(&b.service_ms()))
                .expect("at least one repetition")
        })
        .collect();
    let throughput = cycle as f64 / (fastest.iter().map(Outcome::service_ms).sum::<f64>() / 1e3);

    // Open loop at the nominal rate: the fastest service times replayed
    // through the FIFO queue under the fixed Poisson arrival schedule.
    let limit = spec.limit_ms;
    let replay_n = (REPLAY_SESSIONS * len).max(REPLAY_MIN);
    let offsets = arrivals(derive(ARRIVALS, 400), spec.nominal_rps, replay_n);
    let open = replay_fifo(&offsets, &fastest);
    let latencies = sorted(open.iter().map(Outcome::latency_ms).collect());
    let met = open
        .iter()
        .filter(|o| o.verdict.verified() && o.latency_ms() <= limit)
        .count() as f64;
    let verified = (n - unverified(&closed)) as f64 / n as f64;

    // Rate ladder: the same replay under each rung's arrivals.
    let mut max_rate = None;
    for (i, &rate) in spec.ladder.iter().enumerate() {
        let offsets = arrivals(derive(ARRIVALS, 500 + i as u64), rate, replay_n);
        if !probe_passes(&replay_fifo(&offsets, &fastest), limit) {
            break;
        }
        max_rate = Some(rate);
    }
    // Not even the lowest rung passed: report half of it rather than zero.
    let max_rate = max_rate.unwrap_or(spec.ladder[0] / 2.0);

    let auc_value = auc(&session, &canonical);
    if let Some(floor) = spec.auc_floor {
        gate.check(auc_value >= floor, || {
            format!("auc_correct_vs_wrong {auc_value:.4} below the floor {floor}")
        });
    }
    let p50 = percentile(&latencies, 0.5);
    let p99 = percentile(&latencies, 0.99);
    gate.check(p99.is_some(), || {
        format!("{} latency samples cannot support p99", latencies.len())
    });
    let sent = open.len() as f64;
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("throughput_rps", throughput, "1/s"),
        metric("latency_p50_ms", p50.unwrap_or(f64::NAN), "ms"),
        metric("latency_p99_ms", p99.unwrap_or(f64::NAN), "ms"),
        metric("slo_met_frac", met / sent, "frac"),
        metric("max_rate_rps", max_rate, "1/s"),
        metric("verified_frac", verified, "frac"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
        metric("auc_correct_vs_wrong", auc_value, "auc"),
    ];
    let info = vec![
        ("session_requests".into(), len.to_string()),
        ("latency_samples".into(), latencies.len().to_string()),
        ("slo_miss_frac".into(), (1.0 - met / sent).to_string()),
        ("error_frac".into(), (1.0 - verified).to_string()),
        ("nominal_rps".into(), spec.nominal_rps.to_string()),
        ("limit_ms".into(), limit.to_string()),
        ("closed_loop_requests".into(), closed.len().to_string()),
        ("closed_loop_s".into(), closed_s.to_string()),
        ("session_service_s".into(), format!("{sessions_s:?}")),
        ("setup_samples_s".into(), format!("{setups:?}")),
        (
            "verdict_digest".into(),
            format!("{:016x}", gate::digest(canonical.iter().copied())),
        ),
        counts_compared(exact_counts),
    ];
    RunResult {
        metrics,
        attempted: closed.len(),
        failed: unverified(&closed),
        info,
    }
}

fn traced(spec: &Spec, args: &Args, gate: &mut Gate, out_dir: &std::path::Path) -> RunResult {
    let (_, session, engines) = setup(spec, args.seed);
    let engines = engines.as_ref();
    let len = session.len();

    // One rotation through the variants, closed loop, untraced (the
    // canonical verdicts) and then traced with a recorder of its own: the
    // same requests served the same way, so their service times give the
    // tracing cost.
    let cycle = session.cycle();
    let mut fleet = Fleet::new(&session, engines, None, VARIANTS);
    let (untraced, _) = closed_loop(&mut fleet, cycle);
    let canonical = canonical(gate, spec, &session, engines, &untraced);
    let mut sessions = fleet.finish();
    let mut exact_counts = check_phase(
        gate,
        "untraced pass",
        &canonical,
        &untraced,
        cycle,
        &sessions,
    );
    let mut fleet = Fleet::new(&session, engines, Some(&Recorder::new()), VARIANTS);
    let (traced_closed, _) = closed_loop(&mut fleet, cycle);
    sessions.extend(fleet.finish());
    exact_counts &= check_phase(
        gate,
        "traced rotation",
        &canonical,
        &traced_closed,
        cycle,
        &sessions,
    );
    let service = |o: &[Outcome]| o.iter().map(Outcome::service_ms).sum::<f64>();
    let overhead = service(&traced_closed) / service(&untraced) - 1.0;

    // The traced pass: the live open loop at the nominal rate.
    // One rotation, or more when that is too short for a p99.
    let traced_sessions = VARIANTS * min_samples(0.99).div_ceil(cycle);
    let n = traced_sessions * len;
    let offsets = arrivals(derive(ARRIVALS, 400), spec.nominal_rps, n);
    let recorder = Recorder::new();
    let mut fleet = Fleet::new(&session, engines, Some(&recorder), traced_sessions);
    let traced = open_loop(&mut fleet, &offsets, offsets[n - 1] * CUTOFF);
    let traced_counts = fleet.finish();
    // The wrappers must not change a count either: traced sessions are
    // compared with the untraced ones of their variant.
    sessions.extend(traced_counts.iter().cloned());
    exact_counts &= check_phase(gate, "traced pass", &canonical, &traced, n, &sessions);

    let layers = layers::Layers::compute(&session, engines, &recorder, &traced, &traced_counts);
    let spans_path = out_dir.join(format!("{}-seed{}-spans.jsonl", spec.name, args.seed));
    if let Err(e) = recorder.write_jsonl(&spans_path, &member_names(engines)) {
        eprintln!("could not write {}: {e}", spans_path.display());
    }
    let mut metrics = layers.metrics;
    metrics.push(metric("trace.overhead_frac", overhead, "frac"));
    let mut info = layers.info;
    info.push(("session_requests".into(), len.to_string()));
    info.push(("traced_requests".into(), n.to_string()));
    info.push(("spans_file".into(), spans_path.display().to_string()));
    info.push((
        "verdict_digest".into(),
        format!("{:016x}", gate::digest(canonical)),
    ));
    info.push(counts_compared(exact_counts));
    RunResult {
        metrics,
        attempted: untraced.len() + traced_closed.len() + traced.len(),
        failed: unverified(&untraced) + unverified(&traced_closed) + unverified(&traced),
        info,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let out_dir = PathBuf::from(".bench_out");
    let mut gate = Gate::default();
    let result = if args.trace {
        traced(&spec, &args, &mut gate, &out_dir)
    } else {
        end_to_end(&spec, &args, &mut gate)
    };
    for m in &result.metrics {
        gate.check(m.value.is_finite(), || format!("{} is not finite", m.name));
    }

    let (cpu_model, flags) = host::cpu();
    let provenance = [
        ("workload", json_str(spec.name)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        ("git_sha", json_str(&host::git_sha())),
        ("cpu_model", json_str(&cpu_model)),
        ("cpu_flags", json_str(&flags.join(" "))),
        ("nproc", host::nproc().to_string()),
        ("gate_checks", gate.checks.to_string()),
        (
            "gate_failures",
            format!(
                "[{}]",
                gate.failures
                    .iter()
                    .map(|f| json_str(f))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    let mut record: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    record.extend(
        result
            .info
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))),
    );
    let record = format!("{{{}}}", record.join(","));

    for m in &result.metrics {
        println!("{:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &result.info {
        println!("# {k}: {v}");
    }
    for f in &gate.failures {
        println!("# GATE FAILED: {f}");
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        gate.passed(),
        result.attempted.max(1),
        result.failed,
        metrics.join(",")
    );
    let path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    let saved = std::fs::create_dir_all(&out_dir).and_then(|()| {
        std::fs::write(
            &path,
            format!("{{\"record\":{record},\"result\":{line}}}\n"),
        )
    });
    if let Err(e) = saved {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{record}");
    println!("{line}");
    if !gate.passed() {
        std::process::exit(1);
    }
}
