//! The campaign simulator's benchmark: four closed-loop workloads, their
//! end-to-end metrics, and a traced run that splits the time into layers.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! One process, engines pinned to one worker thread, one client: the
//! next operation starts when the previous one returns. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` records spans around the
//! calls into each layer and reports the per-layer metrics. The last
//! line of stdout is one JSON object; everything above it is the
//! readable report. See `perfbench/README.md`.

/// Call `$f::<W>(args)` at the slab width `W` that `$lanes` lanes need,
/// as the engines' own dispatch does.
macro_rules! by_slab_words {
    ($lanes:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match slab_words($lanes) {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            _ => $f::<8>($($arg),*),
        }
    };
}

mod bench;
mod campaign;
mod explore;
mod fleet;
mod span;
mod stats;
mod system;

use bench::{panic_message, Figure, Sheet, Size, Workload, FANOUT_THREADS, THREADS};
use span::Tracer;
use stats::{interquartile_mean, median, mix, quantile};
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = [
    "campaign-mix-wide",
    "system-seu-narrow",
    "fleet-mixed-ckpt",
    "explore-worked",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: u64 = 5;
/// Operations checked by the oracle per run (the first this many
/// multiples of the workload's stride).
const ORACLE_SAMPLES: u64 = 3;
/// Seed bases of the warm-up and settling operations, kept apart from
/// the timed operations' seeds.
const WARM_UP_SEEDS: u64 = 0x5E70_B000;
const SETTLE_SEEDS: u64 = 0x5E77_1E00;
/// Untimed operations after set-up (scaled down for sub-second runs).
const SETTLE: Duration = Duration::from_secs(1);
/// Plain-operation time run after each operation with events, as a
/// share of that operation's time: a quarter of the run is plain
/// operations, three quarters operations with events.
const PLAIN_SHARE: f64 = 1.0 / 3.0;
/// Fewest samples a percentile needs beyond it to be reported.
const TAIL_SAMPLES: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::FULL;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--tiny" {
            size = Size::TINY;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// Where spans and scratch files go: `out/` beside this package's
/// manifest, inside the checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// This process's scratch directory (fleet checkpoints); removed on exit.
pub fn scratch_dir() -> PathBuf {
    out_dir().join(format!("scratch-{}", std::process::id()))
}

/// Removes the scratch directory however the run ends.
struct ScratchGuard;

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(scratch_dir());
    }
}

fn main() {
    let code = {
        let _scratch = ScratchGuard;
        match parse_args().and_then(|args| run(&args)) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        }
    };
    std::process::exit(code);
}

fn run(args: &Args) -> Result<(), String> {
    match args.workload.as_str() {
        "campaign-mix-wide" => drive::<campaign::CampaignMixWide>(args),
        "system-seu-narrow" => drive::<system::SystemSeuNarrow>(args),
        "fleet-mixed-ckpt" => drive::<fleet::FleetMixedCkpt>(args),
        _ => drive::<explore::ExploreWorked>(args),
    }
}

/// One operation of the closed loop.
struct Sample {
    events: bool,
    spans: bool,
    /// False for the plain operation run right after one with events,
    /// which is not timed.
    timed: bool,
    wall: Duration,
    work: u64,
    devices: u64,
}

/// What the closed loop measured.
struct LoopOutcome<R> {
    samples: Vec<Sample>,
    failed: u64,
    errors: Vec<String>,
    digest: Option<u64>,
    retained: Vec<(u64, R)>,
}

impl<R> LoopOutcome<R> {
    /// The timed operations that did (`events`) or did not request
    /// their event trace.
    fn timed(&self, events: bool) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(move |s| s.timed && s.events == events)
    }

    /// Wall times in ms of the timed operations that did (`events`) or
    /// did not request their event trace, optionally only those with
    /// spans on or off.
    fn op_ms(&self, events: bool, spans: Option<bool>) -> Vec<f64> {
        self.timed(events)
            .filter(|s| spans.is_none_or(|on| s.spans == on))
            .map(|s| stats::ms(s.wall))
            .collect()
    }
}

/// Set the workload up `SETUP_REPEATS` times (each ending with one
/// warm-up operation) and keep the last one; returns it with each
/// set-up's wall time.
fn set_up<W: Workload>(args: &Args) -> Result<(W, Vec<f64>), String> {
    let quiet = Tracer::new(false);
    let mut times = Vec::new();
    let mut state = None;
    for k in 0..SETUP_REPEATS {
        let start = Instant::now();
        let w = W::setup(args.size)?;
        let warm = w.op(mix(args.seed ^ WARM_UP_SEEDS, k), false, &quiet)?;
        black_box(warm.work);
        times.push(start.elapsed().as_secs_f64());
        state = Some(w);
    }
    Ok((state.expect("at least one set-up"), times))
}

/// Run untimed operations for `SETTLE` (at least one) after set-up, so
/// the timed loop starts on a host already running the work flat out.
fn settle<W: Workload>(w: &W, args: &Args) -> Result<(), String> {
    let quiet = Tracer::new(false);
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed() < SETTLE.mul_f64(args.seconds.min(1.0)) {
        black_box(w.op(mix(args.seed ^ SETTLE_SEEDS, k), false, &quiet)?.work);
        k += 1;
    }
    Ok(())
}

/// The closed loop: operations back to back until `seconds` have
/// passed. Where the event trace replays the simulation, operations with
/// and without it take turns: after each operation with events, plain
/// operations run until their time adds up to `PLAIN_SHARE` of its time.
/// So both kinds are timed over the whole run and meet the same host
/// conditions, and the far slower operations with events, which give the
/// fewer samples, get most of the run. The first plain operation after
/// one with events is not timed, as it would start on the caches the
/// replay left behind.
/// In the traced run, spans are recorded on every other operation of
/// each kind, so the same work is timed with and without span recording.
fn closed_loop<W: Workload>(w: &W, args: &Args, tracer: &Tracer) -> LoopOutcome<W::Retained> {
    let mut out = LoopOutcome {
        samples: Vec::new(),
        failed: 0,
        errors: Vec::new(),
        digest: None,
        retained: Vec::new(),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // Operations run and operations timed of each kind, by `events`.
    let mut runs = [0u64; 2];
    let mut timed_runs = [0u64; 2];
    // Plain-operation time still owed to the last operation with events.
    let mut owed = Duration::ZERO;
    let mut after_events = false;
    let mut i = 0u64;
    // At least two timed operations of each kind, so every sample exists.
    while timed_runs[0] < 2 || (W::TRACE_REPLAYS && timed_runs[1] < 2) || Instant::now() < deadline
    {
        let events = W::TRACE_REPLAYS && i > 0 && owed.is_zero();
        let spans = args.trace && runs[usize::from(events)].is_multiple_of(2);
        runs[usize::from(events)] += 1;
        tracer.set_enabled(spans);
        tracer.set_op(i);
        let seed = mix(args.seed, i);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            tracer.span(W::OP_SPAN, || w.op(seed, events, tracer))
        }));
        let wall = start.elapsed();
        let timed = events || !after_events;
        timed_runs[usize::from(events)] += u64::from(timed);
        after_events = events;
        owed = if events {
            wall.mul_f64(PLAIN_SHARE)
        } else {
            owed.saturating_sub(wall)
        };
        match result {
            Ok(Ok(r)) => {
                out.samples.push(Sample {
                    events,
                    spans,
                    timed,
                    wall,
                    work: r.work,
                    devices: r.devices,
                });
                if i == 0 {
                    out.digest = Some(r.digest);
                }
                if i.is_multiple_of(W::ORACLE_STRIDE) && i / W::ORACLE_STRIDE < ORACLE_SAMPLES {
                    out.retained.push((i, r.retained));
                }
            }
            Ok(Err(e)) => {
                out.failed += 1;
                out.errors.push(format!("op {i}: {e}"));
            }
            Err(p) => {
                out.failed += 1;
                out.errors
                    .push(format!("op {i} panicked: {}", panic_message(&*p)));
            }
        }
        i += 1;
    }
    tracer.set_enabled(false);
    out
}

fn drive<W: Workload>(args: &Args) -> Result<(), String> {
    let mut report = String::new();
    let nproc = stats::nproc();
    let _ = writeln!(
        report,
        "perfbench: workload={} seed={} seconds={} trace={} size={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size.name,
    );
    let _ = writeln!(
        report,
        "host: nproc={nproc} threads={THREADS} fanout_threads={FANOUT_THREADS} profile={} git_rev={}{}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        stats::git_rev(),
        if nproc < FANOUT_THREADS {
            " WARNING: fewer cores than fan-out threads, fanout_gain figures are not meaningful"
        } else {
            ""
        },
    );
    let _ = writeln!(
        report,
        "load: closed loop, one client, next operation starts when the previous returns"
    );
    let _ = writeln!(
        report,
        "validation: simulated statistics are checked only against the behavioural \
         oracle; there is no hardware reference, so no model error figure is given"
    );

    let probe_before = stats::host_probe_ns();
    let (w, setup_times) = set_up::<W>(args)?;
    settle(&w, args)?;
    let tracer = Tracer::new(args.trace);
    let ticks = stats::CpuTicks::now();
    let mut lp = closed_loop(&w, args, &tracer);
    let rss_mb = stats::peak_rss_mb()?;
    if let (Some(before), Some(after)) = (ticks, stats::CpuTicks::now()) {
        let (steal, others) = after.since(&before, nproc);
        let _ = writeln!(
            report,
            "host load during the timed loop: {:.2} % of CPU time stolen by the hypervisor, \
             {others:.2} cores busy with other processes",
            steal * 100.0
        );
    }
    let _ = writeln!(
        report,
        "host speed probe: {probe_before:.4} ns/step before set-up, {:.4} ns/step after the \
         timed loop (a change between runs of the same code is the host, not the program)",
        stats::host_probe_ns()
    );

    // The oracle, outside the timed region.
    let mut oracle_failures = 0u64;
    for (i, retained) in &lp.retained {
        let verdict = catch_unwind(AssertUnwindSafe(|| w.oracle(mix(args.seed, *i), retained)));
        let failure = match verdict {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(e),
            Err(p) => Some(format!("oracle panicked: {}", panic_message(&*p))),
        };
        if let Some(e) = failure {
            oracle_failures += 1;
            lp.errors.push(format!("op {i} fails the oracle: {e}"));
        }
    }
    let attempted = lp.samples.len() as u64 + lp.failed;
    let failed = lp.failed + oracle_failures;
    for e in &lp.errors {
        let _ = writeln!(report, "error: {e}");
    }
    let _ = writeln!(
        report,
        "oracle: {} sampled operation(s) checked, {oracle_failures} failed",
        lp.retained.len()
    );
    let _ = writeln!(
        report,
        "failed_frac = {} ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    let digest = lp.digest.ok_or("the first operation failed, no digest")?;
    let _ = writeln!(
        report,
        "digest: {digest:016x} (simulated statistics of operation 0 at seed {})",
        args.seed
    );

    let e2e = end_to_end::<W>(&lp, &setup_times, rss_mb, &mut report)?;
    named_figures::<W>(&lp, &mut report);

    let (metrics, attempted, failed) = if args.trace {
        let layers = traced_report::<W>(args, &tracer, &lp, &mut report)?;
        // Each check of a re-drive against its engine counts as one more
        // operation, failed if the two disagree.
        let attempted = attempted + layers.checks;
        let failed = failed + layers.failures.len() as u64;
        (layers, attempted, failed)
    } else {
        (e2e, attempted, failed)
    };
    for (name, value, unit) in &metrics.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value} {unit})"));
        }
    }
    print!("{report}");
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    Ok(())
}

/// Wall times in ms of the operations that requested their event trace.
/// Where the trace does not replay the simulation, no operation asks for
/// it separately and these are the plain operations' times.
fn traced_ms<W: Workload>(lp: &LoopOutcome<W::Retained>) -> Vec<f64> {
    lp.op_ms(W::TRACE_REPLAYS, None)
}

/// The end-to-end metrics (every workload reports all of them).
fn end_to_end<W: Workload>(
    lp: &LoopOutcome<W::Retained>,
    setup_times: &[f64],
    rss_mb: f64,
    report: &mut String,
) -> Result<Sheet, String> {
    let plain_ms = lp.op_ms(false, None);
    let traced = traced_ms::<W>(lp);
    if plain_ms.is_empty() || traced.is_empty() {
        return Err("too few successful operations to report".to_owned());
    }
    let work: u64 = lp.timed(false).map(|s| s.work).sum();
    let busy_s: f64 = plain_ms.iter().sum::<f64>() / 1e3;
    let mut sheet = Sheet::default();
    sheet.put("scenario_trials_per_s", work as f64 / busy_s, "1/s");
    sheet.put("op_ms_iqm", interquartile_mean(&plain_ms), "ms");
    sheet.put("traced_op_ms_iqm", interquartile_mean(&traced), "ms");
    sheet.put("setup_s", median(setup_times), "s");
    sheet.put("peak_rss_mb", rss_mb, "MB");
    let counts = [
        plain_ms.len(),
        plain_ms.len(),
        traced.len(),
        setup_times.len(),
        1,
    ];
    let better = ["higher", "lower", "lower", "lower", "lower"];
    for (((name, value, unit), n), b) in sheet.metrics.iter().zip(counts).zip(better) {
        let _ = writeln!(
            report,
            "metric {name} = {value} {unit} ({b} is better; n={n})"
        );
    }
    if !W::TRACE_REPLAYS {
        let _ = writeln!(
            report,
            "note: this workload's events come with the run itself, so traced_op_ms_iqm \
             is taken over the same operations as op_ms_iqm"
        );
    }
    Ok(sheet)
}

/// The workload-specific figures the end-to-end metrics stand for,
/// printed under their own names.
fn named_figures<W: Workload>(lp: &LoopOutcome<W::Retained>, report: &mut String) {
    let plain = lp.op_ms(false, None);
    let traced = traced_ms::<W>(lp);
    let p95 = if plain.len() * 5 / 100 >= TAIL_SAMPLES {
        format!("{} ms", quantile(&plain, 0.95))
    } else {
        format!(
            "n/a (needs {} samples, has {})",
            TAIL_SAMPLES * 20,
            plain.len()
        )
    };
    match W::FIGURE {
        Figure::Campaign => {
            let _ = writeln!(
                report,
                "campaign_ms_p50 = {} ms (n={}); campaign_ms_p95 = {p95}; \
                 traced_campaign_ms_p50 = {} ms (n={})",
                median(&plain),
                plain.len(),
                median(&traced),
                traced.len()
            );
        }
        Figure::Devices => {
            let devices: u64 = lp.timed(false).map(|s| s.devices).sum();
            let secs: f64 = plain.iter().sum::<f64>() / 1e3;
            let _ = writeln!(
                report,
                "devices_per_s = {} (over {} fleet runs)",
                devices as f64 / secs,
                plain.len()
            );
        }
        Figure::Search => {
            let _ = writeln!(
                report,
                "search_s = {} (median of {} searches)",
                median(&plain) / 1e3,
                plain.len()
            );
        }
    }
}

/// The traced run's report: span self times of the workload's own loop,
/// the unattributed remainder, tracing overhead, then every layer
/// re-driven on its designated shape. Returns the per-layer metrics.
fn traced_report<W: Workload>(
    args: &Args,
    tracer: &Tracer,
    lp: &LoopOutcome<W::Retained>,
    report: &mut String,
) -> Result<Sheet, String> {
    let totals = tracer.totals();
    let root = totals.get(W::OP_SPAN).copied().unwrap_or_default();
    let wall = root.total.as_secs_f64();
    let _ = writeln!(
        report,
        "\ntraced loop: {} spans over {} operations, {wall} s inside operation spans",
        tracer.spans().len(),
        root.count
    );
    for (name, t) in &totals {
        let _ = writeln!(
            report,
            "  span {name:<26} count {:>6}  total {:>10.3} ms  self {:>10.3} ms  self share {:.4}",
            t.count,
            t.total.as_secs_f64() * 1e3,
            t.self_time.as_secs_f64() * 1e3,
            t.self_time.as_secs_f64() / wall
        );
    }
    let unattributed = root.self_time.as_secs_f64() / wall;
    let on = lp.op_ms(false, Some(true));
    let off = lp.op_ms(false, Some(false));
    let overhead = interquartile_mean(&on) / interquartile_mean(&off) - 1.0;
    let _ = writeln!(
        report,
        "unattributed remainder: {unattributed} of traced wall time; tracing overhead: {overhead} \
         (interquartile mean op with spans {} ms, n={}, without {} ms, n={})",
        interquartile_mean(&on),
        on.len(),
        interquartile_mean(&off),
        off.len()
    );
    let spans_path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));

    // Every layer, each on the shape the benchmark measures it on.
    let layers = Tracer::new(true);
    let mut sheet = Sheet::default();
    let seed = args.seed;
    layers.set_op(u64::MAX);
    layers.span("redrive.memory", || {
        campaign::redrive(args.size, seed, &layers, &mut sheet)
    })?;
    layers.span("redrive.system", || {
        system::redrive(args.size, seed, &layers, &mut sheet)
    })?;
    layers.span("redrive.fleet", || {
        fleet::redrive(args.size, seed, &layers, &mut sheet)
    })?;
    layers.span("redrive.explore", || {
        explore::redrive(args.size, seed, &layers, &mut sheet)
    })?;
    sheet.put("trace.unattributed_frac", unattributed, "ratio");
    sheet.put("trace.overhead_frac", overhead, "ratio");

    let layer_totals = layers.totals();
    let _ = writeln!(report, "\nlayer re-drive spans:");
    for (name, t) in &layer_totals {
        let _ = writeln!(
            report,
            "  span {name:<26} count {:>6}  total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total.as_secs_f64() * 1e3,
            t.self_time.as_secs_f64() * 1e3,
        );
    }
    for note in &sheet.notes {
        let _ = writeln!(report, "note: {note}");
    }
    let _ = writeln!(
        report,
        "re-drive checks: {} made, {} failed",
        sheet.checks,
        sheet.failures.len()
    );
    for failure in &sheet.failures {
        let _ = writeln!(report, "error: {failure}");
    }
    for (name, value, unit) in &sheet.metrics {
        let _ = writeln!(report, "layer {name} = {value} {unit}");
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create out/: {e}"))?;
    tracer.write_jsonl(&spans_path)?;
    let layer_path = out_dir().join(format!("layers-{}-seed{}.jsonl", args.workload, args.seed));
    layers.write_jsonl(&layer_path)?;
    let _ = writeln!(
        report,
        "spans -> {} and {}",
        spans_path.display(),
        layer_path.display()
    );
    Ok(sheet)
}

fn result_json(correct: bool, attempted: u64, failed: u64, sheet: &Sheet) -> String {
    let metrics: Vec<String> = sheet
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
