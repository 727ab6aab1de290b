//! `campaign-mix-wide`: the `scm campaign` worked design (1Kx16,
//! 3-out-of-5, a = 9, mux 8) over `mixed_universe(…, 48, …)` — about 452
//! scenarios in one 512-lane slab — scrub period 4, 200 cycles, 64
//! trials, uniform traffic, a fresh campaign seed per operation.
//!
//! Its shape also measures the memory layer (arena, slab build, slab
//! stepping, engine remainder, fan-out) and the obs layer (event trace).

use crate::bench::{
    self_s, stages_s, Figure, OpResult, Sheet, Size, Workload, FANOUT_THREADS, LANE_WIDTH, PASSES,
    THREADS,
};
use crate::span::Tracer;
use crate::stats::{digest, median, mix};
use scm_core::SelfCheckingRamBuilder;
use scm_memory::campaign::{mixed_universe, CampaignConfig, CampaignResult};
use scm_memory::design::RamConfig;
use scm_memory::engine::CampaignEngine;
use scm_memory::fault::FaultScenario;
use scm_memory::sliced::shared_trial_seed;
use scm_memory::workload::{model_by_name, Op, ScrubInterleaver, WorkloadModel};
use scm_memory::{
    measure_detection_on, measure_detection_sliced, slab_words, BehavioralBackend, FaultSimBackend,
    OpStreamArena, ReplayOps, SlicedBackend, WorkloadSpec,
};
use scm_obs::trace_text;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SCRUB_PERIOD: u64 = 4;
const WRITE_FRACTION: f64 = 0.1;
/// The campaign engine's prefill-seed convention (`seed ^ 0xF1E1D1`),
/// mirrored so the oracle and the re-drive build the same memory image.
const PREFILL_TAG: u64 = 0xF1E1D1;
/// Faults per sampled operation replayed on the behavioural backend.
const REPLAYED_FAULTS: usize = 8;

pub struct CampaignMixWide {
    size: Size,
    config: RamConfig,
    model: Arc<dyn WorkloadModel>,
}

/// The campaign's scenarios and its result, kept for the oracle.
pub type Retained = (Vec<FaultScenario>, CampaignResult);

impl CampaignMixWide {
    fn engine(&self, seed: u64) -> CampaignEngine {
        CampaignEngine::new(CampaignConfig {
            cycles: self.size.campaign_cycles,
            trials: self.size.campaign_trials,
            seed,
            write_fraction: WRITE_FRACTION,
        })
        .workload_model(self.model.clone())
        .threads(THREADS)
        .scrub(SCRUB_PERIOD)
        .sliced(true)
        .lane_width(LANE_WIDTH)
    }

    fn universe(&self, seed: u64) -> Vec<FaultScenario> {
        mixed_universe(
            &self.config,
            self.size.campaign_per_class,
            self.size.campaign_cycles,
            seed,
        )
    }

    fn spec(&self) -> WorkloadSpec {
        let org = self.config.org();
        WorkloadSpec {
            words: org.words(),
            word_bits: org.word_bits(),
            write_fraction: WRITE_FRACTION,
        }
    }

    /// Detected count, escape count and detection-cycle sum of one
    /// scenario over every trial, replayed on the behavioural backend
    /// over the shared-trial streams the sliced engine uses.
    fn behavioural_replay(&self, seed: u64, scenario: &FaultScenario) -> (u32, u32, u64) {
        let mut backend = BehavioralBackend::prefilled(&self.config, seed ^ PREFILL_TAG);
        let spec = self.spec();
        let (mut detected, mut escapes, mut cycle_sum) = (0, 0, 0);
        for trial in 0..self.size.campaign_trials {
            backend.reset(Some(scenario));
            let stream = self.model.stream(spec, shared_trial_seed(seed, trial));
            let mut ops = ScrubInterleaver::new(stream, SCRUB_PERIOD, spec.words);
            let out = measure_detection_on(&mut backend, &mut ops, self.size.campaign_cycles);
            if let Some(d) = out.first_detection {
                detected += 1;
                cycle_sum += d;
            }
            if out.error_escaped() {
                escapes += 1;
            }
        }
        (detected, escapes, cycle_sum)
    }
}

impl Workload for CampaignMixWide {
    type Retained = Retained;
    const OP_SPAN: &'static str = "campaign";
    const FIGURE: Figure = Figure::Campaign;
    const ORACLE_STRIDE: u64 = 40;
    const TRACE_REPLAYS: bool = true;

    fn setup(size: Size) -> Result<Self, String> {
        let design = SelfCheckingRamBuilder::new(1024, 16)
            .mux_factor(8)
            .latency_budget(10, 1e-9)
            .map_err(|e| e.to_string())?
            .build()
            .map_err(|e| e.to_string())?;
        Ok(CampaignMixWide {
            size,
            config: design.config().clone(),
            model: model_by_name("uniform").ok_or("no uniform workload model")?,
        })
    }

    fn op(&self, seed: u64, events: bool, t: &Tracer) -> Result<OpResult<Retained>, String> {
        let scenarios = t.span("memory.mixed_universe", || self.universe(seed));
        let engine = self.engine(seed);
        let result = t.span("memory.run_scenarios", || {
            engine.run_scenarios(&self.config, &scenarios)
        });
        if events {
            let trace = t.span("obs.trace_scenarios", || {
                engine.trace_scenarios(&self.config, &scenarios)
            });
            let text = t.span("obs.trace_text", || {
                trace_text("campaign", "cycles", &trace)
            });
            black_box(text);
        }
        Ok(OpResult {
            work: result.per_fault.iter().map(|f| f.trials as u64).sum(),
            devices: 0,
            digest: digest(&result.determinism_profile()),
            retained: (scenarios, result),
        })
    }

    fn oracle(&self, seed: u64, (scenarios, result): &Retained) -> Result<(), String> {
        let reference = self
            .engine(seed)
            .threads(1)
            .lane_width(1)
            .run_scenarios(&self.config, scenarios);
        if reference.determinism_profile() != result.determinism_profile() {
            return Err("campaign differs from the 1-thread lane-width-1 run".to_owned());
        }
        let parallel = self
            .engine(seed)
            .threads(FANOUT_THREADS)
            .run_scenarios(&self.config, scenarios);
        if parallel.determinism_profile() != result.determinism_profile() {
            return Err(format!("campaign differs at {FANOUT_THREADS} threads"));
        }
        let stride = (scenarios.len() / REPLAYED_FAULTS).max(1);
        for f in (0..scenarios.len()).step_by(stride).take(REPLAYED_FAULTS) {
            let got = &result.per_fault[f];
            let want = self.behavioural_replay(seed, &scenarios[f]);
            if (got.detected, got.error_escapes, got.detection_cycle_sum) != want {
                return Err(format!(
                    "fault {f} ({}): sliced (detected, escapes, cycle sum) = {:?}, \
                     behavioural replay = {want:?}",
                    scenarios[f],
                    (got.detected, got.error_escapes, got.detection_cycle_sum),
                ));
            }
        }
        Ok(())
    }
}

/// Memory and obs layers. Per grid: the event trace once, then
/// `PASSES` passes of the engine at two threads, the same engine forced
/// serial, and a serial re-drive of the engine's own stages through
/// their public entry points — `OpStreamArena::prepare`,
/// `SlicedBackend::prefilled` and `measure_detection_sliced` over
/// `ReplayOps`. The serial engine's time not covered by those stages is
/// `memory.engine.other_s`. Every pass must reproduce the engine's
/// result.
pub fn redrive(size: Size, seed: u64, t: &Tracer, sheet: &mut Sheet) -> Result<(), String> {
    const STAGES: [&str; 3] = [
        "memory.sliced.step",
        "memory.sliced.build",
        "memory.arena.prepare",
    ];
    let w = CampaignMixWide::setup(size)?;
    let (mut lane_cycles, mut builds, mut streams, mut ops) = (0u64, 0u64, 0u64, 0u64);
    let (mut filled, mut capacity, mut trace_events) = (0usize, 0usize, 0u64);
    let mut other = 0.0;
    for g in 0..size.memory_grids {
        let seed = mix(seed ^ 0x3E3, g as u64);
        let scenarios = w.universe(seed);
        let engine = w.engine(seed);
        let occupancy = engine.occupancy(scenarios.len());
        filled += occupancy.filled;
        capacity += occupancy.capacity;
        let events = t.span("obs.trace", || {
            engine.trace_scenarios(&w.config, &scenarios)
        });
        trace_events += events.len() as u64;

        let parallel_engine = w.engine(seed).threads(FANOUT_THREADS);
        let serial_engine = w.engine(seed).threads(1).serial_threshold(u64::MAX);
        let mut remainders = Vec::with_capacity(PASSES);
        for pass in 0..PASSES {
            let parallel = t.span("memory.engine.run", || {
                parallel_engine.run_scenarios(&w.config, &scenarios)
            });
            let start = Instant::now();
            let serial = t.span("memory.engine.serial", || {
                serial_engine.run_scenarios(&w.config, &scenarios)
            });
            let serial_s = start.elapsed().as_secs_f64();
            let before = stages_s(t, &STAGES);

            let arena = OpStreamArena::new();
            let trial_streams = t.span("memory.arena.prepare", || {
                arena.prepare(
                    &w.model,
                    w.spec(),
                    seed,
                    SCRUB_PERIOD,
                    size.campaign_trials,
                    size.campaign_cycles,
                )
            });
            let mut detected = Vec::with_capacity(scenarios.len());
            let mut cycles_stepped = 0;
            for chunk in scenarios.chunks(LANE_WIDTH) {
                let (cycles, counts) = by_slab_words!(
                    chunk.len(),
                    redrive_chunk(
                        &w.config,
                        chunk,
                        seed ^ PREFILL_TAG,
                        &trial_streams,
                        size.campaign_cycles,
                        t
                    )
                );
                cycles_stepped += cycles;
                detected.extend(counts);
            }
            remainders.push(serial_s - (stages_s(t, &STAGES) - before));

            let engine_counts: Vec<(u32, u64)> = parallel
                .per_fault
                .iter()
                .map(|f| (f.detected, f.detection_cycle_sum))
                .collect();
            sheet.check(engine_counts == detected, || {
                format!(
                    "memory re-drive of grid {g} pass {pass} disagrees with the engine's result"
                )
            });
            sheet.check(
                serial.determinism_profile() == parallel.determinism_profile(),
                || format!("memory grid {g} pass {pass}: forced-serial engine differs at {FANOUT_THREADS} threads"),
            );
            if pass == 0 {
                streams += arena.generated_streams();
                ops += trial_streams.iter().map(|s| s.len() as u64).sum::<u64>();
                builds += scenarios.chunks(LANE_WIDTH).len() as u64;
                lane_cycles += cycles_stepped;
            }
        }
        other += median(&remainders);
    }
    let totals = t.totals();
    let per_pass = |name: &str| self_s(&totals, name) / PASSES as f64;
    let step = per_pass("memory.sliced.step");
    let run = per_pass("memory.engine.run");
    let serial = per_pass("memory.engine.serial");
    sheet.put("memory.sliced.step_s", step, "s");
    sheet.put("memory.sliced.lane_cycles", lane_cycles as f64, "count");
    sheet.put(
        "memory.sliced.ns_per_lane_cycle",
        step * 1e9 / lane_cycles.max(1) as f64,
        "ns",
    );
    sheet.put(
        "memory.sliced.build_s",
        per_pass("memory.sliced.build"),
        "s",
    );
    sheet.put("memory.sliced.builds", builds as f64, "count");
    sheet.put(
        "memory.sliced.occupancy",
        filled as f64 / capacity.max(1) as f64,
        "ratio",
    );
    sheet.put(
        "memory.arena.prepare_s",
        per_pass("memory.arena.prepare"),
        "s",
    );
    sheet.put("memory.arena.streams_generated", streams as f64, "count");
    sheet.put("memory.arena.ops", ops as f64, "count");
    sheet.put("memory.engine.run_s", run, "s");
    sheet.put("memory.engine.serial_s", serial, "s");
    sheet.put("memory.engine.other_s", other, "s");
    sheet.put("memory.engine.fanout_gain", serial / run, "ratio");
    sheet.put("obs.trace_s", self_s(&totals, "obs.trace"), "s");
    sheet.put("obs.trace_events", trace_events as f64, "count");
    Ok(())
}

/// Build one lane chunk's slab and step it through every trial's
/// replayed stream, as the engine's sliced block does. Returns the lane
/// cycles stepped and each lane's (detected trials, detection-cycle sum).
fn redrive_chunk<const W: usize>(
    config: &RamConfig,
    chunk: &[FaultScenario],
    prefill_seed: u64,
    streams: &[Arc<Vec<Op>>],
    cycles: u64,
    t: &Tracer,
) -> (u64, Vec<(u32, u64)>) {
    let mut backend = t.span("memory.sliced.build", || {
        SlicedBackend::<W>::prefilled(config, chunk, prefill_seed)
    });
    let mut lane_cycles = 0u64;
    let mut counts = vec![(0u32, 0u64); chunk.len()];
    for stream in streams {
        backend.reset();
        let mut replay = ReplayOps::new(stream);
        let outcomes = t.span("memory.sliced.step", || {
            measure_detection_sliced(&mut backend, &mut replay, cycles)
        });
        // The slab steps every lane until the last one detects.
        let stepped = outcomes.iter().map(|o| o.cycles_run).max().unwrap_or(0);
        lane_cycles += stepped * chunk.len() as u64;
        for (c, o) in counts.iter_mut().zip(&outcomes) {
            if let Some(d) = o.first_detection {
                c.0 += 1;
                c.1 += d;
            }
        }
    }
    (lane_cycles, counts)
}
