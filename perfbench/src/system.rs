//! `system-seu-narrow`: the `scm system` four heterogeneous banks behind
//! a low-order interleaver, 12 transient SEU strikes per bank (mean gap
//! 40 cycles), scrub period 4, checkpoint every 64 cycles, 240 cycles,
//! 64 trials. At most 12 lanes per bank means one-word slabs, so
//! per-chunk slab builds, traffic projection and fan-out dominate.
//!
//! Its shape also measures the system layer.

use crate::bench::{
    self_s, stages_s, Figure, OpResult, Sheet, Size, Workload, FANOUT_THREADS, LANE_WIDTH, PASSES,
    THREADS,
};
use crate::span::Tracer;
use crate::stats::{digest, median, mix};
use scm_area::RamOrganization;
use scm_codes::{CodewordMap, MOutOfN};
use scm_memory::campaign::CampaignConfig;
use scm_memory::design::RamConfig;
use scm_memory::fault::FaultScenario;
use scm_memory::workload::{model_by_name, Op, WorkloadModel};
use scm_memory::{slab_words, LaneSet, SlicedBackend};
use scm_obs::trace_text;
use scm_system::{
    seed_mix, CheckpointSchedule, Interleaving, ScrubSchedule, SeuProcess, SystemCampaign,
    SystemClock, SystemConfig, SystemFault, SystemResult,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const WRITE_FRACTION: f64 = 0.1;
const SEU_MEAN_GAP: f64 = 40.0;
/// The system engine's traffic-seed and bank-prefill conventions,
/// mirrored so the re-drive replays the engine's own grid.
const TRAFFIC_TAG: u64 = 0x51_1CED;
const PREFILL_TAG: u64 = 0xF1E1_D100;

pub struct SystemSeuNarrow {
    size: Size,
    system: SystemConfig,
    model: Arc<dyn WorkloadModel>,
}

/// The strike universe and the campaign's result, kept for the oracle.
pub type Retained = (Vec<SystemFault>, SystemResult);

impl SystemSeuNarrow {
    fn engine(&self, seed: u64) -> SystemCampaign {
        SystemCampaign::new(
            self.system.clone(),
            CampaignConfig {
                cycles: self.size.system_cycles,
                trials: self.size.system_trials,
                seed,
                write_fraction: WRITE_FRACTION,
            },
        )
        .workload_model(self.model.clone())
        .threads(THREADS)
        .sliced(true)
        .lane_width(LANE_WIDTH)
    }

    fn universe(&self, engine: &SystemCampaign) -> Vec<SystemFault> {
        engine.seu_universe(
            self.size.system_strikes_per_bank,
            &SeuProcess::new(SEU_MEAN_GAP),
        )
    }

    /// The `(cycle, op)` pairs `bank` serves in one trial: the walk of
    /// the shared system clock the engine projects each bank's traffic by.
    fn project(&self, seed: u64, bank: usize, trial: u32) -> Vec<(u64, Op)> {
        let spec = self.system.workload_spec(WRITE_FRACTION);
        let traffic = self.model.stream(
            spec,
            seed_mix(seed ^ TRAFFIC_TAG, &[bank as u64, trial as u64]),
        );
        let mut clock = SystemClock::new(self.system.interleaver(), self.system.scrub, traffic);
        let mut served = Vec::new();
        for cycle in 0..self.size.system_cycles {
            let (target, op) = clock.next_event().target();
            if target == bank {
                served.push((cycle, op));
            }
        }
        served
    }
}

impl Workload for SystemSeuNarrow {
    type Retained = Retained;
    const OP_SPAN: &'static str = "system";
    const FIGURE: Figure = Figure::Campaign;
    const ORACLE_STRIDE: u64 = 100;
    const TRACE_REPLAYS: bool = true;

    fn setup(size: Size) -> Result<Self, String> {
        let code = MOutOfN::new(3, 5).map_err(|e| e.to_string())?;
        let bank = |words: u64, word_bits: u32, mux: u32, a: u64| -> Result<RamConfig, String> {
            let org = RamOrganization::new(words, word_bits, mux);
            let row_map = CodewordMap::mod_a(code, a, org.rows()).map_err(|e| e.to_string())?;
            let col_map =
                CodewordMap::mod_a(code, a, org.mux_factor() as u64).map_err(|e| e.to_string())?;
            Ok(RamConfig::new(org, row_map, col_map))
        };
        Ok(SystemSeuNarrow {
            size,
            system: SystemConfig {
                banks: vec![
                    bank(1024, 16, 8, 9)?,
                    bank(512, 8, 4, 9)?,
                    bank(256, 8, 4, 7)?,
                    bank(64, 8, 4, 9)?,
                ],
                interleaving: Interleaving::LowOrder,
                scrub: ScrubSchedule { period: 4 },
                checkpoint: CheckpointSchedule { interval: 64 },
            },
            model: model_by_name("uniform").ok_or("no uniform workload model")?,
        })
    }

    fn op(&self, seed: u64, events: bool, t: &Tracer) -> Result<OpResult<Retained>, String> {
        let engine = self.engine(seed);
        let universe = t.span("system.seu_universe", || self.universe(&engine));
        let result = t.span("system.run", || engine.run(&universe));
        if events {
            let trace = t.span("obs.system_trace", || engine.trace(&universe));
            let text = t.span("obs.trace_text", || trace_text("system", "cycles", &trace));
            black_box(text);
        }
        Ok(OpResult {
            work: result.per_fault.iter().map(|f| f.trials as u64).sum(),
            devices: 0,
            digest: digest(&result.determinism_profile()),
            retained: (universe, result),
        })
    }

    fn oracle(&self, seed: u64, (universe, result): &Retained) -> Result<(), String> {
        let reference = self.engine(seed).threads(1).lane_width(1).run(universe);
        if &reference != result {
            return Err("system campaign differs from the 1-thread lane-width-1 run".to_owned());
        }
        if &self.engine(seed).threads(FANOUT_THREADS).run(universe) != result {
            return Err(format!(
                "system campaign differs at {FANOUT_THREADS} threads"
            ));
        }
        Ok(())
    }
}

/// System layer. Per grid: the strike universe, then `PASSES` passes
/// of the engine at two threads, the engine forced serial, and a serial
/// re-drive of the engine's stages through public entry points — the
/// per-(bank, trial) walk of `SystemClock::next_event`, one
/// `SlicedBackend::prefilled` per bank chunk, and slab stepping over the
/// projected ops. The serial engine's time not covered by those stages
/// is `system.other_s`. Every pass must reproduce the engine's result.
pub fn redrive(size: Size, seed: u64, t: &Tracer, sheet: &mut Sheet) -> Result<(), String> {
    const STAGES: [&str; 3] = ["system.project", "system.build", "system.step"];
    let w = SystemSeuNarrow::setup(size)?;
    let (mut projected, mut chunks, mut lanes) = (0u64, 0u64, 0u64);
    let mut other = 0.0;
    for g in 0..size.system_grids {
        let seed = mix(seed ^ 0x5E5, g as u64);
        let engine = w.engine(seed);
        let universe = t.span("system.universe", || w.universe(&engine));
        let parallel_engine = w.engine(seed).threads(FANOUT_THREADS);
        let serial_engine = w.engine(seed).threads(1).serial_threshold(u64::MAX);
        let mut remainders = Vec::with_capacity(PASSES);
        for pass in 0..PASSES {
            let parallel = t.span("system.engine.run", || parallel_engine.run(&universe));
            let start = Instant::now();
            let serial = t.span("system.engine.serial", || serial_engine.run(&universe));
            let serial_s = start.elapsed().as_secs_f64();
            let before = stages_s(t, &STAGES);

            let mut detected = vec![(0u32, 0u64); universe.len()];
            for (bank, cfg) in w.system.banks.iter().enumerate() {
                let positions: Vec<usize> = (0..universe.len())
                    .filter(|&i| universe[i].bank == bank)
                    .collect();
                if positions.is_empty() {
                    continue;
                }
                let trials: Vec<Vec<(u64, Op)>> = (0..size.system_trials)
                    .map(|trial| t.span("system.project", || w.project(seed, bank, trial)))
                    .collect();
                if pass == 0 {
                    projected += trials.iter().map(|p| p.len() as u64).sum::<u64>();
                }
                for chunk in positions.chunks(LANE_WIDTH) {
                    let scenarios: Vec<FaultScenario> =
                        chunk.iter().map(|&p| universe[p].scenario()).collect();
                    let prefill = seed_mix(seed ^ PREFILL_TAG, &[bank as u64]);
                    let counts = by_slab_words!(
                        scenarios.len(),
                        redrive_bank_chunk(cfg, &scenarios, prefill, &trials, t)
                    );
                    if pass == 0 {
                        chunks += 1;
                        lanes += chunk.len() as u64;
                    }
                    for (&p, c) in chunk.iter().zip(counts) {
                        detected[p] = c;
                    }
                }
            }
            remainders.push(serial_s - (stages_s(t, &STAGES) - before));

            let engine_counts: Vec<(u32, u64)> = parallel
                .per_fault
                .iter()
                .map(|f| (f.detected, f.detection_cycle_sum))
                .collect();
            sheet.check(engine_counts == detected, || {
                format!(
                    "system re-drive of grid {g} pass {pass} disagrees with the engine's result"
                )
            });
            sheet.check(serial == parallel, || {
                format!("system grid {g} pass {pass}: forced-serial engine differs at {FANOUT_THREADS} threads")
            });
        }
        other += median(&remainders);
    }
    let totals = t.totals();
    let per_pass = |name: &str| self_s(&totals, name) / PASSES as f64;
    let run = per_pass("system.engine.run");
    let serial = per_pass("system.engine.serial");
    sheet.put("system.universe_s", self_s(&totals, "system.universe"), "s");
    sheet.put("system.project_s", per_pass("system.project"), "s");
    sheet.put("system.project_events", projected as f64, "count");
    sheet.put("system.build_s", per_pass("system.build"), "s");
    sheet.put("system.chunks", chunks as f64, "count");
    sheet.put(
        "system.lanes_per_chunk",
        lanes as f64 / chunks.max(1) as f64,
        "lanes",
    );
    sheet.put("system.step_s", per_pass("system.step"), "s");
    sheet.put("system.run_s", run, "s");
    sheet.put("system.serial_s", serial, "s");
    sheet.put("system.other_s", other, "s");
    sheet.put("system.fanout_gain", serial / run, "ratio");
    Ok(())
}

/// Build one bank chunk's slab and step it through every trial's
/// projected ops with gap-advance, latching first detections and
/// retiring detected lanes, as the engine's sliced block does. Returns
/// each lane's (detected trials, detection-cycle sum).
fn redrive_bank_chunk<const W: usize>(
    config: &RamConfig,
    scenarios: &[FaultScenario],
    prefill_seed: u64,
    trials: &[Vec<(u64, Op)>],
    t: &Tracer,
) -> Vec<(u32, u64)> {
    let mut backend = t.span("system.build", || {
        SlicedBackend::<W>::prefilled(config, scenarios, prefill_seed)
    });
    let all = backend.lane_mask();
    let mut counts = vec![(0u32, 0u64); scenarios.len()];
    for served in trials {
        backend.reset();
        let mut seen = LaneSet::<W>::EMPTY;
        t.span("system.step", || {
            for &(cycle, op) in served {
                backend.advance(cycle - backend.cycle());
                let new_det = backend.step(op).detected() & !seen & all;
                new_det.for_each_lane(|lane| {
                    counts[lane].0 += 1;
                    counts[lane].1 += cycle;
                });
                seen |= new_det;
                if seen == all {
                    break;
                }
                backend.retire(new_det);
            }
        });
    }
    counts
}
