//! The parallel fault-injection campaign engine.
//!
//! One engine runs the whole fault × trial grid of a Monte-Carlo campaign
//! through a [`FaultSimBackend`] on the shared [`grid`] runner.
//! Determinism is a hard contract:
//!
//! * every trial's workload stream is a pure function of the campaign
//!   seed and its grid coordinates — `(seed, fault, trial)` on the scalar
//!   path, `(seed, trial)` on the sliced path, where every lane block of
//!   a trial shares one stream ([`shared_trial_seed`]),
//! * per-fault statistics are sums of per-trial counters, which commute,
//!
//! so the result is **bit-identical at every thread count** — the
//! single-thread run is the specification, the parallel run is just
//! faster. The determinism test in `tests/campaign_engine.rs` enforces
//! this.
//!
//! Scalar grids decompose fault-major into trial blocks at
//! [`grid::SCALAR_BLOCKS_PER_WORKER`]: when the fault universe is wide
//! each block is one fault's full trial set; when callers probe few
//! faults with many trials, trial ranges split so every worker still gets
//! enough blocks to steal. Sliced grids decompose lane blocks at
//! [`grid::SLAB_BLOCKS_PER_WORKER`], since every trial range rebuilds its
//! slab.

use crate::arena::{OpStreamArena, ReplayOps, ARENA_OP_BUDGET};
use crate::backend::{BehavioralBackend, FaultSimBackend};
use crate::campaign::{CampaignConfig, CampaignResult, FaultResult};
use crate::design::RamConfig;
use crate::fault::{FaultScenario, FaultSite};
use crate::grid::{self, Block, DEFAULT_SERIAL_THRESHOLD};
use crate::sim::measure_detection_on;
use crate::sliced::{
    measure_detection_sliced, shared_trial_seed, slab_words, SlicedBackend, MAX_SLAB_LANES,
};
use crate::workload::{
    AddressPattern, FixedPattern, Op, OpStream, ScrubInterleaver, UniformRandom, WorkloadModel,
    WorkloadSpec,
};
use scm_area::RamOrganization;
use scm_obs::{sort_chronological, Event, EventKind};
use std::sync::Arc;

/// Parallel campaign runner over any [`FaultSimBackend`].
#[derive(Debug, Clone)]
pub struct CampaignEngine {
    campaign: CampaignConfig,
    model: Arc<dyn WorkloadModel>,
    threads: usize,
    scrub_period: u64,
    sliced: bool,
    lane_width: usize,
    serial_threshold: u64,
    arena: Option<Arc<OpStreamArena>>,
}

/// How full the sliced engine's lane blocks are for one grid: `filled`
/// scenarios over `capacity` slab lanes across `blocks` packs. The gap
/// is the partial-final-block waste the campaign CLI surfaces as its
/// `occupancy:` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneOccupancy {
    /// Scenario lanes actually carrying a fault.
    pub filled: usize,
    /// Total lanes allocated (each block rounds up to whole slab words).
    pub capacity: usize,
    /// Number of lane blocks the grid splits into.
    pub blocks: usize,
    /// The configured lane width (scenarios per block, before rounding).
    pub width: usize,
}

impl CampaignEngine {
    /// Engine with the given campaign parameters, the paper's uniform
    /// workload model, no scrubbing, and the ambient rayon thread count.
    pub fn new(campaign: CampaignConfig) -> Self {
        CampaignEngine {
            campaign,
            model: Arc::new(UniformRandom),
            threads: 0,
            scrub_period: 0,
            sliced: false,
            lane_width: MAX_SLAB_LANES,
            serial_threshold: DEFAULT_SERIAL_THRESHOLD,
            arena: None,
        }
    }

    /// Largest `scenario × trial` grid that skips the rayon fan-out and
    /// runs serially on the calling thread (`0` = always fan out).
    /// Purely a scheduling knob: block decomposition and the in-order
    /// merge are unchanged, so results stay bit-identical either way.
    pub fn serial_threshold(mut self, cells: u64) -> Self {
        self.serial_threshold = cells;
        self
    }

    /// Merge a background scrubber into every trial's stream: each
    /// `period`-th cycle becomes a sequential sweep read
    /// ([`ScrubInterleaver`]; `0` = off, the default — bit-identical to
    /// the unscrubbed engine). Against transient flips this is the knob
    /// that turns "maybe never read" into "read within one sweep".
    pub fn scrub(mut self, period: u64) -> Self {
        self.scrub_period = period;
        self
    }

    /// Override the workload's address pattern (legacy convenience for the
    /// fixed [`AddressPattern`] shapes; equivalent to
    /// `workload_model(Arc::new(FixedPattern(pattern)))`).
    pub fn pattern(self, pattern: AddressPattern) -> Self {
        self.workload(FixedPattern(pattern))
    }

    /// Plug in a workload model by value.
    pub fn workload(mut self, model: impl WorkloadModel + 'static) -> Self {
        self.model = Arc::new(model);
        self
    }

    /// Plug in a shared workload model (e.g. one resolved from
    /// [`crate::workload::model_by_name`]).
    pub fn workload_model(mut self, model: Arc<dyn WorkloadModel>) -> Self {
        self.model = model;
        self
    }

    /// The workload model trials will run.
    pub fn model(&self) -> &Arc<dyn WorkloadModel> {
        &self.model
    }

    /// Pin the thread count (`0` = use the ambient rayon default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Route [`run_scenarios`](Self::run_scenarios) through the bit-sliced
    /// backend: up to [`lane_width`](Self::lane_width) scenarios share one
    /// simulation pass, each riding a bit lane of the packed slab state.
    ///
    /// The sliced engine keeps the bit-identical-at-any-thread-count
    /// contract and adds lane-packing invariance: the same grid at any
    /// lane width from 1 to 512 produces the same [`CampaignResult`]. Its
    /// workload seeding is shared across the lane block (common random
    /// numbers), so sliced results are *internally* deterministic but not
    /// numerically equal to the scalar engine's per-fault streams.
    pub fn sliced(mut self, sliced: bool) -> Self {
        self.sliced = sliced;
        self
    }

    /// Scenarios packed per simulation pass on the sliced path (clamped
    /// to `1..=`[`MAX_SLAB_LANES`]; default 512). Each block runs at the
    /// narrowest multi-word slab that fits it ([`slab_words`]), so any
    /// width is exact — narrower widths exist for the lane-packing
    /// invariance tests, production runs want the default.
    pub fn lane_width(mut self, width: usize) -> Self {
        self.lane_width = width.clamp(1, MAX_SLAB_LANES);
        self
    }

    /// Share a materialised op-stream arena with other engines (e.g.
    /// across guided-search fidelity rungs). Without one the engine
    /// builds a private arena per [`run_scenarios`](Self::run_scenarios)
    /// call; either way each trial's stream is generated exactly once
    /// per campaign while the grid fits [`ARENA_OP_BUDGET`].
    pub fn arena(mut self, arena: Arc<OpStreamArena>) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Lane occupancy of a `scenarios`-wide grid at the current lane
    /// width — what the campaign CLI prints as its `occupancy:` line.
    pub fn occupancy(&self, scenarios: usize) -> LaneOccupancy {
        let width = self.lane_width;
        let blocks = scenarios.div_ceil(width);
        let full = scenarios / width;
        let rem = scenarios % width;
        let capacity =
            full * slab_words(width) * 64 + if rem > 0 { slab_words(rem) * 64 } else { 0 };
        LaneOccupancy {
            filled: scenarios,
            capacity,
            blocks,
            width,
        }
    }

    /// The campaign parameters.
    pub fn campaign(&self) -> &CampaignConfig {
        &self.campaign
    }

    /// Run over the behavioural backend with the campaign convention's
    /// random prefill (the classic `run_campaign` entry point; every
    /// fault pinned from cycle 0).
    pub fn run(&self, config: &RamConfig, faults: &[FaultSite]) -> CampaignResult {
        let scenarios: Vec<FaultScenario> = faults
            .iter()
            .copied()
            .map(FaultScenario::permanent)
            .collect();
        self.run_scenarios(config, &scenarios)
    }

    /// Run a temporal-scenario grid over the behavioural backend with the
    /// campaign convention's random prefill — or, when
    /// [`sliced`](Self::sliced) is on, over the bit-sliced backend with
    /// the same prefill seed.
    pub fn run_scenarios(&self, config: &RamConfig, scenarios: &[FaultScenario]) -> CampaignResult {
        if self.sliced {
            return self.run_scenarios_sliced(config, scenarios);
        }
        let backend = BehavioralBackend::prefilled(config, self.campaign.seed ^ 0xF1E1D1);
        self.run_scenarios_on(&backend, scenarios)
    }

    /// Run the scenario × trial grid on the bit-sliced backend: scenarios
    /// are chunked into lane blocks of [`lane_width`](Self::lane_width),
    /// each block runs at the narrowest multi-word slab that fits it
    /// ([`slab_words`]), every trial advances all lanes of a block
    /// through one shared op-stream, and per-lane detection cycles come
    /// out of the packed detection masks. Trial streams are materialised
    /// once in the op-stream arena and replayed by reference per block
    /// (grids beyond [`ARENA_OP_BUDGET`] regenerate per block instead —
    /// bit-identical either way). Trial ranges split across workers only
    /// as far as the worker count demands
    /// ([`grid::SLAB_BLOCKS_PER_WORKER`]), and results are bit-identical
    /// at any thread count *and* at any lane width (the trial stream seed
    /// depends only on `(campaign seed, trial)`, never on lane geometry).
    ///
    /// # Panics
    /// Panics if the sliced backend does not
    /// [support](SlicedBackend::supports) one of the scenarios.
    pub fn run_scenarios_sliced(
        &self,
        config: &RamConfig,
        scenarios: &[FaultScenario],
    ) -> CampaignResult {
        if let Some(bad) = scenarios.iter().find(|s| !SlicedBackend::<1>::supports(s)) {
            panic!("backend 'sliced' cannot inject {bad:?}");
        }
        let chunks: Vec<&[FaultScenario]> = scenarios.chunks(self.lane_width).collect();
        let streams: Option<Vec<Arc<Vec<Op>>>> =
            ((self.campaign.trials as u64).saturating_mul(self.campaign.cycles) <= ARENA_OP_BUDGET)
                .then(|| {
                    self.arena.clone().unwrap_or_default().prepare(
                        &self.model,
                        self.spec(config.org()),
                        self.campaign.seed,
                        self.scrub_period,
                        self.campaign.trials,
                        self.campaign.cycles,
                    )
                });
        let per_chunk = grid::run(
            chunks.len(),
            self.campaign.trials,
            grid::SLAB_BLOCKS_PER_WORKER,
            self.threads,
            self.runs_serially(scenarios.len()),
            |block| {
                let chunk = chunks[block.item];
                crate::with_slab_words!(chunk.len(), W => {
                    self.run_sliced_block::<W>(config, chunk, block, streams.as_deref())
                })
            },
        );
        CampaignResult {
            per_fault: per_chunk.into_iter().flatten().collect(),
            config: self.campaign,
        }
    }

    /// One trial range of one lane block at slab width `W`: every trial
    /// steps all packed scenarios at once, and each lane's outcome is
    /// scored into its own [`FaultResult`]. With `streams` the trial ops
    /// replay from the arena; without, they regenerate from the model
    /// (identical sequences either way).
    fn run_sliced_block<const W: usize>(
        &self,
        config: &RamConfig,
        chunk: &[FaultScenario],
        block: &Block,
        streams: Option<&[Arc<Vec<Op>>]>,
    ) -> Vec<FaultResult> {
        let mut backend =
            SlicedBackend::<W>::prefilled(config, chunk, self.campaign.seed ^ 0xF1E1D1);
        let mut results: Vec<FaultResult> = chunk.iter().map(|&s| FaultResult::new(s)).collect();
        for trial in block.trials() {
            backend.reset();
            let outcomes = match streams {
                Some(streams) => measure_detection_sliced(
                    &mut backend,
                    &mut ReplayOps::new(&streams[trial as usize]),
                    self.campaign.cycles,
                ),
                None => measure_detection_sliced(
                    &mut backend,
                    &mut self
                        .trial_stream(config.org(), shared_trial_seed(self.campaign.seed, trial)),
                    self.campaign.cycles,
                ),
            };
            for ((result, out), scenario) in results.iter_mut().zip(&outcomes).zip(chunk) {
                result.record(&out.score(scenario.process));
            }
        }
        results
    }

    /// Run the classical permanent grid on clones of `backend`.
    ///
    /// # Panics
    /// Panics if `backend` does not [support](FaultSimBackend::supports)
    /// one of the faults.
    pub fn run_on<B>(&self, backend: &B, faults: &[FaultSite]) -> CampaignResult
    where
        B: FaultSimBackend + Clone + Send + Sync,
    {
        let scenarios: Vec<FaultScenario> = faults
            .iter()
            .copied()
            .map(FaultScenario::permanent)
            .collect();
        self.run_scenarios_on(backend, &scenarios)
    }

    /// Run the full scenario × trial grid on clones of `backend`.
    ///
    /// # Panics
    /// Panics if `backend` does not [support](FaultSimBackend::supports)
    /// one of the scenarios.
    pub fn run_scenarios_on<B>(&self, backend: &B, scenarios: &[FaultScenario]) -> CampaignResult
    where
        B: FaultSimBackend + Clone + Send + Sync,
    {
        if let Some(bad) = scenarios.iter().find(|s| !backend.supports(s)) {
            panic!("backend '{}' cannot inject {bad:?}", backend.name());
        }
        let per_fault = grid::run(
            scenarios.len(),
            self.campaign.trials,
            grid::SCALAR_BLOCKS_PER_WORKER,
            self.threads,
            self.runs_serially(scenarios.len()),
            |block| self.run_block(backend.clone(), scenarios[block.item], block),
        );
        CampaignResult {
            per_fault,
            config: self.campaign,
        }
    }

    /// Trace the permanent grid: the scenario-level twin of
    /// [`run`](Self::run).
    pub fn trace(&self, config: &RamConfig, faults: &[FaultSite]) -> Vec<Event> {
        let scenarios: Vec<FaultScenario> = faults
            .iter()
            .copied()
            .map(FaultScenario::permanent)
            .collect();
        self.trace_scenarios(config, &scenarios)
    }

    /// Replay the scenario × trial grid as a structured event trace.
    ///
    /// This is a **canonical replay**, not a tap on the result path: it
    /// always runs the behavioural backend with the shared-stream
    /// (common-random-numbers) trial seeding the sliced engine defines,
    /// which PR 6's lane-exactness contract guarantees is exactly what
    /// every lane of the default sliced engine observes. The trace is
    /// therefore a pure function of `(seed, fault, trial)` — bit-identical
    /// at any thread count, any lane width, and under either engine flag —
    /// and the result path keeps zero overhead when tracing is off.
    pub fn trace_scenarios(&self, config: &RamConfig, scenarios: &[FaultScenario]) -> Vec<Event> {
        // Blocks are fault-major and trial-ordered, so concatenating
        // their events in block order is the per-fault trial order.
        let blocks = grid::blocks(
            scenarios.len(),
            self.campaign.trials,
            grid::resolved_threads(self.threads) * grid::SCALAR_BLOCKS_PER_WORKER,
        );
        grid::dispatch(
            &blocks,
            self.threads,
            self.runs_serially(scenarios.len()),
            |block| self.trace_block(config, &scenarios[block.item], block),
        )
        .into_iter()
        .flatten()
        .collect()
    }

    /// Replay one trial range of one fault, emitting its events in
    /// chronological order per trial. Pure in
    /// `(campaign seed, fault index, trial)`.
    fn trace_block(
        &self,
        config: &RamConfig,
        scenario: &FaultScenario,
        block: &Block,
    ) -> Vec<Event> {
        let mut backend = BehavioralBackend::prefilled(config, self.campaign.seed ^ 0xF1E1D1);
        let org = config.org();
        let fault = block.item as u32;
        let mut events = Vec::new();
        for trial in block.trials() {
            backend.reset(Some(scenario));
            let mut ops = self.trial_stream(org, shared_trial_seed(self.campaign.seed, trial));
            let out = measure_detection_on(&mut backend, &mut ops, self.campaign.cycles);
            let mut trial_events = Vec::new();
            let mut emit =
                |t: u64, kind: EventKind| trial_events.push(Event::cell(t, 0, fault, trial, kind));
            if let Some((t, kind)) = scenario.process.onset_event(out.cycles_run) {
                emit(t, kind);
            }
            if self.scrub_period > 0 {
                let sweep_len = self.scrub_period * org.words();
                for sweep in (1..).take_while(|sweep| sweep * sweep_len <= out.cycles_run) {
                    emit(sweep * sweep_len - 1, EventKind::ScrubSweep { sweep });
                }
            }
            let score = out.score(scenario.process);
            if let Some(d) = score.detection {
                emit(
                    d.cycle,
                    EventKind::Detect {
                        latency: d.latency(),
                    },
                );
            }
            if score.escaped {
                emit(
                    out.first_error.expect("an escape implies an error"),
                    EventKind::Escape,
                );
            }
            sort_chronological(&mut trial_events);
            events.extend(trial_events);
        }
        events
    }

    /// Is this grid small enough for the serial fast path?
    fn runs_serially(&self, scenarios: usize) -> bool {
        grid::runs_serially(
            scenarios as u64 * self.campaign.trials as u64,
            self.serial_threshold,
        )
    }

    /// The workload shape every trial on `org` draws from.
    fn spec(&self, org: RamOrganization) -> WorkloadSpec {
        WorkloadSpec {
            words: org.words(),
            word_bits: org.word_bits(),
            write_fraction: self.campaign.write_fraction,
        }
    }

    /// The model's op stream at `seed`, with the background scrubber's
    /// sweep reads merged in (the wrapper is transparent when scrubbing
    /// is off).
    fn trial_stream(&self, org: RamOrganization, seed: u64) -> ScrubInterleaver<OpStream> {
        let workload = self.model.stream(self.spec(org), seed);
        ScrubInterleaver::new(workload, self.scrub_period, org.words())
    }

    /// Workload seed for one `(fault, trial)` cell — a pure function of
    /// the campaign seed and grid coordinates, never of scheduling.
    fn trial_seed(&self, fidx: usize, trial: u32) -> u64 {
        self.campaign
            .seed
            .wrapping_add((fidx as u64) << 20)
            .wrapping_add(trial as u64)
    }

    fn run_block<B: FaultSimBackend>(
        &self,
        mut backend: B,
        scenario: FaultScenario,
        block: &Block,
    ) -> FaultResult {
        let org = backend.config().org();
        let mut result = FaultResult::new(scenario);
        for trial in block.trials() {
            backend.reset(Some(&scenario));
            let mut ops = self.trial_stream(org, self.trial_seed(block.item, trial));
            let out = measure_detection_on(&mut backend, &mut ops, self.campaign.cycles);
            result.record(&out.score(scenario.process));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::decoder_fault_universe;
    use scm_area::RamOrganization;
    use scm_codes::{CodewordMap, MOutOfN};

    fn config() -> RamConfig {
        let org = RamOrganization::new(64, 8, 4);
        let code = MOutOfN::new(3, 5).unwrap();
        RamConfig::new(
            org,
            CodewordMap::mod_a(code, 9, 16).unwrap(),
            CodewordMap::mod_a(code, 9, 4).unwrap(),
        )
    }

    fn row_faults() -> Vec<FaultSite> {
        decoder_fault_universe(4)
            .into_iter()
            .map(FaultSite::RowDecoder)
            .collect()
    }

    #[test]
    fn engine_matches_across_thread_counts_and_trial_splits() {
        let cfg = config();
        let faults = row_faults();
        // Few faults force trial splitting; the full universe exercises
        // fault-major blocks. Both must agree with the 1-thread run.
        // serial_threshold(0) keeps these small grids on the parallel
        // path this test exists to exercise.
        for universe in [&faults[..3], &faults[..]] {
            let campaign = CampaignConfig {
                cycles: 12,
                trials: 10,
                seed: 77,
                write_fraction: 0.1,
            };
            let reference = CampaignEngine::new(campaign)
                .threads(1)
                .serial_threshold(0)
                .run(&cfg, universe);
            for threads in [2usize, 4, 7] {
                let result = CampaignEngine::new(campaign)
                    .threads(threads)
                    .serial_threshold(0)
                    .run(&cfg, universe);
                assert_eq!(
                    reference.determinism_profile(),
                    result.determinism_profile(),
                    "{} faults, {threads} threads",
                    universe.len()
                );
            }
        }
    }

    #[test]
    fn every_builtin_model_runs_deterministically_at_any_thread_count() {
        let cfg = config();
        let faults = row_faults();
        let campaign = CampaignConfig {
            cycles: 8,
            trials: 6,
            seed: 41,
            write_fraction: 0.1,
        };
        for model in crate::workload::builtin_models() {
            let reference = CampaignEngine::new(campaign)
                .workload_model(model.clone())
                .threads(1)
                .serial_threshold(0)
                .run(&cfg, &faults[..6]);
            let parallel = CampaignEngine::new(campaign)
                .workload_model(model.clone())
                .threads(4)
                .serial_threshold(0)
                .run(&cfg, &faults[..6]);
            assert_eq!(
                reference.determinism_profile(),
                parallel.determinism_profile(),
                "model {}",
                model.name()
            );
            // The campaign must actually exercise the fault universe: at
            // least one trial somewhere detects something.
            assert!(
                reference.per_fault.iter().any(|f| f.detected > 0),
                "model {} never detected anything",
                model.name()
            );
        }
    }

    #[test]
    fn distinct_models_measure_distinct_detection_behaviour() {
        // A colliding SA1 under a tiny hot window behaves differently from
        // uniform addressing; the engine must thread the model through to
        // the trials rather than silently falling back to uniform.
        let cfg = config();
        let faults = row_faults();
        let campaign = CampaignConfig {
            cycles: 10,
            trials: 12,
            seed: 99,
            write_fraction: 0.1,
        };
        let uniform = CampaignEngine::new(campaign).run(&cfg, &faults);
        let sequential = CampaignEngine::new(campaign)
            .pattern(AddressPattern::Sequential)
            .run(&cfg, &faults);
        assert_ne!(
            uniform.determinism_profile(),
            sequential.determinism_profile(),
            "sequential campaign produced the uniform profile"
        );
    }

    /// A universe mixing every lane-relevant shape: permanents across
    /// site classes, delayed onsets, transients, intermittents, couplings.
    fn mixed_scenarios() -> Vec<FaultScenario> {
        use crate::fault::{CellRef, CouplingKind, FaultProcess};
        let mut scenarios: Vec<FaultScenario> = row_faults()
            .into_iter()
            .map(FaultScenario::permanent)
            .collect();
        scenarios.push(FaultScenario {
            site: FaultSite::Cell {
                row: 3,
                col: 5,
                stuck: true,
            },
            process: FaultProcess::Permanent { onset: 4 },
        });
        scenarios.push(FaultScenario {
            site: FaultSite::Cell {
                row: 7,
                col: 2,
                stuck: false,
            },
            process: FaultProcess::TransientFlip { at: 3 },
        });
        scenarios.push(FaultScenario {
            site: FaultSite::DataRegisterBit {
                bit: 1,
                stuck: true,
            },
            process: FaultProcess::Intermittent {
                onset: 2,
                period: 4,
                duty: 2,
            },
        });
        scenarios.push(FaultScenario {
            site: FaultSite::Cell {
                row: 5,
                col: 9,
                stuck: false,
            },
            process: FaultProcess::Coupling {
                aggressor: CellRef { row: 2, col: 1 },
                kind: CouplingKind::Inversion,
            },
        });
        scenarios
    }

    #[test]
    fn sliced_engine_is_thread_count_and_lane_width_invariant() {
        let cfg = config();
        let scenarios = mixed_scenarios();
        let campaign = CampaignConfig {
            cycles: 12,
            trials: 10,
            seed: 77,
            write_fraction: 0.1,
        };
        let reference = CampaignEngine::new(campaign)
            .sliced(true)
            .threads(1)
            .serial_threshold(0)
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(reference.per_fault.len(), scenarios.len());
        assert!(
            reference.per_fault.iter().any(|f| f.detected > 0),
            "sliced campaign never detected anything"
        );
        for threads in [2usize, 4, 8] {
            let result = CampaignEngine::new(campaign)
                .sliced(true)
                .threads(threads)
                .serial_threshold(0)
                .run_scenarios(&cfg, &scenarios);
            assert_eq!(
                reference.determinism_profile(),
                result.determinism_profile(),
                "{threads} threads"
            );
        }
        for width in [1usize, 8, 17, 64, 100, 128, 512] {
            let result = CampaignEngine::new(campaign)
                .sliced(true)
                .lane_width(width)
                .run_scenarios(&cfg, &scenarios);
            assert_eq!(
                reference.determinism_profile(),
                result.determinism_profile(),
                "lane width {width}"
            );
        }
    }

    #[derive(Debug)]
    struct CountingModel {
        inner: Arc<dyn WorkloadModel>,
        calls: Arc<std::sync::atomic::AtomicU64>,
    }

    impl WorkloadModel for CountingModel {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn stream(&self, spec: WorkloadSpec, seed: u64) -> crate::workload::OpStream {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.stream(spec, seed)
        }
    }

    #[test]
    fn sliced_campaign_generates_each_trial_stream_exactly_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cfg = config();
        let scenarios = mixed_scenarios();
        let calls = Arc::new(AtomicU64::new(0));
        let campaign = CampaignConfig {
            cycles: 12,
            trials: 10,
            seed: 77,
            write_fraction: 0.1,
        };
        // Lane width 8 splits the universe into many blocks; before the
        // op-stream arena every block regenerated all ten streams.
        let result = CampaignEngine::new(campaign)
            .workload_model(Arc::new(CountingModel {
                inner: Arc::new(UniformRandom),
                calls: calls.clone(),
            }))
            .sliced(true)
            .lane_width(8)
            .serial_threshold(0)
            .threads(4)
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(result.per_fault.len(), scenarios.len());
        assert!(scenarios.len() > 8, "universe must span several blocks");
        assert_eq!(
            calls.load(Ordering::Relaxed),
            u64::from(campaign.trials),
            "one stream per trial, regardless of lane blocks"
        );
    }

    #[test]
    fn shared_arena_reuses_streams_across_runs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cfg = config();
        let scenarios = mixed_scenarios();
        let calls = Arc::new(AtomicU64::new(0));
        let model: Arc<dyn WorkloadModel> = Arc::new(CountingModel {
            inner: Arc::new(UniformRandom),
            calls: calls.clone(),
        });
        let arena = Arc::new(crate::arena::OpStreamArena::new());
        let campaign = CampaignConfig {
            cycles: 12,
            trials: 6,
            seed: 5,
            write_fraction: 0.1,
        };
        let low = CampaignEngine::new(campaign)
            .workload_model(model.clone())
            .sliced(true)
            .arena(arena.clone())
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        // A higher-fidelity rung with more trials only generates the new
        // trials; the first six replay from the shared arena.
        let high = CampaignEngine::new(campaign)
            .workload_model(model.clone())
            .sliced(true)
            .arena(arena.clone())
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(calls.load(Ordering::Relaxed), 6, "second run regenerated");
        assert_eq!(low.determinism_profile(), high.determinism_profile());
        let more = CampaignConfig {
            trials: 9,
            ..campaign
        };
        CampaignEngine::new(more)
            .workload_model(model)
            .sliced(true)
            .arena(arena)
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(calls.load(Ordering::Relaxed), 9, "only trials 6..9 are new");
    }

    #[test]
    fn occupancy_accounts_for_partial_blocks() {
        let engine = CampaignEngine::new(CampaignConfig::default());
        assert_eq!(
            engine.occupancy(272),
            LaneOccupancy {
                filled: 272,
                capacity: 320,
                blocks: 1,
                width: 512,
            }
        );
        assert_eq!(
            engine.clone().lane_width(64).occupancy(130),
            LaneOccupancy {
                filled: 130,
                capacity: 192,
                blocks: 3,
                width: 64,
            }
        );
        assert_eq!(
            engine.lane_width(512).occupancy(512),
            LaneOccupancy {
                filled: 512,
                capacity: 512,
                blocks: 1,
                width: 512,
            }
        );
    }

    #[test]
    fn serial_fallback_is_bit_identical_to_the_fanned_out_grid() {
        let cfg = config();
        let scenarios = mixed_scenarios();
        // Size the grid to sit just under the default threshold: the
        // plain engine takes the serial path, forcing the threshold to 0
        // fans the same grid out. Both backends must agree bit for bit.
        let trials = (DEFAULT_SERIAL_THRESHOLD / scenarios.len() as u64) as u32;
        assert!(trials >= 1, "universe outgrew the default threshold");
        let campaign = CampaignConfig {
            cycles: 12,
            trials,
            seed: 77,
            write_fraction: 0.1,
        };
        for sliced in [false, true] {
            let serial = CampaignEngine::new(campaign)
                .sliced(sliced)
                .run_scenarios(&cfg, &scenarios);
            let fanned = CampaignEngine::new(campaign)
                .sliced(sliced)
                .serial_threshold(0)
                .threads(4)
                .run_scenarios(&cfg, &scenarios);
            assert_eq!(
                serial.determinism_profile(),
                fanned.determinism_profile(),
                "sliced={sliced}"
            );
        }
        // Just past the threshold the engine fans out again: identical
        // results either way, the threshold is scheduling only.
        let over = CampaignConfig {
            trials: 300,
            ..campaign
        };
        let a = CampaignEngine::new(over).run_scenarios(&cfg, &scenarios);
        let b = CampaignEngine::new(over)
            .serial_threshold(u64::MAX)
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(a.determinism_profile(), b.determinism_profile());
    }

    #[test]
    fn sliced_engine_preserves_scenario_order_and_scrub_contract() {
        let cfg = config();
        let scenarios = mixed_scenarios();
        let campaign = CampaignConfig {
            cycles: 16,
            trials: 6,
            seed: 5150,
            write_fraction: 0.1,
        };
        let result = CampaignEngine::new(campaign)
            .sliced(true)
            .scrub(4)
            .run_scenarios(&cfg, &scenarios);
        for (scenario, fr) in scenarios.iter().zip(&result.per_fault) {
            assert_eq!(fr.site, scenario.site, "per_fault order broken");
            assert_eq!(fr.process, scenario.process, "per_fault order broken");
            assert_eq!(fr.trials, campaign.trials);
        }
        // Scrubbing is part of the shared stream: results must still be
        // lane-width invariant under it.
        let narrow = CampaignEngine::new(campaign)
            .sliced(true)
            .scrub(4)
            .lane_width(8)
            .run_scenarios(&cfg, &scenarios);
        assert_eq!(result.determinism_profile(), narrow.determinism_profile());
    }

    mod trace_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            // The replayed trace is a pure function of
            // `(seed, fault, trial)`: random small campaigns must
            // produce identical event streams at every thread count,
            // with the serial path (threads = 1, default threshold)
            // as the reference against forced fan-out.
            #[test]
            fn trace_is_thread_invariant_over_random_campaigns(
                cycles in 1u64..12,
                trials in 1u32..6,
                seed in any::<u64>(),
                w in 0u32..17,
                take in 1usize..9,
                onset in 0u64..8,
            ) {
                let campaign = CampaignConfig {
                    cycles,
                    trials,
                    seed,
                    write_fraction: f64::from(w) / 16.0,
                };
                let cfg = config();
                let faults = row_faults();
                let scenarios: Vec<FaultScenario> = faults
                    .iter()
                    .take(take.min(faults.len()))
                    .enumerate()
                    .map(|(i, &site)| {
                        if i % 2 == 0 {
                            FaultScenario::permanent(site)
                        } else {
                            FaultScenario::transient(site, onset % cycles)
                        }
                    })
                    .collect();
                let reference = CampaignEngine::new(campaign)
                    .threads(1)
                    .trace_scenarios(&cfg, &scenarios);
                for threads in [2usize, 4, 8] {
                    let trace = CampaignEngine::new(campaign)
                        .threads(threads)
                        .serial_threshold(0)
                        .trace_scenarios(&cfg, &scenarios);
                    prop_assert_eq!(&trace, &reference, "threads = {}", threads);
                }
            }
        }
    }

    #[test]
    fn unsupported_fault_panics_with_backend_name() {
        let cfg = config();
        let backend = crate::backend::GateLevelBackend::try_new(&cfg).unwrap();
        let engine = CampaignEngine::new(CampaignConfig::default());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_on(
                &backend,
                &[FaultSite::Cell {
                    row: 0,
                    col: 0,
                    stuck: true,
                }],
            )
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("gate-level"), "{msg}");
    }
}
