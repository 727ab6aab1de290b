//! `explore-worked`: `GuidedSearch::run` over
//! `ExplorationSpace::worked_reference()` — the CLI's default guided
//! search: the paper's 16×1K RAM, six latency and six escape budgets,
//! both selection policies (72 points, enumerated exhaustively), sliced
//! adjudication at 64 trials per fault and at most 64 faults per point,
//! a fresh adjudication seed per operation. The paper's analytic
//! area/latency model, the evaluator memos and the op-stream arena
//! shared across fidelity rungs carry the load.
//!
//! The million-point grid is not used: code selection for a one-cycle
//! latency budget under the inverse-a policy costs about ten times more
//! per decade of Pndc, so a seeded sample of that grid takes seconds to
//! hours. `explore.plan_c1_s` measures that cost on one such point.
//!
//! Its shape also measures the explore layer.

use crate::bench::{
    self_s, stages_s, Figure, OpResult, Sheet, Size, Workload, FANOUT_THREADS, LANE_WIDTH, PASSES,
    THREADS,
};
use crate::span::Tracer;
use crate::stats::{digest, median, mix};
use scm_codes::SelectionPolicy;
use scm_explore::{
    Adjudication, Evaluation, Evaluator, ExplorationSpace, FidelityLadder, GuidedConfig,
    GuidedReport, GuidedSearch,
};
use scm_memory::campaign::CampaignConfig;
use std::hint::black_box;
use std::time::Instant;

/// Rungs reported per search (`explore.rung<k>.spent`); the 64-trial
/// geometric ladder (eta 4) has exactly these four.
const RUNGS: usize = 4;
const LADDER_ETA: u32 = 4;
/// Pndc of the one-cycle inverse-a point behind `explore.plan_c1_s`.
const CLIFF_PNDC: f64 = 1e-16;

pub struct ExploreWorked {
    size: Size,
    space: ExplorationSpace,
}

impl ExploreWorked {
    fn evaluator(&self, seed: u64, threads: usize) -> Evaluator {
        Evaluator::default()
            .threads(threads)
            .adjudicate(Adjudication {
                campaign: CampaignConfig {
                    cycles: 10, // overridden per point
                    trials: self.size.explore_trials,
                    seed,
                    write_fraction: 0.1,
                },
                max_faults: self.size.explore_max_faults,
                scrub_period: Adjudication::DEFAULT_SCRUB_PERIOD,
                sliced: true,
                lane_width: LANE_WIDTH,
            })
    }

    fn config(seed: u64) -> GuidedConfig {
        GuidedConfig {
            eta: LADDER_ETA,
            seed,
            ..GuidedConfig::default()
        }
    }
}

impl Workload for ExploreWorked {
    type Retained = Vec<Evaluation>;
    const OP_SPAN: &'static str = "explore";
    const FIGURE: Figure = Figure::Search;
    const ORACLE_STRIDE: u64 = 30;
    /// Rung-prune events are read off the finished report.
    const TRACE_REPLAYS: bool = false;

    fn setup(size: Size) -> Result<Self, String> {
        Ok(ExploreWorked {
            size,
            space: ExplorationSpace::worked_reference(),
        })
    }

    fn op(
        &self,
        seed: u64,
        _events: bool,
        t: &Tracer,
    ) -> Result<OpResult<Vec<Evaluation>>, String> {
        let evaluator = self.evaluator(seed, THREADS);
        let report = t
            .span("explore.search", || {
                GuidedSearch::new(&evaluator, Self::config(seed)).run(&self.space)
            })
            .map_err(|e| e.to_string())?;
        Ok(OpResult {
            work: report.spent,
            devices: 0,
            // Memo counters depend on scheduling, so they stay out.
            digest: digest(&(&report.front, &report.rungs, report.spent)),
            retained: report.front,
        })
    }

    /// Every front point re-evaluated at its fidelity on a fresh
    /// evaluator must come out identical.
    fn oracle(&self, seed: u64, front: &Vec<Evaluation>) -> Result<(), String> {
        let fresh = self.evaluator(seed, FANOUT_THREADS);
        for e in front {
            let trials = e
                .empirical
                .as_ref()
                .ok_or("front point without empirical figures")?
                .trials_per_fault;
            let again = fresh
                .evaluate_at_fidelity(&e.point, Some(trials))
                .map_err(|err| err.to_string())?;
            if &again != e {
                return Err(format!(
                    "front point {} differs when re-evaluated",
                    e.point.label()
                ));
            }
        }
        Ok(())
    }
}

/// Explore layer, at one thread so the memo counters repeat exactly.
/// `PASSES` passes, each on fresh evaluators: the candidate screen
/// (`Evaluator::scenario_count` over every point the search starts
/// from), the analytic model alone (`evaluate_points` with no
/// adjudication stage) over the same points, then the whole search.
/// Search time not covered by the first two is `explore.other_s`
/// (adjudication, pruning). Every pass must give the same search report.
/// Last, one fresh analytic evaluation of a one-cycle, Pndc 1e-16,
/// inverse-a point of the million-point grid (`explore.plan_c1_s`).
pub fn redrive(size: Size, seed: u64, t: &Tracer, sheet: &mut Sheet) -> Result<(), String> {
    const STAGES: [&str; 2] = ["explore.screen", "explore.analytic"];
    let w = ExploreWorked::setup(size)?;
    let seed = mix(seed ^ 0xE7, 0);
    let candidates = w.space.points();
    let mut first: Option<(GuidedReport, Evaluator)> = None;
    let mut remainders = Vec::with_capacity(PASSES);
    for pass in 0..PASSES {
        let before = stages_s(t, &STAGES);
        let screener = w.evaluator(seed, 1);
        t.span("explore.screen", || {
            for c in &candidates {
                let _ = black_box(screener.scenario_count(c));
            }
        });
        let analytic = Evaluator::default().threads(1);
        t.span("explore.analytic", || {
            black_box(analytic.evaluate_points(&candidates));
        });
        let stages = stages_s(t, &STAGES) - before;
        let evaluator = w.evaluator(seed, 1);
        let start = Instant::now();
        let report = t
            .span("explore.search", || {
                GuidedSearch::new(&evaluator, ExploreWorked::config(seed)).run(&w.space)
            })
            .map_err(|e| e.to_string())?;
        remainders.push(start.elapsed().as_secs_f64() - stages);
        match &first {
            None => first = Some((report, evaluator)),
            Some((r, _)) => sheet.check(
                (&r.front, &r.rungs, r.spent) == (&report.front, &report.rungs, report.spent),
                || format!("explore search pass {pass} differs from pass 0"),
            ),
        }
    }
    let (report, evaluator) = first.expect("at least one pass");
    let mut cliff = ExplorationSpace::million_grid().point_at(0);
    cliff.cycles = 1;
    cliff.pndc = CLIFF_PNDC;
    cliff.policy = SelectionPolicy::InverseA;
    t.span("explore.plan_c1", || {
        Evaluator::default()
            .threads(1)
            .evaluate(&cliff)
            .map_err(|e| e.to_string())
    })?;

    let totals = t.totals();
    let per_pass = |name: &str| self_s(&totals, name) / PASSES as f64;
    sheet.put("explore.search_s", per_pass("explore.search"), "s");
    sheet.put("explore.screen_s", per_pass("explore.screen"), "s");
    sheet.put("explore.analytic_s", per_pass("explore.analytic"), "s");
    sheet.put("explore.other_s", median(&remainders), "s");
    sheet.put("explore.plan_c1_s", self_s(&totals, "explore.plan_c1"), "s");
    sheet.put("explore.candidates", report.candidates as f64, "count");
    sheet.put("explore.spent", report.spent as f64, "count");
    let ladder = FidelityLadder::geometric(size.explore_trials, LADDER_ETA);
    for k in 0..RUNGS {
        let spent: u64 = match ladder.levels().get(k) {
            Some(&trials) => report
                .rungs
                .iter()
                .filter(|r| r.trials == trials)
                .map(|r| r.spent)
                .sum(),
            None => 0,
        };
        sheet.put(format!("explore.rung{k}.spent"), spent as f64, "count");
    }
    let stats = evaluator.cache_stats();
    for (memo, s) in [
        ("plans", stats.plans),
        ("areas", stats.areas),
        ("scrub_bounds", stats.scrub_bounds),
    ] {
        sheet.put(format!("explore.cache.{memo}.hits"), s.hits as f64, "count");
        sheet.put(
            format!("explore.cache.{memo}.misses"),
            s.misses as f64,
            "count",
        );
    }
    Ok(())
}
