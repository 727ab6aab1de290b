//! What every workload provides, the sizes they run at, and the metric
//! sheet they fill.

use crate::span::{SpanTotals, Tracer};
use std::collections::BTreeMap;

/// Worker threads the timed loop pins every engine to. One: on a shared
/// two-core host, two-thread operation times swing by a quarter with
/// co-tenant load, so the parallel side is measured in the traced run
/// (`*.fanout_gain`) instead.
pub const THREADS: usize = 1;

/// Threads on the parallel side of every `*.fanout_gain`.
pub const FANOUT_THREADS: usize = 2;

/// Slab lane width the engines run at (their default).
pub const LANE_WIDTH: usize = 512;

/// Problem sizes. [`Size::FULL`] is the benchmark; [`Size::TINY`] keeps
/// every code path but finishes in well under a second per workload, for
/// the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub name: &'static str,
    /// `mixed_universe` draws per fault class (48 gives ~452 scenarios).
    pub campaign_per_class: usize,
    pub campaign_cycles: u64,
    pub campaign_trials: u32,
    pub system_strikes_per_bank: usize,
    pub system_cycles: u64,
    pub system_trials: u32,
    pub fleet_devices: u64,
    pub fleet_checkpoint_every: u64,
    pub explore_trials: u32,
    pub explore_max_faults: usize,
    /// Grids the traced run re-drives through the memory layer.
    pub memory_grids: usize,
    /// Grids the traced run re-drives through the system layer.
    pub system_grids: usize,
}

impl Size {
    pub const FULL: Size = Size {
        name: "full",
        campaign_per_class: 48,
        campaign_cycles: 200,
        campaign_trials: 64,
        system_strikes_per_bank: 12,
        system_cycles: 240,
        system_trials: 64,
        fleet_devices: 4000,
        fleet_checkpoint_every: 1024,
        explore_trials: 64,
        explore_max_faults: 64,
        memory_grids: 2,
        system_grids: 4,
    };

    pub const TINY: Size = Size {
        name: "tiny",
        campaign_per_class: 4,
        campaign_cycles: 40,
        campaign_trials: 4,
        system_strikes_per_bank: 3,
        system_cycles: 60,
        system_trials: 4,
        fleet_devices: 48,
        fleet_checkpoint_every: 16,
        explore_trials: 4,
        explore_max_faults: 8,
        memory_grids: 1,
        system_grids: 2,
    };
}

/// What one operation of the closed loop produced.
pub struct OpResult<R> {
    /// Scenario-trials completed (fault scenario × Monte-Carlo trial).
    pub work: u64,
    /// Devices simulated (fleet) — `0` elsewhere.
    pub devices: u64,
    /// Digest of the operation's simulated statistics.
    pub digest: u64,
    /// What the oracle needs to re-check this operation.
    pub retained: R,
}

/// The workload-specific figures the readable report prints beside the
/// end-to-end metrics.
pub enum Figure {
    /// `campaign_ms_p50`, `campaign_ms_p95`, `traced_campaign_ms_p50`.
    Campaign,
    /// `devices_per_s`.
    Devices,
    /// `search_s`.
    Search,
}

/// One benchmark workload: set-up, one closed-loop operation, and the
/// oracle that re-checks a sampled operation outside the timed region.
pub trait Workload: Sized {
    type Retained;
    /// Span name of one whole operation in the traced run.
    const OP_SPAN: &'static str;
    /// The workload-specific figure its operation time stands for.
    const FIGURE: Figure;
    /// Every `ORACLE_STRIDE`-th operation (the first three such) is
    /// re-checked by the oracle.
    const ORACLE_STRIDE: u64;
    /// Whether asking for the event trace replays the simulation. Where
    /// it does not (the events are a by-product of the run itself), an
    /// operation with events costs what one without costs, so the loop
    /// runs only the latter.
    const TRACE_REPLAYS: bool;

    /// Everything an operation needs that users pay for once.
    fn setup(size: Size) -> Result<Self, String>;

    /// One operation at `seed`; with `events` the operation also asks
    /// for its event trace and renders it, as the CLI's `--trace` does
    /// (only asked of workloads whose trace replays the simulation).
    fn op(&self, seed: u64, events: bool, t: &Tracer) -> Result<OpResult<Self::Retained>, String>;

    /// Re-check an operation against the oracle.
    fn oracle(&self, seed: u64, retained: &Self::Retained) -> Result<(), String>;
}

/// Named metric values with units, in insertion order, plus notes and
/// the outcome of every check the re-drive made against the engines.
#[derive(Debug, Default)]
pub struct Sheet {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    /// Checks made; each failed one is also in `failures`.
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Sheet {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Record a check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Passes per grid of the re-drives that split an engine run into
/// stages. The stage times reported are means per pass; a remainder
/// (`*.other_s`) is the median over passes of the whole run minus its
/// stages timed beside it in the same pass, so slow host drift cancels.
pub const PASSES: usize = 5;

/// Seconds of self time recorded under `name` (0 if never entered).
pub fn self_s(totals: &BTreeMap<&'static str, SpanTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_time.as_secs_f64())
}

/// Seconds of self time recorded so far under all of `names`.
pub fn stages_s(t: &Tracer, names: &[&str]) -> f64 {
    let totals = t.totals();
    names.iter().map(|n| self_s(&totals, n)).sum()
}

/// Turn a caught panic payload into a message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_owned())
}
