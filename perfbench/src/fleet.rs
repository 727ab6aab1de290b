//! `fleet-mixed-ckpt`: the `mixed` fleet preset (edge, datacenter and
//! legacy cohorts with hard-defect triage) scaled to 4000 devices, with
//! a checkpoint every 1024 devices into the benchmark's scratch space.
//! Thousands of single-trial, forced-serial system campaigns with
//! nothing to spread fixed costs over, beside dictionary triage, wave
//! fan-out and checkpoint writes.
//!
//! Its shape also measures the diag and fleet layers.

use crate::bench::{
    self_s, Figure, OpResult, Sheet, Size, Workload, FANOUT_THREADS, LANE_WIDTH, THREADS,
};
use crate::span::Tracer;
use crate::stats::{digest, mix, quantile};
use scm_diag::{cell_universe, FaultDictionary};
use scm_fleet::{
    simulate_device, CohortSpec, CohortTelemetry, FleetDriver, FleetOptions, FleetOutcome,
    FleetProgress, FleetSpec,
};
use scm_memory::campaign::decoder_fault_universe;
use scm_memory::fault::FaultSite;
use scm_obs::EventKind;
use scm_system::seed_mix;
use std::path::{Path, PathBuf};

/// The fleet driver's per-cohort dictionary-seed convention, mirrored
/// so the oracle triages against the same dictionary.
const DICT_TAG: u64 = 0xF1EE_D1C7;

pub struct FleetMixedCkpt {
    size: Size,
    spec: FleetSpec,
    scratch: PathBuf,
}

impl FleetMixedCkpt {
    fn options(&self, seed: u64, threads: usize, checkpoint: &str) -> FleetOptions {
        FleetOptions {
            seed,
            threads,
            sliced: true,
            lane_width: LANE_WIDTH,
            checkpoint_every: self.size.fleet_checkpoint_every,
            checkpoint: Some(self.scratch.join(checkpoint)),
            halt_after: None,
        }
    }

    fn run_to_end(driver: &mut FleetDriver) -> Result<FleetOutcome, String> {
        match driver.run()? {
            FleetProgress::Completed(outcome) => Ok(outcome),
            FleetProgress::Halted { devices_done, .. } => {
                Err(format!("fleet halted after {devices_done} devices"))
            }
        }
    }

    /// The fault dictionary the driver builds for cohort `index`.
    fn dictionary(cohort: &CohortSpec, index: usize, seed: u64) -> FaultDictionary {
        let config = cohort.banks[0].ram_config();
        let mut candidates = cell_universe(&config);
        candidates.extend(
            decoder_fault_universe(config.org().row_bits())
                .into_iter()
                .map(FaultSite::RowDecoder),
        );
        FaultDictionary::build_sliced(
            &config,
            &cohort.march_test(),
            seed_mix(seed ^ DICT_TAG, &[index as u64]),
            &candidates,
            1,
            LANE_WIDTH,
        )
    }
}

impl Workload for FleetMixedCkpt {
    type Retained = FleetOutcome;
    const OP_SPAN: &'static str = "fleet";
    const FIGURE: Figure = Figure::Devices;
    const ORACLE_STRIDE: u64 = 3;
    /// The driver records its events (checkpoint writes) as it runs.
    const TRACE_REPLAYS: bool = false;

    fn setup(size: Size) -> Result<Self, String> {
        let spec = FleetSpec::preset("mixed")
            .ok_or("no 'mixed' fleet preset")?
            .with_devices(size.fleet_devices);
        let scratch = crate::scratch_dir();
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("cannot create '{}': {e}", scratch.display()))?;
        Ok(FleetMixedCkpt {
            size,
            spec,
            scratch,
        })
    }

    fn op(&self, seed: u64, _events: bool, t: &Tracer) -> Result<OpResult<FleetOutcome>, String> {
        let mut driver = t.span("fleet.new", || {
            FleetDriver::new(self.spec.clone(), self.options(seed, THREADS, "fleet.ckpt"))
        })?;
        let outcome = t.span("fleet.run", || Self::run_to_end(&mut driver))?;
        Ok(OpResult {
            work: outcome.cohorts.iter().map(|c| c.strikes).sum(),
            devices: outcome.devices,
            digest: digest(&outcome.cohorts),
            retained: outcome,
        })
    }

    /// The smallest cohort's telemetry must equal the serial sum of
    /// `simulate_device` over its devices.
    fn oracle(&self, seed: u64, outcome: &FleetOutcome) -> Result<(), String> {
        let (index, cohort) = self
            .spec
            .cohorts
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.devices)
            .ok_or("fleet has no cohorts")?;
        let dictionary = (cohort.hard_ppm > 0).then(|| Self::dictionary(cohort, index, seed));
        let mut want = CohortTelemetry::default();
        for device in 0..cohort.devices {
            want.merge(&simulate_device(
                cohort,
                index,
                device,
                seed,
                true,
                LANE_WIDTH,
                dictionary.as_ref(),
            ));
        }
        if outcome.cohorts[index] != want {
            return Err(format!(
                "cohort '{}' telemetry differs from the serial sum of its devices",
                cohort.name
            ));
        }
        Ok(())
    }
}

/// Diag and fleet layers: the driver at two threads and at one, each
/// cohort's fault dictionary, every device through `simulate_device` on
/// its own, and a halt at a mid-run checkpoint followed by
/// `FleetDriver::resume`. The serial run, the per-device sums and the
/// resumed run must all reproduce the two-thread run.
///
/// There is no `fleet.other_s`: devices re-run one by one outside the
/// driver take longer in sum than the whole serial run, so the driver's
/// own share (waves, merge, checkpoints) cannot be had by subtraction.
pub fn redrive(size: Size, seed: u64, t: &Tracer, sheet: &mut Sheet) -> Result<(), String> {
    let w = FleetMixedCkpt::setup(size)?;
    let seed = mix(seed ^ 0xF1EE, 0);
    let mut driver = FleetDriver::new(w.spec.clone(), w.options(seed, FANOUT_THREADS, "run.ckpt"))?;
    let outcome = t.span("fleet.run", || FleetMixedCkpt::run_to_end(&mut driver))?;
    let writes = driver
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CheckpointWrite { .. }))
        .count();
    let mut serial = FleetDriver::new(w.spec.clone(), w.options(seed, 1, "serial.ckpt"))?;
    let serial_outcome = t.span("fleet.serial", || FleetMixedCkpt::run_to_end(&mut serial))?;
    sheet.check(serial_outcome == outcome, || {
        format!("serial fleet differs from the run at {FANOUT_THREADS} threads")
    });

    let dictionaries: Vec<Option<FaultDictionary>> = w
        .spec
        .cohorts
        .iter()
        .enumerate()
        .map(|(i, c)| {
            (c.hard_ppm > 0).then(|| {
                t.span("diag.dictionary_build", || {
                    FleetMixedCkpt::dictionary(c, i, seed)
                })
            })
        })
        .collect();
    let mut device_us = Vec::new();
    for (i, cohort) in w.spec.cohorts.iter().enumerate() {
        let mut sum = CohortTelemetry::default();
        for device in 0..cohort.devices {
            let start = std::time::Instant::now();
            let one = t.span("fleet.device", || {
                simulate_device(
                    cohort,
                    i,
                    device,
                    seed,
                    true,
                    LANE_WIDTH,
                    dictionaries[i].as_ref(),
                )
            });
            device_us.push(start.elapsed().as_secs_f64() * 1e6);
            sum.merge(&one);
        }
        sheet.check(sum == outcome.cohorts[i], || {
            format!(
                "fleet re-drive of cohort '{}' disagrees with the driver",
                cohort.name
            )
        });
    }

    let mut halting = w.options(seed, THREADS, "halt.ckpt");
    halting.halt_after = Some(2 * size.fleet_checkpoint_every);
    let checkpoint = match FleetDriver::new(w.spec.clone(), halting)?.run()? {
        FleetProgress::Halted { checkpoint, .. } => checkpoint,
        FleetProgress::Completed(_) => return Err("fleet did not halt mid-run".to_owned()),
    };
    let bytes = file_len(&checkpoint)?;
    let mut resumed = t.span("fleet.resume", || {
        FleetDriver::resume(
            w.spec.clone(),
            w.options(seed, THREADS, "halt.ckpt"),
            &checkpoint,
        )
    })?;
    let resumed = FleetMixedCkpt::run_to_end(&mut resumed)?;
    sheet.check(resumed == outcome, || {
        "resumed fleet differs from the uninterrupted run".to_owned()
    });

    let totals = t.totals();
    let run = self_s(&totals, "fleet.run");
    let serial = self_s(&totals, "fleet.serial");
    sheet.put(
        "diag.dictionary_build_s",
        self_s(&totals, "diag.dictionary_build"),
        "s",
    );
    sheet.put(
        "diag.triage_devices",
        outcome.cohorts.iter().map(|c| c.hard_devices).sum::<u64>() as f64,
        "count",
    );
    sheet.put("fleet.device_us_p50", quantile(&device_us, 0.5), "us");
    sheet.put("fleet.device_us_p95", quantile(&device_us, 0.95), "us");
    sheet.put("fleet.run_s", run, "s");
    sheet.put("fleet.serial_s", serial, "s");
    sheet.put("fleet.checkpoint_writes", writes as f64, "count");
    sheet.put("fleet.checkpoint_bytes", bytes as f64, "bytes");
    sheet.put("fleet.resume_s", self_s(&totals, "fleet.resume"), "s");
    sheet.put("fleet.fanout_gain", serial / run, "ratio");
    sheet.note(format!(
        "fleet.device_us percentiles over {} devices",
        device_us.len()
    ));
    Ok(())
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat '{}': {e}", path.display()))
}
