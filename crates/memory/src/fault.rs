//! The unified fault universe of the self-checking memory: **where** a
//! fault strikes ([`FaultSite`]) and **when/how it manifests over time**
//! ([`FaultProcess`]).
//!
//! Single-fault assumption, as throughout the self-checking literature: one
//! fault at a time, anywhere in the design — storage cells, either decoder,
//! either NOR matrix, or the data register. A [`FaultScenario`] pairs a
//! site with a temporal process; `FaultProcess::Permanent { onset: 0 }` is
//! the classical injected-at-reset stuck-at the rest of the workspace grew
//! up on, and is the exact semantic identity of the historical
//! `Option<FaultSite>` contract.

use crate::decoder_unit::DecoderFault;
use scm_obs::EventKind;
use std::fmt;

/// Every place a single stuck-at fault can strike the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// A storage cell pinned to a value.
    Cell {
        /// Physical row.
        row: usize,
        /// Physical column (including the parity column group).
        col: usize,
        /// Stuck value.
        stuck: bool,
    },
    /// A fault inside the row decoder.
    RowDecoder(DecoderFault),
    /// A fault inside the column decoder.
    ColDecoder(DecoderFault),
    /// One programmed position of the row-decoder ROM flipped
    /// (missing/extra transistor): affects the emitted word only while the
    /// line is active.
    RowRomBit {
        /// Decoder line (row index).
        line: u64,
        /// Output bit position.
        bit: u32,
    },
    /// One programmed position of the column-decoder ROM flipped.
    ColRomBit {
        /// Decoder line (column-select index).
        line: u64,
        /// Output bit position.
        bit: u32,
    },
    /// A ROM output column stuck (broken pull-up / shorted column) on the
    /// row-decoder ROM.
    RowRomColumn {
        /// Output bit position.
        bit: u32,
        /// Stuck value.
        stuck: bool,
    },
    /// A ROM output column stuck on the column-decoder ROM.
    ColRomColumn {
        /// Output bit position.
        bit: u32,
        /// Stuck value.
        stuck: bool,
    },
    /// A data-register bit stuck (covers the read path after the MUX).
    DataRegisterBit {
        /// Bit position within the `m`-bit word.
        bit: u32,
        /// Stuck value.
        stuck: bool,
    },
}

impl FaultSite {
    /// Short class name for reporting.
    pub fn class(&self) -> &'static str {
        match self {
            FaultSite::Cell { .. } => "cell",
            FaultSite::RowDecoder(_) => "row-decoder",
            FaultSite::ColDecoder(_) => "col-decoder",
            FaultSite::RowRomBit { .. } => "row-rom-bit",
            FaultSite::ColRomBit { .. } => "col-rom-bit",
            FaultSite::RowRomColumn { .. } => "row-rom-col",
            FaultSite::ColRomColumn { .. } => "col-rom-col",
            FaultSite::DataRegisterBit { .. } => "data-register",
        }
    }
}

impl fmt::Display for FaultSite {
    /// The one human-readable site spelling every report shares (the
    /// `scm-diag` walkthrough and the campaign worst-offender lists used
    /// to re-derive these strings ad hoc).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn decoder(f: &mut fmt::Formatter<'_>, which: &str, d: &DecoderFault) -> fmt::Result {
            write!(
                f,
                "{which} block {}b@{} value {} stuck-at-{}",
                d.bits, d.offset, d.value, d.stuck_one as u8
            )
        }
        match self {
            FaultSite::Cell { row, col, stuck } => {
                write!(f, "cell (row {row}, col {col}, stuck-at-{})", *stuck as u8)
            }
            FaultSite::RowDecoder(d) => decoder(f, "row-decoder", d),
            FaultSite::ColDecoder(d) => decoder(f, "col-decoder", d),
            FaultSite::RowRomBit { line, bit } => {
                write!(f, "row-rom-bit (line {line}, bit {bit})")
            }
            FaultSite::ColRomBit { line, bit } => {
                write!(f, "col-rom-bit (line {line}, bit {bit})")
            }
            FaultSite::RowRomColumn { bit, stuck } => {
                write!(f, "row-rom-col (bit {bit}, stuck-at-{})", *stuck as u8)
            }
            FaultSite::ColRomColumn { bit, stuck } => {
                write!(f, "col-rom-col (bit {bit}, stuck-at-{})", *stuck as u8)
            }
            FaultSite::DataRegisterBit { bit, stuck } => {
                write!(f, "data-register (bit {bit}, stuck-at-{})", *stuck as u8)
            }
        }
    }
}

/// A storage-cell coordinate — the aggressor reference of a coupling
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellRef {
    /// Physical row.
    pub row: usize,
    /// Physical column (including the parity group).
    pub col: usize,
}

/// How a coupling defect corrupts its victim when the aggressor cell
/// transitions (the classical CFin / CFid taxonomy of March testing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CouplingKind {
    /// Inversion coupling (CFin): any aggressor transition inverts the
    /// victim's stored value.
    Inversion,
    /// Idempotent coupling (CFid): any aggressor transition forces the
    /// victim to a fixed value.
    Idempotent {
        /// The value the victim is forced to.
        value: bool,
    },
}

/// The temporal law of a fault: when (and for how long) the defect at a
/// [`FaultSite`] actually manifests, on the cycle clock that starts at a
/// backend's `reset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultProcess {
    /// A hard defect pinned from `onset` onward. `onset = 0` is the
    /// classical injected-at-reset model.
    Permanent {
        /// First cycle the site is pinned.
        onset: u64,
    },
    /// A one-shot soft error at cycle `at`. On a storage cell this is a
    /// genuine state corruption — the stored bit is flipped once and a
    /// later rewrite (or the detect-and-restore of a scrub read) clears
    /// it; on a combinational site (decoder, ROM, register) it is a
    /// single-cycle glitch, pinned for exactly that cycle.
    TransientFlip {
        /// The cycle the upset strikes.
        at: u64,
    },
    /// A marginal contact: from `onset` onward the site is pinned for the
    /// first `duty` cycles of every `period`-cycle window and clean for
    /// the rest (`period = 0` degenerates to `Permanent { onset }`).
    Intermittent {
        /// First cycle of the first active window.
        onset: u64,
        /// Window length in cycles.
        period: u64,
        /// Active cycles per window.
        duty: u64,
    },
    /// A coupling defect: the scenario's (cell) site is the victim; every
    /// write transition of the aggressor cell corrupts it per `kind`.
    /// The defect exists from cycle 0 but its corruption is triggered by
    /// operation history, not by the clock.
    Coupling {
        /// The aggressor cell.
        aggressor: CellRef,
        /// Inversion or idempotent corruption.
        kind: CouplingKind,
    },
}

impl FaultProcess {
    /// The classical injected-at-reset model.
    pub const PERMANENT: FaultProcess = FaultProcess::Permanent { onset: 0 };

    /// Short class name for reporting and per-process splits.
    pub fn class(&self) -> &'static str {
        match self {
            FaultProcess::Permanent { .. } => "permanent",
            FaultProcess::TransientFlip { .. } => "transient",
            FaultProcess::Intermittent { .. } => "intermittent",
            FaultProcess::Coupling { .. } => "coupling",
        }
    }

    /// Is the scenario's site pinned (realised as a stuck-at) on `cycle`?
    /// This is the activation window both simulation backends honour; a
    /// `TransientFlip` on a storage cell is realised as a one-shot state
    /// flip instead (backends special-case it), and `Coupling` never pins
    /// — its corruption rides aggressor writes.
    pub fn pins_site_at(&self, cycle: u64) -> bool {
        match *self {
            FaultProcess::Permanent { onset } => cycle >= onset,
            FaultProcess::TransientFlip { at } => cycle == at,
            FaultProcess::Intermittent {
                onset,
                period,
                duty,
            } => cycle >= onset && (period == 0 || (cycle - onset) % period < duty.min(period)),
            FaultProcess::Coupling { .. } => false,
        }
    }

    /// The cycle the defect first *can* matter (`None` for coupling,
    /// whose manifestation depends on operation history).
    pub fn onset(&self) -> Option<u64> {
        match *self {
            FaultProcess::Permanent { onset } => Some(onset),
            FaultProcess::TransientFlip { at } => Some(at),
            FaultProcess::Intermittent { onset, .. } => Some(onset),
            FaultProcess::Coupling { .. } => None,
        }
    }

    /// The cycle state is *silently corrupted*, when the process has one:
    /// only a transient flip deposits an error into storage at a known
    /// instant before any output errs. Latency and Aupy-style lost-work
    /// accounting anchor here; every other process anchors at the first
    /// observed erroneous output (the paper's definition).
    pub fn corruption_onset(&self) -> Option<u64> {
        match *self {
            FaultProcess::TransientFlip { at } => Some(at),
            _ => None,
        }
    }

    /// The trace event marking the onset in a trial that simulated
    /// `cycles_run` cycles, as `(cycle, kind)`: an SEU strike at a
    /// transient's flip cycle, an activation at every other process's
    /// first active window (couplings are armed from cycle 0). `None`
    /// when the onset lies beyond the simulated cycles.
    pub fn onset_event(&self, cycles_run: u64) -> Option<(u64, EventKind)> {
        let kind = match self {
            FaultProcess::TransientFlip { .. } => EventKind::SeuStrike,
            _ => EventKind::Activate,
        };
        match self.onset() {
            Some(cycle) => (cycle < cycles_run).then_some((cycle, kind)),
            None => Some((0, kind)),
        }
    }
}

/// One fully specified fault: a site and the temporal process that
/// activates it. The unit every backend [`reset`] consumes and every
/// campaign grid enumerates.
///
/// [`reset`]: crate::backend::FaultSimBackend::reset
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultScenario {
    /// Where the fault strikes.
    pub site: FaultSite,
    /// When and how it manifests.
    pub process: FaultProcess,
}

impl FaultScenario {
    /// The classical scenario: `site` pinned from cycle 0 — the exact
    /// semantics of the historical `Option<FaultSite>` reset contract.
    pub fn permanent(site: FaultSite) -> Self {
        FaultScenario {
            site,
            process: FaultProcess::PERMANENT,
        }
    }

    /// A one-shot soft error on `site` at cycle `at`.
    pub fn transient(site: FaultSite, at: u64) -> Self {
        FaultScenario {
            site,
            process: FaultProcess::TransientFlip { at },
        }
    }

    /// Does the process corrupt *stored state* (rather than pinning a
    /// signal)? Such corruptions are recoverable: the behavioural model's
    /// detect-and-restore heals the word once an indication fires.
    pub fn corrupts_state(&self) -> bool {
        match self.process {
            FaultProcess::TransientFlip { .. } => matches!(self.site, FaultSite::Cell { .. }),
            FaultProcess::Coupling { .. } => true,
            _ => false,
        }
    }
}

impl From<FaultSite> for FaultScenario {
    fn from(site: FaultSite) -> Self {
        FaultScenario::permanent(site)
    }
}

impl fmt::Display for FaultScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.process {
            FaultProcess::Permanent { onset: 0 } => write!(f, "{}", self.site),
            FaultProcess::Permanent { onset } => {
                write!(f, "{} [permanent from {onset}]", self.site)
            }
            FaultProcess::TransientFlip { at } => write!(f, "{} [transient @ {at}]", self.site),
            FaultProcess::Intermittent {
                onset,
                period,
                duty,
            } => write!(
                f,
                "{} [intermittent from {onset}, {duty}/{period}]",
                self.site
            ),
            FaultProcess::Coupling { aggressor, kind } => write!(
                f,
                "{} [coupled to ({}, {}), {}]",
                self.site,
                aggressor.row,
                aggressor.col,
                match kind {
                    CouplingKind::Inversion => "inversion".to_owned(),
                    CouplingKind::Idempotent { value } => format!("idempotent->{}", value as u8),
                }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_distinct() {
        let sites = [
            FaultSite::Cell {
                row: 0,
                col: 0,
                stuck: false,
            },
            FaultSite::RowDecoder(DecoderFault {
                bits: 1,
                offset: 0,
                value: 0,
                stuck_one: true,
            }),
            FaultSite::ColDecoder(DecoderFault {
                bits: 1,
                offset: 0,
                value: 0,
                stuck_one: false,
            }),
            FaultSite::RowRomBit { line: 0, bit: 0 },
            FaultSite::ColRomBit { line: 0, bit: 0 },
            FaultSite::RowRomColumn {
                bit: 0,
                stuck: true,
            },
            FaultSite::ColRomColumn {
                bit: 0,
                stuck: false,
            },
            FaultSite::DataRegisterBit {
                bit: 0,
                stuck: true,
            },
        ];
        let mut names: Vec<&str> = sites.iter().map(|s| s.class()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), sites.len());
        // Display strings are distinct too (they key report dictionaries).
        let mut displays: Vec<String> = sites.iter().map(|s| s.to_string()).collect();
        displays.sort_unstable();
        displays.dedup();
        assert_eq!(displays.len(), sites.len());
    }

    #[test]
    fn display_matches_the_diag_walkthrough_spelling() {
        let site = FaultSite::Cell {
            row: 6,
            col: 9,
            stuck: true,
        };
        assert_eq!(site.to_string(), "cell (row 6, col 9, stuck-at-1)");
    }

    #[test]
    fn sites_are_orderable_and_hashable() {
        let mut sites = [
            FaultSite::DataRegisterBit {
                bit: 1,
                stuck: true,
            },
            FaultSite::Cell {
                row: 1,
                col: 2,
                stuck: false,
            },
            FaultSite::Cell {
                row: 0,
                col: 9,
                stuck: true,
            },
        ];
        sites.sort();
        assert_eq!(
            sites[0],
            FaultSite::Cell {
                row: 0,
                col: 9,
                stuck: true
            },
            "cells order before register bits, row-major"
        );
        let set: std::collections::HashSet<FaultSite> = sites.iter().copied().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn permanent_zero_is_the_identity_process() {
        let p = FaultProcess::PERMANENT;
        for cycle in [0u64, 1, 7, 1_000_000] {
            assert!(p.pins_site_at(cycle));
        }
        assert_eq!(p.onset(), Some(0));
        assert_eq!(p.corruption_onset(), None);
        assert_eq!(p.class(), "permanent");
    }

    #[test]
    fn activation_windows() {
        let late = FaultProcess::Permanent { onset: 5 };
        assert!(!late.pins_site_at(4));
        assert!(late.pins_site_at(5));

        let glitch = FaultProcess::TransientFlip { at: 3 };
        assert!(!glitch.pins_site_at(2));
        assert!(glitch.pins_site_at(3));
        assert!(!glitch.pins_site_at(4));
        assert_eq!(glitch.corruption_onset(), Some(3));

        let flaky = FaultProcess::Intermittent {
            onset: 2,
            period: 4,
            duty: 1,
        };
        let active: Vec<bool> = (0..10).map(|c| flaky.pins_site_at(c)).collect();
        assert_eq!(
            active,
            [false, false, true, false, false, false, true, false, false, false]
        );
        // Degenerate shapes cannot divide by zero or over-pin.
        assert!(FaultProcess::Intermittent {
            onset: 0,
            period: 0,
            duty: 0
        }
        .pins_site_at(9));
        assert!(FaultProcess::Intermittent {
            onset: 0,
            period: 3,
            duty: 9
        }
        .pins_site_at(2));

        let coupled = FaultProcess::Coupling {
            aggressor: CellRef { row: 0, col: 0 },
            kind: CouplingKind::Inversion,
        };
        assert!(!coupled.pins_site_at(0));
        assert_eq!(coupled.onset(), None);
    }

    #[test]
    fn scenario_state_classification() {
        let cell = FaultSite::Cell {
            row: 0,
            col: 0,
            stuck: true,
        };
        let reg = FaultSite::DataRegisterBit {
            bit: 0,
            stuck: true,
        };
        assert!(FaultScenario::transient(cell, 4).corrupts_state());
        assert!(!FaultScenario::transient(reg, 4).corrupts_state());
        assert!(!FaultScenario::permanent(cell).corrupts_state());
        let scenario: FaultScenario = cell.into();
        assert_eq!(scenario.process, FaultProcess::PERMANENT);
        assert_eq!(scenario.to_string(), "cell (row 0, col 0, stuck-at-1)");
    }
}
