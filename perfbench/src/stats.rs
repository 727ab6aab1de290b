//! Small numeric and host helpers: percentiles, digests, peak memory and
//! the host facts every result is reported with.

use std::time::Duration;

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks. `values` need not be sorted; an empty slice
/// yields `NaN`, which callers must never report.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (see [`quantile`]).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile mean: the mean of the middle half of `values` by rank
/// (a quarter of the samples, rounded down, is dropped at each end). When
/// the host switches between a fast and a slow state for part of a run,
/// the median jumps from one state to the other as their shares cross one
/// half, while this moves in proportion to the shares; unlike the plain
/// mean it ignores stalls. An empty slice yields `NaN`.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Milliseconds in a duration, as a float with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: derives independent 64-bit seeds from `(base, index)`.
pub fn mix(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the `Debug` rendering of a value: a stable digest of
/// simulated statistics, so a speed-only change shows them unchanged.
pub fn digest<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable VmHWM line '{line}'"))?;
    Ok(kib / 1024.0)
}

/// CPU time counters, in clock ticks, for telling host load apart from
/// a change in the program: how busy the whole host was, how much of
/// that was this process, and how much the hypervisor took (steal).
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    total: u64,
    busy: u64,
    steal: u64,
    own: u64,
}

impl CpuTicks {
    /// Read `/proc/stat` and `/proc/self/stat`; `None` where unavailable.
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .filter_map(|x| x.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user).
        let &[user, nice, system, idle, iowait, irq, softirq, steal, ..] = fields.as_slice() else {
            return None;
        };
        let own_stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields of the whole line.
        let after_name: Vec<&str> = own_stat.rsplit_once(')')?.1.split_whitespace().collect();
        let own =
            after_name.get(11)?.parse::<u64>().ok()? + after_name.get(12)?.parse::<u64>().ok()?;
        Some(CpuTicks {
            total: user + nice + system + idle + iowait + irq + softirq + steal,
            busy: user + nice + system + irq + softirq,
            steal,
            own,
        })
    }

    /// Since `earlier`: the share of host CPU time stolen by the
    /// hypervisor, and the average number of cores busy with other
    /// processes.
    pub fn since(&self, earlier: &CpuTicks, cores: usize) -> (f64, f64) {
        let total = self.total.saturating_sub(earlier.total).max(1) as f64;
        let steal = self.steal.saturating_sub(earlier.steal) as f64 / total;
        let others = self.busy.saturating_sub(earlier.busy) as f64
            - self.own.saturating_sub(earlier.own) as f64;
        (steal, others.max(0.0) / total * cores as f64)
    }
}

/// Host speed probe: nanoseconds per step of a fixed SplitMix64 chain,
/// the median of five timings of two million steps. It does not depend
/// on the simulator, so when it moves between runs, the host (clock,
/// co-tenants on shared cores) got slower or faster, not the program.
pub fn host_probe_ns() -> f64 {
    const STEPS: u64 = 2_000_000;
    let timings: Vec<f64> = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            let x = (0..STEPS).fold(0u64, mix);
            std::hint::black_box(x);
            start.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .collect();
    median(&timings)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The commit the checkout was made from, read from `.git` without
/// spawning git; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 0.0]), 2.5);
        assert_eq!(interquartile_mean(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert!(interquartile_mean(&[]).is_nan());
    }

    #[test]
    fn seeds_and_digests_are_stable() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_eq!(digest(&[1u32, 2]), digest(&[1u32, 2]));
        assert_ne!(digest(&[1u32, 2]), digest(&[2u32, 1]));
    }
}
