//! Sample bookkeeping: named sample lists, quantiles, peak RSS.

use std::collections::BTreeMap;

/// Named lists of measured values, each already in its reporting unit.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn extend(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.0.entry(name).or_default().extend(values);
    }

    pub fn append(&mut self, other: Samples) {
        for (name, values) in other.0 {
            self.extend(name, values);
        }
    }

    pub fn into_lists(self) -> impl Iterator<Item = (&'static str, Vec<f64>)> {
        self.0.into_iter()
    }

    pub fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }

    pub fn values(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of a sample list; `None` when it has no samples.
    pub fn median(&self, name: &str) -> Option<f64> {
        quantile(self.values(name), 0.5)
    }

    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        quantile(self.values(name), q)
    }
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Aggregate CPU ticks since boot from `/proc/stat`, as (stolen, busy):
/// busy is every tick a CPU was not idle, stolen ones included. On a
/// virtual machine, steal is time the host ran something else while one
/// of our CPUs had work.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    let busy = f.iter().sum::<u64>().checked_sub(f.get(3)? + f.get(4)?)?;
    Some((*f.get(7)?, busy))
}

/// Share of busy CPU time stolen between two [`cpu_ticks`] readings (0
/// without readings).
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, b0)), Some((s1, b1))) if b1 > b0 => (s1 - s0) as f64 / (b1 - b0) as f64,
        _ => 0.0,
    }
}
