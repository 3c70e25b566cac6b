//! Order statistics for timings and counts.

use std::time::Instant;

/// Nearest-rank percentile (`0 < p <= 1`) of an unsorted sample; 0 for
/// an empty one.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * p).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median as the mean of the two middle values for even counts.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Host time of an unhindered unit, from every unit's per-step times:
/// the sum over steps of the step's fastest time across units. On a
/// shared host, contention from other guests only ever slows a step, and
/// it comes in spells that can cover most of a run, so a median of steps
/// moves with the neighbours' load. The fastest of a run's copies of a
/// step is the one contention touched least. Every unit has the same
/// steps and does the same work.
pub fn fastest_profile(units: &[Vec<f64>]) -> f64 {
    let steps = units.first().map_or(0, Vec::len);
    assert!(
        units.iter().all(|u| u.len() == steps),
        "every unit times the same steps"
    );
    (0..steps)
        .map(|j| units.iter().map(|u| u[j]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// CPU time the hypervisor gave to other guests, summed over this
/// machine's CPUs: the `steal` column of `/proc/stat`, in seconds
/// (`USER_HZ` is 100 on Linux); 0 where the file is missing.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Per-step host times of one unit: each `lap` records the wall time
/// since the previous one (or since `start`).
pub struct Laps {
    last: Instant,
    pub times: Vec<f64>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            times: Vec::new(),
        }
    }

    pub fn lap(&mut self) {
        let now = Instant::now();
        self.times.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    pub fn total(&self) -> f64 {
        self.times.iter().sum()
    }
}

/// How fast the host runs right now, from a fixed piece of work that
/// uses nothing but its own buffers: sort a copy of 64k pseudo-random
/// keys, then insert them into and look them up in an open-addressing
/// table of 1 MiB. No allocation happens after `new`, so the program's
/// heap cannot slow it down; the benchmark's layers never run it, so no
/// change to them can speed it up.
///
/// On the shared 2-vCPU development host, spells of contention from
/// other guests slowed every phase of a run together, by up to 1.9×
/// over minutes, and slowed this loop with them (1.5× in the same
/// runs). An untraced run scales its host times by `REFERENCE_S` over
/// the fastest sample of this loop, taking the median of that factor
/// over its child processes, so they read as times on the host at the
/// reference speed. (The same loop on every CPU at once, timed as a
/// fork/join, varied about twice as much between processes.)
pub struct Calibration {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    table: Vec<u64>,
    pub samples: Vec<f64>,
}

/// A round figure near the loop's fastest time on the development host,
/// where the fastest sample of a process ranged from 1.9 ms (quiet) to
/// over 3 ms (contended).
pub const REFERENCE_S: f64 = 0.0022;

impl Calibration {
    pub fn new() -> Calibration {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let keys: Vec<u64> = (0..1 << 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x | 1
            })
            .collect();
        Calibration {
            sorted: vec![0; keys.len()],
            table: vec![0; 1 << 17],
            keys,
            samples: Vec::new(),
        }
    }

    /// Time the loop `n` times.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t = Instant::now();
            self.sorted.copy_from_slice(&self.keys);
            self.sorted.sort_unstable();
            self.table.fill(0);
            let mask = self.table.len() - 1;
            let slot = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
            for &k in &self.keys {
                let mut i = slot(k);
                while self.table[i] != 0 {
                    i = (i + 1) & mask;
                }
                self.table[i] = k;
            }
            let mut found = 0usize;
            for &k in &self.keys {
                let mut i = slot(k);
                while self.table[i] != k && self.table[i] != 0 {
                    i = (i + 1) & mask;
                }
                found += (self.table[i] == k) as usize;
            }
            std::hint::black_box((found, self.sorted[0]));
            self.samples.push(t.elapsed().as_secs_f64());
        }
    }

    /// The fastest sample; infinite before the first.
    pub fn fastest(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` when the sample is smaller than twenty.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0)
}

/// `median=… p<tail>=… n=…` for a timing sample, as the report prints
/// it.
pub fn describe(xs: &[f64], unit: &str) -> String {
    let mut s = format!("median={:.6}{unit}", median(xs));
    match supported_tail(xs.len()) {
        Some(p) => s += &format!(" p{}={:.6}{unit}", p * 100.0, percentile(xs, p)),
        None => s += &format!(" max={:.6}{unit}", max(xs)),
    }
    s + &format!(" n={}", xs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&xs, 0.99), 5.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn profile_sums_fastest_steps() {
        // Unit 2's slow first step and unit 0's slow second step both
        // drop out; the fastest whole unit (3) took 1 + 2 as well.
        let units = vec![vec![1.0, 3.0], vec![1.5, 2.0], vec![3.0, 1.5]];
        assert_eq!(fastest_profile(&units), 2.5);
        assert_eq!(fastest_profile(&[]), 0.0);
    }
}
