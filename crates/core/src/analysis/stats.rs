//! General per-call statistics (§4.3.1): counts, mean, median, standard
//! deviation, 90th/95th/99th percentiles, histograms and scatter series.

use std::collections::BTreeMap;

use sim_core::stats::nearest_rank;

use crate::events::CallRef;

use super::parents::Instances;

/// Summary statistics for one call across all its instances.
#[derive(Debug, Clone, PartialEq)]
pub struct CallStats {
    /// Number of recorded executions.
    pub count: usize,
    /// Mean raw duration in ns.
    pub mean_ns: f64,
    /// Median raw duration in ns.
    pub median_ns: u64,
    /// Standard deviation of the raw duration in ns.
    pub stddev_ns: f64,
    /// 90th percentile (ns).
    pub p90_ns: u64,
    /// 95th percentile (ns).
    pub p95_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// Minimum (ns).
    pub min_ns: u64,
    /// Maximum (ns).
    pub max_ns: u64,
    /// Total time spent in this call (ns).
    pub total_ns: u64,
    /// Mean AEX count per call (ecalls with AEX observation only).
    pub mean_aex: f64,
    /// Fraction of *adjusted* durations shorter than 1 µs.
    pub frac_under_1us: f64,
    /// Fraction of adjusted durations shorter than 5 µs.
    pub frac_under_5us: f64,
    /// Fraction of adjusted durations shorter than 10 µs.
    pub frac_under_10us: f64,
}

impl CallStats {
    /// Computes statistics from raw and adjusted durations (both in ns)
    /// plus per-instance AEX counts.
    ///
    /// # Panics
    ///
    /// Panics if `durations` is empty.
    pub fn from_durations(durations: &[u64], adjusted: &[u64], aex: &[u64]) -> CallStats {
        assert!(!durations.is_empty(), "no durations to summarise");
        let mut sorted = durations.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let total: u64 = sorted.iter().sum();
        let mean = total as f64 / count as f64;
        let variance = sorted
            .iter()
            .map(|&d| {
                let diff = d as f64 - mean;
                diff * diff
            })
            .sum::<f64>()
            / count as f64;
        let pct = |p| nearest_rank(&sorted, p);
        let frac_under = |limit_ns: u64| -> f64 {
            adjusted.iter().filter(|&&d| d < limit_ns).count() as f64 / count as f64
        };
        CallStats {
            count,
            mean_ns: mean,
            median_ns: pct(50),
            stddev_ns: variance.sqrt(),
            p90_ns: pct(90),
            p95_ns: pct(95),
            p99_ns: pct(99),
            min_ns: sorted[0],
            max_ns: sorted[count - 1],
            total_ns: total,
            mean_aex: aex.iter().sum::<u64>() as f64 / count as f64,
            frac_under_1us: frac_under(1_000),
            frac_under_5us: frac_under(5_000),
            frac_under_10us: frac_under(10_000),
        }
    }
}

/// Computes [`CallStats`] for every distinct call in the trace, sorted by
/// call reference.
pub fn per_call_stats(instances: &Instances) -> Vec<(CallRef, CallStats)> {
    type DurationGroups = BTreeMap<CallRef, (Vec<u64>, Vec<u64>, Vec<u64>)>;
    let mut grouped: DurationGroups = BTreeMap::new();
    for i in &instances.all {
        let entry = grouped.entry(i.call).or_default();
        entry.0.push(i.duration_ns);
        entry.1.push(i.adjusted_ns);
        entry.2.push(i.aex_count);
    }
    grouped
        .into_iter()
        .map(|(call, (dur, adj, aex))| (call, CallStats::from_durations(&dur, &adj, &aex)))
        .collect()
}

/// A histogram of call execution times (Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower bound of the first bin (ns).
    pub min_ns: u64,
    /// Width of each bin (ns, at least 1).
    pub bin_width_ns: u64,
    /// Execution count per bin.
    pub bins: Vec<u64>,
}

impl Histogram {
    /// Builds a histogram of the call's raw durations grouped into
    /// `bin_count` bins (the paper's Figure 7 uses 100).
    ///
    /// Returns `None` when the call has no instances.
    pub fn of_call(instances: &Instances, call: CallRef, bin_count: usize) -> Option<Histogram> {
        let durations: Vec<u64> = instances.of_call(call).map(|i| i.duration_ns).collect();
        if durations.is_empty() || bin_count == 0 {
            return None;
        }
        let min = *durations.iter().min().expect("non-empty");
        let max = *durations.iter().max().expect("non-empty");
        let width = ((max - min) / bin_count as u64 + 1).max(1);
        let mut bins = vec![0u64; bin_count];
        for d in durations {
            let idx = (((d - min) / width) as usize).min(bin_count - 1);
            bins[idx] += 1;
        }
        Some(Histogram {
            min_ns: min,
            bin_width_ns: width,
            bins,
        })
    }

    /// Renders a terminal-friendly bar chart (one row per non-empty bin
    /// group), for quick inspection without external plotting.
    ///
    /// `rows` caps the output height by re-bucketing; `width` is the bar
    /// length of the fullest bin.
    pub fn render_ascii(&self, rows: usize, width: usize) -> String {
        if self.bins.is_empty() || rows == 0 {
            return String::new();
        }
        // Re-bucket into at most `rows` groups.
        let group = self.bins.len().div_ceil(rows);
        let grouped: Vec<u64> = self.bins.chunks(group).map(|c| c.iter().sum()).collect();
        let max = grouped.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, count) in grouped.iter().enumerate() {
            let lo = self.min_ns + (i * group) as u64 * self.bin_width_ns;
            let bar = (*count as usize * width).div_ceil(max as usize);
            out.push_str(&format!(
                "{:>10} |{:<width$}| {}\n",
                sim_core::Nanos::from_nanos(lo).to_string(),
                "#".repeat(if *count > 0 { bar.max(1) } else { 0 }),
                count,
                width = width
            ));
        }
        out
    }

    /// Renders as CSV (`bin_start_ns,count` lines) for external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bin_start_ns,count\n");
        for (i, count) in self.bins.iter().enumerate() {
            out.push_str(&format!(
                "{},{}\n",
                self.min_ns + i as u64 * self.bin_width_ns,
                count
            ));
        }
        out
    }

    /// Renders as JSON (`sgxperf hist --json`), sharing the hand-rolled
    /// serializer with the other `--json` surfaces.
    pub fn to_json(&self) -> String {
        let bins: Vec<String> = self.bins.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"min_ns\": {}, \"bin_width_ns\": {}, \"bins\": [{}]}}\n",
            self.min_ns,
            self.bin_width_ns,
            bins.join(", ")
        )
    }
}

/// A scatter series of call execution times over application time
/// (Figure 8): one `(start_time, duration)` point per execution.
pub fn scatter(instances: &Instances, call: CallRef) -> Vec<(u64, u64)> {
    instances
        .of_call(call)
        .map(|i| (i.start_ns, i.duration_ns))
        .collect()
}

/// Renders a scatter series as CSV (`time_ns,duration_ns`).
pub fn scatter_csv(points: &[(u64, u64)]) -> String {
    let mut out = String::from("time_ns,duration_ns\n");
    for (t, d) in points {
        out.push_str(&format!("{t},{d}\n"));
    }
    out
}

/// Renders a scatter series as JSON (`sgxperf scatter --json`): an array
/// of `[time_ns, duration_ns]` pairs.
pub fn scatter_json(points: &[(u64, u64)]) -> String {
    let pairs: Vec<String> = points.iter().map(|(t, d)| format!("[{t}, {d}]")).collect();
    format!("{{\"points\": [{}]}}\n", pairs.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{CallKind, EcallRow};
    use crate::trace::TraceDb;
    use sim_core::HwProfile;

    #[test]
    fn basic_stats() {
        let durations: Vec<u64> = (1..=100).collect();
        let stats = CallStats::from_durations(&durations, &durations, &vec![0; 100]);
        assert_eq!(stats.count, 100);
        assert!((stats.mean_ns - 50.5).abs() < 1e-9);
        assert_eq!(stats.median_ns, 50);
        assert_eq!(stats.p90_ns, 90);
        assert_eq!(stats.p95_ns, 95);
        assert_eq!(stats.p99_ns, 99);
        assert_eq!(stats.min_ns, 1);
        assert_eq!(stats.max_ns, 100);
        assert_eq!(stats.total_ns, 5050);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        let stats = CallStats::from_durations(&[7, 7, 7], &[7, 7, 7], &[0, 0, 0]);
        assert_eq!(stats.stddev_ns, 0.0);
        assert_eq!(stats.median_ns, 7);
    }

    #[test]
    fn short_fractions_use_adjusted_durations() {
        // Raw durations all 5 us but adjusted (transition-subtracted) 0.8 us.
        let raw = vec![5_000u64; 10];
        let adj = vec![800u64; 10];
        let stats = CallStats::from_durations(&raw, &adj, &[0; 10]);
        assert_eq!(stats.frac_under_1us, 1.0);
        assert_eq!(stats.frac_under_10us, 1.0);
    }

    #[test]
    #[should_panic(expected = "no durations")]
    fn empty_durations_panic() {
        let _ = CallStats::from_durations(&[], &[], &[]);
    }

    fn trace_with_durations(durations: &[u64]) -> TraceDb {
        let mut trace = TraceDb::default();
        let mut t = 0;
        for &d in durations {
            trace.ecalls.insert(EcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: t,
                end_ns: t + d,
                parent_ocall: None,
                aex_count: 0,
                failed: false,
            });
            t += d + 100;
        }
        trace
    }

    #[test]
    fn histogram_buckets_counts() {
        let trace = trace_with_durations(&[1_000, 1_000, 2_000, 10_000]);
        let inst = Instances::build(&trace, &HwProfile::Unpatched.cost_model());
        let call = CallRef {
            enclave: 1,
            kind: CallKind::Ecall,
            index: 0,
        };
        let hist = Histogram::of_call(&inst, call, 10).unwrap();
        assert_eq!(hist.bins.iter().sum::<u64>(), 4);
        assert_eq!(hist.bins[0], 2); // the two 1,000 ns calls
        assert_eq!(*hist.bins.last().unwrap(), 1); // the 10,000 ns call
        let csv = hist.to_csv();
        assert!(csv.starts_with("bin_start_ns,count\n"));
        assert_eq!(csv.lines().count(), 11);
    }

    #[test]
    fn ascii_render_shows_all_counts() {
        let trace = trace_with_durations(&[1_000, 1_000, 2_000, 10_000]);
        let inst = Instances::build(&trace, &HwProfile::Unpatched.cost_model());
        let call = CallRef {
            enclave: 1,
            kind: CallKind::Ecall,
            index: 0,
        };
        let hist = Histogram::of_call(&inst, call, 20).unwrap();
        let text = hist.render_ascii(10, 30);
        assert_eq!(text.lines().count(), 10);
        // Total count is preserved across the re-bucketing.
        let total: u64 = text
            .lines()
            .map(|l| l.rsplit('|').next().unwrap().trim().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 4);
        assert!(text.contains('#'));
    }

    #[test]
    fn histogram_of_absent_call_is_none() {
        let trace = TraceDb::default();
        let inst = Instances::build(&trace, &HwProfile::Unpatched.cost_model());
        let call = CallRef {
            enclave: 1,
            kind: CallKind::Ecall,
            index: 0,
        };
        assert!(Histogram::of_call(&inst, call, 10).is_none());
    }

    #[test]
    fn histogram_and_scatter_json_shapes() {
        let hist = Histogram {
            min_ns: 100,
            bin_width_ns: 50,
            bins: vec![3, 0, 1],
        };
        assert_eq!(
            hist.to_json(),
            "{\"min_ns\": 100, \"bin_width_ns\": 50, \"bins\": [3, 0, 1]}\n"
        );
        assert_eq!(
            scatter_json(&[(0, 500), (600, 700)]),
            "{\"points\": [[0, 500], [600, 700]]}\n"
        );
        assert_eq!(scatter_json(&[]), "{\"points\": []}\n");
    }

    #[test]
    fn scatter_preserves_order_and_times() {
        let trace = trace_with_durations(&[500, 700]);
        let inst = Instances::build(&trace, &HwProfile::Unpatched.cost_model());
        let call = CallRef {
            enclave: 1,
            kind: CallKind::Ecall,
            index: 0,
        };
        let pts = scatter(&inst, call);
        assert_eq!(pts, vec![(0, 500), (600, 700)]);
        assert!(scatter_csv(&pts).contains("600,700"));
    }
}
