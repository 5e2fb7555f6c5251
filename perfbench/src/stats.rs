//! Statistics helpers: medians and quartiles of repeated measurements,
//! percentile selection with a minimum tail, and the peak-RSS reading.

/// The three quartile cut points `(q1, median, q3)` of `values`, computed
/// exactly like Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method, which extrapolates for tiny samples), so the
/// spreads this benchmark states agree with ones recomputed from its
/// printed values. A single value is its own quartiles. Returns `None`
/// for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len() as i64;
    match len {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        _ => {
            let m = len + 1;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m - j * 4) as f64;
                let (lo, hi) = (data[j as usize - 1], data[j as usize]);
                (lo * (4.0 - delta) + hi * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

/// The median of `values` (mean of the middle two for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, mid, _)| mid)
}

/// The percentiles this benchmark may report, lowest first, in parts per
/// ten thousand (integers, so tail sizes are exact).
const PERCENTILES_BP: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The highest of the percentiles 50, 90, 99, 99.9 and 99.99 that still
/// has at least `min_tail` of `samples` beyond it, or `None` when not
/// even the median does.
pub fn highest_percentile(samples: u64, min_tail: u64) -> Option<f64> {
    PERCENTILES_BP
        .iter()
        .rev()
        .find(|&&bp| samples * (10_000 - bp) / 10_000 >= min_tail)
        .map(|&bp| bp as f64 / 100.0)
}

/// The nearest-rank `p`-th percentile of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Parses the peak resident set size (`VmHWM`) out of the text of
/// `/proc/<pid>/status`, in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        assert_eq!(quartiles(&[3.5, 1.0, 2.0]), Some((1.0, 2.0, 3.5)));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0]), Some((1.25, 3.0, 4.75)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(5_000, 10), Some(99.0));
        assert_eq!(highest_percentile(999, 10), Some(90.0));
        assert_eq!(highest_percentile(1_000, 10), Some(99.0));
        assert_eq!(highest_percentile(10_000, 10), Some(99.9));
        assert_eq!(highest_percentile(100_000, 10), Some(99.99));
        assert_eq!(highest_percentile(20, 10), Some(50.0));
        assert_eq!(highest_percentile(19, 10), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let data: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&data, 50.0), Some(50));
        assert_eq!(percentile_sorted(&data, 99.0), Some(99));
        assert_eq!(percentile_sorted(&data, 100.0), Some(100));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn vm_hwm_parse() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   55296 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(54.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t x kB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
