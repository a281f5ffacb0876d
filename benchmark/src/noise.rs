//! `gridbench noise`: the end-to-end pass in independent sets, the way
//! the driver judges a benchmark. Run `k` of every set uses `seed + k`,
//! so the sets see the same inputs and differ by the host alone. Per
//! metric and workload it prints min / median / MAD and the spread the
//! driver computes (distance between the first and third quartile as a
//! share of the median), and by how much a later set's median is worse than the first's. It fails
//! when a gap or a spread exceeds the metric's bound; `setup_s` is held
//! to the gap alone, as by the driver.

use crate::metrics::{median, Better, END_TO_END};
use crate::workloads::WORKLOADS;
use crate::{run_child, Args};
use std::collections::BTreeMap;

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method).
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let quantile = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quantile(1), quantile(3))
}

pub fn run(args: &Args) -> Result<bool, String> {
    if args.sets < 2 || args.runs < 2 {
        return Err("noise needs --sets >= 2 and --runs >= 2".into());
    }
    // samples[(workload, metric)][set] = one value per run
    let mut samples: BTreeMap<(&str, String), Vec<Vec<f64>>> = BTreeMap::new();
    for set in 0..args.sets {
        for k in 0..args.runs {
            for w in &WORKLOADS {
                eprintln!("set {} run {} {}", set + 1, k + 1, w.name);
                let seed = args.seed.wrapping_add(k as u64);
                for s in run_child(w.name, seed, args.seconds, false)?.1 {
                    let sets = samples.entry((w.name, s.metric)).or_default();
                    sets.resize(set + 1, Vec::new());
                    sets[set].push(s.value);
                }
            }
        }
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "nproc {nproc}, {} sets x {} runs, --seconds {}, seeds {:#x}..+{}\n",
        args.sets,
        args.runs,
        args.seconds,
        args.seed,
        args.runs - 1
    );
    println!(
        "| workload | metric | set | min | median | MAD | spread | worse than set 1 by | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for ((workload, metric), sets) in &samples {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == metric)
            .ok_or(format!("run-one printed an unknown metric {metric}"))?;
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        let first = median(&sets[0]);
        for (i, values) in sets.iter().enumerate() {
            let mid = median(values);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let deviations: Vec<f64> = values.iter().map(|v| (v - mid).abs()).collect();
            let (q1, q3) = quartiles(values);
            let spread = (q3 - q1) / mid;
            // How much worse than set 1; a better median is no gap.
            let worse = match m.better {
                Better::Lower => mid - first,
                Better::Higher => first - mid,
            };
            let gap = worse / first;
            let within = gap <= bound && (spread <= bound || m.name == "setup_s");
            ok &= within;
            println!(
                "| {workload} | {metric} | {} | {min:.6} | {mid:.6} | {:.6} | {:.2} % | {:+.2} % | {:.1} % | {} |",
                i + 1,
                median(&deviations),
                spread * 100.0,
                gap * 100.0,
                bound * 100.0,
                if within { "ok" } else { "OVER" }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_are_pythons() {
        // statistics.quantiles(v, n=4) of the same lists.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        let (q1, q3) = quartiles(&[10.2, 9.7, 11.4, 10.0, 9.9]);
        assert!((q1 - 9.8).abs() < 1e-12 && (q3 - 10.8).abs() < 1e-12);
    }
}
