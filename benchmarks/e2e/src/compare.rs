//! `e2e compare A.json B.json`: one row per (end-to-end metric, workload).
//! Timings and memory are judged against the relative bounds below; utility,
//! sustained rate and failed share by exact rules.
//!
//! A and B are files written by `e2e collect` — every record of one
//! `run.sh` invocation. With `--repeat N` each (metric, workload) has N
//! values per side; the medians are compared and the quartile spread decides
//! whether a difference can be told from noise at all.

use gcs_metrics::Json;

use crate::report::{Better, END_TO_END, RECORD_SCHEMA, UNLISTED_END_TO_END};
use crate::stats::Sample;

/// Schema tag of a collected run file.
pub const RUN_SCHEMA: &str = "gcs-e2e-run/1";

/// Keys of a record's `info` that state how much work the run did. Two
/// files are comparable only when these, `seconds` and `T` all agree.
const WORK_KEYS: [&str; 8] = [
    "rounds_per_scheme",
    "cycles",
    "rounds",
    "ranks",
    "streams",
    "rates_rps",
    "d",
    "dim",
];

/// The share of A's median by which B's may be worse before it is a
/// regression. `BENCHMARK.json` carries wider bounds for the same metrics:
/// the driver that reads it rejects a benchmark whose own run-to-run spread
/// exceeds a bound, so its bounds sit above this shared box's noise, whereas
/// here a spread wider than the bound is answered with *unresolved*.
pub const BOUNDS: [(&str, f64); 7] = [
    ("calm_rounds_per_s", 0.07),
    ("calm_round_ms", 0.10),
    ("rounds_per_s", 0.07),
    ("round_p50_ms", 0.10),
    ("round_p95_ms", 0.20),
    ("peak_rss_mb", 0.10),
    ("setup_s", 0.25),
];

/// Worsening of `setup_s` smaller than this many seconds is within bound
/// whatever share of a short set-up it is ("25 % or 50 ms").
const SETUP_FLOOR_S: f64 = 0.05;

/// How far the exact metrics among [`UNLISTED_END_TO_END`] may worsen, as a
/// share of A's value. `utility_vs_fp16` runs on a simulated clock and repeats exactly for
/// a seed, so anything past rounding is a change in convergence.
/// `max_rate_ok_rps` moves in steps of the rate table: any drop is a step.
/// `failed_share` is judged on its own, from the summed counts: any rise.
const EXACT_RULES: [(&str, f64); 2] = [("utility_vs_fp16", 1e-9), ("max_rate_ok_rps", 0.0)];

/// The verdict on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound and the spread.
    Better,
    /// B is no worse than A by more than the bound.
    WithinBound,
    /// B is worse than A by more than the bound and the spread.
    Worse,
    /// The run-to-run spread is wider than the bound: cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A. `worse_by` is the share of A's median by which B's
/// median is worse (negative when better); `spread` the larger of the two
/// sides' quartile distances as a share of their medians.
pub fn judge(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if worse_by > bound && worse_by > spread {
        Verdict::Worse
    } else if -worse_by > bound && -worse_by > spread {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// One side's untraced records of one workload.
struct Side<'a> {
    records: Vec<&'a Json>,
}

impl Side<'_> {
    fn values(&self, metric: &str) -> Sample {
        Sample::new(
            self.records
                .iter()
                .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_num())
                .collect(),
        )
    }

    /// The seeds of the records, in file order.
    fn seeds(&self) -> Vec<Option<&str>> {
        self.records
            .iter()
            .map(|r| r.get("seed").and_then(Json::as_str))
            .collect()
    }

    fn failed_share(&self) -> f64 {
        let sum = |key: &str| -> f64 {
            self.records
                .iter()
                .filter_map(|r| r.get(key)?.as_num())
                .sum()
        };
        let attempted = sum("attempted");
        if attempted > 0.0 {
            sum("failed") / attempted
        } else {
            0.0
        }
    }
}

fn untraced<'a>(run: &'a Json, workload: &str) -> Side<'a> {
    let records = run
        .get("records")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("traced") == Some(&Json::Bool(false))
        })
        .collect();
    Side { records }
}

fn workloads(run: &Json) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in run.get("records").and_then(Json::as_array).unwrap_or(&[]) {
        if let Some(w) = r.get("workload").and_then(Json::as_str) {
            if !names.iter().any(|n| n == w) {
                names.push(w.to_string());
            }
        }
    }
    names
}

/// Refuses files measured under different generator settings or doing
/// different amounts of work.
fn comparable(a: &Side<'_>, b: &Side<'_>, workload: &str) -> Result<(), String> {
    let (Some(ra), Some(rb)) = (a.records.first(), b.records.first()) else {
        return Err(format!("{workload}: no untraced record on one side"));
    };
    let differ = |what: &str, x: Option<&Json>, y: Option<&Json>| -> Result<(), String> {
        if x == y {
            Ok(())
        } else {
            Err(format!(
                "{workload}: {what} differs ({} vs {}); not comparable",
                x.map_or("absent".into(), Json::render),
                y.map_or("absent".into(), Json::render)
            ))
        }
    };
    let env = |r: &Json, key: &str| r.get("env").and_then(|e| e.get(key)).cloned();
    differ("T", env(ra, "T").as_ref(), env(rb, "T").as_ref())?;
    differ("seconds", ra.get("seconds"), rb.get("seconds"))?;
    for key in WORK_KEYS {
        let info = |r: &'_ Json| r.get("info").and_then(|i| i.get(key)).cloned();
        differ(key, info(ra).as_ref(), info(rb).as_ref())?;
    }
    Ok(())
}

/// Compares two collected runs. Returns the table and whether B passes
/// (no `worse`, no rise in failed share).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (side, run) in [("A", a), ("B", b)] {
        if run.get("schema").and_then(Json::as_str) != Some(RUN_SCHEMA) {
            return Err(format!("{side} is not a collected run ({RUN_SCHEMA})"));
        }
    }
    let mut table = format!(
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A (median)", "B (median)", "B/A", "spread", "bound"
    );
    let mut pass = true;
    for workload in workloads(a) {
        let (sa, sb) = (untraced(a, &workload), untraced(b, &workload));
        comparable(&sa, &sb, &workload)?;
        for (name, bound) in BOUNDS {
            let def = END_TO_END
                .iter()
                .chain(UNLISTED_END_TO_END)
                .find(|d| d.name == name)
                .ok_or_else(|| format!("{name} is not in the catalogue"))?;
            let (va, vb) = (sa.values(def.name), sb.values(def.name));
            if va.n() == 0 || vb.n() == 0 {
                return Err(format!("{workload}: {} missing on one side", def.name));
            }
            let (ma, mb) = (va.median(), vb.median());
            let worse_by = match def.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let spread = va.relative_iqr().max(vb.relative_iqr());
            let bound = if def.name == "setup_s" {
                bound.max(SETUP_FLOOR_S / ma)
            } else {
                bound
            };
            let verdict = judge(worse_by, spread, bound);
            pass &= verdict != Verdict::Worse;
            table.push_str(&format!(
                "{:<12} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>8.4} {:>7.3}  {} (n={}/{}, base A)\n",
                workload,
                def.name,
                ma,
                mb,
                mb / ma,
                spread,
                bound,
                verdict.as_str(),
                va.n(),
                vb.n()
            ));
        }
        for (name, tolerance) in EXACT_RULES {
            let (va, vb) = (sa.values(name), sb.values(name));
            if va.n() == 0 && vb.n() == 0 {
                continue; // not defined on this workload
            }
            if va.n() == 0 || vb.n() == 0 {
                return Err(format!("{workload}: {name} missing on one side"));
            }
            let (ma, mb) = (va.median(), vb.median());
            // Exact for a seed only: other inputs are another experiment.
            let verdict = if name == "utility_vs_fp16" && sa.seeds() != sb.seeds() {
                Verdict::Unresolved
            } else {
                // Both are better when higher.
                judge((ma - mb) / ma, 0.0, tolerance)
            };
            pass &= verdict != Verdict::Worse;
            table.push_str(&format!(
                "{:<12} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>8} {:>7.0e}  {} (n={}/{}, base A)\n",
                workload,
                name,
                ma,
                mb,
                mb / ma,
                "-",
                tolerance,
                verdict.as_str(),
                va.n(),
                vb.n()
            ));
        }
        let (fa, fb) = (sa.failed_share(), sb.failed_share());
        let rose = fb > fa;
        pass &= !rose;
        table.push_str(&format!(
            "{:<12} {:<18} {:>14.6} {:>14.6} {:>9} {:>8} {:>7}  {}\n",
            workload,
            "failed_share",
            fa,
            fb,
            "-",
            "-",
            "+0",
            if rose { "worse" } else { "within bound" }
        ));
    }
    Ok((table, pass))
}

/// Collects every record file of `dir` into one run object.
pub fn collect(dir: &std::path::Path) -> Result<Json, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut records = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        // Chrome traces and earlier collected runs share the directory.
        match Json::parse(&text) {
            Ok(j) if j.get("schema").and_then(Json::as_str) == Some(RECORD_SCHEMA) => {
                records.push(j)
            }
            _ => {}
        }
    }
    if records.is_empty() {
        return Err(format!("no {RECORD_SCHEMA} records in {}", dir.display()));
    }
    Ok(Json::Object(vec![
        ("schema".into(), Json::Str(RUN_SCHEMA.into())),
        ("records".into(), Json::Array(records)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_weigh_the_bound_against_the_spread() {
        // 3 % worse, 7 % bound, quiet runs: fine.
        assert_eq!(judge(0.03, 0.01, 0.07), Verdict::WithinBound);
        // 12 % worse, 7 % bound, quiet runs: a regression.
        assert_eq!(judge(0.12, 0.01, 0.07), Verdict::Worse);
        // 12 % worse but the runs themselves spread 20 %: cannot tell.
        assert_eq!(judge(0.12, 0.20, 0.07), Verdict::Unresolved);
        // Unchanged medians under a spread wider than the bound are
        // unresolved, not "unchanged".
        assert_eq!(judge(0.0, 0.09, 0.07), Verdict::Unresolved);
        // 15 % better, beyond bound and spread.
        assert_eq!(judge(-0.15, 0.02, 0.07), Verdict::Better);
        // A bound of zero: any worsening beyond the spread is worse.
        assert_eq!(judge(1e-6, 0.0, 0.0), Verdict::Worse);
    }

    fn record(workload: &str, t: f64, rounds: f64, rate: f64, failed: f64) -> Json {
        with_metrics(workload, t, rounds, failed, &[("rounds_per_s", rate)])
    }

    /// A record whose bounded metrics all read 1.0 except `values`, which
    /// may also add the exact ones.
    fn with_metrics(
        workload: &str,
        t: f64,
        rounds: f64,
        failed: f64,
        values: &[(&str, f64)],
    ) -> Json {
        let value = |v: f64| Json::Object(vec![("value".into(), Json::Num(v))]);
        let mut metrics: Vec<(String, Json)> = BOUNDS
            .iter()
            .map(|(name, _)| (name.to_string(), value(1.0)))
            .collect();
        for &(name, v) in values {
            metrics.retain(|(n, _)| n != name);
            metrics.push((name.to_string(), value(v)));
        }
        Json::Object(vec![
            ("seed".into(), Json::Str("1".into())),
            ("schema".into(), Json::Str(RECORD_SCHEMA.into())),
            ("workload".into(), Json::Str(workload.into())),
            ("traced".into(), Json::Bool(false)),
            ("seconds".into(), Json::Num(12.0)),
            ("env".into(), Json::Object(vec![("T".into(), Json::Num(t))])),
            ("attempted".into(), Json::Num(100.0)),
            ("failed".into(), Json::Num(failed)),
            ("metrics".into(), Json::Object(metrics)),
            (
                "info".into(),
                Json::Object(vec![("rounds".into(), Json::Num(rounds))]),
            ),
        ])
    }

    fn run_of(records: Vec<Json>) -> Json {
        Json::Object(vec![
            ("schema".into(), Json::Str(RUN_SCHEMA.into())),
            ("records".into(), Json::Array(records)),
        ])
    }

    #[test]
    fn a_slower_b_fails_and_an_equal_b_passes() {
        let a = run_of(vec![record("tcp_ring", 2.0, 1500.0, 200.0, 0.0)]);
        let same = run_of(vec![record("tcp_ring", 2.0, 1500.0, 199.0, 0.0)]);
        let slow = run_of(vec![record("tcp_ring", 2.0, 1500.0, 150.0, 0.0)]);
        let (table, pass) = compare(&a, &same).unwrap();
        assert!(pass, "{table}");
        assert!(table.contains("within bound"));
        let (table, pass) = compare(&a, &slow).unwrap();
        assert!(!pass);
        assert!(table.contains("worse"), "{table}");
    }

    #[test]
    fn a_rise_in_failed_share_fails() {
        let a = run_of(vec![record("aggd_small", 2.0, 10.0, 200.0, 0.0)]);
        let b = run_of(vec![record("aggd_small", 2.0, 10.0, 200.0, 1.0)]);
        let (_, pass) = compare(&a, &b).unwrap();
        assert!(!pass);
    }

    #[test]
    fn exact_metrics_fail_on_any_drop() {
        let run = |utility: f64, rate: f64| {
            run_of(vec![
                with_metrics(
                    "train_bert",
                    2.0,
                    1200.0,
                    0.0,
                    &[("utility_vs_fp16", utility)],
                ),
                with_metrics("aggd_small", 2.0, 10.0, 0.0, &[("max_rate_ok_rps", rate)]),
            ])
        };
        let a = run(1.25, 400.0);
        let (table, pass) = compare(&a, &run(1.25, 800.0)).unwrap();
        assert!(pass, "{table}");
        assert!(table.contains("utility_vs_fp16") && table.contains("max_rate_ok_rps"));
        // One rate step down.
        assert!(!compare(&a, &run(1.25, 200.0)).unwrap().1);
        // Convergence moved in the sixth digit.
        assert!(!compare(&a, &run(1.249999, 400.0)).unwrap().1);
    }

    #[test]
    fn utility_is_not_judged_across_seeds() {
        let a = run_of(vec![with_metrics(
            "train_vgg",
            2.0,
            600.0,
            0.0,
            &[("utility_vs_fp16", 1.4)],
        )]);
        let mut other = with_metrics("train_vgg", 2.0, 600.0, 0.0, &[("utility_vs_fp16", 1.1)]);
        if let Json::Object(fields) = &mut other {
            fields.retain(|(k, _)| k != "seed");
            fields.push(("seed".into(), Json::Str("2".into())));
        }
        let (table, pass) = compare(&a, &run_of(vec![other])).unwrap();
        assert!(pass);
        assert!(table.contains("unresolved"), "{table}");
    }

    #[test]
    fn a_short_set_up_may_grow_by_fifty_milliseconds() {
        let run = |setup: f64| {
            run_of(vec![with_metrics(
                "tcp_ring",
                2.0,
                2000.0,
                0.0,
                &[("setup_s", setup)],
            )])
        };
        // +40 ms on 50 ms is 80 %, but inside the floor; +60 ms is not.
        assert!(compare(&run(0.05), &run(0.09)).unwrap().1);
        assert!(!compare(&run(0.05), &run(0.11)).unwrap().1);
    }

    #[test]
    fn files_with_different_t_or_round_counts_are_refused() {
        let a = run_of(vec![record("tcp_ring", 2.0, 1500.0, 200.0, 0.0)]);
        let other_t = run_of(vec![record("tcp_ring", 1.0, 1500.0, 200.0, 0.0)]);
        let other_rounds = run_of(vec![record("tcp_ring", 2.0, 500.0, 200.0, 0.0)]);
        assert!(compare(&a, &other_t).unwrap_err().contains("T differs"));
        assert!(compare(&a, &other_rounds)
            .unwrap_err()
            .contains("rounds differs"));
    }
}
