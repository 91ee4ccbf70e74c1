//! Shared reporting helpers for the per-table/figure bench targets.
//!
//! Every bench target prints a header, rows comparing the paper's reported
//! value with our measured value, and (for figures) a CSV block with the
//! full TTA curves so they can be plotted externally.

use gcs_core::metrics::TtaCurve;

/// Prints the standard experiment header.
pub fn header(id: &str, what: &str) {
    println!();
    println!("================================================================");
    println!("{id} — {what}");
    println!("================================================================");
}

/// Prints one paper-vs-measured row with a deviation column.
pub fn paper_vs(label: &str, paper: f64, measured: f64) {
    let dev = if paper != 0.0 {
        format!("{:+6.1}%", (measured - paper) / paper * 100.0)
    } else {
        "   n/a".to_string()
    };
    println!("{label:<44} paper {paper:>9.4}   ours {measured:>9.4}   dev {dev}");
}

/// Prints a measured-only row (no paper-reported number exists).
pub fn measured_only(label: &str, measured: f64) {
    println!("{label:<44} paper     —       ours {measured:>9.4}");
}

/// Prints a qualitative expectation with a pass/fail mark.
pub fn expect(label: &str, holds: bool) {
    println!("[{}] {label}", if holds { "ok" } else { "MISS" });
}

/// Prints a set of smoothed TTA curves as CSV (`label,time_s,metric`).
pub fn print_curves_csv(curves: &[TtaCurve]) {
    println!();
    println!("--- TTA curves (CSV: label,time_s,metric) ---");
    for c in curves {
        for &(t, m) in &c.points {
            println!("{},{:.2},{:.5}", c.label, t, m);
        }
    }
}

/// Summarizes each curve's best metric and time-to-target table.
pub fn print_tta_summary(curves: &[TtaCurve], targets: &[f64], metric_name: &str) {
    println!();
    println!("--- time to {metric_name} target (seconds; '—' = never reached) ---");
    print!("{:<28}", "scheme");
    for t in targets {
        print!("  @{t:<8.3}");
    }
    println!("  best");
    for c in curves {
        print!("{:<28}", c.label);
        for &t in targets {
            match c.time_to_target(t) {
                Some(s) => print!("  {s:<9.1}"),
                None => print!("  {:<9}", "—"),
            }
        }
        println!("  {:.4}", c.best_metric().unwrap_or(f64::NAN));
    }
}

/// Writes a set of curves to `target/experiment-results/<name>.csv`
/// (header `label,time_s,metric`) so figures can be re-plotted without
/// re-running training. Errors are reported but non-fatal — benches must
/// not fail because of a read-only filesystem.
pub fn write_curves_csv(name: &str, curves: &[TtaCurve]) {
    let dir = std::path::Path::new("target").join("experiment-results");
    let path = dir.join(format!("{name}.csv"));
    let mut body = String::from("label,time_s,metric\n");
    for c in curves {
        body.push_str(&c.to_csv());
    }
    let result = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body));
    match result {
        Ok(()) => println!("(curves written to {})", path.display()),
        Err(e) => eprintln!("(could not write {}: {e})", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::metrics::Direction;

    #[test]
    fn helpers_do_not_panic() {
        header("Table X", "smoke test");
        paper_vs("row", 1.0, 1.1);
        paper_vs("zero paper", 0.0, 1.0);
        measured_only("m", 2.0);
        expect("expectation", true);
        let mut c = TtaCurve::new("s", Direction::HigherIsBetter);
        c.push(1.0, 0.5);
        print_curves_csv(&[c.clone()]);
        print_tta_summary(&[c.clone()], &[0.4, 0.9], "accuracy");
        write_curves_csv("smoke_test", &[c]);
    }
}
