//! The paper's evaluation framework: TTA curves, vNMSE, early stopping, and
//! the utility score.
//!
//! §2.2's argument, made executable:
//!
//! * **TTA is a curve, not a point.** [`TtaCurve`] stores (time, metric)
//!   points; [`TtaCurve::time_to_target`] answers "how long to reach
//!   accuracy X" for *any* X, and [`compare`] reports crossovers between two
//!   schemes instead of a single winner.
//! * **Rolling averages** smooth the raw evaluation series exactly as the
//!   paper does for its figures (0.3 epochs for BERT, 10 for VGG).
//! * **Early stopping** uses Prechelt's GL criterion \[39\], the paper's cited
//!   convergence standard.
//! * **Utility** is TTA improvement over the *FP16* baseline — the paper's
//!   headline definition (§1): a scheme whose TTA merely beats FP32 has not
//!   demonstrated utility.
//! * **vNMSE** (re-exported from `gcs-tensor`) is the cheap proxy for
//!   parameter tuning.

pub use gcs_tensor::vector::vnmse;

/// Whether larger metric values are better (accuracy) or worse (perplexity,
/// loss).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Higher is better (e.g. top-1 accuracy).
    HigherIsBetter,
    /// Lower is better (e.g. perplexity).
    LowerIsBetter,
}

impl Direction {
    /// True if `a` is at least as good as `b`.
    pub fn at_least_as_good(self, a: f64, b: f64) -> bool {
        match self {
            Direction::HigherIsBetter => a >= b,
            Direction::LowerIsBetter => a <= b,
        }
    }

    /// The better of two values.
    pub fn better(self, a: f64, b: f64) -> f64 {
        if self.at_least_as_good(a, b) {
            a
        } else {
            b
        }
    }
}

/// A time-to-accuracy curve: the fundamental end-to-end evaluation object.
#[derive(Clone, Debug)]
pub struct TtaCurve {
    /// (wall-clock seconds, metric value), time strictly increasing.
    pub points: Vec<(f64, f64)>,
    /// Metric direction.
    pub direction: Direction,
    /// Label for reports.
    pub label: String,
}

impl TtaCurve {
    /// Creates an empty curve.
    pub fn new(label: impl Into<String>, direction: Direction) -> TtaCurve {
        TtaCurve {
            points: Vec::new(),
            direction,
            label: label.into(),
        }
    }

    /// Appends an evaluation point.
    ///
    /// # Panics
    /// Panics if `time` does not increase.
    pub fn push(&mut self, time: f64, metric: f64) {
        if let Some(&(t, _)) = self.points.last() {
            assert!(time > t, "TtaCurve: time must increase ({time} after {t})");
        }
        self.points.push((time, metric));
    }

    /// Returns a new curve whose metric is the rolling average over a
    /// window of `window` points (the paper smooths over 3750 rounds for
    /// BERT, 7810 for VGG before plotting).
    pub fn rolling_average(&self, window: usize) -> TtaCurve {
        let window = window.max(1);
        let mut out = TtaCurve::new(self.label.clone(), self.direction);
        let mut sum = 0.0;
        let mut buf: std::collections::VecDeque<f64> = std::collections::VecDeque::new();
        for &(t, m) in &self.points {
            buf.push_back(m);
            sum += m;
            if buf.len() > window {
                sum -= buf.pop_front().unwrap();
            }
            out.points.push((t, sum / buf.len() as f64));
        }
        out
    }

    /// Earliest time at which the (already smoothed) metric reaches
    /// `target`; `None` if it never does — the paper's point that not every
    /// scheme can meet every accuracy target.
    pub fn time_to_target(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(_, m)| self.direction.at_least_as_good(m, target))
            .map(|&(t, _)| t)
    }

    /// The best metric value achieved anywhere on the curve.
    pub fn best_metric(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, m)| m)
            .reduce(|a, b| self.direction.better(a, b))
    }

    /// The first recorded metric. `None` when the curve is empty — a run
    /// that crashed before its first eval produces exactly that, so
    /// consumers must not unwrap.
    pub fn first_metric(&self) -> Option<f64> {
        self.points.first().map(|&(_, m)| m)
    }

    /// The final (last-point) metric.
    pub fn final_metric(&self) -> Option<f64> {
        self.points.last().map(|&(_, m)| m)
    }

    /// Total trained time.
    pub fn total_time(&self) -> f64 {
        self.points.last().map(|&(t, _)| t).unwrap_or(0.0)
    }
}

impl TtaCurve {
    /// Serializes the curve as CSV lines `label,time,metric` (no header).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for &(t, m) in &self.points {
            out.push_str(&format!("{},{t},{m}\n", self.label));
        }
        out
    }

    /// Parses a curve from [`TtaCurve::to_csv`] output (all lines must
    /// share one label).
    ///
    /// # Errors
    /// Returns a description of the first malformed line — including lines
    /// whose time does not strictly increase, which would otherwise violate
    /// the curve's monotonicity invariant.
    pub fn from_csv(csv: &str, direction: Direction) -> Result<TtaCurve, String> {
        let mut curve: Option<TtaCurve> = None;
        for (lineno, line) in csv.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, ',');
            let label = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: empty"))?;
            let t: f64 = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: missing time"))?
                .trim()
                .parse()
                .map_err(|e| format!("line {lineno}: bad time: {e}"))?;
            let m: f64 = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: missing metric"))?
                .trim()
                .parse()
                .map_err(|e| format!("line {lineno}: bad metric: {e}"))?;
            let c = curve.get_or_insert_with(|| TtaCurve::new(label, direction));
            if c.label != label {
                return Err(format!("line {lineno}: label changed mid-file"));
            }
            if let Some(&(prev, _)) = c.points.last() {
                if t <= prev {
                    return Err(format!(
                        "line {lineno}: time {t} does not increase (previous {prev})"
                    ));
                }
            }
            c.push(t, m);
        }
        curve.ok_or_else(|| "empty csv".to_string())
    }
}

/// The utility of `scheme` relative to `baseline` at a given `target`:
/// `baseline_TTA / scheme_TTA` (>1 means the scheme is useful). Returns:
///
/// * `None` if the *baseline* never reaches the target (the target is
///   unreasonable) — or reaches it at `t <= 0`, i.e. before any training
///   time elapsed, in which case the target discriminates nothing and every
///   ratio against it would be 0/0-shaped noise;
/// * `Some(0.0)` if the baseline reaches it but the scheme never does — the
///   compression destroyed final accuracy, the failure mode §2.2 warns
///   about;
/// * `Some(f64::INFINITY)` if the scheme reaches it at `t <= 0` (instantly)
///   while the baseline needs real time;
/// * `Some(ratio)` otherwise.
pub fn utility(scheme: &TtaCurve, baseline: &TtaCurve, target: f64) -> Option<f64> {
    let base = baseline.time_to_target(target)?;
    if base <= 0.0 {
        return None;
    }
    match scheme.time_to_target(target) {
        Some(t) if t > 0.0 => Some(base / t),
        Some(_) => Some(f64::INFINITY),
        None => Some(0.0),
    }
}

/// A crossover-aware comparison of two TTA curves over a grid of targets
/// between the weaker and stronger curve's best metric. Returns, per
/// target, which curve wins — making the paper's "curves can intersect"
/// point (§2.2) directly visible.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// (target metric, winner label, tta_a, tta_b).
    pub rows: Vec<(f64, String, Option<f64>, Option<f64>)>,
}

/// Compares two curves on `targets`.
pub fn compare(a: &TtaCurve, b: &TtaCurve, targets: &[f64]) -> Comparison {
    let mut rows = Vec::new();
    for &target in targets {
        let ta = a.time_to_target(target);
        let tb = b.time_to_target(target);
        let winner = match (ta, tb) {
            (Some(x), Some(y)) => {
                if x <= y {
                    a.label.clone()
                } else {
                    b.label.clone()
                }
            }
            (Some(_), None) => a.label.clone(),
            (None, Some(_)) => b.label.clone(),
            (None, None) => "neither".to_string(),
        };
        rows.push((target, winner, ta, tb));
    }
    Comparison { rows }
}

/// Early stopping via Prechelt's GL (generalization loss) criterion \[39\]:
/// stop when the validation loss exceeds the best seen so far by more than
/// `alpha` percent for `patience` consecutive evaluations. A non-finite
/// metric (divergence) counts as a violation and never becomes the best.
///
/// Metrics with [`Direction::HigherIsBetter`] are internally negated.
#[derive(Clone, Debug)]
pub struct EarlyStopping {
    alpha: f64,
    patience: usize,
    direction: Direction,
    best: Option<f64>,
    strikes: usize,
    min_evals: usize,
    seen: usize,
}

impl EarlyStopping {
    /// Creates the stopper. `alpha` is the GL threshold in percent (Prechelt
    /// suggests ~5); `patience` the consecutive violations required;
    /// `min_evals` a warm-up before stopping is allowed.
    pub fn new(
        alpha: f64,
        patience: usize,
        min_evals: usize,
        direction: Direction,
    ) -> EarlyStopping {
        EarlyStopping {
            alpha,
            patience: patience.max(1),
            direction,
            best: None,
            strikes: 0,
            min_evals,
            seen: 0,
        }
    }

    /// Feeds one validation metric; returns true when training should stop.
    pub fn observe(&mut self, metric: f64) -> bool {
        // Convert to a loss (lower is better). Negation — not `1 - metric` —
        // keeps the conversion valid for metrics on any scale (accuracy in
        // [0, 1] or [0, 100], BLEU, etc.); `1 - metric` went negative beyond
        // 1.0 and silently disabled the GL criterion.
        let loss = match self.direction {
            Direction::LowerIsBetter => metric,
            Direction::HigherIsBetter => -metric,
        };
        self.seen += 1;
        // A non-finite metric is divergence: it never becomes the best and
        // always counts as a GL violation.
        let violation = !loss.is_finite() || {
            let best = self.best.get_or_insert(loss);
            if loss < *best {
                *best = loss;
                self.strikes = 0;
                return false;
            }
            // Scale-invariant GL: relative regression from the best loss, in
            // percent. For positive `best` this is exactly Prechelt's
            // `100·(loss/best − 1)`; normalizing by |best| extends it to the
            // negated-metric (and zero-crossing) cases.
            let gl = if *best != 0.0 {
                100.0 * (loss - *best) / best.abs()
            } else {
                100.0 * (loss - *best)
            };
            gl > self.alpha
        };
        if violation {
            self.strikes += 1;
        } else {
            self.strikes = 0;
        }
        self.seen >= self.min_evals && self.strikes >= self.patience
    }

    /// Best (lowest) internal loss seen so far.
    pub fn best_loss(&self) -> Option<f64> {
        self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(points: &[(f64, f64)], dir: Direction) -> TtaCurve {
        let mut c = TtaCurve::new("c", dir);
        for &(t, m) in points {
            c.push(t, m);
        }
        c
    }

    #[test]
    fn time_to_target_interpolates_forward() {
        let c = curve(
            &[(1.0, 0.2), (2.0, 0.5), (3.0, 0.7)],
            Direction::HigherIsBetter,
        );
        assert_eq!(c.time_to_target(0.5), Some(2.0));
        assert_eq!(c.time_to_target(0.6), Some(3.0));
        assert_eq!(c.time_to_target(0.9), None);
        assert_eq!(c.best_metric(), Some(0.7));
    }

    #[test]
    fn perplexity_direction() {
        let c = curve(
            &[(1.0, 9.0), (2.0, 6.0), (3.0, 5.0)],
            Direction::LowerIsBetter,
        );
        assert_eq!(c.time_to_target(6.0), Some(2.0));
        assert_eq!(c.time_to_target(4.0), None);
        assert_eq!(c.best_metric(), Some(5.0));
    }

    #[test]
    fn rolling_average_smooths() {
        let c = curve(
            &[(1.0, 0.0), (2.0, 1.0), (3.0, 0.0), (4.0, 1.0)],
            Direction::HigherIsBetter,
        );
        let r = c.rolling_average(2);
        assert_eq!(r.points[0].1, 0.0);
        assert_eq!(r.points[1].1, 0.5);
        assert_eq!(r.points[2].1, 0.5);
        // Window of 1 is identity.
        let id = c.rolling_average(1);
        assert_eq!(id.points, c.points);
    }

    #[test]
    fn utility_ratios() {
        let fast = curve(&[(1.0, 0.5), (2.0, 0.9)], Direction::HigherIsBetter);
        let slow = curve(&[(2.0, 0.5), (4.0, 0.9)], Direction::HigherIsBetter);
        // fast reaches 0.9 at t=2, slow at t=4: utility of fast vs slow = 2.
        assert_eq!(utility(&fast, &slow, 0.9), Some(2.0));
        // A scheme that never converges has utility 0.
        let broken = curve(&[(1.0, 0.3), (2.0, 0.3)], Direction::HigherIsBetter);
        assert_eq!(utility(&broken, &slow, 0.9), Some(0.0));
        // Unreachable target: None.
        assert_eq!(utility(&fast, &slow, 0.99), None);
    }

    #[test]
    fn comparison_reports_crossovers() {
        // a converges fast to 0.6; b converges slower but higher (0.9):
        // the canonical crossing-curves example from §2.2.
        let a = curve(&[(1.0, 0.6), (10.0, 0.61)], Direction::HigherIsBetter);
        let b = curve(&[(2.0, 0.3), (5.0, 0.9)], Direction::HigherIsBetter);
        let cmp = compare(&a, &b, &[0.5, 0.8]);
        assert_eq!(cmp.rows[0].1, "c"); // both labelled "c"... use labels:
        let mut a = a;
        a.label = "A".into();
        let mut b = b;
        b.label = "B".into();
        let cmp = compare(&a, &b, &[0.5, 0.8]);
        assert_eq!(cmp.rows[0].1, "A"); // low target: fast converger wins
        assert_eq!(cmp.rows[1].1, "B"); // high target: only B gets there
    }

    #[test]
    fn csv_round_trip() {
        let mut c = TtaCurve::new("scheme-x", Direction::LowerIsBetter);
        c.push(1.5, 30.0);
        c.push(3.0, 12.25);
        let csv = c.to_csv();
        let back = TtaCurve::from_csv(&csv, Direction::LowerIsBetter).unwrap();
        assert_eq!(back.label, "scheme-x");
        assert_eq!(back.points, c.points);
        assert!(TtaCurve::from_csv("", Direction::LowerIsBetter).is_err());
        assert!(TtaCurve::from_csv("a,1,nope", Direction::LowerIsBetter).is_err());
    }

    /// Regression: a CSV whose time column does not strictly increase used
    /// to panic inside `push` (violating the documented error contract);
    /// `from_csv` must return a malformed-line error instead.
    #[test]
    fn from_csv_rejects_non_increasing_time_as_error() {
        let err =
            TtaCurve::from_csv("x,2.0,0.5\nx,2.0,0.6\n", Direction::HigherIsBetter).unwrap_err();
        assert!(err.contains("line 1"), "error should cite the line: {err}");
        assert!(err.contains("does not increase"), "got: {err}");
        let err =
            TtaCurve::from_csv("x,3.0,0.5\nx,1.0,0.6\n", Direction::HigherIsBetter).unwrap_err();
        assert!(err.contains("does not increase"), "got: {err}");
    }

    /// Regression: `utility` divided by a baseline TTA of 0 when the
    /// baseline's first recorded point already met the target, producing a
    /// meaningless 0 (or NaN-shaped) score. A target the baseline meets
    /// before any time elapses discriminates nothing: `None`.
    #[test]
    fn utility_rejects_zero_time_baseline() {
        let instant = curve(&[(0.0, 0.9), (1.0, 0.95)], Direction::HigherIsBetter);
        let scheme = curve(&[(2.0, 0.9)], Direction::HigherIsBetter);
        assert_eq!(utility(&scheme, &instant, 0.9), None);
        // The scheme reaching the target instantly is infinite speed-up.
        let slow_base = curve(&[(4.0, 0.9)], Direction::HigherIsBetter);
        assert_eq!(utility(&instant, &slow_base, 0.9), Some(f64::INFINITY));
    }

    /// Regression: `1 − metric` as the internal loss made any
    /// higher-is-better metric above 1.0 (accuracy in percent, BLEU, …)
    /// yield a negative "loss", and the GL criterion silently never fired.
    /// The negated-metric conversion must stop at the same evaluation for a
    /// metric expressed on the 0–1 and 0–100 scales.
    #[test]
    fn early_stopping_is_scale_invariant_for_accuracy_metrics() {
        // Accuracy rises then regresses hard — a clear stop signal.
        let series = [0.50, 0.80, 0.55, 0.50, 0.45];
        let stop_round = |scale: f64| -> Option<usize> {
            let mut es = EarlyStopping::new(5.0, 2, 0, Direction::HigherIsBetter);
            series.iter().position(|&m| es.observe(m * scale))
        };
        let unit = stop_round(1.0);
        let percent = stop_round(100.0);
        assert!(unit.is_some(), "GL never fired on the 0-1 scale");
        assert_eq!(
            unit, percent,
            "stopping decision must not depend on the metric's scale"
        );
    }

    #[test]
    fn early_stopping_stops_on_plateau() {
        let mut es = EarlyStopping::new(5.0, 2, 3, Direction::LowerIsBetter);
        assert!(!es.observe(10.0));
        assert!(!es.observe(8.0));
        assert!(!es.observe(9.0)); // 12.5% worse: strike 1
        assert!(es.observe(9.5)); // strike 2 -> stop
        assert_eq!(es.best_loss(), Some(8.0));
    }

    #[test]
    fn early_stopping_resets_on_improvement() {
        let mut es = EarlyStopping::new(5.0, 2, 0, Direction::LowerIsBetter);
        assert!(!es.observe(10.0));
        assert!(!es.observe(11.0)); // strike 1
        assert!(!es.observe(9.0)); // new best: strikes reset
        assert!(!es.observe(10.0)); // strike 1 again
        assert!(es.observe(10.0)); // strike 2
    }

    #[test]
    fn early_stopping_accuracy_direction() {
        let mut es = EarlyStopping::new(5.0, 1, 0, Direction::HigherIsBetter);
        assert!(!es.observe(0.5));
        assert!(!es.observe(0.8));
        assert!(es.observe(0.5)); // loss 0.5 vs best 0.2: way past 5%
    }

    #[test]
    fn early_stopping_never_takes_a_non_finite_best() {
        let mut es = EarlyStopping::new(5.0, 2, 0, Direction::LowerIsBetter);
        assert!(!es.observe(f64::NAN)); // strike 1, no best
        assert!(!es.observe(1.0)); // first finite best: strikes reset
        assert_eq!(es.best_loss(), Some(1.0));
        let stop = (0..10).position(|_| es.observe(100.0));
        assert_eq!(stop, Some(1), "two GL violations must stop");
        assert_eq!(es.best_loss(), Some(1.0));
    }

    #[test]
    fn early_stopping_stops_on_non_finite_metrics() {
        let mut es = EarlyStopping::new(5.0, 2, 0, Direction::LowerIsBetter);
        assert!(!es.observe(1.0));
        let stop = (0..10).position(|_| es.observe(f64::NAN));
        assert_eq!(stop, Some(1), "each NaN is a GL violation");
        let mut es = EarlyStopping::new(5.0, 1, 0, Direction::HigherIsBetter);
        assert!(!es.observe(0.5));
        assert!(
            es.observe(f64::INFINITY),
            "an infinite accuracy is divergence"
        );
        assert_eq!(es.best_loss(), Some(-0.5));
    }

    #[test]
    #[should_panic(expected = "time must increase")]
    fn non_monotone_time_rejected() {
        let mut c = TtaCurve::new("x", Direction::HigherIsBetter);
        c.push(1.0, 0.1);
        c.push(1.0, 0.2);
    }
}
