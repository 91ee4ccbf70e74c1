//! Loss functions.

/// Softmax cross-entropy over `[batch × classes]` logits.
///
/// Returns the mean loss and, when `grad` is given, overwrites it with
/// `d(loss)/d(logits)`; the gradient is already divided by the batch size,
/// so downstream gradients are per-sample averages (the convention DDP's
/// mean-reduction expects). Evaluation passes `None` and pays for the loss
/// alone.
///
/// # Panics
/// Panics if dimensions disagree or a target class is out of range.
pub fn softmax_cross_entropy(
    logits: &[f32],
    targets: &[usize],
    classes: usize,
    mut grad: Option<&mut [f32]>,
) -> f32 {
    let batch = targets.len();
    assert_eq!(
        logits.len(),
        batch * classes,
        "softmax_cross_entropy: logits shape"
    );
    if let Some(g) = &grad {
        assert_eq!(g.len(), logits.len(), "softmax_cross_entropy: grad shape");
    }
    let mut loss = 0.0f64;
    for (s, &t) in targets.iter().enumerate() {
        assert!(
            t < classes,
            "softmax_cross_entropy: target {t} out of range"
        );
        let row = &logits[s * classes..(s + 1) * classes];
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let exps = row.iter().map(|&x| (x - max).exp());
        let sum: f32 = match grad.as_deref_mut() {
            None => exps.sum(),
            // The gradient row holds the exponentials until their sum is
            // known.
            Some(g) => {
                let grow = &mut g[s * classes..(s + 1) * classes];
                for (e, x) in grow.iter_mut().zip(exps) {
                    *e = x;
                }
                let sum = grow.iter().sum();
                for (c, e) in grow.iter_mut().enumerate() {
                    *e = (*e / sum - f32::from(c == t)) / batch as f32;
                }
                sum
            }
        };
        loss += (sum.ln() + max - row[t]) as f64;
    }
    (loss / batch as f64) as f32
}

/// Top-1 accuracy of `[batch × classes]` logits against targets.
pub fn top1_accuracy(logits: &[f32], targets: &[usize], classes: usize) -> f64 {
    let batch = targets.len();
    if batch == 0 {
        return 0.0;
    }
    let mut correct = 0usize;
    for (s, &t) in targets.iter().enumerate() {
        let row = &logits[s * classes..(s + 1) * classes];
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        correct += usize::from(argmax == t);
    }
    correct as f64 / batch as f64
}

/// Perplexity from a mean cross-entropy loss: `exp(loss)`.
pub fn perplexity(mean_ce_loss: f64) -> f64 {
    mean_ce_loss.exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loss and gradient together.
    fn loss_and_grad(logits: &[f32], targets: &[usize], classes: usize) -> (f32, Vec<f32>) {
        let mut grad = vec![f32::NAN; logits.len()];
        let loss = softmax_cross_entropy(logits, targets, classes, Some(&mut grad));
        (loss, grad)
    }

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let loss = softmax_cross_entropy(&[0.0, 0.0, 0.0, 0.0], &[2], 4, None);
        assert!((loss - (4f32).ln()).abs() < 1e-6);
        assert!((perplexity(loss as f64) - 4.0).abs() < 1e-4);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let loss = softmax_cross_entropy(&[10.0, -10.0], &[0], 2, None);
        assert!(loss < 1e-4);
    }

    #[test]
    fn gradient_sums_to_zero_per_sample() {
        let (_, grad) = loss_and_grad(&[1.0, 2.0, 3.0], &[0], 3);
        let s: f32 = grad.iter().sum();
        assert!(s.abs() < 1e-6);
        // Gradient is negative at the target, positive elsewhere.
        assert!(grad[0] < 0.0 && grad[1] > 0.0 && grad[2] > 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = vec![0.3f32, -0.7, 1.2, 0.1, 0.9, -0.2];
        let targets = vec![2usize, 0];
        let (loss, grad) = loss_and_grad(&logits, &targets, 3);
        // Asking for the gradient does not change the loss.
        assert_eq!(loss, softmax_cross_entropy(&logits, &targets, 3, None));
        let eps = 1e-3f32;
        for i in 0..6 {
            let mut lp = logits.clone();
            lp[i] += eps;
            let loss_p = softmax_cross_entropy(&lp, &targets, 3, None);
            let mut lm = logits.clone();
            lm[i] -= eps;
            let loss_m = softmax_cross_entropy(&lm, &targets, 3, None);
            let numeric = (loss_p - loss_m) / (2.0 * eps);
            assert!(
                (grad[i] - numeric).abs() < 1e-3,
                "logit {i}: {} vs {numeric}",
                grad[i]
            );
        }
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = vec![1.0, 2.0, /* -> 1 */ 5.0, 0.0 /* -> 0 */];
        assert_eq!(top1_accuracy(&logits, &[1, 0], 2), 1.0);
        assert_eq!(top1_accuracy(&logits, &[0, 0], 2), 0.5);
        assert_eq!(top1_accuracy(&[], &[], 2), 0.0);
    }

    #[test]
    fn numerical_stability_with_huge_logits() {
        let (loss, grad) = loss_and_grad(&[1000.0, -1000.0], &[0], 2);
        assert!(loss.is_finite() && loss < 1e-4);
        assert!(grad.iter().all(|g| g.is_finite()));
    }
}
