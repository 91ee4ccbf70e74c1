//! The SGD optimizer, operating on flat parameter/gradient vectors.

/// SGD with (heavy-ball) momentum and decoupled weight decay.
///
/// `v ← μ·v + g + λ·θ`, `θ ← θ − η·v` — the standard configuration for both
/// VGG and BERT fine-tuning style runs at small scale.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum coefficient μ.
    pub momentum: f32,
    /// Weight decay λ.
    pub weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates the optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Sgd {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Takes one step **in place**: updates `params` directly from an
    /// (aggregated) gradient, allocating nothing after the first call
    /// (which sizes the velocity buffer).
    ///
    /// # Panics
    /// Panics if the gradient dimension changes between steps.
    pub fn step_into(&mut self, params: &mut [f32], grad: &[f32]) {
        if self.velocity.is_empty() {
            self.velocity = vec![0.0; grad.len()];
        }
        assert_eq!(
            self.velocity.len(),
            grad.len(),
            "Sgd: gradient dimension changed"
        );
        assert_eq!(params.len(), grad.len(), "Sgd: params/grad mismatch");
        for i in 0..grad.len() {
            let g = grad[i] + self.weight_decay * params[i];
            self.velocity[i] = self.momentum * self.velocity[i] + g;
            params[i] -= self.lr * self.velocity[i];
        }
    }

    /// Resets momentum state.
    pub fn reset(&mut self) {
        self.velocity.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let mut x = [1.0f32, 2.0];
        opt.step_into(&mut x, &[0.5, -0.5]);
        assert_eq!(x, [0.95, 2.05]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(1.0, 0.9, 0.0);
        let mut x = [0.0f32];
        opt.step_into(&mut x, &[1.0]);
        let after_first = x[0];
        opt.step_into(&mut x, &[1.0]);
        let second_delta = x[0] - after_first;
        assert_eq!(after_first, -1.0);
        assert!((second_delta - (-1.9)).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let mut opt = Sgd::new(0.1, 0.0, 0.1);
        let mut x = [10.0f32];
        opt.step_into(&mut x, &[0.0]);
        assert!(x[0] < 10.0);
    }

    #[test]
    fn minimizes_a_quadratic() {
        // f(x) = (x - 3)^2, grad = 2(x - 3).
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let mut x = [0.0f32];
        for _ in 0..100 {
            let g = 2.0 * (x[0] - 3.0);
            opt.step_into(&mut x, &[g]);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x = {}", x[0]);
    }

    #[test]
    #[should_panic(expected = "dimension changed")]
    fn dimension_change_detected() {
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        opt.step_into(&mut [0.0], &[1.0]);
        opt.step_into(&mut [0.0, 0.0], &[1.0, 1.0]);
    }
}
