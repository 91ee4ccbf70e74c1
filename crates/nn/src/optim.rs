//! Optimizers operating on flat parameter/gradient vectors.

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

/// Adam with decoupled weight decay (AdamW), operating on flat vectors —
/// the optimizer the paper's BERT experiments would use in practice.
///
/// `m ← β₁m + (1−β₁)g`, `v ← β₂v + (1−β₂)g²`,
/// `θ ← θ − η·( m̂ / (√v̂ + ε) + λθ )` with bias-corrected `m̂`, `v̂`.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate η.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical floor ε.
    pub eps: f32,
    /// Decoupled weight decay λ.
    pub weight_decay: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u32,
}

impl Adam {
    /// Creates AdamW with the standard (0.9, 0.999) betas.
    pub fn new(lr: f32, weight_decay: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Takes one AdamW step **in place**: updates `params` directly,
    /// allocating nothing after the first call (which sizes the moment
    /// buffers).
    ///
    /// # Panics
    /// Panics if the gradient dimension changes between steps.
    pub fn step_into(&mut self, params: &mut [f32], grad: &[f32]) {
        if self.m.is_empty() {
            self.m = vec![0.0; grad.len()];
            self.v = vec![0.0; grad.len()];
        }
        assert_eq!(self.m.len(), grad.len(), "Adam: gradient dimension changed");
        assert_eq!(params.len(), grad.len(), "Adam: params/grad mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..grad.len() {
            let g = grad[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            params[i] -=
                self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * params[i]);
        }
    }

    /// Resets moment state.
    pub fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }
}

/// Learning-rate schedules over training rounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrSchedule {
    /// Constant η.
    Constant,
    /// Linear warmup over `warmup` rounds, then constant.
    Warmup {
        /// Rounds of linear warmup.
        warmup: u64,
    },
    /// Linear warmup then cosine decay to `floor × η` at `total` rounds.
    WarmupCosine {
        /// Rounds of linear warmup.
        warmup: u64,
        /// Total rounds of the schedule.
        total: u64,
        /// Final LR as a fraction of the base LR.
        floor: f32,
    },
}

impl LrSchedule {
    /// The LR multiplier at `round` (multiply by the base η).
    pub fn factor(&self, round: u64) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::Warmup { warmup } => {
                if warmup == 0 || round >= warmup {
                    1.0
                } else {
                    (round + 1) as f32 / warmup as f32
                }
            }
            LrSchedule::WarmupCosine {
                warmup,
                total,
                floor,
            } => {
                if warmup > 0 && round < warmup {
                    (round + 1) as f32 / warmup as f32
                } else if total <= warmup || round >= total {
                    floor
                } else {
                    let progress = (round - warmup) as f32 / (total - warmup) as f32;
                    let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
                    floor + (1.0 - floor) * cos
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_a_quadratic() {
        let mut opt = Adam::new(0.1, 0.0);
        let mut x = [0.0f32];
        for _ in 0..200 {
            let g = 2.0 * (x[0] - 3.0);
            opt.step_into(&mut x, &[g]);
        }
        assert!((x[0] - 3.0).abs() < 0.1, "x = {}", x[0]);
    }

    #[test]
    fn adam_normalizes_gradient_scale() {
        // First-step delta magnitude ~= lr regardless of gradient scale.
        let mut a = Adam::new(0.01, 0.0);
        let mut xa = [0.0f32];
        a.step_into(&mut xa, &[1e-4]);
        let mut b = Adam::new(0.01, 0.0);
        let mut xb = [0.0f32];
        b.step_into(&mut xb, &[1e4]);
        let (d_small, d_big) = (xa[0].abs(), xb[0].abs());
        assert!(
            (d_small - d_big).abs() / d_big < 0.01,
            "{d_small} vs {d_big}"
        );
    }

    #[test]
    fn adam_weight_decay_shrinks_params() {
        let mut opt = Adam::new(0.1, 0.1);
        let mut x = [10.0f32];
        opt.step_into(&mut x, &[0.0]);
        assert!(x[0] < 10.0);
    }

    #[test]
    fn schedule_warmup_ramps_then_holds() {
        let s = LrSchedule::Warmup { warmup: 10 };
        assert!(s.factor(0) < 0.2);
        assert!((s.factor(9) - 1.0).abs() < 1e-6);
        assert_eq!(s.factor(100), 1.0);
    }

    #[test]
    fn schedule_cosine_decays_to_floor() {
        let s = LrSchedule::WarmupCosine {
            warmup: 10,
            total: 110,
            floor: 0.1,
        };
        assert!(s.factor(5) < 1.0); // warming up
        assert!((s.factor(10) - 1.0).abs() < 0.05); // peak
        let mid = s.factor(60);
        assert!(mid < 1.0 && mid > 0.1);
        assert!((s.factor(200) - 0.1).abs() < 1e-6); // floored
                                                     // Monotone decay after warmup.
        let mut prev = s.factor(10);
        for r in 11..110 {
            let f = s.factor(r);
            assert!(f <= prev + 1e-6, "round {r}: {f} > {prev}");
            prev = f;
        }
    }

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
