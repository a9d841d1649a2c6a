//! The moment window `(μ, ν, σ)` and its exact one-step update.
//!
//! For current CG vectors `r`, `p` define
//!
//! ```text
//! μᵢ = (r, Aⁱr)   i = 0..=m
//! νᵢ = (r, Aⁱp)   i = 0..=m+1
//! σᵢ = (p, Aⁱp)   i = 0..=m+2
//! ```
//!
//! One CG step (`r' = r − λAp`, `p' = r' + αp`) maps the window to itself
//! with window order shrinking by top entries — those are replenished by
//! direct inner products from the `Aⁱr` / `Aⁱp` vector families. With
//! `m = 2k` a fresh top entry takes ~k iterations to reach the consumed
//! orders `μ₀, σ₁`: the paper's k-iteration look-ahead slack.
//!
//! All update rules are *exact algebraic identities* using only symmetry
//! of `A` — no CG orthogonality is assumed, so round-off does not break
//! them structurally (it only accumulates).

/// Scalar moment window of order `m` (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct MomentWindow {
    /// `μᵢ = (r, Aⁱr)`, `i = 0..=m`.
    pub mu: Vec<f64>,
    /// `νᵢ = (r, Aⁱp)`, `i = 0..=m+1`.
    pub nu: Vec<f64>,
    /// `σᵢ = (p, Aⁱp)`, `i = 0..=m+2`.
    pub sigma: Vec<f64>,
}

impl MomentWindow {
    /// Window order `m`.
    #[must_use]
    pub fn order(&self) -> usize {
        self.mu.len() - 1
    }

    /// `(r,r)` — the squared residual norm.
    #[must_use]
    pub fn rr(&self) -> f64 {
        self.mu[0]
    }

    /// `(p,Ap)` — the CG step denominator.
    #[must_use]
    pub fn pap(&self) -> f64 {
        self.sigma[1]
    }

    /// Compute the whole window of order `m` directly from the vector
    /// families `z[i] = Aⁱr` (i ≤ k) and `w[i] = Aⁱp` (i ≤ k+1), using
    /// symmetry `(Aᵃx, Aᵇy) = (x, Aᵃ⁺ᵇy)`, with every inner product taken
    /// by `dot` (a solver passes its guarded `SolveOptions::dot`), in a
    /// fixed order: μ, then ν, then σ. Returns the window and the number of
    /// inner products spent.
    ///
    /// # Panics
    /// Panics if the families are too short for order `m`
    /// (needs `z.len() ≥ ⌈m/2⌉+1` and `w.len() ≥ ⌈(m+2)/2⌉+1`).
    #[must_use]
    pub fn direct(
        z: &[Vec<f64>],
        w: &[Vec<f64>],
        m: usize,
        dot: impl FnMut(&[f64], &[f64]) -> f64,
    ) -> (MomentWindow, usize) {
        let mut win = MomentWindow {
            mu: Vec::new(),
            nu: Vec::new(),
            sigma: Vec::new(),
        };
        let spent = win.direct_in(z, w, m, dot);
        (win, spent)
    }

    /// [`MomentWindow::direct`] into `self`, reusing its storage
    /// (allocation-free once warm at a fixed order). Returns the number
    /// of inner products spent.
    ///
    /// # Panics
    /// Panics if the families are too short for order `m` (see
    /// [`MomentWindow::direct`]).
    pub fn direct_in(
        &mut self,
        z: &[Vec<f64>],
        w: &[Vec<f64>],
        m: usize,
        mut dot: impl FnMut(&[f64], &[f64]) -> f64,
    ) -> usize {
        let zmax = z.len() - 1;
        let wmax = w.len() - 1;
        assert!(2 * zmax >= m, "z family too short for order {m}");
        assert!(2 * wmax >= m + 2, "w family too short for order {m}");
        self.mu.clear();
        self.mu.extend((0..=m).map(|i| {
            let a = (i / 2).min(zmax);
            dot(&z[a], &z[i - a])
        }));
        self.nu.clear();
        self.nu.extend((0..=m + 1).map(|i| {
            let a = (i / 2).min(zmax);
            dot(&z[a], &w[i - a])
        }));
        self.sigma.clear();
        self.sigma.extend((0..=m + 2).map(|i| {
            let a = (i / 2).min(wmax);
            dot(&w[a], &w[i - a])
        }));
        (m + 1) + (m + 2) + (m + 3)
    }

    /// First half of a window step: the new μ family after `r' = r − λAp`:
    /// `μᵢ' = μᵢ − 2λ·νᵢ₊₁ + λ²·σᵢ₊₂`.
    ///
    /// Split from [`MomentWindow::finish_step`] because the caller derives
    /// `α = μ₀'/μ₀` between the two halves.
    #[must_use]
    pub fn mu_step(&self, lambda: f64) -> Vec<f64> {
        let mut mu_new = Vec::with_capacity(self.order() + 1);
        self.mu_step_into(lambda, &mut mu_new);
        mu_new
    }

    /// [`MomentWindow::mu_step`] into a caller-owned buffer — the
    /// allocation-free form the solver hot loop uses (bit-identical
    /// values).
    pub fn mu_step_into(&self, lambda: f64, mu_new: &mut Vec<f64>) {
        let m = self.order();
        mu_new.clear();
        mu_new.extend((0..=m).map(|i| {
            self.mu[i] - 2.0 * lambda * self.nu[i + 1] + lambda * lambda * self.sigma[i + 2]
        }));
    }

    /// Second half of a window step, given the new μ family and both
    /// parameters (`p' = r' + αp`):
    ///
    /// ```text
    /// tᵢ  = νᵢ − λ·σᵢ₊₁
    /// νᵢ' = μᵢ' + α·tᵢ
    /// σᵢ' = μᵢ' + 2α·tᵢ + α²·σᵢ
    /// ```
    ///
    /// Leaves the *top* entries `ν'ₘ₊₁, σ'ₘ₊₁, σ'ₘ₊₂` set to `NAN` — the
    /// caller must overwrite them (direct dots or [`MomentWindow::direct`]).
    pub fn finish_step(&mut self, mut mu_new: Vec<f64>, lambda: f64, alpha: f64) {
        self.finish_step_in_place(&mut mu_new, lambda, alpha);
    }

    /// [`MomentWindow::finish_step`] updating `ν`/`σ` in place and
    /// swapping `μ` with the caller's buffer (which receives the old `μ`
    /// as scratch for the next iteration) — allocation-free,
    /// bit-identical values.
    ///
    /// The ascending in-place sweep is exact: position `i` reads only
    /// `ν_i`, `σ_i` (not yet overwritten at step `i`) and `σ_{i+1}` (not
    /// overwritten until step `i+1`).
    pub fn finish_step_in_place(&mut self, mu_new: &mut Vec<f64>, lambda: f64, alpha: f64) {
        let m = self.order();
        assert_eq!(mu_new.len(), m + 1, "mu_new has wrong order");
        for (i, &mu) in mu_new.iter().enumerate() {
            let t = self.nu[i] - lambda * self.sigma[i + 1];
            self.nu[i] = mu + alpha * t;
            self.sigma[i] = mu + 2.0 * alpha * t + alpha * alpha * self.sigma[i];
        }
        // un-replenished top entries: NaN by contract until the caller
        // overwrites them with direct dots
        self.nu[m + 1] = f64::NAN;
        self.sigma[m + 1] = f64::NAN;
        self.sigma[m + 2] = f64::NAN;
        std::mem::swap(&mut self.mu, mu_new);
    }

    /// Scalar operations performed by one full window step (for op
    /// accounting): 5 per μ entry + 7 per ν/σ entry pair.
    #[must_use]
    pub fn step_scalar_ops(&self) -> usize {
        12 * (self.order() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_linalg::gen;
    use vr_linalg::kernels::{axpy, dot_serial, xpay};
    use vr_linalg::CsrMatrix;

    fn families(a: &CsrMatrix, r: &[f64], p: &[f64], k: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut z = vec![r.to_vec()];
        for i in 1..=k {
            let next = a.spmv(&z[i - 1]);
            z.push(next);
        }
        let mut w = vec![p.to_vec()];
        for i in 1..=k + 1 {
            let next = a.spmv(&w[i - 1]);
            w.push(next);
        }
        (z, w)
    }

    #[test]
    fn direct_window_matches_definition() {
        let a = gen::rand_spd(18, 3, 2.0, 31);
        let r = gen::rand_vector(18, 32);
        let p = gen::rand_vector(18, 33);
        let k = 2;
        let (z, w) = families(&a, &r, &p, k);
        let (win, spent) = MomentWindow::direct(&z, &w, 2 * k, dot_serial);
        assert_eq!(spent, (2 * k + 1) + (2 * k + 2) + (2 * k + 3));
        // brute-force check: μ_i = (r, A^i r) etc.
        let mut air = r.clone();
        for i in 0..=2 * k {
            let expect = vr_linalg::kernels::dot_serial(&r, &air);
            assert!(
                (win.mu[i] - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
                "mu[{i}]: {} vs {expect}",
                win.mu[i]
            );
            air = a.spmv(&air);
        }
        let mut aip = p.clone();
        for i in 0..=2 * k + 2 {
            let expect_sigma = vr_linalg::kernels::dot_serial(&p, &aip);
            assert!(
                (win.sigma[i] - expect_sigma).abs() <= 1e-9 * (1.0 + expect_sigma.abs()),
                "sigma[{i}]"
            );
            if i <= 2 * k + 1 {
                let expect_nu = vr_linalg::kernels::dot_serial(&r, &aip);
                assert!(
                    (win.nu[i] - expect_nu).abs() <= 1e-9 * (1.0 + expect_nu.abs()),
                    "nu[{i}]"
                );
            }
            aip = a.spmv(&aip);
        }
    }

    #[test]
    fn window_step_matches_recomputation() {
        // Advance the window by the recurrences; rebuild it directly from
        // the stepped vectors; the overlapping orders must agree.
        let a = gen::rand_spd(20, 3, 2.0, 41);
        let mut r = gen::rand_vector(20, 42);
        let mut p = r.clone();
        let k = 2;
        let m = 2 * k;
        for step in 0..5 {
            let (z, w) = families(&a, &r, &p, k);
            let (mut win, _) = MomentWindow::direct(&z, &w, m, dot_serial);
            let lambda = win.rr() / win.pap();
            let mu_new = win.mu_step(lambda);
            let alpha = mu_new[0] / win.rr();
            win.finish_step(mu_new, lambda, alpha);

            // actually step the vectors
            let w1 = a.spmv(&p);
            axpy(-lambda, &w1, &mut r);
            xpay(&r, alpha, &mut p);

            let (z2, w2) = families(&a, &r, &p, k);
            let (win2, _) = MomentWindow::direct(&z2, &w2, m, dot_serial);
            for i in 0..=m {
                assert!(
                    (win.mu[i] - win2.mu[i]).abs() <= 1e-7 * (1.0 + win2.mu[i].abs()),
                    "step {step} mu[{i}]: {} vs {}",
                    win.mu[i],
                    win2.mu[i]
                );
                assert!(
                    (win.nu[i] - win2.nu[i]).abs() <= 1e-7 * (1.0 + win2.nu[i].abs()),
                    "step {step} nu[{i}]"
                );
                assert!(
                    (win.sigma[i] - win2.sigma[i]).abs() <= 1e-7 * (1.0 + win2.sigma[i].abs()),
                    "step {step} sigma[{i}]"
                );
            }
            // the un-replenished top entries are NaN by contract
            assert!(win.nu[m + 1].is_nan());
            assert!(win.sigma[m + 1].is_nan());
            assert!(win.sigma[m + 2].is_nan());
        }
    }

    #[test]
    fn accessors() {
        let win = MomentWindow {
            mu: vec![4.0, 1.0, 1.0],
            nu: vec![0.0; 4],
            sigma: vec![0.0, 2.0, 0.0, 0.0, 0.0],
        };
        assert_eq!(win.order(), 2);
        assert_eq!(win.rr(), 4.0);
        assert_eq!(win.pap(), 2.0);
        assert_eq!(win.step_scalar_ops(), 36);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn direct_rejects_short_families() {
        let z = vec![vec![1.0, 2.0]];
        let w = vec![vec![1.0, 2.0], vec![0.5, 0.5]];
        let _ = MomentWindow::direct(&z, &w, 4, dot_serial);
    }
}
