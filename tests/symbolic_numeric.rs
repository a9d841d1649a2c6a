//! Integration: the symbolic (*) derivation, the numeric moment window,
//! and real CG must all tell the same story.

use cg_lookahead::cg::recurrence::moments::MomentWindow;
use cg_lookahead::cg::recurrence::symbolic::Derivation;
use cg_lookahead::linalg::gen;
use cg_lookahead::linalg::kernels::{axpy, dot_serial, xpay};
use cg_lookahead::linalg::CsrMatrix;

/// Run standard CG from (r, p), returning per-step (λ, α).
fn cg_steps(a: &CsrMatrix, r: &mut [f64], p: &mut [f64], steps: usize) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(steps);
    let mut rr = dot_serial(r, r);
    for _ in 0..steps {
        let w = a.spmv(p);
        let lambda = rr / dot_serial(p, &w);
        axpy(-lambda, &w, r);
        let rr_new = dot_serial(r, r);
        let alpha = rr_new / rr;
        xpay(r, alpha, p);
        rr = rr_new;
        out.push((lambda, alpha));
    }
    out
}

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
fn star_relation_equals_window_evolution_equals_direct_cg() {
    let a = gen::rand_spd(30, 4, 2.0, 55);
    for k in 1..=4 {
        // base state: a few CG steps in
        let mut r = gen::rand_vector(30, 56);
        let mut p = r.clone();
        cg_steps(&a, &mut r, &mut p, 3);

        // 1) build the base moment window directly
        let (z, w) = families(&a, &r, &p, k);
        let m = 2 * k;
        let (win0, _) = MomentWindow::direct(&z, &w, m, dot_serial);

        // star_pap needs μ up to order 2k+1: μ_{2k+1} = (z_k, A·z_k)
        let mut mu_ext = win0.mu.clone();
        mu_ext.push(dot_serial(&z[k], &a.spmv(&z[k])));

        // 2) advance real CG k steps, recording parameters
        let params = cg_steps(&a, &mut r, &mut p, k);
        let lams: Vec<f64> = params.iter().map(|&(l, _)| l).collect();
        let alfs: Vec<f64> = params.iter().map(|&(_, al)| al).collect();

        // 3) symbolic star relation evaluated on the base window
        let d = Derivation::run(k);
        let point = d.param_point(&lams, &alfs);
        let rr_star = d.star_rr().eval(&point, &win0.mu, &win0.nu, &win0.sigma);
        let pap_star = d.star_pap().eval(&point, &mu_ext, &win0.nu, &win0.sigma);

        // 4) numeric window stepped k times with the same parameters and
        //    NO top-entry replenishment: each step consumes two orders from
        //    the top (leaving NaN there), and with window order m = 2k the
        //    low orders survive exactly k steps — the paper's slack.
        let mut win = win0.clone();
        for &(lambda, alpha) in &params {
            let mu_new = win.mu_step(lambda);
            win.finish_step(mu_new, lambda, alpha);
        }

        // 5) directly computed ground truth at the final state
        let rr_direct = dot_serial(&r, &r);
        let w1 = a.spmv(&p);
        let pap_direct = dot_serial(&p, &w1);

        assert!(
            (rr_star - rr_direct).abs() <= 1e-7 * (1.0 + rr_direct.abs()),
            "k={k}: star (r,r) {rr_star} vs direct {rr_direct}"
        );
        assert!(
            (pap_star - pap_direct).abs() <= 1e-7 * (1.0 + pap_direct.abs()),
            "k={k}: star (p,Ap) {pap_star} vs direct {pap_direct}"
        );
        // the stepped window's low orders agree with ground truth as well
        assert!(
            (win.mu[0] - rr_direct).abs() <= 1e-6 * (1.0 + rr_direct.abs()),
            "k={k}: window μ₀ {} vs direct {rr_direct}",
            win.mu[0]
        );
    }
}

#[test]
fn derived_k1_coefficients_match_the_moment_recurrence() {
    // The k=1 star relation must be literally the μ-update of the window:
    // μ₀' = μ₀ − 2λν₁ + λ²σ₂.
    let d = Derivation::run(1);
    let star = d.star_rr();
    let (lam, point) = (0.37, vec![0.37, 0.0]);
    // synthetic moments
    let mu = [2.0, 0.0, 0.0];
    let nu = [0.0, 5.0, 0.0];
    let sigma = [0.0, 0.0, 7.0];
    let star_val = star.eval(&point, &mu, &nu, &sigma);
    let window_val = mu[0] - 2.0 * lam * nu[1] + lam * lam * sigma[2];
    assert!((star_val - window_val).abs() < 1e-14);
}

#[test]
fn degree_audit_matches_paper_for_deeper_k() {
    // Extended audit beyond the unit tests: k up to 7 (the derivation is
    // exponential in k in term count, so 7 is still fast).
    for k in 6..=7 {
        let d = Derivation::run(k);
        assert_eq!(d.star_rr().max_degree_per_parameter(), 2, "k={k}");
        assert!(d.star_pap().max_degree_per_parameter() <= 2, "k={k}");
    }
}
