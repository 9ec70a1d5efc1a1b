//! Eigenvector refinement by inverse iteration — the paper's second
//! motivating application (Section 1):
//!
//! `v_{k+1} = (A - mu*I)^-1 v_k / ||(A - mu*I)^-1 v_k||`
//!
//! with the eigenvalue estimate `lambda = v'Av / v'v`. The efficiency of
//! the method "relies on the ability to efficiently invert A - mu*I" —
//! which is exactly what the MapReduce pipeline provides.
//!
//! ```text
//! cargo run --release --example inverse_iteration
//! ```

use mrinv::{InversionConfig, Request};
use mrinv_mapreduce::Cluster;
use mrinv_matrix::norms::vec_norm;
use mrinv_matrix::random::random_spd;
use mrinv_matrix::Matrix;

/// Rayleigh quotient `v'Av / v'v`.
fn rayleigh(a: &Matrix, v: &[f64]) -> f64 {
    let av = a.mul_vec(v).expect("dimensions");
    let num: f64 = v.iter().zip(&av).map(|(x, y)| x * y).sum();
    let den: f64 = v.iter().map(|x| x * x).sum();
    num / den
}

fn main() {
    let n = 128;
    let cluster = Cluster::medium(4);
    // Symmetric positive definite: real positive spectrum.
    let a = random_spd(n, 11);

    // A deliberately rough eigenvalue guess: perturb the Rayleigh quotient
    // of a random start vector.
    let mut v: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) as f64 * 0.61).cos()).collect();
    let norm = vec_norm(&v);
    v.iter_mut().for_each(|x| *x /= norm);
    let mut mu = rayleigh(&a, &v) * 1.05;

    println!("inverse iteration on a {n}x{n} SPD matrix, initial shift mu = {mu:.4}");
    let mut converged = false;
    let mut jobs = 0;
    for step in 0..12 {
        // Invert (A - mu*I) through the MapReduce pipeline.
        let mut shifted = a.clone();
        for i in 0..n {
            shifted[(i, i)] -= mu;
        }
        let out = Request::invert(&shifted)
            .config(&InversionConfig::with_nb(32))
            .submit(&cluster)
            .expect("shifted matrix inversion");
        jobs += out.report.jobs;
        let inv = out.into_inverse();

        // One iteration step: v <- normalize(inv * v).
        let w = inv.mul_vec(&v).expect("dimensions");
        let norm = vec_norm(&w);
        v = w.into_iter().map(|x| x / norm).collect();
        mu = rayleigh(&a, &v);

        // Residual ||Av - lambda v||.
        let av = a.mul_vec(&v).expect("dimensions");
        let res: Vec<f64> = av.iter().zip(&v).map(|(x, y)| x - mu * y).collect();
        let res_norm = vec_norm(&res);
        println!("  step {step}: lambda = {mu:.8}, ||Av - lambda*v|| = {res_norm:.3e}");
        // Rayleigh-quotient iteration is cubically convergent once close;
        // stop before the shift gets so close to the eigenvalue that
        // A - mu*I becomes numerically singular.
        if res_norm < 1e-6 {
            converged = true;
            break;
        }
    }

    assert!(
        converged,
        "inverse iteration failed to converge within 12 steps"
    );
    println!("ok: converged to eigenvalue {mu:.8}");
    println!("({jobs} MapReduce jobs total on the cluster)");
}
