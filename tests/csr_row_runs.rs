//! The CSR row-run walk against the plain row loop, bit for bit.
//!
//! A `CsrMatrix` whose rows come in runs that share one column-offset
//! pattern computes every product by walking those runs, reading values
//! and a shared pattern instead of column indices. Each row must still be
//! the plain loop's `acc = 0.0; acc += v·x[c]` in column order, so every
//! product path (`apply`, `apply_team` at any width, `apply_dot` in both
//! order-preserving sums, `apply_f32`, and the sweep's `stage_range`) is checked here
//! against a plain row loop over the public `indptr`/`indices`/`data`,
//! with `to_bits`, on operators that build runs and operators that do not.

use vr_linalg::gen::{self, XorShift64};
use vr_linalg::kernels;
use vr_linalg::{CooMatrix, CsrMatrix, LinearOperator};
use vr_par::team::{Team, GRAIN};

/// The plain CSR row loop: the oracle.
fn plain(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    (0..a.nrows())
        .map(|r| {
            let mut acc = 0.0;
            for (c, v) in a.row(r) {
                acc += v * x[c];
            }
            acc
        })
        .collect()
}

/// The plain row loop in `f32` over the narrowed values.
fn plain_f32(a: &CsrMatrix, x: &[f32]) -> Vec<f32> {
    (0..a.nrows())
        .map(|r| {
            let mut acc = 0.0f32;
            for (c, v) in a.row(r) {
                acc += (v as f32) * x[c];
            }
            acc
        })
        .collect()
}

/// `to_bits`, except that every NaN reads as one value. Rust leaves the
/// sign and payload of an arithmetic NaN unspecified (the compiler may
/// commute an addition's operands, and x86 keeps the first operand's NaN),
/// so two compilations of one operation sequence can disagree there and
/// nowhere else. Signed zeros, infinities and subnormals compare exactly.
fn bit(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|&x| bit(x)).collect()
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// Add `sigma` to every diagonal entry: the backward-Euler heat operator.
fn shift_diagonal(a: &mut CsrMatrix, sigma: f64) {
    let diag: Vec<usize> = (0..a.nrows())
        .map(|r| {
            let lo = a.indptr()[r];
            lo + a.indices()[lo..a.indptr()[r + 1]]
                .binary_search(&r)
                .expect("generated rows store their diagonal")
        })
        .collect();
    let data = a.data_mut();
    for k in diag {
        data[k] += sigma;
    }
}

fn heat(grid: usize) -> CsrMatrix {
    let mut a = gen::poisson2d(grid);
    shift_diagonal(&mut a, 4.0);
    a
}

/// An `n × n` CSR whose rows come in groups of `group_min..=group_max`
/// consecutive rows. Each group draws a fresh pattern of up to 9 entries
/// at offsets within ±40 (dropping those that leave the matrix for any row
/// of the group) and random values, so a run of shared offsets never
/// outlasts its group.
fn patterned(n: usize, group_min: usize, group_max: usize, seed: u64) -> CsrMatrix {
    let mut rng = XorShift64::new(seed);
    let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
    let mut r = 0;
    while r < n {
        let rows = (group_min + rng.below(group_max - group_min + 1)).min(n - r);
        let mut offs: Vec<isize> = (0..1 + rng.below(9))
            .map(|_| rng.below(81) as isize - 40)
            .filter(|&o| r as isize + o >= 0 && ((r + rows - 1) as isize + o) < n as isize)
            .collect();
        offs.sort_unstable();
        offs.dedup();
        for row in r..r + rows {
            for &o in &offs {
                indices.push((row as isize + o) as usize);
                data.push(rng.range_f64(-2.0, 2.0));
            }
            indptr.push(indices.len());
        }
        r += rows;
    }
    CsrMatrix::new(n, n, indptr, indices, data).unwrap()
}

/// A tridiagonal matrix with a band of empty rows in the middle, so the
/// index holds a zero-entry run.
fn with_empty_rows(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in (0..n).filter(|i| !(n / 3..n / 2).contains(i)) {
        coo.push(i, i, 3.0).unwrap();
        if i > 0 {
            coo.push(i, i - 1, -1.25).unwrap();
        }
        if i + 1 < n {
            coo.push(i, i + 1, 0.5).unwrap();
        }
    }
    coo.to_csr()
}

/// Poisson 2-D with every third off-diagonal entry cancelled to an
/// explicit stored zero (COO duplicates summing to 0).
fn with_explicit_zeros(grid: usize) -> CsrMatrix {
    let p = gen::poisson2d(grid);
    let mut coo = CooMatrix::new(p.nrows(), p.ncols());
    for r in 0..p.nrows() {
        for (k, (c, v)) in p.row(r).enumerate() {
            coo.push(r, c, v).unwrap();
            if c != r && (r + k) % 3 == 0 {
                coo.push(r, c, -v).unwrap();
            }
        }
    }
    coo.to_csr()
}

/// Small operators: every generator, edge shapes, and hand-built ones.
fn small_operators() -> Vec<(String, CsrMatrix)> {
    let mut ops: Vec<(String, CsrMatrix)> = vec![
        ("poisson1d(1)".into(), gen::poisson1d(1)),
        ("poisson1d(2)".into(), gen::poisson1d(2)),
        ("poisson1d(40)".into(), gen::poisson1d(40)),
        ("poisson2d(1)".into(), gen::poisson2d(1)),
        ("poisson2d(2)".into(), gen::poisson2d(2)),
        ("poisson2d(3)".into(), gen::poisson2d(3)),
        ("poisson2d(16)".into(), gen::poisson2d(16)),
        ("poisson2d(33)".into(), gen::poisson2d(33)),
        (
            "anisotropic2d(20, 0.01)".into(),
            gen::anisotropic2d(20, 0.01),
        ),
        ("poisson3d(2)".into(), gen::poisson3d(2)),
        ("poisson3d(7)".into(), gen::poisson3d(7)),
        ("poisson3d(13)".into(), gen::poisson3d(13)),
        ("poisson3d(16)".into(), gen::poisson3d(16)),
        ("poisson3d_27pt(6)".into(), gen::poisson3d_27pt(6)),
        ("poisson3d_27pt(12)".into(), gen::poisson3d_27pt(12)),
        ("poisson3d_27pt(15)".into(), gen::poisson3d_27pt(15)),
        (
            "tridiag_toeplitz(50)".into(),
            gen::tridiag_toeplitz(50, 2.0 + 4e-4, -1.0),
        ),
        ("rand_spd(300)".into(), gen::rand_spd(300, 4, 1.0, 7)),
        ("heat(24)".into(), heat(24)),
        ("explicit zeros".into(), with_explicit_zeros(14)),
        ("empty rows".into(), with_empty_rows(90)),
        ("identity(1)".into(), CsrMatrix::identity(1)),
        ("identity(9)".into(), CsrMatrix::identity(9)),
        ("0x0".into(), CsrMatrix::identity(0)),
        (
            "1x1".into(),
            CsrMatrix::new(1, 1, vec![0, 1], vec![0], vec![-2.5]).unwrap(),
        ),
        ("pattern every 1-5 rows".into(), patterned(400, 1, 5, 11)),
        ("pattern every 4-12 rows".into(), patterned(400, 4, 12, 12)),
    ];
    // Positive values only: with an all-`-0.0` input every product is
    // `-0.0`, and only a sum seeded with `+0.0` returns `+0.0`.
    let mut abs = gen::poisson2d(16);
    for v in abs.data_mut() {
        *v = v.abs();
    }
    ops.push(("|poisson2d(16)|".into(), abs));
    ops
}

/// Inputs: random, and the adversarial values every row must propagate
/// exactly as the plain loop does.
fn inputs(n: usize) -> Vec<(String, Vec<f64>)> {
    let special = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE / 3.0,
        -f64::from_bits(1),
        1e300,
        -1e-300,
    ];
    let mut rng = XorShift64::new(99);
    let mixed = gen::rand_vector(n, 5)
        .into_iter()
        .map(|v| match rng.below(4) {
            0 => special[rng.below(special.len())],
            _ => v,
        })
        .collect();
    vec![
        ("random".into(), gen::rand_vector(n, 3)),
        ("all -0.0".into(), vec![-0.0; n]),
        (
            "signed zeros".into(),
            (0..n)
                .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                .collect(),
        ),
        (
            "subnormals".into(),
            (0..n)
                .map(|i| f64::MIN_POSITIVE / (i as f64 + 2.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        ),
        ("specials mixed in".into(), mixed),
    ]
}

fn check_apply_paths(name: &str, a: &CsrMatrix) {
    let n = a.nrows();
    for (what, x) in inputs(n) {
        let want = plain(a, &x);
        let mut y = vec![f64::NAN; n];
        a.apply(&x, &mut y);
        assert_eq!(bits(&y), bits(&want), "{name}, {what}: apply");
        assert_eq!(bits(&a.spmv(&x)), bits(&want), "{name}, {what}: spmv");

        let mut y = vec![f64::NAN; n];
        let d = a.apply_dot(&x, &mut y);
        assert_eq!(bits(&y), bits(&want), "{name}, {what}: apply_dot y");
        assert_eq!(
            bit(d),
            bit(kernels::dot_serial(&x, &want)),
            "{name}, {what}: apply_dot sum"
        );

        let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        let mut y32 = vec![f32::NAN; n];
        assert!(a.apply_f32(&x32, &mut y32));
        assert_eq!(
            bits32(&y32),
            bits32(&plain_f32(a, &x32)),
            "{name}, {what}: apply_f32"
        );

        let sw = a.as_sweep().expect("square CSR is sweep-capable");
        let mut rowbuf = vec![0.0; sw.rowbuf_len()];
        for (lo, hi) in stage_ranges(n) {
            let mut out = vec![f64::NAN; hi - lo];
            sw.stage_range(&x, lo, hi, &mut rowbuf, &mut out);
            assert_eq!(
                bits(&out),
                bits(&want[lo..hi]),
                "{name}, {what}: stage {lo}..{hi}"
            );
        }
    }
}

/// Row ranges that start and end anywhere: whole, one row, and ranges
/// that cut through runs on both sides.
fn stage_ranges(n: usize) -> Vec<(usize, usize)> {
    let mut ranges = vec![(0, n), (0, 0), (n, n)];
    if n > 0 {
        ranges.extend([(0, 1), (n - 1, n), (n / 2, n / 2 + 1)]);
    }
    if n > 4 {
        ranges.extend([(1, n - 1), (2, n - 3), (n / 3 + 1, 2 * n / 3 + 2)]);
    }
    let mut rng = XorShift64::new(n as u64 + 1);
    for _ in 0..8.min(n) {
        let lo = rng.below(n);
        ranges.push((lo, lo + 1 + rng.below(n - lo)));
    }
    ranges
}

#[test]
fn every_product_path_matches_the_plain_row_loop() {
    for (name, a) in small_operators() {
        check_apply_paths(&name, &a);
    }
}

#[test]
fn team_products_match_the_plain_row_loop_at_every_width() {
    let n = 4 * GRAIN;
    let grid = (n as f64).sqrt().ceil() as usize;
    let ops = [
        ("heat", heat(grid)),
        ("poisson3d", gen::poisson3d(33)),
        ("rand_spd", gen::rand_spd(n, 6, 1.0, 5)),
        ("pattern every 1-5 rows", patterned(n, 1, 5, 21)),
        ("pattern every 4-12 rows", patterned(n, 4, 12, 22)),
    ];
    let teams: Vec<Team> = (1..=4).map(Team::new).collect();
    for (name, a) in &ops {
        let n = a.nrows();
        assert!(n >= 4 * GRAIN, "{name}: {n} rows cannot fill 4 shards");
        for (what, x) in inputs(n) {
            let want = plain(a, &x);
            for team in &teams {
                let mut y = vec![f64::NAN; n];
                a.apply_team(Some(team), &x, &mut y);
                let w = team.width();
                assert_eq!(
                    bits(&y),
                    bits(&want),
                    "{name}, {what}: apply_team width {w}"
                );
            }
        }
    }
}

#[test]
fn value_edits_after_the_first_product_keep_matching() {
    for (name, mut a) in small_operators() {
        let n = a.nrows();
        let x = gen::rand_vector(n, 8);
        let _ = a.spmv(&x);
        let mut rng = XorShift64::new(4);
        for v in a.data_mut() {
            *v = v.abs() + rng.range_f64(0.0, 1.0);
        }
        check_apply_paths(&format!("{name} after data_mut"), &a);
        a.scale(-0.5);
        check_apply_paths(&format!("{name} after scale"), &a);
    }
}
