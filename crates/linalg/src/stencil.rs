//! Matrix-free stencil operators.
//!
//! The paper's machine model charges an SpMV `1 + log₂d` time because each
//! row's `d` products fan in independently — that is *exactly* a stencil
//! application. These operators implement [`LinearOperator`] without
//! storing the matrix: the natural representation for the PDE workloads,
//! an allocation-free fast path for large problems, and a second
//! implementation to cross-check the CSR SpMV against.

use crate::LinearOperator;

/// Matrix-free 2-D five-point Laplacian on an `nx × ny` grid (Dirichlet),
/// with optional anisotropy ratio `eps` on the y-direction coupling.
#[derive(Debug, Clone, Copy)]
pub struct Stencil2d {
    nx: usize,
    ny: usize,
    eps: f64,
}

impl Stencil2d {
    /// Isotropic five-point Laplacian on an `n × n` grid.
    #[must_use]
    pub fn poisson(n: usize) -> Self {
        Self::anisotropic(n, n, 1.0)
    }

    /// Anisotropic operator on an `nx × ny` grid.
    ///
    /// # Panics
    /// Panics if a dimension is zero or `eps <= 0`.
    #[must_use]
    pub fn anisotropic(nx: usize, ny: usize, eps: f64) -> Self {
        assert!(nx > 0 && ny > 0, "stencil2d: grid must be nonempty");
        assert!(eps > 0.0, "stencil2d: eps must be positive");
        Stencil2d { nx, ny, eps }
    }

    /// Grid shape `(nx, ny)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }
}

impl Stencil2d {
    /// One grid row of the stencil: `emit(idx, v)` receives every value
    /// `v = (A·x)[idx]` of row `i` (starting at flat index `row = i·ny`) in
    /// column order. This is the single source of truth for the
    /// floating-point operation sequence every path shares:
    /// `(2 + 2ε)·x[idx]`, then minus the up, down, `ε·`left and `ε·`right
    /// neighbors that exist, in that order. `UP`/`DOWN` encode the row kind
    /// at compile time, so the monomorphized interior loop carries no
    /// per-element conditionals.
    #[inline]
    fn row_sweep<const UP: bool, const DOWN: bool>(
        &self,
        x: &[f64],
        row: usize,
        emit: &mut impl FnMut(usize, f64),
    ) {
        let (ny, eps) = (self.ny, self.eps);
        let center = 2.0 + 2.0 * eps;
        // first column: no left neighbor
        let idx = row;
        let mut acc = center * x[idx];
        if UP {
            acc -= x[idx - ny];
        }
        if DOWN {
            acc -= x[idx + ny];
        }
        if ny > 1 {
            acc -= eps * x[idx + 1];
        }
        emit(idx, acc);
        // interior columns: all four neighbors, branch-free
        for j in 1..ny.max(1) - 1 {
            let idx = row + j;
            let mut acc = center * x[idx];
            if UP {
                acc -= x[idx - ny];
            }
            if DOWN {
                acc -= x[idx + ny];
            }
            acc -= eps * x[idx - 1];
            acc -= eps * x[idx + 1];
            emit(idx, acc);
        }
        // last column: no right neighbor
        if ny > 1 {
            let idx = row + ny - 1;
            let mut acc = center * x[idx];
            if UP {
                acc -= x[idx - ny];
            }
            if DOWN {
                acc -= x[idx + ny];
            }
            acc -= eps * x[idx - 1];
            emit(idx, acc);
        }
    }

    /// One grid row of the stencil written contiguously into `out` via the
    /// SIMD row kernel ([`vr_par::simd::leaf_stencil2d_row`]). The
    /// per-element operation sequence is exactly [`Stencil2d::row_sweep`]
    /// and bit-identical at every lane width, so this is interchangeable
    /// with an emit-based [`Stencil2d::row_sweep`] that stores each value.
    /// `row = i·ny` is the flat index of the row inside `x` (which may be a
    /// band slice, as long as the needed neighbor rows are in-slice).
    #[inline]
    pub(crate) fn row_sweep_into(
        &self,
        x: &[f64],
        has_up: bool,
        has_down: bool,
        row: usize,
        out: &mut [f64],
    ) {
        let ny = self.ny;
        let up = has_up.then(|| &x[row - ny..row]);
        let down = has_down.then(|| &x[row + ny..row + 2 * ny]);
        vr_par::simd::leaf_stencil2d_row(
            2.0 + 2.0 * self.eps,
            self.eps,
            up,
            down,
            &x[row..row + ny],
            out,
        );
    }

    /// Visit every grid point in row-major (strictly increasing `idx`)
    /// order with branch-free interiors — the throughput backbone of the
    /// fused entry points below.
    #[inline]
    fn grid_sweep(&self, x: &[f64], mut emit: impl FnMut(usize, f64)) {
        let (nx, ny) = (self.nx, self.ny);
        if nx == 1 {
            self.row_sweep::<false, false>(x, 0, &mut emit);
            return;
        }
        self.row_sweep::<false, true>(x, 0, &mut emit);
        for i in 1..nx - 1 {
            self.row_sweep::<true, true>(x, i * ny, &mut emit);
        }
        self.row_sweep::<true, false>(x, (nx - 1) * ny, &mut emit);
    }

    /// Sweep grid rows `ilo..ihi` writing the stencil row values into
    /// `yband` (`yband[0]` is flat index `ilo·ny`), choosing the
    /// const-generic [`Stencil2d::row_sweep`] kind per row position. The
    /// per-element operation sequence is exactly [`Stencil2d::row_sweep`],
    /// so any band partition is bit-identical to the serial `apply`.
    fn band_sweep_into(&self, x: &[f64], ilo: usize, ihi: usize, yband: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        for (i, yrow) in (ilo..ihi).zip(yband.chunks_exact_mut(ny)) {
            self.row_sweep_into(x, i > 0, i + 1 < nx, i * ny, yrow);
        }
    }
}

impl LinearOperator for Stencil2d {
    fn dim(&self) -> usize {
        self.nx * self.ny
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        assert_eq!(x.len(), nx * ny);
        assert_eq!(y.len(), nx * ny);
        self.band_sweep_into(x, 0, nx, y);
    }

    fn max_row_nnz(&self) -> usize {
        5
    }

    fn as_sweep(&self) -> Option<crate::sweep::SweepOperator<'_>> {
        Some(crate::sweep::SweepOperator::Stencil2d(self))
    }

    /// Native `f32` sweep: the `Stencil2d::row_sweep` operation sequence
    /// with every coefficient and operand narrowed to `f32`.
    fn apply_f32(&self, x: &[f32], y: &mut [f32]) -> bool {
        let (nx, ny) = (self.nx, self.ny);
        assert_eq!(x.len(), nx * ny);
        assert_eq!(y.len(), nx * ny);
        let eps = self.eps as f32;
        let center = 2.0 + 2.0 * eps;
        for i in 0..nx {
            for j in 0..ny {
                let idx = i * ny + j;
                let mut acc = center * x[idx];
                if i > 0 {
                    acc -= x[idx - ny];
                }
                if i + 1 < nx {
                    acc -= x[idx + ny];
                }
                if j > 0 {
                    acc -= eps * x[idx - 1];
                }
                if j + 1 < ny {
                    acc -= eps * x[idx + 1];
                }
                y[idx] = acc;
            }
        }
        true
    }

    /// Row-fused stencil application + dot: one sweep instead of two,
    /// summed left to right over `Stencil2d::grid_sweep` — the `Serial`
    /// association of [`crate::kernels::dot`], so the result is
    /// bit-identical to the two-pass path.
    fn apply_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        let n = self.nx * self.ny;
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        let mut sum = 0.0;
        self.grid_sweep(x, |idx, v| {
            y[idx] = v;
            sum += x[idx] * v;
        });
        sum
    }

    /// Team-parallel stencil application by contiguous grid-row bands,
    /// reusing the const-generic `Stencil2d::row_sweep` fast path inside
    /// each band — bit-identical to the serial `apply` for any team width.
    fn apply_team(&self, team: Option<&vr_par::Team>, x: &[f64], y: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        let n = nx * ny;
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        let width = team
            .map_or(1, |t| vr_par::team::dispatch_width(n, t.live_width()))
            .min(nx);
        if width <= 1 {
            self.apply(x, y);
            return;
        }
        let team = team.expect("width > 1 implies a team");
        let per = nx.div_ceil(width);
        let yp = vr_par::team::SendPtr(y.as_mut_ptr());
        let res = team.try_run_shards(
            &move |w| {
                let ilo = w * per;
                if ilo >= nx {
                    return;
                }
                let ihi = ((w + 1) * per).min(nx);
                // Safety: shards own disjoint grid-row bands (flat ranges
                // `[ilo·ny, ihi·ny)`) of `y`, which outlives the epoch.
                let yband = unsafe {
                    std::slice::from_raw_parts_mut(yp.get().add(ilo * ny), (ihi - ilo) * ny)
                };
                self.band_sweep_into(x, ilo, ihi, yband);
            },
            width,
        );
        if res.is_err() {
            y.fill(f64::NAN);
        }
    }

    /// Trapezoidal (ghost-zone) matrix-powers kernel over grid-row tiles.
    ///
    /// A tile owning grid rows `[t0, t1)` sweeps level `l` over the clamped
    /// range `[t0 − (s−1−l), t1 + (s−1−l))`: the sweep narrows by one ghost
    /// row per level, so all `s` levels complete from three rotating
    /// L2-resident bands without reloading `v` columns from memory. Ghost
    /// rows are *recomputed* by the exact `Stencil2d::row_sweep` sequence
    /// in each neighboring tile, so every output bit is independent of the
    /// tile size and team width — identical to [`crate::mpk::naive_powers`].
    fn matrix_powers(
        &self,
        transform: &crate::mpk::MpkTransform<'_>,
        v: &mut [Vec<f64>],
        av: &mut [Vec<f64>],
        team: Option<&vr_par::Team>,
        tile: Option<usize>,
        ws: &mut crate::mpk::MpkWorkspace,
    ) {
        let (nx, ny) = (self.nx, self.ny);
        let n = nx * ny;
        let s = v.len();
        let tile_rows = tile
            .unwrap_or_else(|| crate::mpk::default_tile_rows(ny, s))
            .max(1);
        if s < 2 || tile_rows >= nx {
            crate::mpk::naive_powers(self, transform, v, av, team);
            return;
        }
        assert_eq!(av.len(), s, "matrix_powers: v/av column count mismatch");
        for l in 0..s {
            assert_eq!(v[l].len(), n, "matrix_powers: v column length != dim");
            assert_eq!(av[l].len(), n, "matrix_powers: av column length != dim");
        }
        let ntiles = nx.div_ceil(tile_rows);
        let width = team
            .map_or(1, |t| vr_par::team::dispatch_width(n, t.live_width()))
            .min(ntiles);
        let band_len = (tile_rows + 2 * (s - 1)) * ny;
        // three rotating bands plus one scratch row for ghost-row images
        let shard_len = 3 * band_len + ny;
        let tracer = ws.tracer();
        let bands = ws.bands_mut(width * shard_len);
        let v_ptrs: Vec<vr_par::team::SendPtr<f64>> = v
            .iter_mut()
            .map(|c| vr_par::team::SendPtr(c.as_mut_ptr()))
            .collect();
        let av_ptrs: Vec<vr_par::team::SendPtr<f64>> = av
            .iter_mut()
            .map(|c| vr_par::team::SendPtr(c.as_mut_ptr()))
            .collect();
        let bands_ptr = vr_par::team::SendPtr(bands.as_mut_ptr());
        let v_ptrs = &v_ptrs[..];
        let av_ptrs = &av_ptrs[..];
        let tr = tracer.as_deref();
        let job = move |w: usize| {
            // Shards beyond the dispatch width own no tiles and no scratch.
            if w >= width {
                return;
            }
            // Safety: shard `w` owns its `shard_len` slice of the band
            // scratch; global writes target owned rows only, and owned row
            // ranges are disjoint across tiles. `try_run` keeps every
            // buffer alive until all shards finish.
            let base = unsafe { bands_ptr.get().add(w * shard_len) };
            let bptr = [base, unsafe { base.add(band_len) }, unsafe {
                base.add(2 * band_len)
            }];
            let img_scratch = unsafe { base.add(3 * band_len) };
            let v0 = unsafe { std::slice::from_raw_parts(v_ptrs[0].get(), n) };
            for t in (w..ntiles).step_by(width) {
                let tile_start = tr.map(vr_obs::Tracer::now_ns);
                let t0 = t * tile_rows;
                let t1 = ((t + 1) * tile_rows).min(nx);
                let (mut prev_i, mut cur_i, mut next_i) = (1usize, 2usize, 0usize);
                for l in 0..s {
                    let d = s - 1 - l;
                    let slo = t0.saturating_sub(d);
                    let shi = (t1 + d).min(nx);
                    // v_l lives on band rows [t0 − (s−l), …); v_0 is global.
                    let (xs, xlo): (&[f64], usize) = if l == 0 {
                        (v0, 0)
                    } else {
                        (
                            unsafe { std::slice::from_raw_parts(bptr[cur_i], band_len) },
                            t0.saturating_sub(s - l),
                        )
                    };
                    let (ps, plo): (&[f64], usize) = if l <= 1 {
                        (v0, 0)
                    } else {
                        (
                            unsafe { std::slice::from_raw_parts(bptr[prev_i], band_len) },
                            t0.saturating_sub(s - l + 1),
                        )
                    };
                    let next = bptr[next_i];
                    for i in slo..shi {
                        let owned = i >= t0 && i < t1;
                        let row_rel = (i - xlo) * ny;
                        // Pass 1: the stencil image of row i, written
                        // straight to its destination — the global av row
                        // when owned, a scratch row for ghosts. A plain
                        // contiguous store feeds the SIMD row kernel.
                        let img_ptr = if owned {
                            unsafe { av_ptrs[l].get().add(i * ny) }
                        } else {
                            img_scratch
                        };
                        {
                            // Safety: `img_ptr` addresses `ny` writable
                            // elements (an owned global av row or the
                            // scratch row) disjoint from `xs`.
                            let img_row = unsafe { std::slice::from_raw_parts_mut(img_ptr, ny) };
                            self.row_sweep_into(xs, i > 0, i + 1 < nx, row_rel, img_row);
                        }
                        // Pass 2: the column recurrence over the whole row
                        // (one transform dispatch per row, branch-free
                        // inside), into the rotating band — and the global
                        // v column when owned. The row is L1-resident from
                        // pass 1, so the second sweep is arithmetic-only.
                        if l + 1 < s {
                            let img = unsafe { std::slice::from_raw_parts(img_ptr, ny) };
                            let cur = &xs[row_rel..row_rel + ny];
                            let prev = (l > 0).then(|| &ps[(i - plo) * ny..(i - plo + 1) * ny]);
                            let next_row = unsafe {
                                std::slice::from_raw_parts_mut(next.add((i - slo) * ny), ny)
                            };
                            transform.combine_row(l, img, cur, prev, next_row);
                            if owned {
                                unsafe {
                                    std::ptr::copy_nonoverlapping(
                                        next_row.as_ptr(),
                                        v_ptrs[l + 1].get().add(i * ny),
                                        ny,
                                    );
                                }
                            }
                        }
                    }
                    // rotate: this level's output becomes the next level's
                    // source; the old source becomes `prev`.
                    (prev_i, cur_i, next_i) = (cur_i, next_i, prev_i);
                }
                if let (Some(tr), Some(s0)) = (tr, tile_start) {
                    tr.record_since(w, vr_obs::SpanKind::MpkTile, s0);
                }
            }
        };
        if width <= 1 {
            job(0);
            return;
        }
        let team = team.expect("width > 1 implies a team");
        if team.try_run_shards(&job, width).is_err() {
            crate::mpk::poison_outputs(v, av);
        }
    }
}

/// Matrix-free 3-D seven-point Laplacian on an `n × n × n` grid.
#[derive(Debug, Clone, Copy)]
pub struct Stencil3d {
    n: usize,
}

impl Stencil3d {
    /// Operator on an `n × n × n` grid.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "stencil3d: n must be positive");
        Stencil3d { n }
    }
}

impl Stencil3d {
    /// Row `(i, j, k)` of `A·x` — shared by `apply` and `apply_dot`.
    #[inline]
    fn row_value(&self, x: &[f64], i: usize, j: usize, k: usize, idx: usize) -> f64 {
        let n = self.n;
        let n2 = n * n;
        let mut acc = 6.0 * x[idx];
        if i > 0 {
            acc -= x[idx - n2];
        }
        if i + 1 < n {
            acc -= x[idx + n2];
        }
        if j > 0 {
            acc -= x[idx - n];
        }
        if j + 1 < n {
            acc -= x[idx + n];
        }
        if k > 0 {
            acc -= x[idx - 1];
        }
        if k + 1 < n {
            acc -= x[idx + 1];
        }
        acc
    }
}

impl Stencil3d {
    /// One `k`-row written contiguously into `out` via the SIMD row kernel
    /// ([`vr_par::simd::leaf_stencil3d_row`]) — the 3-D analogue of
    /// [`Stencil2d::row_sweep_into`], with the exact
    /// [`Stencil3d::row_value`] operation sequence per element.
    /// Grid side length `n` (the operator dimension is `n³`).
    #[inline]
    pub(crate) fn side(&self) -> usize {
        self.n
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn row3_sweep_into(
        &self,
        x: &[f64],
        has_il: bool,
        has_ih: bool,
        has_jl: bool,
        has_jh: bool,
        row: usize,
        out: &mut [f64],
    ) {
        let n = self.n;
        let n2 = n * n;
        let ilo = has_il.then(|| &x[row - n2..row - n2 + n]);
        let ihi = has_ih.then(|| &x[row + n2..row + n2 + n]);
        let jlo = has_jl.then(|| &x[row - n..row]);
        let jhi = has_jh.then(|| &x[row + n..row + 2 * n]);
        vr_par::simd::leaf_stencil3d_row(ilo, ihi, jlo, jhi, &x[row..row + n], out);
    }

    /// One whole `i`-plane written contiguously into `out` (`n²` elements)
    /// through [`Stencil3d::row3_sweep_into`], dispatching the row kind
    /// once per `j`-row.
    #[inline]
    fn plane_sweep_into(
        &self,
        x: &[f64],
        has_il: bool,
        has_ih: bool,
        plane: usize,
        out: &mut [f64],
    ) {
        let n = self.n;
        for (j, orow) in out.chunks_exact_mut(n).enumerate() {
            self.row3_sweep_into(x, has_il, has_ih, j > 0, j + 1 < n, plane + j * n, orow);
        }
    }
}

impl LinearOperator for Stencil3d {
    fn dim(&self) -> usize {
        self.n * self.n * self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let n = self.n;
        assert_eq!(x.len(), n * n * n);
        assert_eq!(y.len(), n * n * n);
        let n2 = n * n;
        for (i, yplane) in y.chunks_exact_mut(n2).enumerate() {
            self.plane_sweep_into(x, i > 0, i + 1 < n, i * n2, yplane);
        }
    }

    fn max_row_nnz(&self) -> usize {
        7
    }

    fn as_sweep(&self) -> Option<crate::sweep::SweepOperator<'_>> {
        Some(crate::sweep::SweepOperator::Stencil3d(self))
    }

    /// Native `f32` sweep: the `Stencil3d::row_value` operation sequence
    /// with every operand narrowed to `f32`.
    fn apply_f32(&self, x: &[f32], y: &mut [f32]) -> bool {
        let n = self.n;
        assert_eq!(x.len(), n * n * n);
        assert_eq!(y.len(), n * n * n);
        let n2 = n * n;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let idx = (i * n + j) * n + k;
                    let mut acc = 6.0 * x[idx];
                    if i > 0 {
                        acc -= x[idx - n2];
                    }
                    if i + 1 < n {
                        acc -= x[idx + n2];
                    }
                    if j > 0 {
                        acc -= x[idx - n];
                    }
                    if j + 1 < n {
                        acc -= x[idx + n];
                    }
                    if k > 0 {
                        acc -= x[idx - 1];
                    }
                    if k + 1 < n {
                        acc -= x[idx + 1];
                    }
                    y[idx] = acc;
                }
            }
        }
        true
    }

    /// Row-fused stencil application + dot.
    fn apply_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        let n = self.n;
        let dim = n * n * n;
        assert_eq!(x.len(), dim);
        assert_eq!(y.len(), dim);
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        crate::fused::fused_sum(dim, |idx| {
            let v = self.row_value(x, i, j, k, idx);
            k += 1;
            if k == n {
                k = 0;
                j += 1;
                if j == n {
                    j = 0;
                    i += 1;
                }
            }
            y[idx] = v;
            x[idx] * v
        })
    }

    /// Team-parallel stencil application by contiguous bands of `i`-planes
    /// (each plane is `n²` contiguous flat indices) — every row value is
    /// the exact `Stencil3d::row_value` sequence, so bands are
    /// bit-identical to the serial `apply` for any team width.
    fn apply_team(&self, team: Option<&vr_par::Team>, x: &[f64], y: &mut [f64]) {
        let n = self.n;
        let n2 = n * n;
        let dim = n2 * n;
        assert_eq!(x.len(), dim);
        assert_eq!(y.len(), dim);
        let width = team
            .map_or(1, |t| vr_par::team::dispatch_width(dim, t.live_width()))
            .min(n);
        if width <= 1 {
            self.apply(x, y);
            return;
        }
        let team = team.expect("width > 1 implies a team");
        let per = n.div_ceil(width);
        let yp = vr_par::team::SendPtr(y.as_mut_ptr());
        let res = team.try_run_shards(
            &move |w| {
                let ilo = w * per;
                if ilo >= n {
                    return;
                }
                let ihi = ((w + 1) * per).min(n);
                // Safety: shards own disjoint plane bands `[ilo·n², ihi·n²)`
                // of `y`, which outlives the epoch.
                let yband = unsafe {
                    std::slice::from_raw_parts_mut(yp.get().add(ilo * n2), (ihi - ilo) * n2)
                };
                for (i, yplane) in (ilo..ihi).zip(yband.chunks_exact_mut(n2)) {
                    self.plane_sweep_into(x, i > 0, i + 1 < n, i * n2, yplane);
                }
            },
            width,
        );
        if res.is_err() {
            y.fill(f64::NAN);
        }
    }

    /// Trapezoidal matrix-powers kernel over bands of `i`-planes — the
    /// [`Stencil2d::matrix_powers`] scheme with a grid row generalized to a
    /// contiguous `n²`-element plane. Ghost planes are recomputed by the
    /// exact `Stencil3d::row_value` sequence, so outputs are bit-identical
    /// to [`crate::mpk::naive_powers`] for any tile size and team width.
    fn matrix_powers(
        &self,
        transform: &crate::mpk::MpkTransform<'_>,
        v: &mut [Vec<f64>],
        av: &mut [Vec<f64>],
        team: Option<&vr_par::Team>,
        tile: Option<usize>,
        ws: &mut crate::mpk::MpkWorkspace,
    ) {
        let n = self.n;
        let n2 = n * n;
        let dim = n2 * n;
        let s = v.len();
        let tile_planes = tile
            .unwrap_or_else(|| crate::mpk::default_tile_rows(n2, s))
            .max(1);
        if s < 2 || tile_planes >= n {
            crate::mpk::naive_powers(self, transform, v, av, team);
            return;
        }
        assert_eq!(av.len(), s, "matrix_powers: v/av column count mismatch");
        for l in 0..s {
            assert_eq!(v[l].len(), dim, "matrix_powers: v column length != dim");
            assert_eq!(av[l].len(), dim, "matrix_powers: av column length != dim");
        }
        let ntiles = n.div_ceil(tile_planes);
        let width = team
            .map_or(1, |t| vr_par::team::dispatch_width(dim, t.live_width()))
            .min(ntiles);
        let band_len = (tile_planes + 2 * (s - 1)) * n2;
        // three rotating bands plus one scratch plane for ghost-plane images
        let shard_len = 3 * band_len + n2;
        let tracer = ws.tracer();
        let bands = ws.bands_mut(width * shard_len);
        let v_ptrs: Vec<vr_par::team::SendPtr<f64>> = v
            .iter_mut()
            .map(|c| vr_par::team::SendPtr(c.as_mut_ptr()))
            .collect();
        let av_ptrs: Vec<vr_par::team::SendPtr<f64>> = av
            .iter_mut()
            .map(|c| vr_par::team::SendPtr(c.as_mut_ptr()))
            .collect();
        let bands_ptr = vr_par::team::SendPtr(bands.as_mut_ptr());
        let v_ptrs = &v_ptrs[..];
        let av_ptrs = &av_ptrs[..];
        let tr = tracer.as_deref();
        let job = move |w: usize| {
            // Shards beyond the dispatch width own no tiles and no scratch.
            if w >= width {
                return;
            }
            // Safety: same discipline as `Stencil2d::matrix_powers` — each
            // shard owns its band slice, owned plane ranges are disjoint
            // across tiles, and `try_run` outlives every dereference.
            let base = unsafe { bands_ptr.get().add(w * shard_len) };
            let bptr = [base, unsafe { base.add(band_len) }, unsafe {
                base.add(2 * band_len)
            }];
            let img_scratch = unsafe { base.add(3 * band_len) };
            let v0 = unsafe { std::slice::from_raw_parts(v_ptrs[0].get(), dim) };
            for t in (w..ntiles).step_by(width) {
                let tile_start = tr.map(vr_obs::Tracer::now_ns);
                let t0 = t * tile_planes;
                let t1 = ((t + 1) * tile_planes).min(n);
                let (mut prev_i, mut cur_i, mut next_i) = (1usize, 2usize, 0usize);
                for l in 0..s {
                    let d = s - 1 - l;
                    let slo = t0.saturating_sub(d);
                    let shi = (t1 + d).min(n);
                    let (xs, xlo): (&[f64], usize) = if l == 0 {
                        (v0, 0)
                    } else {
                        (
                            unsafe { std::slice::from_raw_parts(bptr[cur_i], band_len) },
                            t0.saturating_sub(s - l),
                        )
                    };
                    let (ps, plo): (&[f64], usize) = if l <= 1 {
                        (v0, 0)
                    } else {
                        (
                            unsafe { std::slice::from_raw_parts(bptr[prev_i], band_len) },
                            t0.saturating_sub(s - l + 1),
                        )
                    };
                    let next = bptr[next_i];
                    for i in slo..shi {
                        let owned = i >= t0 && i < t1;
                        let plane_rel = (i - xlo) * n2;
                        // Pass 1: the stencil image of plane i, written
                        // straight to its destination — the global av plane
                        // when owned, a scratch plane for ghosts. A plain
                        // contiguous store feeds the SIMD row kernel.
                        let img_ptr = if owned {
                            unsafe { av_ptrs[l].get().add(i * n2) }
                        } else {
                            img_scratch
                        };
                        {
                            // Safety: `img_ptr` addresses `n²` writable
                            // elements (an owned global av plane or the
                            // scratch plane) disjoint from `xs`.
                            let img_plane = unsafe { std::slice::from_raw_parts_mut(img_ptr, n2) };
                            self.plane_sweep_into(xs, i > 0, i + 1 < n, plane_rel, img_plane);
                        }
                        // Pass 2: the column recurrence over the whole plane
                        // (one transform dispatch per plane, branch-free
                        // inside), into the rotating band — and the global
                        // v column when owned. The plane is cache-resident
                        // from pass 1, so the second sweep is
                        // arithmetic-only.
                        if l + 1 < s {
                            let img = unsafe { std::slice::from_raw_parts(img_ptr, n2) };
                            let cur = &xs[plane_rel..plane_rel + n2];
                            let prev = (l > 0).then(|| &ps[(i - plo) * n2..(i - plo + 1) * n2]);
                            let next_plane = unsafe {
                                std::slice::from_raw_parts_mut(next.add((i - slo) * n2), n2)
                            };
                            transform.combine_row(l, img, cur, prev, next_plane);
                            if owned {
                                unsafe {
                                    std::ptr::copy_nonoverlapping(
                                        next_plane.as_ptr(),
                                        v_ptrs[l + 1].get().add(i * n2),
                                        n2,
                                    );
                                }
                            }
                        }
                    }
                    // rotate: this level's output becomes the next level's
                    // source; the old source becomes `prev`.
                    (prev_i, cur_i, next_i) = (cur_i, next_i, prev_i);
                }
                if let (Some(tr), Some(s0)) = (tr, tile_start) {
                    tr.record_since(w, vr_obs::SpanKind::MpkTile, s0);
                }
            }
        };
        if width <= 1 {
            job(0);
            return;
        }
        let team = team.expect("width > 1 implies a team");
        if team.try_run_shards(&job, width).is_err() {
            crate::mpk::poison_outputs(v, av);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn agree(op: &dyn LinearOperator, csr: &crate::CsrMatrix, seed: u64) {
        assert_eq!(op.dim(), csr.nrows());
        let x = gen::rand_vector(op.dim(), seed);
        let y_op = op.apply_alloc(&x);
        let y_csr = csr.spmv(&x);
        for (a, b) in y_op.iter().zip(&y_csr) {
            assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn stencil2d_matches_csr() {
        agree(&Stencil2d::poisson(11), &gen::poisson2d(11), 2);
        agree(
            &Stencil2d::anisotropic(9, 9, 0.125),
            &gen::anisotropic2d(9, 0.125),
            3,
        );
        assert_eq!(Stencil2d::poisson(4).shape(), (4, 4));
    }

    #[test]
    fn stencil3d_matches_csr() {
        agree(&Stencil3d::new(6), &gen::poisson3d(6), 4);
        assert_eq!(Stencil3d::new(6).max_row_nnz(), 7);
    }

    #[test]
    fn fused_entry_points_bit_match_two_pass() {
        use crate::kernels::dot_serial;
        let ops: Vec<Box<dyn LinearOperator>> = vec![
            Box::new(Stencil2d::poisson(9)),
            Box::new(Stencil2d::anisotropic(7, 11, 0.125)),
            Box::new(Stencil2d::anisotropic(1, 13, 0.5)),
            Box::new(Stencil2d::anisotropic(13, 1, 2.0)),
            Box::new(Stencil2d::anisotropic(2, 2, 1.0)),
            Box::new(Stencil3d::new(5)),
        ];
        for op in &ops {
            let n = op.dim();
            let x = gen::rand_vector(n, 17);
            let mut y_ref = vec![0.0; n];
            op.apply(&x, &mut y_ref);
            let reference = dot_serial(&x, &y_ref);

            let mut y_fused = vec![0.0; n];
            let fused = op.apply_dot(&x, &mut y_fused);
            assert_eq!(y_fused, y_ref);
            assert_eq!(fused.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn matrix_powers_tiled_matches_naive_bitwise() {
        use crate::mpk::{naive_powers, MpkTransform, MpkWorkspace};
        use vr_par::team::Team;
        let shifts = [0.9, 2.3, 3.7];
        let scales = [0.5, 1.0, 2.0];
        let transforms = [
            MpkTransform::Monomial,
            MpkTransform::Newton {
                shifts: &shifts,
                scales: &scales,
            },
            MpkTransform::Chebyshev {
                center: 4.1,
                half_width: 3.9,
            },
        ];
        let s = 4;
        // 200×100 clears the dispatch grain so teams actually split; the
        // ny = 1 and small-3-D cases cover degenerate tiling serially.
        let ops: Vec<Box<dyn LinearOperator>> = vec![
            Box::new(Stencil2d::anisotropic(200, 100, 0.3)),
            Box::new(Stencil2d::anisotropic(9, 1, 1.0)),
            Box::new(Stencil3d::new(20)),
        ];
        for op in &ops {
            let n = op.dim();
            let seed = gen::rand_vector(n, 5);
            for t in &transforms {
                let mut v_ref = vec![vec![0.0; n]; s];
                v_ref[0].copy_from_slice(&seed);
                let mut av_ref = vec![vec![0.0; n]; s];
                naive_powers(op.as_ref(), t, &mut v_ref, &mut av_ref, None);
                for tile in [1usize, 3, 17] {
                    for width in [1usize, 4] {
                        let team = Team::new(width);
                        let mut v = vec![vec![0.0; n]; s];
                        v[0].copy_from_slice(&seed);
                        let mut av = vec![vec![0.0; n]; s];
                        let mut ws = MpkWorkspace::new();
                        op.matrix_powers(t, &mut v, &mut av, Some(&team), Some(tile), &mut ws);
                        assert_eq!(v, v_ref, "v diverged: {t:?} tile={tile} width={width}");
                        assert_eq!(av, av_ref, "av diverged: {t:?} tile={tile} width={width}");
                    }
                }
            }
        }
    }

    #[test]
    fn apply_team_bit_matches_serial_across_widths() {
        use vr_par::team::Team;
        // large enough to clear the dispatch grain for 4 workers
        let s2 = Stencil2d::anisotropic(200, 200, 0.3);
        let x2 = crate::gen::rand_vector(40_000, 7);
        let mut ser2 = vec![0.0; 40_000];
        s2.apply(&x2, &mut ser2);
        let dot_ref = vr_par::reduce::par_dot_in(None, &x2, &ser2);
        let s3 = Stencil3d::new(32);
        let x3 = crate::gen::rand_vector(32 * 32 * 32, 9);
        let mut ser3 = vec![0.0; x3.len()];
        s3.apply(&x3, &mut ser3);
        for w in [1usize, 2, 4, 8] {
            let team = Team::new(w);
            let mut y = vec![0.0; 40_000];
            s2.apply_team(Some(&team), &x2, &mut y);
            assert_eq!(ser2, y, "stencil2d width {w}");
            let d = vr_par::reduce::par_dot_in(Some(&team), &x2, &y);
            assert_eq!(d.to_bits(), dot_ref.to_bits(), "stencil2d dot width {w}");
            let mut y = vec![0.0; x3.len()];
            s3.apply_team(Some(&team), &x3, &mut y);
            assert_eq!(ser3, y, "stencil3d width {w}");
        }
        // `None` team falls back to the serial sweep
        let mut y = vec![0.0; 40_000];
        s2.apply_team(None, &x2, &mut y);
        assert_eq!(ser2, y);
    }

    #[test]
    fn cg_runs_matrix_free() {
        // End-to-end: the solvers only see LinearOperator.
        use crate::kernels::norm2;
        let op = Stencil2d::poisson(16);
        let b = gen::poisson2d_rhs(16);
        // quick hand-rolled CG to avoid a circular dev-dependency on vr-cg
        let n = op.dim();
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let mut p = r.clone();
        let mut w = vec![0.0; n];
        let mut rr = crate::kernels::dot_serial(&r, &r);
        for _ in 0..600 {
            op.apply(&p, &mut w);
            let lambda = rr / crate::kernels::dot_serial(&p, &w);
            crate::kernels::axpy(lambda, &p, &mut x);
            crate::kernels::axpy(-lambda, &w, &mut r);
            let rr2 = crate::kernels::dot_serial(&r, &r);
            if rr2 < 1e-20 {
                break;
            }
            crate::kernels::xpay(&r, rr2 / rr, &mut p);
            rr = rr2;
        }
        let mut check = vec![0.0; n];
        op.apply(&x, &mut check);
        crate::kernels::axpy(-1.0, &b, &mut check);
        assert!(
            norm2(&check) < 1e-8,
            "matrix-free CG residual {}",
            norm2(&check)
        );
    }
}
