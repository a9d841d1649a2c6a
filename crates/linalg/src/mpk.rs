//! Cache-blocked matrix-powers kernel (MPK) support.
//!
//! The s-step and lookahead solvers in `vr-cg` need the block Krylov family
//! `v_0 = r, v_{l+1} = ρ_l(A) v_l` together with every image `A·v_l` — the
//! moment inputs `(r, Ar, A²r, …)` of the 1983 paper. Building that family
//! column by column performs `s` full passes over memory, so the basis phase
//! is bandwidth-bound: each pass streams the whole vector through cache once
//! per application. A *matrix-powers kernel* (Hoemmen/Demmel-style
//! communication-avoiding Krylov practice) instead sweeps one cache-sized
//! tile through all `s` levels before moving on, loading each tile of the
//! source vector once per `s` applications.
//!
//! This module holds the pieces shared by every operator:
//!
//! * [`MpkTransform`] — the three-term column recurrence (monomial, shifted
//!   Newton, Chebyshev) as a single borrowing value, so the naive and tiled
//!   engines share one floating-point definition and stay bit-identical.
//! * [`MpkWorkspace`] — reusable scratch (ghost-zone bands, CSR halo plans)
//!   so repeated basis builds allocate nothing after the first.
//! * [`naive_powers`] — the reference level-by-level engine; also the
//!   default body of [`crate::LinearOperator::matrix_powers`].
//! * [`NaivePowers`] — a forwarding operator that keeps that default, so a
//!   whole solve can run on the reference engine as a test oracle.
//! * The CSR halo-expansion plan and executor used by
//!   [`crate::CsrMatrix`]'s tiled override.
//!
//! ## Bit-identity contract
//!
//! Every [`crate::LinearOperator::matrix_powers`] implementation must
//! produce outputs bit-identical to [`naive_powers`] for any tile size and
//! any team width. The tiled engines achieve this by *redundant ghost
//! compute*: an element of `v_{l+1}` near a tile boundary is recomputed
//! inside each neighboring tile by the exact per-row operation sequence of
//! `apply`, so its bits never depend on where the tile boundary fell. This
//! is why the solvers have no engine choice: they always call the
//! operator's kernel, and the differential suites check it against the
//! same solve through [`NaivePowers`].

use crate::{CsrMatrix, LinearOperator};
use vr_par::team::{dispatch_width, SendPtr};
use vr_par::Team;

/// Working-set budget for one tile's rotating bands: three quarters of the
/// *probed* per-core L2 ([`vr_par::cache::cache_info`]), leaving the rest
/// for the source and destination column streams and the matrix entries.
/// The 3/4 fraction reproduces the E18 sweep optimum (1.5 MiB on the 2 MiB
/// measurement host): the larger tile amortizes the `2·(s−1)` recomputed
/// ghost rows (≈ 25% redundant work at half the budget, ≈ 14% here) while
/// keeping the bands L2-resident. A conservative 1 MiB fallback applies
/// when sysfs is absent.
#[must_use]
pub fn mpk_l2_budget_bytes() -> usize {
    vr_par::cache::cache_info().l2_bytes / 4 * 3
}

/// Tile-size heuristic for grid-structured operators: the number of grid
/// rows (2-D) or planes (3-D) per tile such that the three rotating
/// ghost-zone bands of `tile + 2·(levels − 1)` rows fit in
/// [`mpk_l2_budget_bytes`].
///
/// `row_elems` is the element count of one grid row/plane. Tile size never
/// affects output bits (see the module docs), so this only has to be in the
/// right ballpark; [`crate::LinearOperator::matrix_powers`] accepts an
/// explicit override for experiments.
#[must_use]
pub fn default_tile_rows(row_elems: usize, levels: usize) -> usize {
    let per_row_bytes = row_elems.max(1).saturating_mul(3 * 8);
    let rows = mpk_l2_budget_bytes() / per_row_bytes;
    rows.saturating_sub(2 * levels.saturating_sub(1))
        .clamp(4, 4096)
}

/// Tile-size heuristic for CSR row-range blocking: the number of matrix
/// rows per tile such that the per-level halo scratch (`levels` live
/// vectors of roughly tile length) stays inside [`mpk_l2_budget_bytes`].
#[must_use]
pub fn default_csr_tile_rows(nrows: usize, levels: usize) -> usize {
    let rows = mpk_l2_budget_bytes() / (8 * levels.max(1));
    rows.clamp(256, nrows.max(256))
}

/// The column recurrence `v_{l+1} = ρ_l(A) v_l` applied between powers,
/// expressed on one element: given `image = (A·v_l)[j]`, `cur = v_l[j]` and
/// `prev = v_{l−1}[j]`, produce `v_{l+1}[j]`.
///
/// This is the *single* floating-point definition of the three
/// `sstep::basis::BasisKind` recurrences; both the naive and the tiled
/// engines evaluate columns through it, which is what makes the engines
/// bit-identical. Borrowed shift/scale tables keep the value `Copy` and
/// allocation-free.
#[derive(Debug, Clone, Copy)]
pub enum MpkTransform<'a> {
    /// `v_{l+1} = A·v_l` — the raw power basis.
    Monomial,
    /// Shifted, scaled Newton basis: `v_{l+1} = (A·v_l − σ_l·v_l)·γ_l`,
    /// with the shift/scale index taken modulo the table length.
    ///
    /// The scales are precomputed powers of two (see
    /// `sstep::basis::BasisParams`), so the multiply is exact and the
    /// recurrence needs no data-dependent normalization — a global
    /// reduction per level would serialize the matrix-powers sweep.
    Newton {
        /// Leja-ordered Ritz shifts `σ_l`.
        shifts: &'a [f64],
        /// Exact power-of-two scale factors `γ_l`.
        scales: &'a [f64],
    },
    /// Three-term Chebyshev recurrence on the interval
    /// `[center − half_width, center + half_width]`:
    /// `t_1 = (A − c)/δ · t_0`, `t_{l+1} = 2·(A − c)/δ · t_l − t_{l−1}`.
    Chebyshev {
        /// Interval center `c`.
        center: f64,
        /// Interval half-width `δ` (positive).
        half_width: f64,
    },
}

impl MpkTransform<'_> {
    /// Evaluate the recurrence for level `l` on one element.
    ///
    /// `prev` is ignored unless [`MpkTransform::needs_prev`] returns true
    /// and `l >= 1`; callers may pass any value in that case.
    #[inline]
    #[must_use]
    pub fn level(&self, l: usize, image: f64, cur: f64, prev: f64) -> f64 {
        match *self {
            MpkTransform::Monomial => image,
            MpkTransform::Newton { shifts, scales } => {
                let sigma = if shifts.is_empty() {
                    0.0
                } else {
                    shifts[l % shifts.len()]
                };
                let gamma = if scales.is_empty() {
                    1.0
                } else {
                    scales[l % scales.len()]
                };
                (image - sigma * cur) * gamma
            }
            MpkTransform::Chebyshev { center, half_width } => {
                if l == 0 {
                    (image - center * cur) / half_width
                } else {
                    2.0 * (image - center * cur) / half_width - prev
                }
            }
        }
    }

    /// Apply the level-`l` recurrence over a contiguous row/plane:
    /// `out[j] = level(l, img[j], cur[j], prev[j])`.
    ///
    /// Tiled executors call this once per grid row instead of matching on
    /// the transform per element, which keeps their inner loops
    /// branch-free and auto-vectorizable. Each arm evaluates the exact
    /// floating-point expression of [`MpkTransform::level`], so outputs
    /// stay bit-identical to the naive engine. `prev` is only read for
    /// Chebyshev levels `l ≥ 1` and may be `None` otherwise.
    ///
    /// # Panics
    /// Panics if the slice lengths disagree, or if Chebyshev at `l ≥ 1`
    /// is called without `prev`.
    pub fn combine_row(
        &self,
        l: usize,
        img: &[f64],
        cur: &[f64],
        prev: Option<&[f64]>,
        out: &mut [f64],
    ) {
        assert_eq!(img.len(), out.len(), "combine_row: img/out length");
        assert_eq!(cur.len(), out.len(), "combine_row: cur/out length");
        match *self {
            MpkTransform::Monomial => out.copy_from_slice(img),
            MpkTransform::Newton { shifts, scales } => {
                let sigma = if shifts.is_empty() {
                    0.0
                } else {
                    shifts[l % shifts.len()]
                };
                let gamma = if scales.is_empty() {
                    1.0
                } else {
                    scales[l % scales.len()]
                };
                vr_par::simd::leaf_newton_row(sigma, gamma, img, cur, out);
            }
            MpkTransform::Chebyshev { center, half_width } => {
                if l == 0 {
                    vr_par::simd::leaf_cheb0_row(center, half_width, img, cur, out);
                } else {
                    let prev = prev.expect("combine_row: chebyshev l >= 1 needs prev");
                    assert_eq!(prev.len(), out.len(), "combine_row: prev/out length");
                    vr_par::simd::leaf_chebl_row(center, half_width, img, cur, prev, out);
                }
            }
        }
    }

    /// Whether the recurrence reads `v_{l−1}` (true only for Chebyshev).
    /// Tiled engines use this to know how many live levels a sweep needs.
    #[must_use]
    pub fn needs_prev(&self) -> bool {
        matches!(self, MpkTransform::Chebyshev { .. })
    }
}

/// Reusable scratch for [`crate::LinearOperator::matrix_powers`].
///
/// Holds the per-shard ghost-zone bands for stencil operators and the
/// cached symbolic halo plan for CSR operators. Buffers grow on first use
/// and are reused verbatim afterwards, so a solver that keeps one workspace
/// across restarts performs no allocation in its basis phase after warm-up.
#[derive(Debug, Default)]
pub struct MpkWorkspace {
    /// Flat band scratch, partitioned per team shard by the tiled engines.
    bands: Vec<f64>,
    /// Cached CSR halo plan (symbolic; reused while the key matches).
    plan: Option<CsrPlan>,
    /// Optional span recorder: when set, the tiled engines record one
    /// `MpkTile` span per tile into the recording shard's slot.
    tracer: Option<std::sync::Arc<vr_obs::Tracer>>,
}

impl MpkWorkspace {
    /// Fresh, empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach (or detach, with `None`) a span recorder. Worker shard `w`
    /// records its tile sweeps into the tracer's slot `w`, which is exactly
    /// the shard-exclusivity contract `vr_obs::Tracer` requires.
    pub fn set_tracer(&mut self, tracer: Option<std::sync::Arc<vr_obs::Tracer>>) {
        self.tracer = tracer;
    }

    /// The attached span recorder, if any (cheap handle clone).
    #[must_use]
    pub fn tracer(&self) -> Option<std::sync::Arc<vr_obs::Tracer>> {
        self.tracer.clone()
    }

    /// Grow-only band scratch of at least `len` elements.
    pub(crate) fn bands_mut(&mut self, len: usize) -> &mut [f64] {
        if self.bands.len() < len {
            self.bands.resize(len, 0.0);
        }
        &mut self.bands[..len]
    }
}

/// Fill every derived column with NaN after a poisoned-team epoch, so the
/// solver's residual/pivot guards terminate with an honest breakdown
/// instead of consuming torn outputs. `v[0]` (the caller's input) is left
/// untouched.
pub(crate) fn poison_outputs(v: &mut [Vec<f64>], av: &mut [Vec<f64>]) {
    for col in v.iter_mut().skip(1) {
        col.fill(f64::NAN);
    }
    for col in av.iter_mut() {
        col.fill(f64::NAN);
    }
}

/// Reference matrix-powers engine: `s = v.len()` level-by-level passes.
///
/// For `l in 0..s`: `av[l] ← A·v[l]`, then (while `l + 1 < s`)
/// `v[l+1][j] = transform.level(l, av[l][j], v[l][j], v[l−1][j])` for every
/// element. `v[0]` is the caller-supplied seed column. Matvecs run through
/// [`LinearOperator::apply_team`], so the naive engine is itself
/// team-parallel and width-invariant; the elementwise transform passes are
/// exact per element and run on the caller.
///
/// This is the default body of [`LinearOperator::matrix_powers`] (and so
/// the engine [`NaivePowers`] exposes); every tiled override must match it
/// bit for bit.
///
/// # Panics
/// Panics if `av.len() != v.len()` or any column length differs from
/// `a.dim()`.
pub fn naive_powers<A: LinearOperator + ?Sized>(
    a: &A,
    transform: &MpkTransform<'_>,
    v: &mut [Vec<f64>],
    av: &mut [Vec<f64>],
    team: Option<&Team>,
) {
    let s = v.len();
    assert_eq!(av.len(), s, "naive_powers: v/av column count mismatch");
    let n = a.dim();
    for l in 0..s {
        assert_eq!(v[l].len(), n, "naive_powers: v column length != dim");
        assert_eq!(av[l].len(), n, "naive_powers: av column length != dim");
        a.apply_team(team, &v[l], &mut av[l]);
        if l + 1 < s {
            let (head, tail) = v.split_at_mut(l + 1);
            let cur = &head[l];
            let prev: Option<&[f64]> = if l == 0 { None } else { Some(&head[l - 1]) };
            let img = &av[l];
            let next = &mut tail[0];
            transform.combine_row(l, img, cur, prev, next);
        }
    }
}

/// The reference-engine oracle: `NaivePowers(a)` forwards every
/// [`LinearOperator`] entry point to `a` except
/// [`LinearOperator::matrix_powers`], which it leaves at the trait default
/// [`naive_powers`].
///
/// A solve through `&NaivePowers(&a)` is therefore the solve through `&a`
/// with every Krylov basis built level by level; by the bit-identity
/// contract the two must agree bit for bit. The differential suites and
/// the E18 reference arm compare the operators' tiled kernels against it.
#[derive(Debug, Clone, Copy)]
pub struct NaivePowers<A>(pub A);

impl<A: LinearOperator> LinearOperator for NaivePowers<A> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.0.apply(x, y);
    }
    fn max_row_nnz(&self) -> usize {
        self.0.max_row_nnz()
    }
    fn apply_alloc(&self, x: &[f64]) -> Vec<f64> {
        self.0.apply_alloc(x)
    }
    fn apply_f32(&self, x: &[f32], y: &mut [f32]) -> bool {
        self.0.apply_f32(x, y)
    }
    fn apply_dot(&self, mode: crate::kernels::DotMode, x: &[f64], y: &mut [f64]) -> f64 {
        self.0.apply_dot(mode, x, y)
    }
    fn apply_team(&self, team: Option<&Team>, x: &[f64], y: &mut [f64]) {
        self.0.apply_team(team, x, y);
    }
    fn as_sweep(&self) -> Option<crate::sweep::SweepOperator<'_>> {
        self.0.as_sweep()
    }
}

// ---------------------------------------------------------------------------
// CSR halo-expansion plan
// ---------------------------------------------------------------------------

/// One level of a tile's sweep schedule.
#[derive(Debug, Default)]
struct SweepPlan {
    /// Sorted global row ids swept at this level (`S_l`).
    rows: Vec<u32>,
    /// Remapped column positions into the previous level's scratch storage
    /// (`S_{l−1}` order), concatenated per row in global CSR entry order.
    /// Empty for level 0, which reads the global `v[0]` directly.
    cols_local: Vec<u32>,
    /// Position of each swept row inside `S_{l−1}` — where `v_l[row]` lives
    /// in scratch. Empty for level 0 (`v_0` is global).
    cur_pos: Vec<u32>,
    /// Position of each swept row inside `S_{l−2}` — where `v_{l−1}[row]`
    /// lives. Only populated for levels ≥ 2.
    prev_pos: Vec<u32>,
}

/// Sweep schedule for one tile of owned rows `[t0, t1)`.
#[derive(Debug)]
struct TilePlan {
    t0: u32,
    t1: u32,
    /// `sweeps[l]` drives the level-`l` sweep; `sweeps[l].rows` is also the
    /// scratch storage order of `v_{l+1}`.
    sweeps: Vec<SweepPlan>,
}

/// Cached symbolic plan for the CSR matrix-powers kernel.
#[derive(Debug)]
pub(crate) struct CsrPlan {
    /// `(nrows, nnz, levels, tile_rows)` — cheap fingerprint of the sparsity
    /// pattern and blocking this plan was built for.
    key: (usize, usize, usize, usize),
    tiles: Vec<TilePlan>,
    /// Max per-tile scratch, sizing each shard's slice of the band buffer.
    max_scratch: usize,
    /// False when halo expansion blew past the profitability bound; with an
    /// auto-chosen tile the executor then falls back to [`naive_powers`]
    /// (same bits either way). An explicit tile override always runs tiled.
    profitable: bool,
}

/// Grow `set` (sorted, deduped) to `set ∪ cols(set)` for the given CSR.
fn expand_rows(a: &CsrMatrix, set: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.extend_from_slice(set);
    let indptr = a.indptr();
    let indices = a.indices();
    for &r in set {
        let r = r as usize;
        for &c in &indices[indptr[r]..indptr[r + 1]] {
            out.push(c as u32);
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// Position of each row of `rows` inside the sorted superset `store`.
/// Both lists are sorted and `rows ⊆ store` by construction, so one merge
/// pass suffices.
fn positions_in(rows: &[u32], store: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(rows.len());
    let mut i = 0usize;
    for &r in rows {
        while store[i] < r {
            i += 1;
        }
        debug_assert_eq!(store[i], r, "positions_in: row not in storage set");
        out.push(i as u32);
    }
}

fn build_csr_plan(a: &CsrMatrix, levels: usize, tile_rows: usize) -> CsrPlan {
    let n = a.nrows();
    let nnz = a.nnz();
    let key = (n, nnz, levels, tile_rows);
    // u32 row/position ids keep the plan compact; bail out for systems that
    // would overflow them (the executor then uses the naive engine).
    if n > u32::MAX as usize || nnz > u32::MAX as usize {
        return CsrPlan {
            key,
            tiles: Vec::new(),
            max_scratch: 0,
            profitable: false,
        };
    }
    let ntiles = n.div_ceil(tile_rows);
    let mut tiles = Vec::with_capacity(ntiles);
    let mut max_scratch = 0usize;
    let mut total_widest = 0usize;
    let indptr = a.indptr();
    let indices = a.indices();
    for t in 0..ntiles {
        let t0 = t * tile_rows;
        let t1 = ((t + 1) * tile_rows).min(n);
        // Row sets by backward induction: the last level sweeps exactly the
        // owned rows; each earlier level additionally covers every column
        // the next level reads, so the whole tile is self-contained.
        let mut sets: Vec<Vec<u32>> = vec![Vec::new(); levels];
        sets[levels - 1] = (t0 as u32..t1 as u32).collect();
        for l in (0..levels.saturating_sub(1)).rev() {
            let (lo_part, hi_part) = sets.split_at_mut(l + 1);
            expand_rows(a, &hi_part[0], &mut lo_part[l]);
        }
        total_widest += sets[0].len();
        let mut cols_locals: Vec<Vec<u32>> = vec![Vec::new(); levels];
        let mut cur_poss: Vec<Vec<u32>> = vec![Vec::new(); levels];
        let mut prev_poss: Vec<Vec<u32>> = vec![Vec::new(); levels];
        let mut scratch = 0usize;
        for l in 0..levels {
            let rows = &sets[l];
            if l >= 1 {
                let store = &sets[l - 1];
                let locals = &mut cols_locals[l];
                for &r in rows {
                    let r = r as usize;
                    for &c in &indices[indptr[r]..indptr[r + 1]] {
                        let pos = store
                            .binary_search(&(c as u32))
                            .expect("halo invariant: column outside previous level set");
                        locals.push(pos as u32);
                    }
                }
                positions_in(rows, store, &mut cur_poss[l]);
            }
            if l >= 2 {
                positions_in(rows, &sets[l - 2], &mut prev_poss[l]);
            }
            if l + 1 < levels {
                // v_{l+1} is stored over S_l.
                scratch += rows.len();
            }
        }
        max_scratch = max_scratch.max(scratch);
        let sweeps = sets
            .into_iter()
            .zip(cols_locals)
            .zip(cur_poss.into_iter().zip(prev_poss))
            .map(|((rows, cols_local), (cur_pos, prev_pos))| SweepPlan {
                rows,
                cols_local,
                cur_pos,
                prev_pos,
            })
            .collect();
        tiles.push(TilePlan {
            t0: t0 as u32,
            t1: t1 as u32,
            sweeps,
        });
    }
    // Profitability: if the widest level's total footprint exceeds ~3× the
    // matrix, redundant halo compute dominates and the naive schedule wins.
    // Bits are identical either way, so this is purely a performance
    // decision — made deterministically from the sparsity pattern, never
    // from runtime values.
    let profitable = total_widest <= 3 * n.max(1);
    CsrPlan {
        key,
        tiles,
        max_scratch,
        profitable,
    }
}

/// Tiled CSR matrix-powers executor (the body of
/// [`CsrMatrix::matrix_powers`]). Row-range blocking with per-level halo
/// expansion; every row value is produced by the exact
/// [`CsrMatrix::spmv_into`] row accumulation, so outputs are bit-identical
/// to [`naive_powers`].
pub(crate) fn csr_powers(
    a: &CsrMatrix,
    transform: &MpkTransform<'_>,
    v: &mut [Vec<f64>],
    av: &mut [Vec<f64>],
    team: Option<&Team>,
    tile: Option<usize>,
    ws: &mut MpkWorkspace,
) {
    let s = v.len();
    let n = a.nrows();
    let auto = tile.is_none();
    let tile_rows = tile.unwrap_or_else(|| default_csr_tile_rows(n, s)).max(1);
    if s < 2 || tile_rows >= n {
        naive_powers(a, transform, v, av, team);
        return;
    }
    assert_eq!(av.len(), s, "csr_powers: v/av column count mismatch");
    for l in 0..s {
        assert_eq!(v[l].len(), n, "csr_powers: v column length != dim");
        assert_eq!(av[l].len(), n, "csr_powers: av column length != dim");
    }
    let key = (n, a.nnz(), s, tile_rows);
    if ws.plan.as_ref().is_none_or(|p| p.key != key) {
        ws.plan = Some(build_csr_plan(a, s, tile_rows));
    }
    let plan: &CsrPlan = ws.plan.as_ref().expect("plan just ensured");
    if plan.tiles.is_empty() || (auto && !plan.profitable) {
        naive_powers(a, transform, v, av, team);
        return;
    }
    let ntiles = plan.tiles.len();
    let tracer = ws.tracer.clone();
    let width = team
        .map_or(1, |t| dispatch_width(n, t.live_width()))
        .min(ntiles.max(1));
    let shard_len = plan.max_scratch;
    let bands: &mut [f64] = {
        let need = width * shard_len;
        if ws.bands.len() < need {
            ws.bands.resize(need, 0.0);
        }
        &mut ws.bands[..need]
    };
    let indptr = a.indptr();
    let indices = a.indices();
    let data = a.data();
    let v_ptrs: Vec<SendPtr<f64>> = v.iter_mut().map(|c| SendPtr(c.as_mut_ptr())).collect();
    let av_ptrs: Vec<SendPtr<f64>> = av.iter_mut().map(|c| SendPtr(c.as_mut_ptr())).collect();
    let bands_ptr = SendPtr(bands.as_mut_ptr());
    let v_ptrs = &v_ptrs[..];
    let av_ptrs = &av_ptrs[..];
    let tr = tracer.as_deref();
    let job = move |w: usize| {
        // Shards beyond the dispatch width (the grain clamp can choose
        // fewer shards than the team has) own no tiles and no scratch.
        if w >= width {
            return;
        }
        // Safety: shard `w` owns bands[w·shard_len ..][..shard_len]; global
        // column writes of distinct tiles target disjoint owned row ranges;
        // `try_run` keeps every buffer alive until all shards finish.
        let scratch = unsafe {
            std::slice::from_raw_parts_mut(bands_ptr.get().add(w * shard_len), shard_len)
        };
        let v0 = unsafe { std::slice::from_raw_parts(v_ptrs[0].get(), n) };
        for tile in plan.tiles.iter().skip(w).step_by(width) {
            let tile_start = tr.map(vr_obs::Tracer::now_ns);
            run_csr_tile(
                tile, s, transform, indptr, indices, data, v0, v_ptrs, av_ptrs, scratch,
            );
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
        poison_outputs(v, av);
    }
}

/// Run all `s` sweeps of one CSR tile. `scratch` holds `v_1..v_{s−1}` over
/// their halo sets, packed back to back; offsets advance incrementally so
/// the hot path performs no allocation.
#[allow(clippy::too_many_arguments)]
fn run_csr_tile(
    tile: &TilePlan,
    s: usize,
    transform: &MpkTransform<'_>,
    indptr: &[usize],
    indices: &[usize],
    data: &[f64],
    v0: &[f64],
    v_ptrs: &[SendPtr<f64>],
    av_ptrs: &[SendPtr<f64>],
    scratch: &mut [f64],
) {
    let (t0, t1) = (tile.t0 as usize, tile.t1 as usize);
    // Offsets into `scratch`: off(m) is where v_m (stored over S_{m−1})
    // begins; off(1) = 0 and off(m+1) = off(m) + |S_{m−1}|.
    let mut out_off = 0usize; // off(l+1) at loop entry
    let mut store_off = 0usize; // off(l); meaningful for l ≥ 1
    let mut prev_off = 0usize; // off(l−1); meaningful for l ≥ 2
    for l in 0..s {
        let sw = &tile.sweeps[l];
        let mut cursor = 0usize;
        for (q, &row) in sw.rows.iter().enumerate() {
            let r = row as usize;
            let lo = indptr[r];
            let hi = indptr[r + 1];
            let mut acc = 0.0;
            if l == 0 {
                for k in lo..hi {
                    acc += data[k] * v0[indices[k]];
                }
            } else {
                for k in lo..hi {
                    acc += data[k] * scratch[store_off + sw.cols_local[cursor + (k - lo)] as usize];
                }
                cursor += hi - lo;
            }
            let owned = r >= t0 && r < t1;
            if owned {
                // Safety: owned row ranges are disjoint across tiles.
                unsafe { *av_ptrs[l].get().add(r) = acc };
            }
            if l + 1 < s {
                let cur = if l == 0 {
                    v0[r]
                } else {
                    scratch[store_off + sw.cur_pos[q] as usize]
                };
                let prev = match l {
                    0 => 0.0, // unused by every transform at level 0
                    1 => v0[r],
                    _ => scratch[prev_off + sw.prev_pos[q] as usize],
                };
                let val = transform.level(l, acc, cur, prev);
                scratch[out_off + q] = val;
                if owned {
                    // Safety: owned row ranges are disjoint across tiles.
                    unsafe { *v_ptrs[l + 1].get().add(r) = val };
                }
            }
        }
        prev_off = store_off;
        store_off = out_off;
        out_off += sw.rows.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn cols(n: usize, s: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let seed: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 997.0 - 0.5)
            .collect();
        let mut v = vec![vec![0.0; n]; s];
        v[0].copy_from_slice(&seed);
        (v, vec![vec![0.0; n]; s])
    }

    #[test]
    fn csr_tiled_matches_naive_bitwise_all_transforms() {
        let a = gen::poisson2d(13); // 169 rows
        let n = a.nrows();
        let s = 4;
        let shifts = [0.9, 2.3, 3.7];
        let scales = [0.5, 1.0, 2.0];
        let transforms = [
            MpkTransform::Monomial,
            MpkTransform::Newton {
                shifts: &shifts,
                scales: &scales,
            },
            MpkTransform::Chebyshev {
                center: 4.0,
                half_width: 3.9,
            },
        ];
        for t in transforms {
            let (mut v_ref, mut av_ref) = cols(n, s);
            naive_powers(&a, &t, &mut v_ref, &mut av_ref, None);
            for tile in [1usize, 7, 40, 168] {
                let (mut v, mut av) = cols(n, s);
                let mut ws = MpkWorkspace::new();
                csr_powers(&a, &t, &mut v, &mut av, None, Some(tile), &mut ws);
                assert_eq!(v, v_ref, "v diverged for {t:?} tile={tile}");
                assert_eq!(av, av_ref, "av diverged for {t:?} tile={tile}");
            }
        }
    }

    #[test]
    fn naive_powers_oracle_forwards_apply_and_skips_the_tiled_kernel() {
        let a = gen::poisson2d(13);
        let n = a.nrows();
        let oracle = NaivePowers(&a);
        assert_eq!(oracle.dim(), n);
        assert_eq!(oracle.max_row_nnz(), a.max_row_nnz());
        let x: Vec<f64> = (0..n).map(|i| i as f64 - 7.0).collect();
        assert_eq!(oracle.apply_alloc(&x), a.apply_alloc(&x));
        // (columns, whether the CSR halo plan was built)
        let powers = |op: &dyn LinearOperator| {
            let (mut v, mut av) = cols(n, 3);
            let mut ws = MpkWorkspace::new();
            let t = MpkTransform::Monomial;
            op.matrix_powers(&t, &mut v, &mut av, None, Some(8), &mut ws);
            (v, av, ws.plan.is_some())
        };
        let (v_ref, av_ref, tiled) = powers(&a);
        assert!(tiled, "CSR runs its tiled kernel");
        let (v, av, tiled) = powers(&oracle);
        assert!(!tiled, "the oracle must not reach the tiled kernel");
        assert_eq!((v, av), (v_ref, av_ref));
    }

    #[test]
    fn csr_plan_is_cached_and_rebuilt_on_key_change() {
        let a = gen::poisson1d(64);
        let (mut v, mut av) = cols(64, 3);
        let mut ws = MpkWorkspace::new();
        csr_powers(
            &a,
            &MpkTransform::Monomial,
            &mut v,
            &mut av,
            None,
            Some(8),
            &mut ws,
        );
        let key1 = ws.plan.as_ref().unwrap().key;
        csr_powers(
            &a,
            &MpkTransform::Monomial,
            &mut v,
            &mut av,
            None,
            Some(8),
            &mut ws,
        );
        assert_eq!(ws.plan.as_ref().unwrap().key, key1);
        csr_powers(
            &a,
            &MpkTransform::Monomial,
            &mut v,
            &mut av,
            None,
            Some(16),
            &mut ws,
        );
        assert_ne!(ws.plan.as_ref().unwrap().key, key1);
    }

    #[test]
    fn tile_heuristics_are_sane() {
        // 2-D Poisson at ny = 1024: derived from the probed L2 budget so the
        // test holds on any host.
        let budget = mpk_l2_budget_bytes();
        let expect = (budget / (1024 * 3 * 8)).saturating_sub(14).clamp(4, 4096);
        assert_eq!(default_tile_rows(1024, 8), expect);
        // The budget itself is 3/4 of a plausible L2 slice.
        assert!(
            (48 * 1024..=48 << 20).contains(&budget),
            "implausible MPK budget: {budget}"
        );
        // Tiny rows clamp to the floor instead of exploding.
        assert_eq!(default_tile_rows(usize::MAX / 16, 8), 4);
        assert!(default_csr_tile_rows(1 << 20, 8) >= 256);
    }
}
