//! Whole-iteration sweep fusion: one cache-resident pass per CG epoch.
//!
//! The fused kernels in [`crate::fused`] merge *one* vector update with the
//! reduction that consumes its output. This module goes one level up: it
//! executes an entire CG iteration — matvec, both inner products, and the
//! `x`/`r`/`p` updates — as a small number of *barrier epochs*, where each
//! epoch makes a single pass over the 256 reduction chunks it owns and does
//! all of the iteration's work on a chunk while that chunk is cache
//! resident. A vector that the classic schedule streams through memory three
//! times per iteration (once per operation) is streamed once per epoch here.
//!
//! **Bit-compatibility contract.** Everything in this module reproduces the
//! exact bits of the unfused `DotMode::Tree` path for any team width, tile
//! size, and SIMD backend:
//!
//! * reductions use the identical fixed 256-leaf chunk layout of
//!   [`vr_par::reduce`]: one canonical lane-blocked leaf call
//!   ([`vr_par::simd`]) per chunk, combined by the same
//!   [`tree_combine`] fan-in. Chunks are *atomic* — a chunk's partial is
//!   always produced by a single leaf call over the whole chunk slice, never
//!   split, because the lane combine happens inside the leaf;
//! * matvec rows are staged through the operator's own row kernels
//!   (`Stencil2d::row_sweep_into`, `Stencil3d::row3_sweep_into`,
//!   `CsrMatrix::spmv_rows_into`), whose per-element operation sequence is
//!   exactly the serial `apply`;
//! * epochs are separated by team barriers and every matvec epoch reads an
//!   input vector finalized by a preceding barrier, so each output element
//!   is a fixed floating-point expression of the input — no ghost exchange,
//!   no partition dependence.
//!
//! The `tile` parameter only bounds how many elements of `A·x` are staged
//! per row-kernel dispatch inside a chunk; it is numerically inert (the
//! staged values are bitwise the same for every tile size) and exists so the
//! staging working set can be matched to L1.
//!
//! On a poisoned team (a worker died mid-epoch), epochs NaN-fill their
//! output vectors and return NaN scalars so solver guards terminate
//! honestly — the same convention as [`LinearOperator::apply_team`].

use crate::sparse::CsrMatrix;
use crate::stencil::{Stencil2d, Stencil3d};
use crate::LinearOperator;
use std::sync::Arc;
use vr_obs::{SpanKind, Tracer};
use vr_par::reduce::{tree_combine, CHUNKS};
use vr_par::simd;
use vr_par::team::{dispatch_width, SendPtr, Team};

/// A [`LinearOperator`] borrowed in a form the sweep engine can stage
/// band-wise: `out ← (A·x)[lo..hi]` through the exact `apply` operation
/// sequence. Obtained from [`LinearOperator::as_sweep`].
#[derive(Debug, Clone, Copy)]
pub enum SweepOperator<'a> {
    /// Matrix-free 2-D five-point stencil (SIMD row kernel staging).
    Stencil2d(&'a Stencil2d),
    /// Matrix-free 3-D seven-point stencil (SIMD row kernel staging).
    Stencil3d(&'a Stencil3d),
    /// Stored CSR matrix (row-range SpMV staging).
    Csr(&'a CsrMatrix),
}

impl SweepOperator<'_> {
    /// Operator dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            SweepOperator::Stencil2d(s) => s.dim(),
            SweepOperator::Stencil3d(s) => s.dim(),
            SweepOperator::Csr(m) => m.dim(),
        }
    }

    /// Length of the per-shard row staging buffer this operator needs for
    /// ranges that start or end mid-row (one grid row; 0 when staging is
    /// element-addressable, as in CSR).
    #[must_use]
    pub fn rowbuf_len(&self) -> usize {
        match self {
            SweepOperator::Stencil2d(s) => s.shape().1,
            SweepOperator::Stencil3d(s) => s.side(),
            SweepOperator::Csr(_) => 0,
        }
    }

    /// Stage `out[k] ← (A·x)[lo + k]` for `k in 0..hi−lo`.
    ///
    /// Every element is computed by the exact `apply` operation sequence,
    /// so the staged bits are independent of the range partition. Rows that
    /// straddle the range boundary are computed in full into `rowbuf`
    /// (redundant edge compute, the MPK trade) and the in-range segment is
    /// copied out; `rowbuf` must hold at least [`SweepOperator::rowbuf_len`]
    /// elements.
    pub fn stage_range(
        &self,
        x: &[f64],
        lo: usize,
        hi: usize,
        rowbuf: &mut [f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), hi - lo);
        match self {
            SweepOperator::Stencil2d(s) => {
                let (nx, ny) = s.shape();
                let mut e = lo;
                while e < hi {
                    let i = e / ny;
                    let r0 = i * ny;
                    let r1 = r0 + ny;
                    if e == r0 && r1 <= hi {
                        s.row_sweep_into(x, i > 0, i + 1 < nx, r0, &mut out[e - lo..r1 - lo]);
                        e = r1;
                    } else {
                        let seg = hi.min(r1);
                        s.row_sweep_into(x, i > 0, i + 1 < nx, r0, &mut rowbuf[..ny]);
                        out[e - lo..seg - lo].copy_from_slice(&rowbuf[e - r0..seg - r0]);
                        e = seg;
                    }
                }
            }
            SweepOperator::Stencil3d(s) => {
                let n = s.side();
                let mut e = lo;
                while e < hi {
                    let ridx = e / n;
                    let (i, j) = (ridx / n, ridx % n);
                    let r0 = ridx * n;
                    let r1 = r0 + n;
                    let (il, ih, jl, jh) = (i > 0, i + 1 < n, j > 0, j + 1 < n);
                    if e == r0 && r1 <= hi {
                        s.row3_sweep_into(x, il, ih, jl, jh, r0, &mut out[e - lo..r1 - lo]);
                        e = r1;
                    } else {
                        let seg = hi.min(r1);
                        s.row3_sweep_into(x, il, ih, jl, jh, r0, &mut rowbuf[..n]);
                        out[e - lo..seg - lo].copy_from_slice(&rowbuf[e - r0..seg - r0]);
                        e = seg;
                    }
                }
            }
            SweepOperator::Csr(m) => m.spmv_rows_into(x, lo, hi, out),
        }
    }
}

/// Elements staged per row-kernel dispatch when the caller gave no
/// explicit tile: half the probed L1d, so input band + staged output stay
/// resident together.
fn default_tile_elems() -> usize {
    (vr_par::cache::cache_info().l1d_bytes / 16).max(1)
}

/// The whole-iteration sweep engine behind `Execution::WholeIteration`.
///
/// Construction preallocates all scratch (per-shard staging bands and four
/// partials arrays), so every epoch is allocation-free. One engine serves
/// one solve: it pins the chunk layout (`n.div_ceil(256)`), the shard
/// width, and the staging tile at construction, and its epoch methods are
/// called once or more per solver iteration.
///
/// Sharding is *chunk-aligned and contiguous*: with `width` shards and
/// `nchunks` reduction chunks, shard `w` owns chunks
/// `[w·per, (w+1)·per)` where `per = nchunks.div_ceil(width)` — so a
/// chunk's leaf partial is always produced whole by one shard, and the
/// fan-in over the 256 partials is the exact [`tree_combine`] of the
/// unfused path.
///
/// When a tracer is attached, every shard records one
/// [`SpanKind::IterSweep`] span per epoch on its own shard slot, carrying
/// the epoch's logical byte count for that shard (distinct vector streams
/// × 8 bytes, read-modify-write streams counted twice — staging scratch is
/// cache-resident by design and not counted).
pub struct FusedIterationSweep<'a> {
    op: SweepOperator<'a>,
    n: usize,
    chunk: usize,
    nchunks: usize,
    width: usize,
    tile: usize,
    rowbuf_len: usize,
    /// `width` bands of `chunk + rowbuf_len` elements each.
    scratch: Vec<f64>,
    pa: Vec<f64>,
    pb: Vec<f64>,
    pc: Vec<f64>,
    pd: Vec<f64>,
    tracer: Option<Arc<Tracer>>,
}

impl<'a> FusedIterationSweep<'a> {
    /// Build an engine for `op`, sized for `team` (serial when `None`).
    ///
    /// `tile` overrides the L1-derived staging granularity (elements per
    /// row-kernel dispatch; numerically inert). `tracer` enables per-shard
    /// [`SpanKind::IterSweep`] span recording.
    #[must_use]
    pub fn new(
        op: SweepOperator<'a>,
        team: Option<&Team>,
        tile: Option<usize>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let n = op.dim();
        let chunk = n.div_ceil(CHUNKS).max(1);
        let nchunks = n.div_ceil(chunk);
        let width = dispatch_width(n, team.map_or(1, Team::live_width))
            .min(nchunks.max(1))
            .max(1);
        let tile = tile.map_or_else(default_tile_elems, |t| t.max(1));
        let rowbuf_len = op.rowbuf_len();
        FusedIterationSweep {
            op,
            n,
            chunk,
            nchunks,
            width,
            tile,
            rowbuf_len,
            scratch: vec![0.0; width * (chunk + rowbuf_len)],
            pa: vec![0.0; nchunks],
            pb: vec![0.0; nchunks],
            pc: vec![0.0; nchunks],
            pd: vec![0.0; nchunks],
            tracer,
        }
    }

    /// Shard width the engine was sized for.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Chunk index range `[lo, hi)` owned by shard `w`.
    fn owned_chunks(&self, w: usize) -> (usize, usize) {
        let per = self.nchunks.div_ceil(self.width);
        (
            (w * per).min(self.nchunks),
            ((w + 1) * per).min(self.nchunks),
        )
    }

    /// Element count owned by shard `w`.
    fn owned_elems(&self, w: usize) -> usize {
        let (clo, chi) = self.owned_chunks(w);
        (chi * self.chunk).min(self.n) - (clo * self.chunk).min(self.n)
    }

    /// Run `body(shard)` across the epoch's shards with per-shard
    /// [`SpanKind::IterSweep`] recording (`stream8x` distinct-stream count,
    /// ×8 bytes per owned element). Returns `false` on a poisoned team —
    /// the caller must then poison its outputs.
    fn run_epoch(&self, team: Option<&Team>, stream8x: u64, body: &(dyn Fn(usize) + Sync)) -> bool {
        let job = |w: usize| {
            let s0 = self.tracer.as_deref().map(Tracer::now_ns);
            body(w);
            if let (Some(t), Some(s0)) = (self.tracer.as_deref(), s0) {
                let bytes = 8 * stream8x * self.owned_elems(w) as u64;
                t.record_since_bytes(w, SpanKind::IterSweep, s0, bytes);
            }
        };
        if self.width <= 1 {
            job(0);
            return true;
        }
        match team {
            Some(t) => t.try_run_shards(&job, self.width).is_ok(),
            None => {
                // Sized for a team but invoked without one: run every shard
                // on the caller. Identical bits — sharding never changes
                // chunk boundaries.
                for w in 0..self.width {
                    job(w);
                }
                true
            }
        }
    }

    /// Shard `w`'s staging band (`chunk` elements) and row buffer
    /// (`rowbuf_len` elements), carved out of the preallocated scratch.
    ///
    /// # Safety
    /// Each shard index is driven by at most one thread at a time
    /// (the team's exactly-once shard claim), and bands of distinct shards
    /// are disjoint.
    #[allow(clippy::mut_from_ref)] // disjoint per-shard slices, see Safety
    unsafe fn shard_band(&self, base: SendPtr<f64>, w: usize) -> (&mut [f64], &mut [f64]) {
        let len = self.chunk + self.rowbuf_len;
        let p = base.get().add(w * len);
        (
            std::slice::from_raw_parts_mut(p, self.chunk),
            std::slice::from_raw_parts_mut(p.add(self.chunk), self.rowbuf_len),
        )
    }

    /// Stage `(A·x)[lo..hi]` into `out` in tile-sized sub-ranges.
    fn stage_tiled(&self, x: &[f64], lo: usize, hi: usize, rowbuf: &mut [f64], out: &mut [f64]) {
        let mut t = lo;
        while t < hi {
            let t1 = (t + self.tile).min(hi);
            self.op
                .stage_range(x, t, t1, rowbuf, &mut out[t - lo..t1 - lo]);
            t = t1;
        }
    }

    /// The deterministic fan-in over the chunk partials, recorded as the
    /// dependency-gated [`SpanKind::DotFanIn`] — identical association to
    /// [`vr_par::reduce::par_dot_in`].
    fn fan_in(partials: &[f64]) -> f64 {
        vr_obs::tls::with_span(SpanKind::DotFanIn, || tree_combine(partials))
    }

    /// Epoch: `y ← x + a·y` (one pass; 3 streams: `x` read, `y` rmw).
    pub fn epoch_xpay(&mut self, team: Option<&Team>, x: &[f64], a: f64, y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        let (n, chunk) = (self.n, self.chunk);
        let yp = SendPtr(y.as_mut_ptr());
        let this = &*self;
        let ok = this.run_epoch(team, 3, &|w| {
            let (clo, chi) = this.owned_chunks(w);
            for c in clo..chi {
                let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(n));
                // Safety: shard-owned chunk ranges are disjoint.
                let yc = unsafe { std::slice::from_raw_parts_mut(yp.get().add(lo), hi - lo) };
                simd::leaf_xpay(&x[lo..hi], a, yc);
            }
        });
        if !ok {
            y.fill(f64::NAN);
        }
    }

    /// Epoch: stage `A·p` chunk-by-chunk into cache-resident scratch and
    /// return `(p, A·p)` without materializing `A·p` globally
    /// (1 stream: `p`; the staging band lives in L1/L2).
    #[must_use]
    pub fn epoch_matvec_dot_nostore(&mut self, team: Option<&Team>, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.n);
        let (n, chunk) = (self.n, self.chunk);
        let sp = SendPtr(self.scratch.as_mut_ptr());
        let pap = SendPtr(self.pa.as_mut_ptr());
        let this = &*self;
        let ok = this.run_epoch(team, 1, &|w| {
            // Safety: one thread per shard; bands disjoint.
            let (band, rowbuf) = unsafe { this.shard_band(sp, w) };
            let (clo, chi) = this.owned_chunks(w);
            for c in clo..chi {
                let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(n));
                this.stage_tiled(p, lo, hi, rowbuf, &mut band[..hi - lo]);
                // Safety: partials slots are chunk-indexed, disjoint.
                unsafe { *pap.get().add(c) = simd::leaf_dot(&p[lo..hi], &band[..hi - lo]) };
            }
        });
        if !ok {
            return f64::NAN;
        }
        Self::fan_in(&self.pa[..self.nchunks])
    }

    /// Epoch: `x ← x + λp`, `r ← r − λ·(A·p)` returning `(r, r)`,
    /// recomputing `A·p` into cache-resident scratch instead of reading a
    /// stored vector (5 streams: `p` read, `x` rmw, `r` rmw).
    #[must_use]
    pub fn epoch_update_xr_recompute(
        &mut self,
        team: Option<&Team>,
        lambda: f64,
        p: &[f64],
        x: &mut [f64],
        r: &mut [f64],
    ) -> f64 {
        debug_assert_eq!(p.len(), self.n);
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(r.len(), self.n);
        let (n, chunk) = (self.n, self.chunk);
        let sp = SendPtr(self.scratch.as_mut_ptr());
        let pap = SendPtr(self.pa.as_mut_ptr());
        let xp = SendPtr(x.as_mut_ptr());
        let rp = SendPtr(r.as_mut_ptr());
        let this = &*self;
        let ok = this.run_epoch(team, 5, &|w| {
            // Safety: one thread per shard; bands and chunk ranges disjoint.
            let (band, rowbuf) = unsafe { this.shard_band(sp, w) };
            let (clo, chi) = this.owned_chunks(w);
            for c in clo..chi {
                let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(n));
                this.stage_tiled(p, lo, hi, rowbuf, &mut band[..hi - lo]);
                let xc = unsafe { std::slice::from_raw_parts_mut(xp.get().add(lo), hi - lo) };
                let rc = unsafe { std::slice::from_raw_parts_mut(rp.get().add(lo), hi - lo) };
                let part = simd::leaf_update_xr(lambda, &p[lo..hi], &band[..hi - lo], xc, rc);
                unsafe { *pap.get().add(c) = part };
            }
        });
        if !ok {
            x.fill(f64::NAN);
            r.fill(f64::NAN);
            return f64::NAN;
        }
        Self::fan_in(&self.pa[..self.nchunks])
    }

    /// Epoch: `y ← A·x` staged band-wise straight into `y`
    /// (2 streams: `x` read, `y` written).
    pub fn epoch_matvec_store(&mut self, team: Option<&Team>, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        let (n, chunk) = (self.n, self.chunk);
        let sp = SendPtr(self.scratch.as_mut_ptr());
        let yp = SendPtr(y.as_mut_ptr());
        let this = &*self;
        let ok = this.run_epoch(team, 2, &|w| {
            // Safety: one thread per shard; chunk ranges disjoint.
            let (_, rowbuf) = unsafe { this.shard_band(sp, w) };
            let (clo, chi) = this.owned_chunks(w);
            for c in clo..chi {
                let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(n));
                let yc = unsafe { std::slice::from_raw_parts_mut(yp.get().add(lo), hi - lo) };
                this.stage_tiled(x, lo, hi, rowbuf, yc);
            }
        });
        if !ok {
            y.fill(f64::NAN);
        }
    }

    /// Epoch: `y ← A·x` returning `(x, y)` with the dot leaf running on the
    /// still-resident freshly staged chunk (2 streams: `x` read, `y`
    /// written; the dot rereads both from cache).
    #[must_use]
    pub fn epoch_matvec_store_dot(&mut self, team: Option<&Team>, x: &[f64], y: &mut [f64]) -> f64 {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        let (n, chunk) = (self.n, self.chunk);
        let sp = SendPtr(self.scratch.as_mut_ptr());
        let pap = SendPtr(self.pa.as_mut_ptr());
        let yp = SendPtr(y.as_mut_ptr());
        let this = &*self;
        let ok = this.run_epoch(team, 2, &|w| {
            // Safety: one thread per shard; chunk ranges disjoint.
            let (_, rowbuf) = unsafe { this.shard_band(sp, w) };
            let (clo, chi) = this.owned_chunks(w);
            for c in clo..chi {
                let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(n));
                let yc = unsafe { std::slice::from_raw_parts_mut(yp.get().add(lo), hi - lo) };
                this.stage_tiled(x, lo, hi, rowbuf, yc);
                unsafe { *pap.get().add(c) = simd::leaf_dot(&x[lo..hi], yc) };
            }
        });
        if !ok {
            y.fill(f64::NAN);
            return f64::NAN;
        }
        Self::fan_in(&self.pa[..self.nchunks])
    }

    /// Epoch: the Chronopoulos–Gear elementwise block in one pass —
    /// `p ← r + βp`, `s ← w + βs`, `x ← x + λp`, `r ← r − λs` returning
    /// `ρ = (r, r)` (9 streams: `r`/`p`/`s`/`x` rmw, `w` read).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn epoch_cg_update(
        &mut self,
        team: Option<&Team>,
        beta: f64,
        lambda: f64,
        r: &mut [f64],
        p: &mut [f64],
        w: &[f64],
        s: &mut [f64],
        x: &mut [f64],
    ) -> f64 {
        debug_assert_eq!(w.len(), self.n);
        let (n, chunk) = (self.n, self.chunk);
        let pap = SendPtr(self.pa.as_mut_ptr());
        let rp = SendPtr(r.as_mut_ptr());
        let pp = SendPtr(p.as_mut_ptr());
        let sp = SendPtr(s.as_mut_ptr());
        let xp = SendPtr(x.as_mut_ptr());
        let this = &*self;
        let ok = this.run_epoch(team, 9, &|sh| {
            let (clo, chi) = this.owned_chunks(sh);
            for c in clo..chi {
                let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(n));
                let len = hi - lo;
                // Safety: one thread per shard; chunk ranges disjoint.
                let rc = unsafe { std::slice::from_raw_parts_mut(rp.get().add(lo), len) };
                let pc = unsafe { std::slice::from_raw_parts_mut(pp.get().add(lo), len) };
                let sc = unsafe { std::slice::from_raw_parts_mut(sp.get().add(lo), len) };
                let xc = unsafe { std::slice::from_raw_parts_mut(xp.get().add(lo), len) };
                simd::leaf_xpay(rc, beta, pc);
                simd::leaf_xpay(&w[lo..hi], beta, sc);
                simd::leaf_axpy(lambda, pc, xc);
                unsafe { *pap.get().add(c) = simd::leaf_axpy_norm2_sq(-lambda, sc, rc) };
            }
        });
        if !ok {
            for v in [rp, pp, sp, xp] {
                // Safety: the epoch is over; the caller's exclusive borrows
                // are still live through this function.
                unsafe { std::slice::from_raw_parts_mut(v.get(), n).fill(f64::NAN) };
            }
            return f64::NAN;
        }
        Self::fan_in(&self.pa[..self.nchunks])
    }

    /// Epoch: the pipelined (Ghysels–Vanroose) elementwise block in one
    /// pass — `p ← r + βp`, `s ← w + βs`, `z ← q + βz`, `x ← x + λp`,
    /// `r ← r − λs`, `w ← w − λz` returning `(γ, δ) = ((r,r), (w,r))`
    /// on the updated vectors (13 streams: `r`/`p`/`s`/`z`/`x`/`w` rmw,
    /// `q` read).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn epoch_pipelined_update(
        &mut self,
        team: Option<&Team>,
        beta: f64,
        lambda: f64,
        q: &[f64],
        r: &mut [f64],
        p: &mut [f64],
        w: &mut [f64],
        s: &mut [f64],
        z: &mut [f64],
        x: &mut [f64],
    ) -> (f64, f64) {
        debug_assert_eq!(q.len(), self.n);
        let (n, chunk) = (self.n, self.chunk);
        let pap = SendPtr(self.pa.as_mut_ptr());
        let pbp = SendPtr(self.pb.as_mut_ptr());
        let rp = SendPtr(r.as_mut_ptr());
        let pp = SendPtr(p.as_mut_ptr());
        let wp = SendPtr(w.as_mut_ptr());
        let sp = SendPtr(s.as_mut_ptr());
        let zp = SendPtr(z.as_mut_ptr());
        let xp = SendPtr(x.as_mut_ptr());
        let this = &*self;
        let ok = this.run_epoch(team, 13, &|sh| {
            let (clo, chi) = this.owned_chunks(sh);
            for c in clo..chi {
                let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(n));
                let len = hi - lo;
                // Safety: one thread per shard; chunk ranges disjoint.
                let rc = unsafe { std::slice::from_raw_parts_mut(rp.get().add(lo), len) };
                let pc = unsafe { std::slice::from_raw_parts_mut(pp.get().add(lo), len) };
                let wc = unsafe { std::slice::from_raw_parts_mut(wp.get().add(lo), len) };
                let sc = unsafe { std::slice::from_raw_parts_mut(sp.get().add(lo), len) };
                let zc = unsafe { std::slice::from_raw_parts_mut(zp.get().add(lo), len) };
                let xc = unsafe { std::slice::from_raw_parts_mut(xp.get().add(lo), len) };
                simd::leaf_xpay(rc, beta, pc);
                simd::leaf_xpay(wc, beta, sc);
                simd::leaf_xpay(&q[lo..hi], beta, zc);
                simd::leaf_axpy(lambda, pc, xc);
                // r is fully updated for this chunk before the (w, r) leaf.
                unsafe { *pap.get().add(c) = simd::leaf_axpy_norm2_sq(-lambda, sc, rc) };
                unsafe { *pbp.get().add(c) = simd::leaf_axpy_dot(-lambda, zc, wc, rc) };
            }
        });
        if !ok {
            for v in [rp, pp, wp, sp, zp, xp] {
                // Safety: epoch over; caller's exclusive borrows still live.
                unsafe { std::slice::from_raw_parts_mut(v.get(), n).fill(f64::NAN) };
            }
            return (f64::NAN, f64::NAN);
        }
        (
            Self::fan_in(&self.pa[..self.nchunks]),
            Self::fan_in(&self.pb[..self.nchunks]),
        )
    }

    /// Epoch: the overlap-k1 block in one pass — the four look-ahead dots
    /// `((r,w), (r,v), (w,w), (w,v))` on the *pre-update* `r`, then
    /// `x ← x + λp`, `r ← r − λw` (7 streams: `r`/`x` rmw, `w`/`v`/`p`
    /// read).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn epoch_overlap_update(
        &mut self,
        team: Option<&Team>,
        lambda: f64,
        w: &[f64],
        v: &[f64],
        p: &[f64],
        r: &mut [f64],
        x: &mut [f64],
    ) -> (f64, f64, f64, f64) {
        debug_assert_eq!(w.len(), self.n);
        let (n, chunk) = (self.n, self.chunk);
        let pap = SendPtr(self.pa.as_mut_ptr());
        let pbp = SendPtr(self.pb.as_mut_ptr());
        let pcp = SendPtr(self.pc.as_mut_ptr());
        let pdp = SendPtr(self.pd.as_mut_ptr());
        let rp = SendPtr(r.as_mut_ptr());
        let xp = SendPtr(x.as_mut_ptr());
        let this = &*self;
        let ok = this.run_epoch(team, 7, &|sh| {
            let (clo, chi) = this.owned_chunks(sh);
            for c in clo..chi {
                let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(n));
                let len = hi - lo;
                // Safety: one thread per shard; chunk ranges disjoint.
                let rc = unsafe { std::slice::from_raw_parts_mut(rp.get().add(lo), len) };
                let xc = unsafe { std::slice::from_raw_parts_mut(xp.get().add(lo), len) };
                let (wc, vc) = (&w[lo..hi], &v[lo..hi]);
                let (rw, rv) = simd::leaf_dot2(rc, wc, vc);
                let (ww, wv) = simd::leaf_dot2(wc, wc, vc);
                unsafe {
                    *pap.get().add(c) = rw;
                    *pbp.get().add(c) = rv;
                    *pcp.get().add(c) = ww;
                    *pdp.get().add(c) = wv;
                }
                simd::leaf_axpy(lambda, &p[lo..hi], xc);
                simd::leaf_axpy(-lambda, wc, rc);
            }
        });
        if !ok {
            for vp in [rp, xp] {
                // Safety: epoch over; caller's exclusive borrows still live.
                unsafe { std::slice::from_raw_parts_mut(vp.get(), n).fill(f64::NAN) };
            }
            return (f64::NAN, f64::NAN, f64::NAN, f64::NAN);
        }
        (
            Self::fan_in(&self.pa[..self.nchunks]),
            Self::fan_in(&self.pb[..self.nchunks]),
            Self::fan_in(&self.pc[..self.nchunks]),
            Self::fan_in(&self.pd[..self.nchunks]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use vr_par::reduce::par_dot_in;

    fn operators() -> Vec<(String, Box<dyn LinearOperator>)> {
        vec![
            (
                "stencil2d".into(),
                Box::new(Stencil2d::anisotropic(13, 7, 0.35)),
            ),
            ("stencil3d".into(), Box::new(Stencil3d::new(5))),
            ("csr".into(), Box::new(gen::poisson2d(9))),
        ]
    }

    fn test_vec(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15 ^ seed);
                ((h >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn stage_range_matches_apply_for_adversarial_ranges() {
        for (name, a) in operators() {
            let n = a.dim();
            let sw = a.as_sweep().expect("sweep-capable operator");
            let x = test_vec(n, 1);
            let mut yref = vec![0.0; n];
            a.apply(&x, &mut yref);
            let mut rowbuf = vec![0.0; sw.rowbuf_len()];
            // Ranges deliberately misaligned with grid rows/planes.
            let ranges = [
                (0, n),
                (0, 1),
                (n - 1, n),
                (1, n - 1),
                (n / 3, n / 3 + 1),
                (n / 7, 2 * n / 3 + 1),
            ];
            for (lo, hi) in ranges {
                let mut out = vec![f64::NAN; hi - lo];
                sw.stage_range(&x, lo, hi, &mut rowbuf, &mut out);
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    yref[lo..hi].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{name} range {lo}..{hi}"
                );
            }
        }
    }

    /// The three matvec epochs of an engine over `a` bit-match `apply` and
    /// the Tree dot. With a team, `a` must be large enough that the engine
    /// really runs `team.width()` shards.
    fn check_matvec_epochs(
        name: &str,
        a: &dyn LinearOperator,
        tile: Option<usize>,
        team: Option<&Team>,
    ) {
        let n = a.dim();
        let x = test_vec(n, 2);
        let mut yref = vec![0.0; n];
        a.apply(&x, &mut yref);
        let dref = par_dot_in(None, &x, &yref);
        let sw = a.as_sweep().unwrap();
        let mut eng = FusedIterationSweep::new(sw, team, tile, None);
        assert_eq!(
            eng.width(),
            team.map_or(1, Team::width),
            "{name}: shard width"
        );
        let d1 = eng.epoch_matvec_dot_nostore(team, &x);
        let mut y = vec![0.0; n];
        let d2 = eng.epoch_matvec_store_dot(team, &x, &mut y);
        let mut y2 = vec![0.0; n];
        eng.epoch_matvec_store(team, &x, &mut y2);
        assert_eq!(d1.to_bits(), dref.to_bits(), "{name} nostore tile {tile:?}");
        assert_eq!(
            d2.to_bits(),
            dref.to_bits(),
            "{name} store_dot tile {tile:?}"
        );
        for i in 0..n {
            assert_eq!(y[i].to_bits(), yref[i].to_bits(), "{name} y[{i}]");
            assert_eq!(y2[i].to_bits(), yref[i].to_bits(), "{name} y2[{i}]");
        }
    }

    #[test]
    fn matvec_epochs_bit_match_unfused_composition() {
        for (name, a) in operators() {
            for tile in [Some(1), None] {
                check_matvec_epochs(&name, a.as_ref(), tile, None);
            }
        }
        // n ≥ 3·GRAIN, so a 3-wide team runs three shards and the chunk
        // layout is cut at shard boundaries
        let team = Team::new(3);
        let large: Vec<(&str, Box<dyn LinearOperator>)> = vec![
            (
                "stencil2d",
                Box::new(Stencil2d::anisotropic(193, 191, 0.35)),
            ),
            ("stencil3d", Box::new(Stencil3d::new(30))),
            ("csr", Box::new(gen::poisson2d(160))),
        ];
        for (name, a) in large {
            check_matvec_epochs(name, a.as_ref(), Some(3), Some(&team));
        }
    }

    #[test]
    fn update_epoch_bit_matches_fused_kernels() {
        // the serial cases on n = 121; the 4-wide team case on n ≥ 4·GRAIN
        for (grid, tile, team) in [(11, Some(1), None), (182, None, Some(Team::new(4)))] {
            let a = Stencil2d::poisson(grid);
            let n = a.dim();
            let p = test_vec(n, 3);
            let lambda = 0.731;
            // Reference: apply + the par fused update (the unfused Tree path).
            let mut w = vec![0.0; n];
            a.apply(&p, &mut w);
            let mut xref = test_vec(n, 4);
            let mut rref = test_vec(n, 5);
            let rr_ref = crate::fused::par_update_xr_in(None, lambda, &p, &w, &mut xref, &mut rref);
            let mut eng =
                FusedIterationSweep::new(a.as_sweep().unwrap(), team.as_ref(), tile, None);
            assert_eq!(eng.width(), team.as_ref().map_or(1, Team::width));
            let mut x = test_vec(n, 4);
            let mut r = test_vec(n, 5);
            let rr = eng.epoch_update_xr_recompute(team.as_ref(), lambda, &p, &mut x, &mut r);
            assert_eq!(rr.to_bits(), rr_ref.to_bits());
            for i in 0..n {
                assert_eq!(x[i].to_bits(), xref[i].to_bits());
                assert_eq!(r[i].to_bits(), rref[i].to_bits());
            }
        }
    }

    #[test]
    fn tracer_gets_per_shard_iter_sweep_spans() {
        let a = gen::poisson2d(64); // 4096 elements
        let n = a.dim();
        let x = test_vec(n, 6);
        let tracer = Arc::new(Tracer::for_width(1));
        let mut eng =
            FusedIterationSweep::new(a.as_sweep().unwrap(), None, None, Some(Arc::clone(&tracer)));
        let _ = eng.epoch_matvec_dot_nostore(None, &x);
        let log = tracer.drain();
        let sweeps: Vec<_> = log
            .spans
            .iter()
            .filter(|(_, s)| s.kind == SpanKind::IterSweep)
            .collect();
        assert_eq!(sweeps.len(), 1);
        assert_eq!(sweeps[0].1.bytes, 8 * n as u64);
    }
}
