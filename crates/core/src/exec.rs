//! The execution handle of the sweep-capable steps, built once per solve.
//!
//! Whole-iteration sweep fusion changes *when* an iteration's vector work
//! and reductions run, not the recurrence. So standard, Chronopoulos-Gear,
//! pipelined and overlap-k1 CG each write their step once, against an
//! [`Exec`] whose methods are the step's epoch groupings: a matvec with its
//! dot, the `x`/`r` update, an xpay, and each variant's multi-vector
//! update. The handle runs every grouping one of two ways:
//!
//! * **per kernel** — the `SolveOptions` helpers and `guard::guarded_*`,
//!   one kernel per operation, in the step's program order;
//! * **as one sweep epoch** — under `Execution::WholeIteration` (once
//!   the dispatch has checked `sweep::eligible`), a
//!   [`FusedIterationSweep`] epoch whose chunks run the per-kernel leaf
//!   sequence, so the bits are the same (see `vr_linalg::sweep`).
//!
//! Both ways tally the same logical `OpCounts`. Where an epoch runs work
//! that the per-kernel step defers past its convergence test (the
//! pipelined `w` update, overlap-k1's `r` axpy), the step calls the
//! deferred half ([`Exec::pipelined_w_update`], [`Exec::overlap_r_update`])
//! at the per-kernel program point, and the sweep tallies the work there.

use crate::driver::Driver;
use crate::instrument::OpCounts;
use crate::resilience::guard;
use crate::solver::{Execution, SolveOptions};
use std::sync::Arc;
use vr_linalg::mpk::{MpkTransform, MpkWorkspace};
use vr_linalg::sweep::FusedIterationSweep;
use vr_linalg::LinearOperator;
use vr_par::team::Team;

/// How a solve runs its step's groupings (see the module docs).
pub(crate) struct Exec<'a> {
    a: &'a dyn LinearOperator,
    opts: &'a SolveOptions,
    arm: Arm<'a>,
}

enum Arm<'a> {
    /// One kernel per operation; overlap-k1's matrix-powers pair when
    /// [`Exec::with_powers2`] asked for it.
    Kernels(Option<Powers2>),
    /// One epoch per grouping; `delta` hands the pipelined epoch's next δ
    /// to [`Exec::pipelined_w_update`].
    Sweep {
        eng: FusedIterationSweep<'a>,
        team: Option<Arc<Team>>,
        delta: f64,
    },
}

impl<'a> Exec<'a> {
    /// The handle for this solve: the sweep engine under
    /// `Execution::WholeIteration`, per kernel otherwise.
    pub fn new(a: &'a dyn LinearOperator, opts: &'a SolveOptions) -> Self {
        let arm = match opts.execution {
            Execution::WholeIteration { tile } => {
                let team = opts.team();
                Arm::Sweep {
                    eng: crate::sweep::engine(a, opts, tile, team.as_deref()),
                    team,
                    delta: 0.0,
                }
            }
            _ => Arm::Kernels(None),
        };
        Exec { a, opts, arm }
    }

    /// [`Exec::new`] with the per-kernel buffers [`Exec::powers2`] needs.
    pub fn with_powers2(mut self) -> Self {
        if let Arm::Kernels(powers) = &mut self.arm {
            *powers = Some(Powers2::new(self.opts, self.a.dim()));
        }
        self
    }

    /// `(p, A·p)`. Per kernel `w ← A·p` is stored and the dot guarded;
    /// the sweep evaluates `A·p` band by band without storing it, and
    /// [`Exec::update_xr`] evaluates it again in its own epoch.
    pub fn matvec_dot(&mut self, drv: &mut Driver<'_>, p: &[f64], w: &mut [f64]) -> f64 {
        match &mut self.arm {
            Arm::Kernels(_) => {
                guard::guarded_matvec_dot(self.opts, self.a, p, w, &mut drv.counts, &mut drv.rstats)
            }
            Arm::Sweep { eng, team, .. } => {
                drv.counts.matvecs += 1;
                drv.counts.dots += 1;
                eng.epoch_matvec_dot_nostore(team.as_deref(), p)
            }
        }
    }

    /// `x ← x + λp`, `r ← r − λw`, returning `(r, r)` (guarded per
    /// kernel; the sweep recomputes `w = A·p` in-band).
    pub fn update_xr(
        &mut self,
        drv: &mut Driver<'_>,
        lambda: f64,
        p: &[f64],
        w: &[f64],
        x: &mut [f64],
        r: &mut [f64],
    ) -> f64 {
        match &mut self.arm {
            Arm::Kernels(_) => {
                let rr = self.opts.update_xr(lambda, p, w, x, r, &mut drv.counts);
                guard::retry_reduction(self.opts, r, r, rr, &mut drv.rstats)
            }
            Arm::Sweep { eng, team, .. } => {
                drv.counts.vector_ops += 2;
                drv.counts.dots += 1;
                drv.counts.fused_ops += 1;
                eng.epoch_update_xr_recompute(team.as_deref(), lambda, p, x, r)
            }
        }
    }

    /// `y ← x + α·y`.
    pub fn xpay(&mut self, drv: &mut Driver<'_>, x: &[f64], alpha: f64, y: &mut [f64]) {
        match &mut self.arm {
            Arm::Kernels(_) => self.opts.xpay(x, alpha, y, &mut drv.counts),
            Arm::Sweep { eng, team, .. } => {
                drv.counts.vector_ops += 1;
                eng.epoch_xpay(team.as_deref(), x, alpha, y);
            }
        }
    }

    /// `y ← A·x`.
    pub fn matvec(&mut self, drv: &mut Driver<'_>, x: &[f64], y: &mut [f64]) {
        match &mut self.arm {
            Arm::Kernels(_) => self.opts.matvec(self.a, x, y, &mut drv.counts),
            Arm::Sweep { eng, team, .. } => {
                drv.counts.matvecs += 1;
                eng.epoch_matvec_store(team.as_deref(), x, y);
            }
        }
    }

    /// `y ← A·x`, returning `(x, y)` (guarded per kernel).
    pub fn matvec_store_dot(&mut self, drv: &mut Driver<'_>, x: &[f64], y: &mut [f64]) -> f64 {
        match &mut self.arm {
            Arm::Kernels(_) => {
                guard::guarded_matvec_dot(self.opts, self.a, x, y, &mut drv.counts, &mut drv.rstats)
            }
            Arm::Sweep { eng, team, .. } => {
                drv.counts.matvecs += 1;
                drv.counts.dots += 1;
                eng.epoch_matvec_store_dot(team.as_deref(), x, y)
            }
        }
    }

    /// The Chronopoulos-Gear four-way update `p ← r + βp`, `s ← w + βs`,
    /// `x ← x + λp`, `r ← r − λs`, returning `ρ = (r, r)` (guarded per
    /// kernel).
    #[allow(clippy::too_many_arguments)]
    pub fn cg_update(
        &mut self,
        drv: &mut Driver<'_>,
        beta: f64,
        lambda: f64,
        r: &mut [f64],
        p: &mut [f64],
        w: &[f64],
        s: &mut [f64],
        x: &mut [f64],
    ) -> f64 {
        let (o, c) = (self.opts, &mut drv.counts);
        match &mut self.arm {
            Arm::Kernels(_) => {
                o.xpay(r, beta, p, c);
                o.xpay(w, beta, s, c);
                o.axpy(lambda, p, x, c);
                let rho = o.axpy_norm2_sq(-lambda, s, r, c);
                guard::retry_reduction(o, r, r, rho, &mut drv.rstats)
            }
            Arm::Sweep { eng, team, .. } => {
                // two xpay, one axpy, and one fused axpy+norm
                c.vector_ops += 4;
                c.dots += 1;
                c.fused_ops += 1;
                eng.epoch_cg_update(team.as_deref(), beta, lambda, r, p, w, s, x)
            }
        }
    }

    /// The first five of the pipelined six-way update — `p ← r + βp`,
    /// `s ← w + βs`, `z ← q + βz`, `x ← x + λp`, `r ← r − λs` — returning
    /// `γ = (r, r)` (guarded per kernel). The sweep's epoch also runs the
    /// sixth, which [`Exec::pipelined_w_update`] hands over.
    #[allow(clippy::too_many_arguments)]
    pub fn pipelined_update(
        &mut self,
        drv: &mut Driver<'_>,
        beta: f64,
        lambda: f64,
        q: &[f64],
        r: &mut [f64],
        p: &mut [f64],
        w: &mut [f64],
        s: &mut [f64],
        z: &mut [f64],
        x: &mut [f64],
    ) -> f64 {
        let (o, c) = (self.opts, &mut drv.counts);
        match &mut self.arm {
            Arm::Kernels(_) => {
                o.xpay(r, beta, p, c);
                o.xpay(w, beta, s, c);
                o.xpay(q, beta, z, c);
                o.axpy(lambda, p, x, c);
                let gamma = o.axpy_norm2_sq(-lambda, s, r, c);
                guard::retry_reduction(o, r, r, gamma, &mut drv.rstats)
            }
            Arm::Sweep { eng, team, delta } => {
                // three xpay, one axpy, and the fused r-update norm
                c.vector_ops += 5;
                c.dots += 1;
                c.fused_ops += 1;
                let (gamma, d) =
                    eng.epoch_pipelined_update(team.as_deref(), beta, lambda, q, r, p, w, s, z, x);
                *delta = d;
                gamma
            }
        }
    }

    /// The sixth: `w ← w − λz`, returning the next iteration's
    /// `δ = (w, r)` when it is carried (`None` under
    /// `Execution::Reference`, whose step recomputes δ; guarded per
    /// kernel). Per kernel it runs here, after the convergence test; the
    /// sweep ran it in [`Exec::pipelined_update`]'s epoch and only tallies
    /// it here.
    pub fn pipelined_w_update(
        &self,
        drv: &mut Driver<'_>,
        lambda: f64,
        z: &[f64],
        w: &mut [f64],
        r: &[f64],
    ) -> Option<f64> {
        let (o, c) = (self.opts, &mut drv.counts);
        match &self.arm {
            Arm::Kernels(_) if o.execution == Execution::Fused => {
                let delta = o.axpy_dot(-lambda, z, w, r, c);
                Some(guard::retry_reduction(o, w, r, delta, &mut drv.rstats))
            }
            Arm::Kernels(_) => {
                o.axpy(-lambda, z, w, c);
                None
            }
            Arm::Sweep { delta, .. } => {
                c.vector_ops += 1;
                c.dots += 1;
                c.fused_ops += 1;
                Some(*delta)
            }
        }
    }

    /// Overlap-k1's four look-ahead dots `((r,w), (r,v), (w,w), (w,v))`
    /// on the pre-update `r`, with `x ← x + λp`. Per kernel the dots are
    /// split-phase, launched before the `x` update and resolved after it,
    /// with the guarded dots' detect-and-retry on each resolved value
    /// unless the duplicate-leaf checksum guards them;
    /// the sweep's epoch also runs `r ← r − λw`, which
    /// [`Exec::overlap_r_update`] tallies.
    #[allow(clippy::too_many_arguments)]
    pub fn overlap_update(
        &mut self,
        drv: &mut Driver<'_>,
        lambda: f64,
        w: &[f64],
        v: &[f64],
        p: &[f64],
        r: &mut [f64],
        x: &mut [f64],
    ) -> (f64, f64, f64, f64) {
        let (o, c) = (self.opts, &mut drv.counts);
        match &mut self.arm {
            Arm::Kernels(_) => {
                // (r,w)/(r,v) share the sweep over r and (w,w)/(w,v) the
                // sweep over w; their fan-ins overlap the x update
                let (rw, rv) = o.dot2_deferred(r, w, v, c);
                let (ww, wv) = o.dot2_deferred(w, w, v, c);
                o.axpy(lambda, p, x, c);
                let dots = (rw.wait(), rv.wait(), ww.wait(), wv.wait());
                if o.checksum {
                    // a value the checksum could not repair stays NaN for
                    // the guards: an unchecked re-run could hand back the
                    // silent corruption the checksum exists to catch
                    return dots;
                }
                // under a recovery policy a non-finite value is re-run
                // before the recurrences consume it, as a guarded dot is
                let s = &mut drv.rstats;
                (
                    guard::retry_reduction(o, r, w, dots.0, s),
                    guard::retry_reduction(o, r, v, dots.1, s),
                    guard::retry_reduction(o, w, w, dots.2, s),
                    guard::retry_reduction(o, w, v, dots.3, s),
                )
            }
            Arm::Sweep { eng, team, .. } => {
                c.dots += 4;
                c.fused_ops += 2; // the two shared-sweep dot pairs
                c.vector_ops += 1; // the x axpy
                eng.epoch_overlap_update(team.as_deref(), lambda, w, v, p, r, x)
            }
        }
    }

    /// `r ← r − λw`. Per kernel it runs here, after the convergence test;
    /// the sweep ran it in [`Exec::overlap_update`]'s epoch and only
    /// tallies it here.
    pub fn overlap_r_update(&self, drv: &mut Driver<'_>, lambda: f64, w: &[f64], r: &mut [f64]) {
        match &self.arm {
            Arm::Kernels(_) => self.opts.axpy(-lambda, w, r, &mut drv.counts),
            Arm::Sweep { .. } => drv.counts.vector_ops += 1,
        }
    }

    /// `w ← A·p`, `v ← A·w`: one matrix-powers call per kernel, two
    /// matvec epochs in the sweep.
    pub fn powers2(
        &mut self,
        drv: &mut Driver<'_>,
        p: &mut Vec<f64>,
        w: &mut Vec<f64>,
        v: &mut Vec<f64>,
    ) {
        match &mut self.arm {
            Arm::Kernels(powers) => powers.as_mut().expect("built by Exec::with_powers2").apply(
                self.a,
                self.opts,
                p,
                w,
                v,
                &mut drv.counts,
            ),
            Arm::Sweep { eng, team, .. } => {
                drv.counts.matvecs += 2;
                eng.epoch_matvec_store(team.as_deref(), p, w);
                eng.epoch_matvec_store(team.as_deref(), w, v);
            }
        }
    }
}

/// `w ← A·p`, `v ← A·w`, as one monomial matrix-powers call (`s = 2`): an
/// operator with a cache-blocked kernel streams each operand tile through
/// cache once for both applications instead of making two full-vector
/// passes, and is **bit-identical** to the two plain matvecs by the
/// [`LinearOperator::matrix_powers`] contract (every row goes through the
/// exact `apply` arithmetic). An empty system falls back to two plain
/// matvecs. Buffers are allocated once, so the hot loop stays
/// allocation-free.
struct Powers2 {
    /// The workspace and the seed/image column pairs (`None` when `n = 0`).
    mpk: Option<MpkBuffers>,
    team: Option<Arc<Team>>,
}

/// Matrix-powers workspace plus seed and image columns.
type MpkBuffers = (MpkWorkspace, Vec<Vec<f64>>, Vec<Vec<f64>>);

impl Powers2 {
    fn new(opts: &SolveOptions, n: usize) -> Self {
        let mpk = (n > 0).then(|| {
            let mut ws = MpkWorkspace::new();
            ws.set_tracer(opts.tracer.clone());
            (ws, vec![vec![0.0; n]; 2], vec![vec![0.0; n]; 2])
        });
        Powers2 {
            mpk,
            team: opts.team(),
        }
    }

    fn apply(
        &mut self,
        a: &dyn LinearOperator,
        opts: &SolveOptions,
        p: &mut Vec<f64>,
        w: &mut Vec<f64>,
        v: &mut Vec<f64>,
        counts: &mut OpCounts,
    ) {
        let Some((ws, cols_v, cols_av)) = self.mpk.as_mut() else {
            opts.matvec(a, p, w, counts);
            opts.matvec(a, w, v, counts);
            return;
        };
        counts.matvecs += 2;
        // The seed column is swapped in from `p` and the image columns
        // swapped out into `w` and `v`.
        std::mem::swap(p, &mut cols_v[0]);
        opts.span(vr_obs::SpanKind::MpkBuild, || {
            a.matrix_powers(
                &MpkTransform::Monomial,
                cols_v,
                cols_av,
                self.team.as_deref(),
                opts.mpk_tile,
                ws,
            );
        });
        // Monomial, s = 2: av[0] = A·v[0] and av[1] = A·av[0] (v[1] is the
        // kernel's copy of av[0] — scratch for the next call).
        std::mem::swap(p, &mut cols_v[0]);
        std::mem::swap(w, &mut cols_av[0]);
        std::mem::swap(v, &mut cols_av[1]);
    }
}
