//! Comparison algorithms.
//!
//! The 1983 paper is the seed of what became communication-avoiding /
//! pipelined Krylov methods. These baselines are the descendants and
//! contemporaries the experiments compare against:
//!
//! * [`chronopoulos_gear`] — Chronopoulos & Gear (1989): one matvec, the
//!   two inner products launched *together* (one serialized reduction).
//! * [`pipelined`] — Ghysels & Vanroose (2014): the single reduction is
//!   overlapped with the matvec.
//! * [`three_term`] — the Concus-Golub-O'Leary / Rutishauser three-term
//!   form of CG (the formulation the paper's reference \[3\] uses).
//! * [`precond`] — standard preconditioned CG (the paper's §1 nod to
//!   preconditioning).
//! * [`conjugate_residual`] — CR and overlap-CR: the paper's §4 "large
//!   class" claim demonstrated on a second Krylov method.
//! * [`chebyshev`] — Chebyshev iteration: the zero-reduction comparator
//!   (no inner products at all; needs spectral bounds instead).

pub mod chebyshev;
pub mod chronopoulos_gear;
pub mod conjugate_residual;
pub mod pipelined;
pub mod precond;
pub mod three_term;

pub use chebyshev::ChebyshevIteration;
pub use chronopoulos_gear::ChronopoulosGearCg;
pub use conjugate_residual::{ConjugateResidual, OverlapCr};
pub use pipelined::PipelinedCg;
pub use precond::PrecondCg;
pub use three_term::ThreeTermCg;
