//! Monte-Carlo evaluation: sampling paths of the chase Markov process
//! (§4.3/§5.2) to estimate the program's SPDB.
//!
//! This is the evaluation strategy for programs with **continuous**
//! distributions, where the chase tree has uncountably many branches and
//! only path sampling is available. Runs that exhaust the step budget are
//! recorded as error-event observations (`err`, §4.2), so the empirical
//! mass estimates the SPDB mass `α` of Def. 2.7.
//!
//! [`McBackend`](crate::McBackend) drives every run through the lane-group
//! executor (`crates/core/src/mc_batch.rs`); this module holds the choice
//! of chase procedure and the per-run seed derivation.

use crate::policy::PolicyKind;

/// Which chase procedure drives each run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseVariant {
    /// Sequential chase under the given policy (Def. 4.1).
    Sequential(PolicyKind),
    /// Parallel chase (Def. 5.1).
    Parallel,
    /// Sequential chase with deterministic rules saturated by the
    /// semi-naive Datalog engine between samples (same distribution by
    /// Theorem 6.1; much faster on rule-heavy programs).
    Saturating,
}

/// SplitMix64 finalizer: decorrelates per-run seeds from the master seed.
pub(crate) fn derive_seed(master: u64, run: u64) -> u64 {
    let mut z = master ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
