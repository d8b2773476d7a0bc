//! The evaluation spec: which backend answers a request and how it is
//! configured, stated once for the library, `gdl query` and the wire.
//!
//! An [`EvalSpec`] holds the backend choice, the [`EvalOptions`] record
//! and the ESS target of an adaptive Monte-Carlo run.
//! [`Evaluation`](crate::Evaluation)'s setters write into one, a serving
//! request carries one (each of its JSON members maps onto one setter
//! below), and `gdl query` lowers its flags onto one.
//! [`EvalSpec::validate`] holds every check that does not depend on the
//! program; every evaluation terminal and the serving layer run it before
//! any backend runs, so the library rejects what the wire rejects, with
//! the same reason.
//!
//! ```
//! use gdatalog_core::{BackendChoice, EvalSpec};
//!
//! let mh = EvalSpec::default().backend(BackendChoice::Mh).runs(500).burn_in(100);
//! assert!(mh.validate().is_ok());
//! let mc = EvalSpec::default().backend(BackendChoice::Mc).runs(500).burn_in(100);
//! assert!(mc.validate().unwrap_err().to_string().contains("`mh` backend"));
//! ```

use gdatalog_lang::CompiledProgram;

use crate::backend::{EvalOptions, RunBudget};
use crate::mc::ChaseVariant;
use crate::policy::PolicyKind;
use crate::EngineError;

/// Which evaluation strategy answers a request, named as on the wire:
/// `auto | exact | exact-parallel | mc | mh`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Pick per terminal: exact enumeration for discrete programs,
    /// Monte-Carlo when the program samples a continuous distribution or
    /// an ESS target is set (see [`EvalSpec::resolve`]).
    #[default]
    Auto,
    /// Exact sequential chase-tree enumeration (Def. 4.2).
    Exact,
    /// Exact parallel chase enumeration (Def. 5.2).
    ExactParallel,
    /// Monte-Carlo path sampling (§4.3), likelihood-weighted under
    /// evidence.
    Mc,
    /// Single-site Metropolis-Hastings over chase traces.
    Mh,
}

impl BackendChoice {
    /// Every backend, in wire-documentation order.
    pub const ALL: [BackendChoice; 5] = [
        BackendChoice::Auto,
        BackendChoice::Exact,
        BackendChoice::ExactParallel,
        BackendChoice::Mc,
        BackendChoice::Mh,
    ];

    /// The backend's name on the wire (the `"backend"` member).
    pub fn wire_name(self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Exact => "exact",
            BackendChoice::ExactParallel => "exact-parallel",
            BackendChoice::Mc => "mc",
            BackendChoice::Mh => "mh",
        }
    }

    /// The backend a wire name names.
    pub fn from_wire_name(name: &str) -> Option<BackendChoice> {
        BackendChoice::ALL
            .into_iter()
            .find(|b| b.wire_name() == name)
    }
}

/// The stopping rule of [`Evaluation::sample_until`](crate::Evaluation::sample_until):
/// grow the likelihood-weighted run count in deterministic batches until
/// the effective sample size reaches `target` (or the `max_runs`/deadline
/// cap hits). Batches double from `initial_batch`, and every run's seed
/// derives from its global run index, so the sampled stream is a prefix
/// of the fixed-run stream with the same seed — the adaptive answer is
/// reproducible and grows monotonically. Lane sharing spans every batch
/// and round of one evaluation: the rounds reuse each worker slot's
/// chase-tree memo (see [`EvalOptions::batch`]), so a round walks the
/// outcome paths earlier rounds chased instead of chasing them again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EssTarget {
    /// Stop once the achieved effective sample size reaches this.
    pub target: f64,
    /// Hard cap on the total run count (the target may not be reachable —
    /// sharp evidence can pin ESS near 1 regardless of effort).
    pub max_runs: usize,
    /// Size of the first batch; subsequent batches double.
    pub initial_batch: usize,
}

impl EssTarget {
    /// A target with the default caps: at most `1 << 20` runs, first
    /// batch 512.
    pub fn new(target: f64) -> EssTarget {
        EssTarget {
            target,
            max_runs: 1 << 20,
            initial_batch: 512,
        }
    }

    /// Replaces the run cap (chainable).
    pub fn max_runs(mut self, cap: usize) -> EssTarget {
        self.max_runs = cap;
        self
    }

    /// Replaces the first-batch size (chainable).
    pub fn initial_batch(mut self, runs: usize) -> EssTarget {
        self.initial_batch = runs;
        self
    }

    /// The validated [`RunBudget`] of this target for a given executor
    /// lane-batch size ([`EvalOptions::batch`]) — the shared run-count
    /// plumbing behind the adaptive driver.
    pub fn budget(&self, batch: usize) -> RunBudget {
        RunBudget::adaptive(self.max_runs, self.initial_batch, batch)
    }
}

/// The backend-specific knobs a spec was given explicitly: the checks
/// reject those the chosen backend would ignore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Knobs {
    burn_in: bool,
    thin: bool,
    /// Set runs are the first batch of an ESS target.
    runs: bool,
    /// A run cap with no ESS target to carry it (yet).
    max_runs: Option<usize>,
}

/// Setters that write one [`EvalOptions`] field each.
macro_rules! option_setters {
    ($($field:ident: $ty:ty),* $(,)?) => {$(
        #[doc = concat!("Sets [`EvalOptions::", stringify!($field), "`].")]
        pub fn $field(mut self, $field: $ty) -> EvalSpec {
            self.options.$field = $field;
            self
        }
    )*};
}

/// One evaluation request's configuration: backend choice, options record
/// and ESS target. Built by chained setters — by
/// [`Evaluation`](crate::Evaluation)'s, which document each knob, or
/// directly — and checked by [`EvalSpec::validate`]. The default is the
/// `auto` backend with [`EvalOptions::default`] and no ESS target.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalSpec {
    pub(crate) backend: BackendChoice,
    pub(crate) options: EvalOptions,
    pub(crate) ess_target: Option<EssTarget>,
    set: Knobs,
}

impl EvalSpec {
    /// Selects the backend.
    pub fn backend(mut self, backend: BackendChoice) -> EvalSpec {
        self.backend = backend;
        self
    }

    /// Sets the Monte-Carlo run count or the MH kept-state count; beside
    /// an ESS target, its first batch.
    pub fn runs(mut self, runs: usize) -> EvalSpec {
        self.options.runs = runs;
        self.set.runs = true;
        self
    }

    /// Sets the ESS target of adaptive Monte-Carlo: `auto` becomes `mc`,
    /// any other backend stays for [`EvalSpec::validate`] to judge.
    pub fn ess_target(mut self, target: EssTarget) -> EvalSpec {
        if self.backend == BackendChoice::Auto {
            self.backend = BackendChoice::Mc;
        }
        let cap = self.set.max_runs.take().unwrap_or(target.max_runs);
        self.ess_target = Some(target.max_runs(cap));
        self
    }

    /// Caps the ESS target's run count.
    pub fn max_runs(mut self, cap: usize) -> EvalSpec {
        match &mut self.ess_target {
            Some(target) => target.max_runs = cap,
            None => self.set.max_runs = Some(cap),
        }
        self
    }

    /// Sets the MH burn-in ([`EvalOptions::burn_in`]).
    pub fn burn_in(mut self, steps: usize) -> EvalSpec {
        self.options.burn_in = steps;
        self.set.burn_in = true;
        self
    }

    /// Sets the MH thinning interval ([`EvalOptions::thin`]).
    pub fn thin(mut self, every: usize) -> EvalSpec {
        self.options.thin = every;
        self.set.thin = true;
        self
    }

    option_setters!(
        threads: usize,
        seed: u64,
        max_depth: usize,
        support_tol: f64,
        min_path_prob: f64,
        variant: ChaseVariant,
        keep_aux: bool,
    );

    /// Sets [`EvalOptions::batch`] (at least 1).
    pub fn batch(mut self, batch: usize) -> EvalSpec {
        self.options.batch = batch.max(1);
        self
    }

    /// Sets [`EvalOptions::policy`], and the variant's policy when the
    /// variant is sequential.
    pub fn policy(mut self, policy: PolicyKind) -> EvalSpec {
        self.options.policy = policy;
        if let ChaseVariant::Sequential(_) = self.options.variant {
            self.options.variant = ChaseVariant::Sequential(policy);
        }
        self
    }

    /// Sets [`EvalOptions::deadline`].
    pub fn deadline(mut self, deadline: std::time::Instant) -> EvalSpec {
        self.options.deadline = Some(deadline);
        self
    }

    /// The checks that do not depend on the program: an ESS target is
    /// finite and ≥ 1 and rides on `auto` or `mc`; a run cap needs an ESS
    /// target; burn-in and thinning need `mh`, and thinning is at least
    /// 1; a chase variant other than sequential needs a backend that
    /// reads it (Monte-Carlo; `auto` is checked once it resolves).
    ///
    /// # Errors
    /// [`EngineError::InvalidRequest`] naming the offending setting, in
    /// the wire's terms.
    pub fn validate(&self) -> Result<(), EngineError> {
        let bad = |reason: &str| Err(EngineError::InvalidRequest(reason.to_string()));
        if let Some(EssTarget { target, .. }) = self.ess_target {
            if !target.is_finite() || target < 1.0 {
                return bad(&format!(
                    "`infer.target` must be a finite effective sample size ≥ 1, got {target}"
                ));
            }
            if !matches!(self.backend, BackendChoice::Auto | BackendChoice::Mc) {
                return bad(&format!(
                    "`infer` (ESS-adaptive run control) requires the Monte-Carlo \
                     backend, but the request asks for `{}`",
                    self.backend.wire_name()
                ));
            }
        } else if self.set.max_runs.is_some() {
            return bad(
                "`infer.max_runs` caps ESS-adaptive run growth; it needs an `infer` target",
            );
        }
        if self.backend != BackendChoice::Mh && (self.set.burn_in || self.set.thin) {
            return bad(
                "`burn_in`/`thin` configure the Metropolis-Hastings chain; they need the \
                 `mh` backend",
            );
        }
        if self.options.thin == 0 {
            return bad("`thin` 0 would keep no state; pass at least 1 (1 keeps every state)");
        }
        self.check_variant(self.backend)
    }

    /// Rejects a chase variant `backend` would ignore: exact enumeration
    /// and MH chains step the sequential chase, so only Monte-Carlo reads
    /// the parallel and saturating variants.
    pub(crate) fn check_variant(&self, backend: BackendChoice) -> Result<(), EngineError> {
        let variant = self.options.variant;
        if matches!(variant, ChaseVariant::Sequential(_))
            || matches!(backend, BackendChoice::Auto | BackendChoice::Mc)
        {
            return Ok(());
        }
        Err(EngineError::InvalidRequest(format!(
            "the {variant:?} chase variant drives Monte-Carlo runs only, and the `{}` backend \
             would step the sequential chase instead; use .sample(n) to sample the {variant:?} \
             chase",
            backend.wire_name()
        )))
    }

    /// The spec with `auto` resolved against `program` to the backend the
    /// statistic terminals run: Monte-Carlo when an ESS target is set or
    /// the program samples a continuous distribution, else exact
    /// sequential enumeration.
    pub fn resolve(mut self, program: &CompiledProgram) -> EvalSpec {
        if self.backend == BackendChoice::Auto {
            self.backend = if self.ess_target.is_some() || !program.all_discrete() {
                BackendChoice::Mc
            } else {
                BackendChoice::Exact
            };
        }
        self
    }

    /// Whether the statistic terminals evaluate `program` by sampling
    /// (Monte-Carlo or MH) rather than by exact enumeration.
    pub fn samples(&self, program: &CompiledProgram) -> bool {
        matches!(
            self.resolve(program).backend,
            BackendChoice::Mc | BackendChoice::Mh
        )
    }

    /// The ESS target an adaptive run drives, with set runs as its first
    /// batch.
    pub(crate) fn adaptive_target(&self) -> Option<EssTarget> {
        let target = self.ess_target?;
        Some(match self.set.runs {
            true => target.initial_batch(self.options.runs),
            false => target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reason(spec: EvalSpec) -> String {
        match spec.validate() {
            Err(EngineError::InvalidRequest(reason)) => reason,
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_ess_targets_are_rejected() {
        for target in [f64::NAN, f64::INFINITY, 0.0, 0.5] {
            let spec = EvalSpec::default()
                .backend(BackendChoice::Mc)
                .ess_target(EssTarget::new(target));
            assert!(
                reason(spec).starts_with("`infer.target` must be"),
                "{target}"
            );
        }
        let ok = EvalSpec::default().ess_target(EssTarget::new(1.0));
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn thin_zero_is_rejected_even_on_mh() {
        let mh = EvalSpec::default().backend(BackendChoice::Mh);
        assert!(reason(mh.thin(0)).starts_with("`thin` 0 would keep no state"));
        assert!(mh.thin(1).validate().is_ok());
    }

    #[test]
    fn variants_only_monte_carlo_reads_are_rejected_elsewhere() {
        for variant in [ChaseVariant::Parallel, ChaseVariant::Saturating] {
            for backend in [
                BackendChoice::Exact,
                BackendChoice::ExactParallel,
                BackendChoice::Mh,
            ] {
                let spec = EvalSpec::default().backend(backend).variant(variant);
                let reason = reason(spec);
                assert!(reason.contains(&format!("{variant:?}")), "{reason}");
                assert!(reason.contains(backend.wire_name()), "{reason}");
            }
            for backend in [BackendChoice::Auto, BackendChoice::Mc] {
                let spec = EvalSpec::default().backend(backend).variant(variant);
                assert!(spec.validate().is_ok(), "{backend:?}");
            }
        }
        let reversed = ChaseVariant::Sequential(PolicyKind::Reverse);
        let exact = EvalSpec::default().backend(BackendChoice::Exact);
        assert!(exact.variant(reversed).validate().is_ok());
    }

    #[test]
    fn a_run_cap_waits_for_its_target_in_either_order() {
        let target = EssTarget::new(50.0);
        let before = EvalSpec::default().max_runs(100).ess_target(target);
        let after = EvalSpec::default().ess_target(target).max_runs(100);
        assert_eq!(before, after);
        assert_eq!(before.ess_target.unwrap().max_runs, 100);
        assert!(reason(EvalSpec::default().max_runs(100)).contains("needs an `infer` target"));
    }

    #[test]
    fn set_runs_are_the_first_batch_of_an_ess_target() {
        let target = EssTarget::new(50.0);
        let unset = EvalSpec::default().ess_target(target);
        assert_eq!(unset.adaptive_target(), Some(target));
        let set = unset.runs(64);
        assert_eq!(set.adaptive_target(), Some(target.initial_batch(64)));
        assert_eq!(set, EvalSpec::default().runs(64).ess_target(target));
    }

    #[test]
    fn wire_names_round_trip() {
        for backend in BackendChoice::ALL {
            assert_eq!(
                BackendChoice::from_wire_name(backend.wire_name()),
                Some(backend)
            );
        }
        assert_eq!(BackendChoice::from_wire_name("gpu"), None);
    }
}
