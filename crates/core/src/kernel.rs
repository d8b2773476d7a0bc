//! Step kernels: the functions `step_app` (Prop. 4.6) and `step_App`
//! (Prop. 5.3) as executable Markov kernels on the space of instances.
//!
//! A kernel supports two views:
//! * **sampling** — draw a follow-up instance (one transition of the
//!   Markov process of Cor. 4.7/5.4); and
//! * **branching** — for discrete programs, the full finite-support
//!   distribution of the transition, i.e. `step(D, ·)` as an explicit
//!   measure.
//!
//! Iterating the sampling view from an initial instance *is* the Markov
//! process whose push-forward along `lim-inst` defines the program's SPDB
//! semantics (Thm. 4.8/5.5). A transition is a chase run with a budget of
//! one step (or round), through the scalar loop every chase runs on
//! ([`crate::sequential`]).
//!
//! The branching view is one node of a chase tree: both kernels expand
//! `D` through the node expansion that exact enumeration and
//! [`crate::tree`] walk ([`crate::exact`]), under the sequential or the
//! parallel branching rule.

use std::borrow::BorrowMut;

use gdatalog_data::Instance;
use gdatalog_lang::CompiledProgram;
use rand::Rng;

use crate::applicability::PreparedProgram;
use crate::exact::{expand, require_discrete, Branching, ExactConfig};
use crate::mc::ChaseVariant;
use crate::policy::ChasePolicy;
use crate::sequential::{Chase, SEQUENTIAL};
use crate::EngineError;

/// A Markov kernel on database instances. Absorbing states (no applicable
/// pair) return `None`; the identity-kernel behavior of the paper is then
/// up to the caller (a terminated chase stays put).
pub trait StepKernel {
    /// Draws one transition; `None` when `instance` is absorbing.
    ///
    /// # Errors
    /// Runtime distribution failures.
    fn sample_step(
        &mut self,
        instance: &Instance,
        rng: &mut dyn Rng,
    ) -> Result<Option<Instance>, EngineError>;

    /// The transition distribution as an explicit finite table (discrete
    /// programs only): follow-up instances with probabilities plus the
    /// truncated mass. `None` when `instance` is absorbing.
    ///
    /// # Errors
    /// [`EngineError::NotDiscrete`] for continuous programs.
    #[allow(clippy::type_complexity)]
    fn branch_step(
        &mut self,
        instance: &Instance,
        config: ExactConfig,
    ) -> Result<Option<(Vec<(Instance, f64)>, f64)>, EngineError>;

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// The sequential kernel `step_app` for a fixed chase policy.
pub struct SequentialKernel<'p> {
    program: &'p CompiledProgram,
    prepared: PreparedProgram,
    policy: ChasePolicy,
}

impl<'p> SequentialKernel<'p> {
    /// Creates the kernel, planning the program's joins once.
    pub fn new(program: &'p CompiledProgram, policy: ChasePolicy) -> Self {
        let prepared = PreparedProgram::new(program);
        SequentialKernel {
            program,
            prepared,
            policy,
        }
    }
}

impl StepKernel for SequentialKernel<'_> {
    fn sample_step(
        &mut self,
        instance: &Instance,
        rng: &mut dyn Rng,
    ) -> Result<Option<Instance>, EngineError> {
        let policy = &mut self.policy;
        sample_transition(
            self.program,
            &self.prepared,
            instance,
            SEQUENTIAL,
            policy,
            rng,
        )
    }

    fn branch_step(
        &mut self,
        instance: &Instance,
        config: ExactConfig,
    ) -> Result<Option<(Vec<(Instance, f64)>, f64)>, EngineError> {
        let branching = Branching::Sequential(&mut self.policy);
        branch_table(self.program, &self.prepared, instance, branching, config)
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

/// The parallel kernel `step_App` (all applicable pairs fire at once).
pub struct ParallelKernel<'p> {
    program: &'p CompiledProgram,
    prepared: PreparedProgram,
}

impl<'p> ParallelKernel<'p> {
    /// Creates the kernel, planning the program's joins once.
    pub fn new(program: &'p CompiledProgram) -> Self {
        let prepared = PreparedProgram::new(program);
        ParallelKernel { program, prepared }
    }
}

impl StepKernel for ParallelKernel<'_> {
    fn sample_step(
        &mut self,
        instance: &Instance,
        rng: &mut dyn Rng,
    ) -> Result<Option<Instance>, EngineError> {
        let (variant, policy) = (ChaseVariant::Parallel, ChasePolicy::Canonical);
        sample_transition(self.program, &self.prepared, instance, variant, policy, rng)
    }

    fn branch_step(
        &mut self,
        instance: &Instance,
        config: ExactConfig,
    ) -> Result<Option<(Vec<(Instance, f64)>, f64)>, EngineError> {
        let branching = Branching::Parallel;
        branch_table(self.program, &self.prepared, instance, branching, config)
    }

    fn name(&self) -> &'static str {
        "parallel"
    }
}

/// One draw from `step(D, ·)`: a chase of `variant` from `instance` with
/// a budget of one step — the pair `policy` selects, or one parallel
/// round, fired with draws from `rng`; `None` when `instance` is
/// absorbing.
fn sample_transition<P: BorrowMut<ChasePolicy>>(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    instance: &Instance,
    variant: ChaseVariant,
    policy: P,
    rng: &mut dyn Rng,
) -> Result<Option<Instance>, EngineError> {
    let chase = Chase::new(prepared, program, instance.clone(), variant, policy);
    let run = chase
        .run(program, prepared, rng, 1, false)
        .map_err(EngineError::Dist)?;
    Ok((run.steps > 0).then_some(run.instance))
}

/// `step(D, ·)` as an explicit table: `instance` extended by each child of
/// its chase-tree expansion, with the truncated mass; `None` when
/// `instance` is absorbing.
#[allow(clippy::type_complexity)]
fn branch_table(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    instance: &Instance,
    mut branching: Branching<'_>,
    config: ExactConfig,
) -> Result<Option<(Vec<(Instance, f64)>, f64)>, EngineError> {
    require_discrete(program)?;
    let index = prepared.new_index(instance);
    let app = prepared.applicable_pairs(program, instance, &index);
    if app.is_empty() {
        return Ok(None);
    }
    let expansion = expand(program, &app, &mut branching, config.support_tol)?;
    let children = expansion
        .children
        .into_iter()
        .map(|(facts, q)| {
            let mut next = instance.clone();
            for fact in facts {
                next.insert_fact(fact);
            }
            (next, q)
        })
        .collect();
    Ok(Some((children, expansion.truncated)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use gdatalog_dist::Registry;
    use gdatalog_lang::{parse_program, translate, validate, SemanticsMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn compile(src: &str) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, SemanticsMode::Grohe).unwrap()
    }

    #[test]
    fn sequential_kernel_iterates_to_absorption() {
        let prog = compile("R(Flip<0.5>) :- true.");
        let mut k = SequentialKernel::new(&prog, ChasePolicy::new(PolicyKind::Canonical, &[]));
        let mut rng = StdRng::seed_from_u64(4);
        let mut state = prog.initial_instance.clone();
        let mut steps = 0;
        while let Some(next) = k.sample_step(&state, &mut rng).unwrap() {
            state = next;
            steps += 1;
            assert!(steps < 10);
        }
        assert_eq!(steps, 2);
        let r = prog.catalog.require("R").unwrap();
        assert_eq!(state.relation_len(r), 1);
    }

    #[test]
    fn branch_step_probabilities_sum_to_one() {
        let prog = compile("R(Flip<0.3>) :- true.");
        let mut k = SequentialKernel::new(&prog, ChasePolicy::new(PolicyKind::Canonical, &[]));
        let (branches, truncated) = k
            .branch_step(&prog.initial_instance, ExactConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(branches.len(), 2);
        let total: f64 = branches.iter().map(|(_, p)| p).sum();
        assert!((total + truncated - 1.0).abs() < 1e-12);
    }

    #[test]
    fn continuous_program_branching_names_the_family() {
        let prog = compile("X(Normal<0.0, 1.0>) :- true.");
        let mut k = SequentialKernel::new(&prog, ChasePolicy::new(PolicyKind::Canonical, &[]));
        let err = k
            .branch_step(&prog.initial_instance, ExactConfig::default())
            .unwrap_err();
        assert!(matches!(err, EngineError::NotDiscrete(name) if name == "Normal"));
        let err = ParallelKernel::new(&prog)
            .branch_step(&prog.initial_instance, ExactConfig::default())
            .unwrap_err();
        assert!(matches!(err, EngineError::NotDiscrete(name) if name == "Normal"));
    }

    #[test]
    fn parallel_kernel_one_round() {
        let prog = compile(
            r#"
            Seed(1). Seed(2).
            R(X, Flip<0.5>) :- Seed(X).
        "#,
        );
        let mut k = ParallelKernel::new(&prog);
        let (branches, _) = k
            .branch_step(&prog.initial_instance, ExactConfig::default())
            .unwrap()
            .unwrap();
        // Two independent flips fire in one round: 4 children.
        assert_eq!(branches.len(), 4);
        let total: f64 = branches.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Absorbing state detection.
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = prog.initial_instance.clone();
        while let Some(next) = k.sample_step(&state, &mut rng).unwrap() {
            state = next;
        }
        assert!(k
            .branch_step(&state, ExactConfig::default())
            .unwrap()
            .is_none());
    }
}
