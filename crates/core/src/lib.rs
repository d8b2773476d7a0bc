#![warn(missing_docs)]

//! # gdatalog-core
//!
//! The **probabilistic chase** of "Generative Datalog with Continuous
//! Distributions" (Grohe, Kaminski, Katoen, Lindner; PODS 2020) — the
//! paper's primary contribution, as an executable engine.
//!
//! A compiled GDatalog program (from `gdatalog-lang`) is run by repeatedly
//! firing applicable rules of its associated existential Datalog program:
//!
//! * [`applicability`] — the applicable-pair set `App(D)` of §3.3;
//! * [`policy`] — chase policies, the concrete counterparts of the paper's
//!   *measurable selections* `app` of `App`;
//! * [`sequential`] — sequential chase steps and runs (Def. 4.1);
//! * [`parallel`] — parallel chase steps and runs (Def. 5.1), where **all**
//!   applicable pairs fire simultaneously with independent samples;
//! * [`kernel`] — the step functions `step_app` / `step_App` as Markov
//!   kernels on the space of instances (Prop. 4.6 / 5.3), supporting both
//!   path sampling and exact finite-support branching;
//! * [`exact`] — exhaustive chase-tree enumeration producing an exact
//!   [`gdatalog_pdb::PossibleWorlds`] table with rigorous sub-probability
//!   mass accounting (the push-forward measure along `lim-inst`, §4.2);
//! * [`tree`] — explicit chase trees with probability annotations and DOT
//!   export (Figure 1 of the paper);
//! * [`mc`] — Monte-Carlo path sampling of the Markov process, single- or
//!   multi-threaded, producing [`gdatalog_pdb::EmpiricalPdb`] estimates;
//! * [`mcmc`] — single-site Metropolis-Hastings over chase traces
//!   ([`MhBackend`]), posterior sampling that stays effective where
//!   likelihood weighting's effective sample size collapses;
//! * [`observe`] — evidence weighting for conditioning (`@observe` /
//!   [`Evaluation::given`](session::Evaluation::given)): per-world
//!   log-likelihoods that turn exact enumeration into filtered
//!   renormalization and Monte-Carlo into likelihood-weighted importance
//!   sampling;
//! * [`engine`] — the user-facing facade tying everything together,
//!   including the transformation of probabilistic *inputs*
//!   (Theorems 4.8/5.5/6.2);
//! * [`queryset`] — first-class queries ([`QueryIr`]/[`QuerySet`]):
//!   many statistics answered in **one** backend pass through a sink
//!   multiplexer, with conditioning normalization computed once and
//!   shared.

pub mod applicability;
pub mod backend;
pub mod engine;
pub mod exact;
pub mod fingerprint;
pub mod kernel;
pub mod mc;
pub(crate) mod mc_batch;
pub mod mcmc;
pub mod observe;
pub mod parallel;
pub mod policy;
pub mod queryset;
pub mod saturate;
pub mod sequential;
pub mod session;
pub mod tree;

pub use applicability::{applicable_pairs, AppPair, ChaseState, PreparedProgram};
pub use backend::{
    Backend, EvalJob, EvalOptions, ExactParallelBackend, ExactSequentialBackend, McBackend,
    RunBudget,
};
pub use engine::{Engine, EngineError};
pub use exact::{
    enumerate_parallel, enumerate_parallel_prepared, enumerate_sequential,
    enumerate_sequential_prepared, ExactConfig,
};
pub use fingerprint::source_fingerprint;
pub use kernel::{ParallelKernel, SequentialKernel, StepKernel};
pub use mc::{sample_pdb, ChaseVariant, McConfig};
pub use mcmc::MhBackend;
pub use observe::{log_weight, weight as observation_weight};
pub use policy::{ChasePolicy, PolicyKind};
pub use queryset::{tail_event, Answer, Answers, QueryIr, QuerySet};
pub use saturate::run_saturating;
pub use sequential::{run_sequential, ChaseRun, RunOutcome, TraceStep};
pub use session::{EssTarget, Evaluation, EvidenceSummary, Session};
pub use tree::{build_chase_tree, ChaseNode, ChaseTree};
