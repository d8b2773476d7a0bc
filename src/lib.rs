#![warn(missing_docs)]

//! # gdatalog
//!
//! A from-scratch Rust implementation of **Generative Datalog with
//! Continuous Distributions** (Grohe, Kaminski, Katoen, Lindner;
//! PODS 2020): Datalog whose rule heads may sample from parameterized
//! probability distributions — discrete *and* continuous — with the
//! paper's measure-theoretic semantics made executable.
//!
//! A GDatalog program denotes a **sub-probabilistic database**: a
//! (sub-)probability distribution over finite database instances, obtained
//! as the push-forward of a Markov process (the *probabilistic chase*)
//! along the paths-to-instances map `lim-inst`. This crate is a facade
//! re-exporting the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`data`] | values, schemas, facts, set-semantics instances, FDs |
//! | [`dist`] | the parameterized distribution family Ψ (Def. 2.1) |
//! | [`datalog`] | classical semi-naive Datalog substrate |
//! | [`lang`] | parser, validation, weak acyclicity, Datalog∃ translation |
//! | [`pdb`] | possible worlds, empirical PDBs, events, queries, streaming sinks |
//! | [`engine`] | the probabilistic chase: sessions, backends, exact/MC |
//! | [`learn`] | parameter fitting: closed-form MLE and weighted EM (`gdl fit`) |
//! | [`serve`] | program cache, session pool, batched query execution |
//! | [`net`] | HTTP/1.1 front end, admission control, load generator |
//! | [`stats`] | KS/χ² testing substrate used to verify the semantics |
//!
//! ## Quickstart
//!
//! Compile a program once into a [`Session`](prelude::Session), feed it
//! facts, and answer queries through the builder-style evaluation surface:
//!
//! ```
//! use gdatalog::prelude::*;
//!
//! let mut session = Session::from_source(
//!     "rel City(symbol, real) input.
//!      Earthquake(C, Flip<R>) :- City(C, R).
//!      Alarm(C) :- Earthquake(C, 1).",
//!     SemanticsMode::Grohe,
//! ).unwrap();
//! session.insert_facts_text("City(gotham, 0.3).").unwrap();
//!
//! // Exact evaluation: the full world table.
//! let worlds = session.eval().exact().worlds().unwrap();
//! assert_eq!(worlds.len(), 2);
//!
//! // Query terminals work on any backend (Fact 2.6): exact here …
//! let alarm = session.program().catalog.require("Alarm").unwrap();
//! let p = session.eval().marginal(&Fact::new(alarm, tuple!["gotham"])).unwrap();
//! assert!((p - 0.3).abs() < 1e-12);
//!
//! // … and streaming Monte-Carlo here: statistics fold run-by-run, so
//! // large run counts hold O(result) memory; the sampled worlds are
//! // identical for a fixed seed regardless of thread count.
//! let p_mc = session.eval().sample(10_000).threads(4).seed(7)
//!     .marginal(&Fact::new(alarm, tuple!["gotham"])).unwrap();
//! assert!((p - p_mc).abs() < 0.02);
//! ```
//!
//! See `docs/API.md` for the migration table from the pre-session
//! `Engine` entry points.

pub use gdatalog_core as engine;
pub use gdatalog_data as data;
pub use gdatalog_datalog as datalog;
pub use gdatalog_dist as dist;
pub use gdatalog_lang as lang;
pub use gdatalog_learn as learn;
pub use gdatalog_net as net;
pub use gdatalog_pdb as pdb;
pub use gdatalog_serve as serve;
pub use gdatalog_stats as stats;

/// The most commonly used items, for `use gdatalog::prelude::*`.
pub mod prelude {
    pub use gdatalog_core::{
        Answer, Answers, Backend, BackendChoice, ChasePolicy, ChaseVariant, Engine, EngineError,
        EssTarget, EvalJob, EvalOptions, EvalSpec, Evaluation, EvidenceSummary, ExactConfig,
        ExactParallelBackend, ExactSequentialBackend, McBackend, MhBackend, PolicyKind,
        PreparedProgram, QueryIr, QuerySet, RunBudget, Session,
    };
    pub use gdatalog_data::{tuple, Catalog, ColType, Fact, Instance, RelId, Tuple, Value};
    pub use gdatalog_dist::{ParamDist, Registry};
    pub use gdatalog_lang::{Program, SemanticsMode};
    pub use gdatalog_learn::{fit_program, FitOptions, FitReport, Fitted, LearnError};
    pub use gdatalog_pdb::{
        AggFun, ColPred, ColumnHistogram, EmpiricalPdb, Event, FactSet, Moments, NormalizingSink,
        PossibleWorlds, Query, WeightStats, WorldSink,
    };
    pub use gdatalog_serve::{
        BatchExecutor, PreparedModel, ProgramCache, QueryKind, Reply, Request, Response,
        ServeError, Server, SessionPool,
    };
}

/// Rendered documentation, compiled: the guides under `docs/` are included
/// here as rustdoc modules so that **every Rust code block in them builds
/// and runs under `cargo test --doc`** — the tutorial cannot silently rot.
pub mod docs {
    /// The end-to-end tutorial (`docs/TUTORIAL.md`), from first program to
    /// batch serving.
    #[doc = include_str!("../docs/TUTORIAL.md")]
    pub mod tutorial {}

    /// The paper-to-code map (`docs/SEMANTICS.md`): where each construct
    /// of Grohe et al. (PODS 2020) lives in this workspace.
    #[doc = include_str!("../docs/SEMANTICS.md")]
    pub mod semantics {}
}
