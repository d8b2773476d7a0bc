#![warn(missing_docs)]

//! # gdatalog-dist
//!
//! The **parameterized distribution family Ψ** of Def. 2.1: every member
//! `ψ ∈ Ψ` is a measurable function from an admissible parameter space to
//! the probability measures over one attribute domain. This crate is the
//! executable counterpart:
//!
//! * [`ParamDist`] — one family member: sampling, (log-)densities with
//!   respect to the reference measure (counting measure for discrete
//!   members, Lebesgue for continuous ones), cumulative distribution
//!   functions, and — for discrete members — **exact support
//!   enumeration** with rigorous truncation accounting, which is what the
//!   exact chase-tree engine consumes.
//! * [`Registry`] — a concrete family Ψ. [`Registry::standard`] provides
//!   the members used throughout the paper's examples (Flip/Bernoulli,
//!   Categorical, UniformInt, Binomial, Geometric, Poisson) and the
//!   continuous ones the title is about (Uniform, Normal, Exponential,
//!   Gamma, Beta, LogNormal, Laplace).
//! * [`special`] — the special functions (`ln Γ`, erf, the standard
//!   normal CDF, digamma/trigamma, the regularized incomplete beta) the
//!   densities and estimators are built from.
//! * [`fit`] — weighted maximum-likelihood / moment-matching parameter
//!   estimation per family, consumed by the learning subsystem
//!   (`gdl fit`).
//!
//! Parameters arrive as [`Value`]s evaluated from rule bodies at chase
//! time, so every member validates them at the call site and reports
//! [`DistError`] rather than panicking — an invalid parameter (say a
//! negative variance flowing in from data) is a *runtime* error of the
//! program being evaluated, not of the engine.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use gdatalog_data::{ColType, Value};
use rand::Rng;

pub mod family;
pub mod fit;
pub mod special;

/// Errors raised by distribution members.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// Wrong number of parameters for the member.
    ParamCount {
        /// Distribution name.
        dist: &'static str,
        /// Expected arity.
        expected: DistArity,
        /// Number of parameters supplied.
        found: usize,
    },
    /// A parameter is outside the admissible space Θψ.
    BadParam {
        /// Distribution name.
        dist: &'static str,
        /// Human-readable description of the violation.
        msg: String,
    },
    /// An outcome incompatible with the member's support was supplied to a
    /// density query.
    BadOutcome {
        /// Distribution name.
        dist: &'static str,
        /// The offending outcome.
        outcome: Value,
    },
    /// The requested operation is not defined for this member (e.g. exact
    /// enumeration of a continuous distribution).
    Unsupported {
        /// Distribution name.
        dist: &'static str,
        /// The unsupported operation.
        op: &'static str,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::ParamCount {
                dist,
                expected,
                found,
            } => write!(f, "`{dist}` expects {expected} parameter(s), found {found}"),
            DistError::BadParam { dist, msg } => write!(f, "invalid parameter for `{dist}`: {msg}"),
            DistError::BadOutcome { dist, outcome } => {
                write!(f, "outcome {outcome} is outside the support of `{dist}`")
            }
            DistError::Unsupported { dist, op } => {
                write!(f, "`{dist}` does not support {op}")
            }
        }
    }
}

impl std::error::Error for DistError {}

/// Admissible parameter counts of a family member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistArity {
    /// Exactly `n` parameters.
    Exact(usize),
    /// An even, positive number of parameters (value/weight pairs).
    EvenPairs,
}

impl DistArity {
    /// Whether `n` parameters are admissible.
    pub fn admits(self, n: usize) -> bool {
        match self {
            DistArity::Exact(k) => n == k,
            DistArity::EvenPairs => n >= 2 && n.is_multiple_of(2),
        }
    }
}

impl fmt::Display for DistArity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistArity::Exact(k) => write!(f, "{k}"),
            DistArity::EvenPairs => write!(f, "an even number of"),
        }
    }
}

/// The tabulated support of a discrete member under given parameters.
///
/// For finite-support members the outcomes carry the whole mass
/// (`tabulated_mass() == 1`); countably-infinite supports are truncated at
/// the requested tail tolerance and the caller charges the missing mass to
/// the truncation deficit of the SPDB (see `gdatalog-pdb`).
#[derive(Debug, Clone)]
pub struct Support {
    /// `(outcome, probability)` pairs, each with positive probability.
    pub outcomes: Vec<(Value, f64)>,
}

impl Support {
    /// Total probability mass of the tabulated outcomes.
    pub fn tabulated_mass(&self) -> f64 {
        self.outcomes.iter().map(|(_, p)| p).sum()
    }
}

/// One member ψ of the parameterized family Ψ (Def. 2.1).
///
/// Implementations must be deterministic functions of `(params, rng
/// stream)` — the Monte-Carlo engine relies on this for bit-identical
/// multi-threaded runs.
pub trait ParamDist: Send + Sync {
    /// The member's name as it appears in program text (`Flip`, `Normal`…).
    fn name(&self) -> &str;

    /// Admissible parameter counts.
    fn arity(&self) -> DistArity;

    /// The attribute domain the member's measures live on.
    fn output_type(&self) -> ColType;

    /// Whether the member is discrete (counting reference measure) —
    /// the precondition for exact chase-tree enumeration.
    fn is_discrete(&self) -> bool;

    /// Whether [`log_density`](ParamDist::log_density) is `Ok` on every
    /// outcome [`sample`](ParamDist::sample) returns under the same
    /// parameters — a successful draw has then checked everything its
    /// density reads. Every standard member says so. The default `false`
    /// makes the batched Monte-Carlo executor compute each drawn lane's
    /// density, as the scalar chase does, so a member whose density can
    /// fail on its own draws fails the same run in every executor.
    fn draws_have_densities(&self) -> bool {
        false
    }

    /// Draws one outcome under `params`.
    ///
    /// # Errors
    /// [`DistError`] on inadmissible parameters.
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError>;

    /// Log-density of `outcome` with respect to the member's reference
    /// measure (log-pmf for discrete members, log-pdf for continuous).
    ///
    /// # Errors
    /// [`DistError`] on inadmissible parameters or outcomes of the wrong
    /// type. Outcomes of the right type but outside the support yield
    /// `-inf`.
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError>;

    /// Density (pmf/pdf) of `outcome`; defaults to `exp(log_density)`.
    ///
    /// # Errors
    /// Same as [`ParamDist::log_density`].
    fn density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        Ok(self.log_density(params, outcome)?.exp())
    }

    /// Cumulative distribution function at `x` (numeric domains only).
    ///
    /// # Errors
    /// [`DistError::Unsupported`] for members without a numeric CDF.
    fn cdf(&self, params: &[Value], x: f64) -> Result<f64, DistError> {
        let _ = (params, x);
        Err(DistError::Unsupported {
            dist: "<unnamed>",
            op: "cdf",
        })
    }

    /// Tabulates the support under `params`, truncating countably-infinite
    /// supports once the remaining tail mass is at most `tol`.
    ///
    /// # Errors
    /// [`DistError::Unsupported`] for continuous members.
    fn enumerate(&self, params: &[Value], tol: f64) -> Result<Support, DistError> {
        let _ = (params, tol);
        Err(DistError::Unsupported {
            dist: "<unnamed>",
            op: "exact support enumeration",
        })
    }

    /// Draws one outcome per RNG lane under a **shared** parameter vector,
    /// appending to `out` — the batch entry point of the batched
    /// Monte-Carlo executor. It is the scalar loop over
    /// [`sample`](ParamDist::sample), and no standard member overrides it,
    /// so each family draws in one place. A wrapper that overrides it (to
    /// time or count draws, say) must keep lane `i` equal to
    /// `self.sample(params, &mut rngs[i])` bit for bit, consuming exactly
    /// the same draws.
    ///
    /// # Errors
    /// [`DistError`] on inadmissible parameters; `out` then holds the
    /// outcomes of the lanes drawn before the failure.
    fn sample_batch(
        &self,
        params: &[Value],
        rngs: &mut [rand::rngs::StdRng],
        out: &mut Vec<Value>,
    ) -> Result<(), DistError> {
        out.reserve(rngs.len());
        for rng in rngs {
            out.push(self.sample(params, rng)?);
        }
        Ok(())
    }

    /// Log-density of each outcome under a **shared** parameter vector,
    /// appending to `out` — the scalar loop over
    /// [`log_density`](ParamDist::log_density), which no standard member
    /// overrides. An override must keep entry `i` equal to
    /// `self.log_density(params, &outcomes[i])` bit for bit.
    ///
    /// # Errors
    /// [`DistError`] on inadmissible parameters or mistyped outcomes;
    /// `out` then holds the densities computed before the failure.
    fn log_density_batch(
        &self,
        params: &[Value],
        outcomes: &[Value],
        out: &mut Vec<f64>,
    ) -> Result<(), DistError> {
        out.reserve(outcomes.len());
        for outcome in outcomes {
            out.push(self.log_density(params, outcome)?);
        }
        Ok(())
    }
}

/// A concrete distribution family Ψ: named members, looked up by the
/// language front-end when compiling random terms.
pub struct Registry {
    by_name: HashMap<String, Arc<dyn ParamDist>>,
    names: Vec<String>,
}

impl Registry {
    /// An empty family.
    pub fn new() -> Registry {
        Registry {
            by_name: HashMap::new(),
            names: Vec::new(),
        }
    }

    /// The standard family: every distribution used by the paper's
    /// examples plus the common continuous ones.
    pub fn standard() -> Registry {
        let mut r = Registry::new();
        for d in family::standard_members() {
            r.register(d);
        }
        r
    }

    /// Adds (or replaces) a member under its own name.
    pub fn register(&mut self, dist: Arc<dyn ParamDist>) {
        let name = dist.name().to_string();
        if self.by_name.insert(name.clone(), dist).is_none() {
            self.names.push(name);
        }
    }

    /// Looks a member up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn ParamDist>> {
        self.by_name.get(name)
    }

    /// Member names in registration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Registry({} members)", self.names.len())
    }
}
