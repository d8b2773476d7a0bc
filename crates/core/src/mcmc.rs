//! Single-site Metropolis-Hastings over chase **traces** — posterior
//! inference that stays effective where likelihood weighting collapses.
//!
//! Likelihood-weighted sampling (the [`McBackend`](crate::McBackend)
//! conditioned path) draws whole worlds from the *prior* and re-weights
//! them, so sharp or many-observation evidence drives its effective
//! sample size toward 1: almost every run lands far from the posterior
//! mode and carries negligible weight. [`MhBackend`] instead walks a
//! Markov chain whose stationary distribution *is* the posterior,
//! following the "lightweight" trace-MCMC recipe of the probabilistic
//! programming literature (and the PPDL line of declarative statistical
//! modeling): a **trace** records every Ψ-sample drawn along a chase run,
//! keyed by a structural address; a proposal redraws one uniformly chosen
//! site and deterministically **replays** the chase, reusing every other
//! recorded draw; the standard Metropolis-Hastings ratio — built from the
//! per-world log-likelihood of [`crate::observe`] and the prior
//! log-densities of reused draws under their (possibly changed)
//! parameters — decides acceptance.
//!
//! ## Site addresses and replay
//!
//! A site is one firing of an existential rule, addressed by
//! `(rule id, evaluated key terms)`. The induced functional dependency of
//! §3.5 (sample-once) guarantees the address fires at most once per run,
//! so the address is unique within a trace and **stable across traces**:
//! replays under the canonical chase policy visit the same addresses in
//! the same structural positions whenever the surrounding discrete
//! choices agree, which is exactly when draw reuse is meaningful. Theorem
//! 6.1 makes the policy pin harmless — the denoted distribution does not
//! depend on the selection — so the chain ignores the configured policy
//! and thread count.
//!
//! ## Ergodicity caveat
//!
//! Single-site proposals only explore states reachable by redrawing
//! **one** site at a time (plus whatever downstream sites that redraw
//! re-fires through changed rule applicability). Under *hard* evidence
//! that deterministically couples several independent draws — e.g. two
//! unrelated coins observed equal — the posterior support can split into
//! components no single-site move crosses, and the chain mixes only
//! within the component it initialized in. Prefer likelihood weighting
//! (or soften the evidence) for such programs; evidence whose coupling
//! routes through rule structure (redrawing a parent re-fires its
//! children as fresh sites) does not have this problem.
//!
//! ## What the stream means
//!
//! Kept states are emitted through the same [`WorldSink`] interface as
//! every other backend, each carrying weight `1/K` (log-space under
//! conditioning), so all existing statistics work unchanged. Unlike
//! likelihood weighting, MH does **not** estimate the evidence mass: the
//! emitted stream is already normalized, and the reported
//! [`EvidenceSummary`](crate::EvidenceSummary) mass is 1 by construction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use gdatalog_data::{Fact, Instance, Tuple, Value};
use gdatalog_lang::{CompiledProgram, RuleKind};
use gdatalog_pdb::WorldSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::applicability::{eval_term, eval_terms, AppPair, ChaseState, PreparedProgram};
use crate::backend::{Backend, EvalJob};
use crate::exact::check_deadline;
use crate::observe;
use crate::policy::{ChasePolicy, PolicyKind};
use crate::sequential::RunOutcome;
use crate::EngineError;

/// The structural address of one sampling site: the existential rule that
/// fired and its evaluated key terms. Unique within a run by the induced
/// FD of §3.5 (sample-once).
type SiteKey = (usize, Tuple);

/// One recorded site: the sampled outcomes (in sample-spec order) and
/// their total log-density under the parameters seen at replay time.
struct SiteRecord {
    values: Vec<Value>,
    log_density: f64,
}

/// The chain state: a complete chase trace plus its cached likelihood.
struct Trace {
    sites: HashMap<SiteKey, SiteRecord>,
    /// Site addresses in firing order — the uniform-proposal index (a
    /// deterministic order, so site selection is seed-reproducible).
    order: Vec<SiteKey>,
    /// The full final instance (auxiliary relations included).
    world: Instance,
    /// Cached `observe::log_weight` of `world` (finite by construction —
    /// invalid states are never accepted).
    log_like: f64,
}

/// The result of replaying the chase against a trace.
struct TracedRun {
    sites: HashMap<SiteKey, SiteRecord>,
    order: Vec<SiteKey>,
    instance: Instance,
    outcome: RunOutcome,
    /// `Σ` over **reused** sites of (log-density under the replay's
    /// parameters − log-density recorded in the old trace): the prior
    /// correction term of the acceptance ratio.
    reused_delta: f64,
}

/// A replay either completes, or dies because a reused draw has prior
/// density 0 under its redrawn parameters (the proposal is then rejected
/// outright — its target density is 0).
enum Replay {
    Run(TracedRun),
    Invalid,
}

/// Runs one sequential chase from `start` (the chain's input snapshot)
/// under the canonical policy, **replaying** `prior`'s recorded draws
/// where available: the `resample` site (and any site absent from the old
/// trace) draws fresh from its prior; every other recorded site reuses
/// its values, re-scored under the parameters the replay actually
/// evaluates.
fn traced_run(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    start: &ChaseState,
    existential: &[usize],
    max_steps: usize,
    prior: Option<(&Trace, &SiteKey)>,
    rng: &mut StdRng,
) -> Result<Replay, EngineError> {
    let mut state = start.clone();
    let mut policy = ChasePolicy::new(PolicyKind::Canonical, existential);
    let mut sites: HashMap<SiteKey, SiteRecord> = HashMap::new();
    let mut order: Vec<SiteKey> = Vec::new();
    let mut reused_delta = 0.0;
    let mut steps = 0usize;
    let outcome = loop {
        let app = state.app(prepared, program);
        if app.is_empty() {
            break RunOutcome::Terminated;
        }
        if steps >= max_steps {
            break RunOutcome::BudgetExhausted;
        }
        let AppPair { rule, valuation } = app[policy.select(app)].clone();
        let fact = match &program.rules[rule].kind {
            RuleKind::Deterministic { head } => {
                let tuple: Tuple = head.args.iter().map(|t| eval_term(t, &valuation)).collect();
                Fact::new(head.rel, tuple)
            }
            RuleKind::Existential(e) => {
                let key = eval_terms(&e.key_terms, &valuation);
                let site: SiteKey = (rule, Tuple::from(key.clone()));
                let recorded = match prior {
                    Some((trace, resample)) if site != *resample => trace.sites.get(&site),
                    _ => None,
                };
                let mut values = key;
                let mut sampled = Vec::with_capacity(e.samples.len());
                let mut log_density = 0.0;
                match recorded {
                    Some(rec) => {
                        for (spec, value) in e.samples.iter().zip(&rec.values) {
                            let params = eval_terms(&spec.param_terms, &valuation);
                            let ld = spec
                                .dist
                                .log_density(&params, value)
                                .map_err(EngineError::Dist)?;
                            if ld == f64::NEG_INFINITY {
                                return Ok(Replay::Invalid);
                            }
                            log_density += ld;
                            sampled.push(value.clone());
                            values.push(value.clone());
                        }
                        reused_delta += log_density - rec.log_density;
                    }
                    None => {
                        for spec in &e.samples {
                            let params = eval_terms(&spec.param_terms, &valuation);
                            let outcome =
                                spec.dist.sample(&params, rng).map_err(EngineError::Dist)?;
                            log_density += spec
                                .dist
                                .log_density(&params, &outcome)
                                .map_err(EngineError::Dist)?;
                            sampled.push(outcome.clone());
                            values.push(outcome);
                        }
                    }
                }
                sites.insert(
                    site.clone(),
                    SiteRecord {
                        values: sampled,
                        log_density,
                    },
                );
                order.push(site);
                Fact::new(e.aux_rel, Tuple::from(values))
            }
        };
        state.insert(prepared, fact.rel, fact.tuple);
        steps += 1;
    };
    Ok(Replay::Run(TracedRun {
        sites,
        order,
        instance: state.into_instance(),
        outcome,
        reused_delta,
    }))
}

/// Attempts one Metropolis-Hastings transition of `current`, mutating it
/// in place on acceptance. Returns `None` when the trace has no sampling
/// sites (a deterministic program — the chain has one state), else
/// whether the proposal was accepted.
#[allow(clippy::too_many_arguments)]
fn mh_step(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    start: &ChaseState,
    existential: &[usize],
    observes: &[gdatalog_lang::CompiledObserve],
    max_steps: usize,
    current: &mut Trace,
    rng: &mut StdRng,
) -> Result<Option<bool>, EngineError> {
    let n = current.order.len();
    if n == 0 {
        return Ok(None);
    }
    let site = current.order[rng.gen_index(n)].clone();
    let replay = traced_run(
        program,
        prepared,
        start,
        existential,
        max_steps,
        Some((current, &site)),
        rng,
    )?;
    let proposal = match replay {
        Replay::Run(run) if run.outcome == RunOutcome::Terminated => run,
        // A reused draw with prior density 0, or a replay that exhausted
        // the step budget (conditioning is taken given termination):
        // target density 0 — reject.
        _ => return Ok(Some(false)),
    };
    let log_like = observe::log_weight(observes, &proposal.instance)?;
    if log_like == f64::NEG_INFINITY {
        return Ok(Some(false));
    }
    // Lightweight-MH acceptance: likelihood ratio, prior correction for
    // reused draws whose parameters moved, and the site-count asymmetry
    // of the uniform single-site proposal. Fresh, stale, and resampled
    // draws cancel between target and proposal densities.
    let n_new = proposal.order.len();
    let log_alpha = (log_like - current.log_like) + proposal.reused_delta + (n as f64).ln()
        - (n_new as f64).ln();
    let accept = if log_alpha.is_nan() {
        false
    } else {
        log_alpha >= 0.0 || rng.gen_f64().ln() < log_alpha
    };
    if accept {
        *current = Trace {
            sites: proposal.sites,
            order: proposal.order,
            world: proposal.instance,
            log_like,
        };
    }
    Ok(Some(accept))
}

/// Single-site **Metropolis-Hastings** over chase traces (see the module
/// docs): seeded, with burn-in and thinning read from
/// [`EvalOptions`](crate::EvalOptions), streaming `runs` kept states into
/// the sink at weight `1/runs` each — log-space under conditioning, so
/// every existing statistic works unchanged.
///
/// The chain initializes by forward sampling until it finds a terminated,
/// evidence-compatible state; if none exists within the attempt budget
/// the evaluation reports [`EngineError::ZeroEvidence`]. Same seed ⇒ same
/// chain: site selection, fresh draws, and acceptance coin flips all
/// consume one deterministic PRNG stream.
///
/// Acceptance counters accumulate across [`Backend::run`] calls on the
/// same instance; read them with [`MhBackend::acceptance_rate`].
#[derive(Debug, Default)]
pub struct MhBackend {
    accepted: AtomicU64,
    proposed: AtomicU64,
}

impl MhBackend {
    /// A backend with zeroed acceptance counters.
    pub fn new() -> MhBackend {
        MhBackend::default()
    }

    /// Proposals accepted / proposals made over every run so far, or
    /// `None` before the first proposal (e.g. a deterministic program,
    /// where the chain has a single state and never proposes).
    pub fn acceptance_rate(&self) -> Option<f64> {
        let proposed = self.proposed.load(Ordering::Relaxed);
        if proposed == 0 {
            return None;
        }
        Some(self.accepted.load(Ordering::Relaxed) as f64 / proposed as f64)
    }
}

impl Backend for MhBackend {
    fn name(&self) -> &'static str {
        "metropolis-hastings"
    }

    fn run(&self, job: &EvalJob<'_>, sink: &mut dyn WorldSink) -> Result<(), EngineError> {
        let (program, input, opts) = (job.program, job.input, job.options);
        let kept = opts.runs;
        if kept == 0 {
            return Ok(());
        }
        let prepared = job.plans();
        let existential: Vec<usize> = program
            .rules
            .iter()
            .filter(|r| r.is_existential())
            .map(|r| r.id)
            .collect();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        // The chain's snapshot of the input: built, indexed and its App(D)
        // enumerated once, then cloned by every run of the chain.
        let mut start = ChaseState::new(&prepared, program, input.clone());
        start.app(&prepared, program);

        // Initialization: forward-sample until a terminated run compatible
        // with the evidence appears. This is rejection initialization — if
        // the evidence admits no state within the attempt budget, the
        // posterior is (operationally) unreachable and the evaluation
        // reports ZeroEvidence rather than emitting a chain that never
        // entered the support.
        let attempts = 1_000.max(opts.burn_in);
        let mut current: Option<Trace> = None;
        for _ in 0..attempts {
            check_deadline(opts.deadline)?;
            let Replay::Run(run) = traced_run(
                program,
                &prepared,
                &start,
                &existential,
                opts.max_depth,
                None,
                &mut rng,
            )?
            else {
                unreachable!("a fresh run reuses no draws");
            };
            if run.outcome != RunOutcome::Terminated {
                continue;
            }
            let log_like = observe::log_weight(job.observes, &run.instance)?;
            if log_like > f64::NEG_INFINITY {
                current = Some(Trace {
                    sites: run.sites,
                    order: run.order,
                    world: run.instance,
                    log_like,
                });
                break;
            }
        }
        let Some(mut current) = current else {
            return Err(EngineError::ZeroEvidence);
        };

        let step = |current: &mut Trace, rng: &mut StdRng| -> Result<(), EngineError> {
            if let Some(accepted) = mh_step(
                program,
                &prepared,
                &start,
                &existential,
                job.observes,
                opts.max_depth,
                current,
                rng,
            )? {
                self.proposed.fetch_add(1, Ordering::Relaxed);
                if accepted {
                    self.accepted.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(())
        };

        for _ in 0..opts.burn_in {
            check_deadline(opts.deadline)?;
            step(&mut current, &mut rng)?;
        }
        let thin = opts.thin.max(1);
        let conditioned = !job.observes.is_empty();
        let log_share = -((kept as f64).ln());
        for _ in 0..kept {
            check_deadline(opts.deadline)?;
            for _ in 0..thin {
                step(&mut current, &mut rng)?;
            }
            let world = if opts.keep_aux {
                current.world.clone()
            } else {
                program.project_output(&current.world)
            };
            if conditioned {
                sink.observe_log(world, log_share);
            } else {
                sink.observe(world, 1.0 / kept as f64);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalOptions, Session};
    use gdatalog_data::tuple;
    use gdatalog_lang::SemanticsMode;
    use gdatalog_pdb::WorldTableSink;

    fn session(src: &str) -> Session {
        Session::from_source(src, SemanticsMode::Grohe).unwrap()
    }

    /// Drives the backend directly and returns the emitted world table.
    fn run_mh(src: &str, given: &str, opts: EvalOptions) -> (gdatalog_pdb::PossibleWorlds, f64) {
        let s = session(src);
        let observes = gdatalog_lang::compile_observations(s.program(), given).unwrap();
        let job = EvalJob {
            program: s.program(),
            prepared: None,
            input: s.facts(),
            options: &opts,
            observes: &observes,
        };
        let backend = MhBackend::new();
        let mut sink = WorldTableSink::new();
        backend.run(&job, &mut sink).unwrap();
        (sink.finish(), backend.acceptance_rate().unwrap_or(f64::NAN))
    }

    #[test]
    fn same_seed_same_chain() {
        let opts = EvalOptions {
            runs: 500,
            seed: 17,
            burn_in: 50,
            ..EvalOptions::default()
        };
        let src = r#"
            Quake(Flip<0.2>) :- true.
            Trig(Flip<0.7>) :- Quake(1).
            Trig(Flip<0.1>) :- Quake(0).
            Alarm() :- Trig(1).
        "#;
        let (a, ra) = run_mh(src, "Alarm().", opts);
        let (b, rb) = run_mh(src, "Alarm().", opts);
        assert_eq!(ra.to_bits(), rb.to_bits());
        assert_eq!(a.len(), b.len());
        for ((wa, pa), (wb, pb)) in a.iter().zip(b.iter()) {
            assert_eq!(wa, wb);
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
        // And a different seed moves the chain.
        let (c, _) = run_mh(src, "Alarm().", EvalOptions { seed: 18, ..opts });
        let same = a.len() == c.len()
            && a.iter()
                .zip(c.iter())
                .all(|((wa, pa), (wc, pc))| wa == wc && pa.to_bits() == pc.to_bits());
        assert!(!same, "seed must steer the chain");
    }

    #[test]
    fn posterior_matches_exact_enumeration() {
        let src = r#"
            Quake(Flip<0.2>) :- true.
            Trig(Flip<0.7>) :- Quake(1).
            Trig(Flip<0.1>) :- Quake(0).
            Alarm() :- Trig(1).
        "#;
        let s = session(src);
        let quake = s.program().catalog.require("Quake").unwrap();
        let fact = gdatalog_data::Fact::new(quake, tuple![1i64]);
        let exact = s.eval().exact().given("Alarm().").marginal(&fact).unwrap();
        let mh = s
            .eval()
            .mh(30_000)
            .seed(5)
            .given("Alarm().")
            .marginal(&fact)
            .unwrap();
        // Chain draws are correlated; the tolerance is generous but the
        // posterior (0.636) is far from the prior (0.2), so agreement is
        // still decisive evidence the chain targets the posterior.
        assert!((mh - exact).abs() < 0.03, "mh = {mh}, exact = {exact}");
    }

    #[test]
    fn acceptance_rate_is_sane_on_flip_chain() {
        // Soft evidence keeps every proposal inside the support, so the
        // single-site chain should accept often — and never always.
        let (_, rate) = run_mh(
            "Mu(Categorical<0.0, 1.0, 4.0, 1.0>) :- true.",
            "Normal<M, 1.0> == 1.0 :- Mu(M).",
            EvalOptions {
                runs: 2_000,
                seed: 2,
                burn_in: 100,
                ..EvalOptions::default()
            },
        );
        assert!(rate > 0.2 && rate <= 1.0, "rate = {rate}");
    }

    #[test]
    fn burn_in_and_thinning_account_for_steps() {
        // thin = 3 with K kept samples must advance the chain 3K times
        // post-burn-in; we verify the accounting through the proposal
        // counter (one proposal per step on a program with sites).
        let s = session("R(Flip<0.5>) :- true. S(Flip<0.8>) :- R(1).");
        let observes = gdatalog_lang::compile_observations(s.program(), "S(1).").unwrap();
        let opts = EvalOptions {
            runs: 100,
            seed: 1,
            burn_in: 40,
            thin: 3,
            ..EvalOptions::default()
        };
        let job = EvalJob {
            program: s.program(),
            prepared: None,
            input: s.facts(),
            options: &opts,
            observes: &observes,
        };
        let backend = MhBackend::new();
        let mut sink = WorldTableSink::new();
        backend.run(&job, &mut sink).unwrap();
        assert_eq!(
            backend.proposed.load(Ordering::Relaxed),
            40 + 3 * 100,
            "burn-in steps plus thin × kept"
        );
        let table = sink.finish();
        assert!((table.mass() - 1.0).abs() < 1e-9, "uniform 1/K weights");
    }

    #[test]
    fn impossible_evidence_is_zero_evidence() {
        let s = session("R(Flip<1.0>) :- true.");
        let err = s.eval().mh(100).given("R(0).").evidence().unwrap_err();
        assert!(matches!(err, EngineError::ZeroEvidence));
    }

    #[test]
    fn deterministic_program_has_single_state_chain() {
        let s = session("E(1, 2). T(X, Y) :- E(X, Y).");
        let worlds = s.eval().mh(50).worlds().unwrap();
        assert_eq!(worlds.len(), 1);
        assert!((worlds.mass() - 1.0).abs() < 1e-9);
    }
}
