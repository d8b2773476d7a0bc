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
//! A replay is a walk down the chase tree (Def. 4.2), and for a discrete
//! program the chain keeps revisiting a few paths of it. The chain
//! therefore records the tree it chases in a `ChaseMemo` — the node
//! store of the Monte-Carlo executor (`mc_batch`), kept by the program's
//! plans across chains and shared with likelihood-weighting lanes on the
//! same input, evidence and options, which record the same canonical
//! tree; an unconditioned end is recorded as the lanes record it, a bare
//! world whose log-likelihood is 0: at each
//! existential step whose draws are all discrete, the site's address, the
//! families and evaluated parameters, and one edge per joint outcome
//! carrying its log-density; at each end, the outcome (terminated or out
//! of budget), the emitted world and its evidence log-likelihood. A
//! proposal from a trace whose whole path is recorded first **walks**
//! the memo with a snapshot of the chain's RNG: at each recorded node the
//! resampled site, and any site the current trace lacks, draws fresh, one
//! spec at a time as the chase would; every other site reuses its
//! recorded joint and adds the edges' density difference to the prior
//! correction, in firing order. The walk builds no chase state and
//! computes no density. If it meets an unrecorded node or joint, or a
//! draw fails, the proposal restores the snapshot and **chases** the
//! replay: it clones the chain's canonical chase at the input (the chase
//! stepper every chase loop steps through, `sequential::Chase`, its
//! `App(D)` enumerated once) and steps it, drawing fresh or reusing a
//! recorded joint at each site, recording the nodes it passes. The
//! chain thus consumes the RNG, and decides every error and rejection,
//! exactly as a chain that always chases: same seed, same chain, bit for
//! bit. A continuous draw leaves its node unrecorded, so a chain over
//! continuous sites chases every proposal.
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
use std::sync::Arc;

use gdatalog_data::{Fact, Instance, Tuple, Value};
use gdatalog_lang::{CompiledObserve, CompiledProgram, ExistentialHead, RuleKind};
use gdatalog_pdb::WorldSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::applicability::{eval_terms, head_fact, AppPair, PreparedProgram};
use crate::backend::{Backend, EvalJob};
use crate::exact::check_deadline;
use crate::mc_batch::{on_memo, ChaseMemo, LaneObs, Node, SiteKey, Spec};
use crate::observe;
use crate::policy::ChasePolicy;
use crate::sequential::{fire, Chase, Fired, RunOutcome, SEQUENTIAL};
use crate::EngineError;

/// One recorded site of a chased trace: the sampled outcomes (in
/// sample-spec order) and their total log-density under the parameters
/// seen at replay time.
struct SiteRecord {
    values: Vec<Value>,
    log_density: f64,
}

/// One site of a walked trace: its index in the memo's site table, and
/// the recorded edge the trace took there.
#[derive(Clone, Copy)]
struct Hop {
    site: usize,
    node: usize,
    edge: usize,
}

/// A trace's sites, in firing order — the uniform-proposal index (a
/// deterministic order, so site selection is seed-reproducible).
enum Sites {
    /// A path that leaves the memo: the records by address, and the
    /// addresses in firing order.
    Chased {
        records: HashMap<SiteKey, SiteRecord>,
        order: Vec<SiteKey>,
    },
    /// A path recorded down to its end: the edge taken at each site.
    Walked(Vec<Hop>),
}

impl Sites {
    fn len(&self) -> usize {
        match self {
            Sites::Chased { order, .. } => order.len(),
            Sites::Walked(hops) => hops.len(),
        }
    }

    /// The walked path, empty for a chased trace.
    fn hops(&self) -> &[Hop] {
        match self {
            Sites::Chased { .. } => &[],
            Sites::Walked(hops) => hops,
        }
    }
}

/// The chain state: a complete chase trace plus its cached likelihood.
struct Trace {
    sites: Sites,
    /// The emitted final world (auxiliary relations only under
    /// `keep_aux`), shared with its memo leaf when recorded.
    world: Arc<Instance>,
    /// Cached `observe::log_weight` of the full final instance (never
    /// `-inf` — invalid states are never accepted).
    log_like: f64,
}

/// A replayed run, walked or chased.
enum Replay {
    Run {
        sites: Sites,
        /// [`LaneObs::Weighted`] with the world's log-likelihood,
        /// [`LaneObs::Rejected`] when the evidence rules the world out,
        /// or [`LaneObs::Budget`].
        end: LaneObs,
        /// `Σ` over **reused** sites of (log-density under the replay's
        /// parameters − log-density recorded in the old trace): the prior
        /// correction term of the acceptance ratio.
        reused_delta: f64,
    },
    /// A reused draw has prior density 0 under its redrawn parameters
    /// (the proposal is then rejected outright — its target density is 0).
    Invalid,
}

/// A site the current trace does not hold.
const ABSENT: usize = usize::MAX;

/// One chain: its program and input snapshot, and the chase tree it has
/// recorded.
struct Chain<'a> {
    program: &'a CompiledProgram,
    prepared: &'a PreparedProgram,
    /// The chain's canonical chase at the input: built, indexed and its
    /// App(D) enumerated once, then cloned by every chased run.
    start: Chase,
    observes: &'a [CompiledObserve],
    max_steps: usize,
    keep_aux: bool,
    memo: &'a mut ChaseMemo,
    /// Per entry of the memo's site table, the site's position in the
    /// current trace's walked path, or [`ABSENT`].
    positions: Vec<usize>,
}

impl Chain<'_> {
    /// The values and log-density `trace` recorded for `site`.
    fn recorded(&self, trace: &Trace, site: &SiteKey) -> Option<(Vec<Value>, f64)> {
        match &trace.sites {
            Sites::Chased { records, .. } => records
                .get(site)
                .map(|rec| (rec.values.clone(), rec.log_density)),
            Sites::Walked(hops) => {
                let hop = hops.get(*self.positions.get(self.memo.find_site(site)?)?)?;
                let edge = self.memo.edge(hop.node, hop.edge);
                Some((edge.joint.clone(), edge.log_density))
            }
        }
    }

    /// Runs one sequential chase from the input snapshot under the
    /// canonical policy, **replaying** `prior`'s recorded draws where
    /// available: the `resample` site (and any site absent from the old
    /// trace) draws fresh from its prior; every other recorded site reuses
    /// its values, re-scored under the parameters the replay actually
    /// evaluates. Records the nodes it passes on the memo.
    fn traced_run(
        &mut self,
        prior: Option<(&Trace, &SiteKey)>,
        rng: &mut StdRng,
    ) -> Result<Replay, EngineError> {
        let (program, prepared) = (self.program, self.prepared);
        let mut chase = self.start.clone();
        let mut fires = Vec::new();
        let mut records: HashMap<SiteKey, SiteRecord> = HashMap::new();
        let mut order: Vec<SiteKey> = Vec::new();
        // The memo node the next draw or the end records into, while the
        // path is on the memo, and the edges it took.
        let mut node = self.memo.root();
        let mut hops = Vec::new();
        let mut reused_delta = 0.0;
        let outcome = loop {
            if let Some(outcome) = chase.next(prepared, program, self.max_steps, &mut fires) {
                break outcome;
            }
            let AppPair { rule, valuation } = fires.pop().expect("a sequential step fires");
            let e = match &program.rules[rule].kind {
                RuleKind::Deterministic { head } => {
                    chase.insert(prepared, head_fact(head, &valuation));
                    continue;
                }
                RuleKind::Existential(e) => e,
            };
            let key = eval_terms(&e.key_terms, &valuation);
            let site: SiteKey = (rule, Tuple::from(key.clone()));
            let recorded = match prior {
                Some((trace, resample)) if site != *resample => self.recorded(trace, &site),
                _ => None,
            };
            let fired = match recorded {
                Some((sampled, rec_log_density)) => {
                    let mut log_density = 0.0;
                    for (spec, value) in e.samples.iter().zip(&sampled) {
                        let params = eval_terms(&spec.param_terms, &valuation);
                        let ld = spec
                            .dist
                            .log_density(&params, value)
                            .map_err(EngineError::Dist)?;
                        if ld == f64::NEG_INFINITY {
                            return Ok(Replay::Invalid);
                        }
                        log_density += ld;
                    }
                    reused_delta += log_density - rec_log_density;
                    let mut values = key;
                    values.extend(sampled.iter().cloned());
                    let fact = Fact::new(e.aux_rel, Tuple::from(values));
                    Fired {
                        fact,
                        sampled,
                        log_density,
                    }
                }
                None => fire(&program.rules[rule], &valuation, rng).map_err(EngineError::Dist)?,
            };
            let (sampled, log_density) = (&fired.sampled, fired.log_density);
            let hop =
                node.and_then(|at| self.record(at, &site, e, &valuation, sampled, log_density));
            node = hop.map(|hop| {
                hops.push(hop);
                self.memo.edge(hop.node, hop.edge).node
            });
            records.insert(
                site.clone(),
                SiteRecord {
                    values: fired.sampled,
                    log_density,
                },
            );
            order.push(site);
            chase.insert(prepared, fired.fact);
        };
        let end = match outcome {
            RunOutcome::BudgetExhausted => LaneObs::Budget,
            RunOutcome::Terminated => {
                let instance = chase.state.into_instance();
                let log_like = observe::log_weight(self.observes, &instance)?;
                if log_like == f64::NEG_INFINITY {
                    LaneObs::Rejected
                } else {
                    let world = if self.keep_aux {
                        instance
                    } else {
                        program.project_output(&instance)
                    };
                    LaneObs::Weighted(Arc::new(world), log_like)
                }
            }
        };
        if let Some(at) = node {
            // An unconditioned end is recorded as lane groups record it:
            // the bare world, whose log-likelihood is 0.
            match (&end, self.observes.is_empty()) {
                (LaneObs::Weighted(world, _), true) => self
                    .memo
                    .record_leaf(at, &LaneObs::World(Arc::clone(world))),
                _ => self.memo.record_leaf(at, &end),
            }
        }
        let sites = match node.map(|at| self.memo.node(at)) {
            Some(Node::Leaf(_)) => Sites::Walked(hops),
            _ => Sites::Chased { records, order },
        };
        Ok(Replay::Run {
            sites,
            end,
            reused_delta,
        })
    }

    /// Records the firing of `site` — experiment `e` under `valuation`,
    /// its outcomes `joint` and their log-density — at memo `node`;
    /// returns the edge taken while the run's path stays on the memo.
    fn record(
        &mut self,
        node: usize,
        site: &SiteKey,
        e: &ExistentialHead,
        valuation: &Tuple,
        joint: &[Value],
        log_density: f64,
    ) -> Option<Hop> {
        let mut specs: Vec<Spec> = Vec::new();
        if matches!(self.memo.node(node), Node::Open) {
            specs = e
                .samples
                .iter()
                .map(|spec| {
                    let params = eval_terms(&spec.param_terms, valuation);
                    (Arc::clone(&spec.dist), params)
                })
                .collect();
        }
        if !self.memo.record_draws(node, &specs, Some(site)) {
            return None;
        }
        let edge = self.memo.follow(node, joint, log_density)?;
        let Node::Draws { site: Some(id), .. } = self.memo.node(node) else {
            unreachable!("the chain records its site at every step")
        };
        debug_assert!(self.memo.site(*id) == site, "one site per node");
        Some(Hop {
            site: *id,
            node,
            edge,
        })
    }

    /// Replays the proposal that redraws site `resample` of the walked
    /// trace `hops` down the memo, drawing from `rng` exactly as
    /// [`Chain::traced_run`] would; `None` once the walk leaves the memo
    /// (an unrecorded node or joint, or a failing draw), with `rng`
    /// partly consumed.
    fn walk(&self, hops: &[Hop], resample: usize, rng: &mut StdRng) -> Option<Replay> {
        let mut path = Vec::with_capacity(hops.len());
        let mut joint = Vec::new();
        let mut reused_delta = 0.0;
        let mut node = 0;
        loop {
            let (site, specs, children) = match self.memo.node(node) {
                Node::Open => return None,
                Node::Leaf(end) => {
                    let end = match end {
                        LaneObs::World(world) => LaneObs::Weighted(Arc::clone(world), 0.0),
                        end => end.clone(),
                    };
                    return Some(Replay::Run {
                        sites: Sites::Walked(path),
                        end,
                        reused_delta,
                    });
                }
                Node::Draws {
                    site,
                    specs,
                    children,
                } => (site.expect("the chain records its sites"), specs, children),
            };
            let reused = match self.positions.get(site) {
                Some(&at) if site != resample => hops.get(at),
                _ => None,
            };
            let edge = match reused {
                Some(hop) => {
                    // The recorded edge's density is this site's
                    // log-density under the node's parameters.
                    let old = self.memo.edge(hop.node, hop.edge);
                    let edge = if hop.node == node {
                        hop.edge
                    } else {
                        children.iter().position(|edge| edge.joint == old.joint)?
                    };
                    reused_delta += children[edge].log_density - old.log_density;
                    edge
                }
                None => {
                    joint.clear();
                    for (dist, params) in specs {
                        joint.push(dist.sample(params, rng).ok()?);
                    }
                    children.iter().position(|edge| edge.joint == joint)?
                }
            };
            path.push(Hop { site, node, edge });
            node = children[edge].node;
        }
    }

    /// Points the site positions from the walked path `from` to `to`.
    fn repoint(&mut self, from: &[Hop], to: &[Hop]) {
        for hop in from {
            self.positions[hop.site] = ABSENT;
        }
        self.positions.resize(self.memo.site_count(), ABSENT);
        for (at, hop) in to.iter().enumerate() {
            self.positions[hop.site] = at;
        }
    }

    /// Attempts one Metropolis-Hastings transition of `current`, mutating
    /// it in place on acceptance. Returns `None` when the trace has no
    /// sampling sites (a deterministic program — the chain has one
    /// state), else whether the proposal was accepted.
    fn step(&mut self, current: &mut Trace, rng: &mut StdRng) -> Result<Option<bool>, EngineError> {
        let n = current.sites.len();
        if n == 0 {
            return Ok(None);
        }
        let pick = rng.gen_index(n);
        let walked = match &current.sites {
            Sites::Walked(hops) => {
                let mut snapshot = rng.clone();
                let replay = self.walk(hops, hops[pick].site, &mut snapshot);
                if replay.is_some() {
                    *rng = snapshot;
                }
                replay
            }
            Sites::Chased { .. } => None,
        };
        let replay = match walked {
            Some(replay) => replay,
            None => {
                #[cfg(test)]
                {
                    self.memo.paths += 1;
                }
                let site = match &current.sites {
                    Sites::Chased { order, .. } => order[pick].clone(),
                    Sites::Walked(hops) => self.memo.site(hops[pick].site).clone(),
                };
                self.traced_run(Some((current, &site)), rng)?
            }
        };
        let (sites, world, log_like, reused_delta) = match replay {
            Replay::Run {
                sites,
                end: LaneObs::Weighted(world, log_like),
                reused_delta,
            } => (sites, world, log_like, reused_delta),
            // A reused draw with prior density 0, a replay that exhausted
            // the step budget (conditioning is taken given termination),
            // or a world the evidence rules out: target density 0 — reject.
            _ => return Ok(Some(false)),
        };
        // Lightweight-MH acceptance: likelihood ratio, prior correction for
        // reused draws whose parameters moved, and the site-count asymmetry
        // of the uniform single-site proposal. Fresh, stale, and resampled
        // draws cancel between target and proposal densities.
        let n_new = sites.len();
        let log_alpha =
            (log_like - current.log_like) + reused_delta + (n as f64).ln() - (n_new as f64).ln();
        let accept = if log_alpha.is_nan() {
            false
        } else {
            log_alpha >= 0.0 || rng.gen_f64().ln() < log_alpha
        };
        if accept {
            self.repoint(current.sites.hops(), sites.hops());
            *current = Trace {
                sites,
                world,
                log_like,
            };
        }
        Ok(Some(accept))
    }
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
/// consume one deterministic PRNG stream. The deadline is checked before
/// every proposal.
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

    /// Runs the chain of `job` into `sink`, recording its chase tree on
    /// `memo`.
    fn run_on(
        &self,
        job: &EvalJob<'_>,
        sink: &mut dyn WorldSink,
        memo: &mut ChaseMemo,
    ) -> Result<(), EngineError> {
        let (program, input, opts) = (job.program, job.input, job.options);
        let kept = opts.runs;
        if kept == 0 {
            return Ok(());
        }
        let prepared = job.plans();
        let policy = ChasePolicy::Canonical;
        let mut start = Chase::new(&prepared, program, input.clone(), SEQUENTIAL, policy);
        // A zero budget enumerates App(D) and fires nothing.
        start.next(&prepared, program, 0, &mut Vec::new());
        let mut chain = Chain {
            program,
            prepared: &prepared,
            start,
            observes: job.observes,
            max_steps: opts.max_depth,
            keep_aux: opts.keep_aux,
            memo,
            positions: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(opts.seed);

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
            let Replay::Run { sites, end, .. } = chain.traced_run(None, &mut rng)? else {
                unreachable!("a fresh run reuses no draws");
            };
            if let LaneObs::Weighted(world, log_like) = end {
                if log_like > f64::NEG_INFINITY {
                    current = Some(Trace {
                        sites,
                        world,
                        log_like,
                    });
                    break;
                }
            }
        }
        let Some(mut current) = current else {
            return Err(EngineError::ZeroEvidence);
        };
        chain.repoint(&[], current.sites.hops());

        let mut step = |current: &mut Trace, rng: &mut StdRng| -> Result<(), EngineError> {
            check_deadline(opts.deadline)?;
            if let Some(accepted) = chain.step(current, rng)? {
                self.proposed.fetch_add(1, Ordering::Relaxed);
                if accepted {
                    self.accepted.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(())
        };

        for _ in 0..opts.burn_in {
            step(&mut current, &mut rng)?;
        }
        let thin = opts.thin.max(1);
        let conditioned = !job.observes.is_empty();
        let log_share = -((kept as f64).ln());
        for _ in 0..kept {
            for _ in 0..thin {
                step(&mut current, &mut rng)?;
            }
            if conditioned {
                sink.observe_log_ref(&current.world, log_share);
            } else {
                sink.observe_ref(&current.world, 1.0 / kept as f64);
            }
        }
        Ok(())
    }
}

impl Backend for MhBackend {
    fn name(&self) -> &'static str {
        "metropolis-hastings"
    }

    fn run(&self, job: &EvalJob<'_>, sink: &mut dyn WorldSink) -> Result<(), EngineError> {
        on_memo(job, SEQUENTIAL, ChaseMemo::chain(), |memo| {
            self.run_on(job, sink, memo)
        })
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

    /// One emitted state: the world, its weight's bits, and whether the
    /// weight came in log space.
    type Emitted = (Instance, u64, bool);

    /// Records the chain's stream in order.
    #[derive(Default)]
    struct StreamSink(Vec<Emitted>);

    impl WorldSink for StreamSink {
        fn observe(&mut self, world: Instance, weight: f64) {
            self.0.push((world, weight.to_bits(), false));
        }
        fn observe_log(&mut self, world: Instance, log_weight: f64) {
            self.0.push((world, log_weight.to_bits(), true));
        }
        fn observe_deficit(&mut self, _kind: gdatalog_pdb::DeficitKind, _weight: f64) {
            panic!("a chain emits no deficit");
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    /// One chain of `src` under `given` on `memo`: its stream and its
    /// (accepted, proposed) counters.
    fn chain_on(
        src: &str,
        given: &str,
        opts: EvalOptions,
        memo: &mut ChaseMemo,
    ) -> (Vec<Emitted>, (u64, u64)) {
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
        let mut sink = StreamSink::default();
        backend.run_on(&job, &mut sink, memo).unwrap();
        let counters = (
            backend.accepted.load(Ordering::Relaxed),
            backend.proposed.load(Ordering::Relaxed),
        );
        (sink.0, counters)
    }

    /// Runs the chain on a recording memo and on one that never records,
    /// asserts that both emit the same stream and counters, and returns
    /// the recording memo.
    fn assert_memo_changes_nothing(src: &str, given: &str, opts: EvalOptions) -> ChaseMemo {
        let mut memo = ChaseMemo::chain();
        let walked = chain_on(src, given, opts, &mut memo);
        let chased = chain_on(src, given, opts, &mut ChaseMemo::unrecorded());
        assert_eq!(walked.1, chased.1, "{src} | {given}: (accepted, proposed)");
        assert_eq!(walked.0.len(), chased.0.len(), "{src} | {given}");
        for (i, (a, b)) in walked.0.iter().zip(&chased.0).enumerate() {
            assert!(a == b, "{src} | {given}: kept state {i} differs");
        }
        memo
    }

    /// A recording memo that walked most proposals: a chain chases each
    /// proposal that leaves the memo and records at least one new leaf.
    fn assert_walked(memo: &ChaseMemo, proposed: usize) {
        let leaves = memo.leaves().len();
        assert!(leaves > 0, "the chain records its paths");
        assert!(
            memo.paths <= leaves && memo.paths * 10 < proposed,
            "{} proposals chased, {leaves} leaves recorded, {proposed} proposals",
            memo.paths
        );
    }

    /// The alarm network of the diagnosis benchmark, with three houses.
    const DIAGNOSIS: &str = r#"
        rel House(symbol) input.
        House(h1). House(h2). House(h3).
        Quake(Flip<0.05>) :- true.
        Burglary(H, Flip<0.1>) :- House(H).
        Trig(H, Flip<0.6>) :- House(H), Quake(1).
        Trig(H, Flip<0.9>) :- Burglary(H, 1).
        Alarm(H) :- Trig(H, 1).
        SeismoMean(1, 3.0).
        SeismoMean(0, 0.0).
    "#;

    #[test]
    fn walked_chain_equals_the_chased_chain() {
        for given in [
            "Alarm(h1). Alarm(h2).",
            "Alarm(h1). Normal<M, 1.0> == 2.4 :- Quake(Q), SeismoMean(Q, M).",
        ] {
            let opts = EvalOptions {
                runs: 1_000,
                seed: 3,
                burn_in: 2_000,
                ..EvalOptions::default()
            };
            let memo = assert_memo_changes_nothing(DIAGNOSIS, given, opts);
            assert_walked(&memo, 3_000);
        }

        // Unconditioned and thinned, with and without the auxiliary
        // relations in the emitted worlds.
        let flips =
            "R(Flip<0.5>) :- true. S(Flip<0.8>) :- R(1). T(Categorical<1, 1.0, 2, 3.0>) :- S(0).";
        for keep_aux in [false, true] {
            let opts = EvalOptions {
                runs: 500,
                seed: 9,
                burn_in: 100,
                thin: 3,
                keep_aux,
                ..EvalOptions::default()
            };
            let memo = assert_memo_changes_nothing(flips, "", opts);
            assert_walked(&memo, 1_600);
        }

        // A recursive program whose runs often exhaust a small step
        // budget: its budget ends are recorded and walked too.
        let walk = "Succ(0, 1). Succ(1, 2). Succ(2, 3). Succ(3, 4). Succ(4, 5). P(0).
                    Go(X, Flip<0.7>) :- P(X). P(Y) :- Go(X, 1), Succ(X, Y).";
        let opts = EvalOptions {
            runs: 1_000,
            seed: 4,
            burn_in: 100,
            max_depth: 8,
            ..EvalOptions::default()
        };
        let memo = assert_memo_changes_nothing(walk, "", opts);
        assert_walked(&memo, 1_100);
        assert!(memo
            .leaves()
            .iter()
            .any(|end| matches!(end, LaneObs::Budget)));

        // A continuous site leaves its node unrecorded.
        let opts = EvalOptions {
            runs: 300,
            seed: 5,
            burn_in: 50,
            ..EvalOptions::default()
        };
        let memo = assert_memo_changes_nothing(
            "M(Normal<0.0, 1.0>) :- true. Y(Normal<X, 0.5>) :- M(X).",
            "Normal<Y, 1.0> == 1.5 :- Y(Y).",
            opts,
        );
        assert_eq!(memo.recorded(), 0);
    }

    #[test]
    fn deadline_is_checked_on_every_proposal() {
        let s = session("R(Flip<0.5>) :- true. S(Flip<0.8>) :- R(1).");
        let began = std::time::Instant::now();
        let err = s
            .eval()
            .mh(10)
            .thin(1_000_000)
            .deadline(began + std::time::Duration::from_millis(50))
            .worlds()
            .unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded), "{err:?}");
        assert!(
            began.elapsed() < std::time::Duration::from_secs(1),
            "returned after {:?}",
            began.elapsed()
        );
    }

    #[test]
    fn deterministic_program_has_single_state_chain() {
        let s = session("E(1, 2). T(X, Y) :- E(X, Y).");
        let worlds = s.eval().mh(50).worlds().unwrap();
        assert_eq!(worlds.len(), 1);
        assert!((worlds.mass() - 1.0).abs() < 1e-9);
    }
}
