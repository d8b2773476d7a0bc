//! Batched Monte-Carlo execution: lane groups in lockstep over a shared
//! chase state, and a per-worker memo of the chase tree they walk. This
//! is the one executor that turns run indices into Monte-Carlo
//! observations, for every [`ChaseVariant`].
//!
//! The chase is embarrassingly parallel across runs, and with per-run
//! derived RNG streams ([`crate::mc::derive_seed`]) the runs of a batch
//! can be driven *together* without changing any run's result. A group
//! steps through the chase stepper of the scalar loop behind
//! [`crate::sequential::run_sequential_prepared`],
//! [`crate::parallel::run_parallel_prepared`] and
//! [`crate::saturate::run_saturating_prepared`] (`sequential::Chase`:
//! the same selection, insertion and step accounting); as long as lane
//! `i`'s RNG consumes exactly the draws that loop, seeded with
//! `derive_seed(seed, i)`, would feed it, the lane's world is
//! bit-identical, regardless of how lanes are grouped or interleaved.
//!
//! The executor keeps the batch as **lane groups**: a group is a set of
//! runs whose chase states are still identical — one shared chase
//! (instance, maintained index, cached `App(D)`, policy state and step
//! count), plus one RNG per lane. Every run of a batch starts in a single
//! root group (the deterministic prefix — rules firing before the first
//! Ψ-atom — is therefore executed exactly once and shared by all lanes),
//! and a group only *splits* when an existential firing (one sequential
//! step, or a whole parallel round) draws diverging outcomes: lanes are
//! partitioned by their joint outcome vector (first-occurrence order), the
//! first partition continues on the group's state in place, and each later
//! partition clones the state — cached `App(D)` included — once. Continuous
//! programs degenerate to one lane per group after the first continuous
//! sample — still amortizing the shared prefix, the applicability probes
//! before the fork, and the batched kernel calls. `Random`-policy runs
//! select from a per-run derived stream, so no two lanes share a selection
//! state: their batch starts as one group per lane.
//!
//! Sharing also spans batches, and the adaptive driver's rounds. A
//! Monte-Carlo run is a random walk down the chase tree (Def. 4.2), and
//! for a discrete program runs drawing the same outcomes reach the same
//! node, so a [`ChaseMemo`] records the tree the group loop has chased: at
//! each existential step or parallel round, the draws' families and
//! evaluated parameters, one child per joint outcome, and at each leaf the
//! terminal observation with its evidence log-likelihood. The caller keeps
//! one memo per worker slot for the whole evaluation — every batch of a
//! fixed-run pass, every round of an ESS-targeted one — and hands the
//! memos to the scoped workers of each pass; input, evidence and options
//! are fixed within one evaluation, so every recorded node stays valid
//! for as long as the memo lives. A batch first **walks** the memo, lane
//! by lane: each lane draws at each recorded node exactly as the group
//! loop would, then follows the edge of its outcomes with no chase state,
//! no `App(D)` work, no insert and no per-lane allocation. Lanes whose
//! outcomes leave the recorded tree are chased from their run's seed by
//! the group loop, which records the nodes it passes. Only discrete draws are
//! recorded (a continuous draw ends the memo path), nothing is recorded at
//! batch 1 or under the `Random` policy, the memo never holds a chase
//! state, and recording stops at a fixed size; a memo that stops growing
//! while resolving less than half of a batch is dropped.
//!
//! The same node store serves the Metropolis-Hastings chain
//! ([`crate::mcmc`]), whose replays are walks down the canonical chase's
//! tree: there a recorded step also names its sampling site (the rule and
//! its evaluated key), each edge carries its joint's log-density (the
//! chain's prior correction), and a leaf holds the chain's end — the
//! emitted world with its log-likelihood, a world the evidence rules out,
//! or an exhausted budget.
//!
//! Sampling inside a group is **spec-major** via
//! [`gdatalog_dist::ParamDist::sample_batch`], the trait's scalar loop
//! over `sample`: parameters are evaluated once per spec (they are a
//! function of the valuation, shared by the whole group) and each lane's
//! RNG is touched once per spec in spec order — exactly the per-run draw
//! order of [`crate::sequential::fire`]. The memo walk draws the same
//! specs in the same order with [`gdatalog_dist::ParamDist::sample`]
//! itself, so every family draws through one function.
//!
//! Lane-partition equality uses `Value`'s total equality (`-0.0` is
//! normalized at construction and NaN rejected), so two lanes merge only
//! when their sampled values are the same points of the value domain —
//! their futures are then provably identical.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use gdatalog_data::{Fact, Instance, RelId, Tuple, Value};
use gdatalog_dist::{DistError, ParamDist};
use gdatalog_lang::{CompiledObserve, CompiledProgram, ExistentialHead, RuleKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::applicability::{eval_terms, head_fact, AppPair, PreparedProgram};
use crate::backend::{EvalJob, EvalOptions};
use crate::mc::{derive_seed, ChaseVariant};
use crate::observe;
use crate::policy::{ChasePolicy, PolicyKind};
use crate::sequential::{Chase, RunOutcome};
use crate::EngineError;

/// Per-lane result of a batched execution. Terminated lanes of one group
/// (or one memo leaf) share their projected world through an [`Arc`] (a
/// memo leaf moves with its memo between the workers of successive
/// passes), so a group of N identical runs materializes its world once.
#[derive(Debug, Clone)]
pub(crate) enum LaneObs {
    /// The lane terminated with this world (post `keep_aux` projection);
    /// the evaluation is unconditioned.
    World(Arc<Instance>),
    /// The lane terminated with this world; the evaluation is
    /// conditioned, and the second field is the evidence's log-likelihood
    /// of the world (never `-inf`).
    Weighted(Arc<Instance>, f64),
    /// The lane terminated in a world the evidence rules out.
    Rejected,
    /// The lane exhausted the step budget (the error event `err`).
    Budget,
    /// A runtime distribution or likelihood failure. The whole group of
    /// the failing lane is marked failed: parameters are shared
    /// group-wide, so for the standard family the error is
    /// lane-independent.
    Failed(EngineError),
}

/// One draw of a step: the family and its evaluated parameters.
pub(crate) type Spec = (Arc<dyn ParamDist>, Vec<Value>);

/// The memo stops recording once it holds this many cells: one per node,
/// plus one per fact of a recorded world.
const MEMO_CELLS: usize = 1 << 14;

/// One node of the recorded chase tree.
pub(crate) enum Node {
    /// Reached, but not recorded: lanes arriving here are chased.
    Open,
    /// An existential step or parallel round whose draws are all
    /// discrete, in firing order, with one child per joint outcome. A
    /// node has few children (one per outcome path seen), so they are
    /// searched linearly.
    Draws {
        /// The step's sampling site, as an index into the memo's site
        /// table: recorded by the MH chain, `None` for lane groups.
        site: Option<usize>,
        specs: Vec<Spec>,
        children: Vec<Edge>,
    },
    /// A terminal observation (never [`LaneObs::Failed`]).
    Leaf(LaneObs),
}

/// One child of a [`Node::Draws`]: a joint outcome of the node's draws.
pub(crate) struct Edge {
    pub(crate) joint: Vec<Value>,
    /// The MH chain's log-density of the joint under the node's
    /// parameters, summed in spec order: finite, and computed without
    /// error, when recorded. Lane groups, which never read it, record 0.
    pub(crate) log_density: f64,
    pub(crate) node: usize,
}

/// A sampling site's address: the existential rule that fired and its
/// evaluated key terms.
pub(crate) type SiteKey = (usize, Tuple);

/// The chase tree recorded across the lane batches and passes of one
/// evaluation by one worker slot, or across the proposals of one MH
/// chain (see the module docs). Node 0 is the root: the first step that
/// draws, from the job's input.
pub(crate) struct ChaseMemo {
    nodes: Vec<Node>,
    /// Nodes plus the facts of recorded worlds; see [`MEMO_CELLS`].
    cells: usize,
    /// Whether batches walk the memo and the group loop records into it.
    active: bool,
    /// The site table of the MH chain's nodes, and its index.
    sites: Vec<SiteKey>,
    site_ids: HashMap<SiteKey, usize>,
    /// Paths the group loop chased to their end (for the MH chain:
    /// proposals it chased), and the steps or rounds it ran.
    #[cfg(test)]
    pub(crate) paths: usize,
    #[cfg(test)]
    steps: usize,
}

impl ChaseMemo {
    /// An empty memo for the batches of one evaluation under `options`:
    /// inactive at batch 1 (the unshared reference) and under the
    /// `Random` policy (no two runs share a selection state).
    pub(crate) fn new(options: &EvalOptions) -> ChaseMemo {
        let random = matches!(
            options.variant,
            ChaseVariant::Sequential(PolicyKind::Random { .. })
        );
        ChaseMemo::with_active(options.batch > 1 && !random)
    }

    /// An empty memo for one MH chain, which always records.
    pub(crate) fn chain() -> ChaseMemo {
        ChaseMemo::with_active(true)
    }

    /// A memo that never records: the unshared reference of the MH chain.
    #[cfg(test)]
    pub(crate) fn unrecorded() -> ChaseMemo {
        ChaseMemo::with_active(false)
    }

    fn with_active(active: bool) -> ChaseMemo {
        ChaseMemo {
            nodes: vec![Node::Open],
            cells: 1,
            active,
            sites: Vec::new(),
            site_ids: HashMap::new(),
            #[cfg(test)]
            paths: 0,
            #[cfg(test)]
            steps: 0,
        }
    }

    /// The root, when the memo records; `None` when it never does.
    pub(crate) fn root(&self) -> Option<usize> {
        self.active.then_some(0)
    }

    pub(crate) fn node(&self, node: usize) -> &Node {
        &self.nodes[node]
    }

    /// Edge `edge` of recorded `node`.
    pub(crate) fn edge(&self, node: usize, edge: usize) -> &Edge {
        match &self.nodes[node] {
            Node::Draws { children, .. } => &children[edge],
            _ => unreachable!("an edge hangs off a recorded step"),
        }
    }

    /// The site table's index of `key`, if a node records it.
    pub(crate) fn find_site(&self, key: &SiteKey) -> Option<usize> {
        self.site_ids.get(key).copied()
    }

    pub(crate) fn site(&self, site: usize) -> &SiteKey {
        &self.sites[site]
    }

    /// How many sites the site table holds.
    pub(crate) fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Walks each lane of `range` from its run's seed down the recorded
    /// tree, filling `results` for the lanes that reach a leaf, and
    /// returns the batch-local lanes left to chase, in ascending order.
    ///
    /// At each recorded node a lane draws the node's specs in firing order
    /// with [`ParamDist::sample`] into one reused joint buffer and follows
    /// the child of that joint. The walk computes no log-density: a
    /// recorded edge's joint had its log-density under the node's exact
    /// parameters computed without error when the group loop recorded it,
    /// so a lane following it would compute the same value again. A lane
    /// that draws an unrecorded joint (or whose draw fails) goes to the
    /// group loop, which redoes everything — draws, densities, errors —
    /// from the run's seed.
    fn walk(&self, seed: u64, range: Range<usize>, results: &mut [Option<LaneObs>]) -> Vec<usize> {
        if !self.active || matches!(self.nodes[0], Node::Open) {
            return (0..range.len()).collect();
        }
        let mut chase = Vec::new();
        let mut joint = Vec::new();
        for (lane, run_ix) in range.enumerate() {
            match self.leaf(&mut lane_rng(seed, run_ix), &mut joint) {
                Some(obs) => results[lane] = Some(obs.clone()),
                None => chase.push(lane),
            }
        }
        chase
    }

    /// The recorded leaf one lane's draws from `rng` lead to, if its path
    /// stays on the memo.
    fn leaf(&self, rng: &mut StdRng, joint: &mut Vec<Value>) -> Option<&LaneObs> {
        let mut node = 0;
        loop {
            match &self.nodes[node] {
                Node::Open => return None,
                Node::Leaf(obs) => return Some(obs),
                Node::Draws {
                    specs, children, ..
                } => {
                    joint.clear();
                    for (dist, params) in specs {
                        joint.push(dist.sample(params, rng).ok()?);
                    }
                    node = children.iter().find(|edge| edge.joint == *joint)?.node;
                }
            }
        }
    }

    /// Records `specs` at `node`, and the MH chain's `site` in the site
    /// table, if the node is open and every draw is discrete; returns
    /// whether the run stays on the memo.
    pub(crate) fn record_draws(
        &mut self,
        node: usize,
        specs: &mut Vec<Spec>,
        site: Option<&SiteKey>,
    ) -> bool {
        match &self.nodes[node] {
            Node::Draws { .. } => true,
            Node::Open if specs.iter().all(|(dist, _)| dist.is_discrete()) => {
                let site = site.map(|key| {
                    let next = self.sites.len();
                    let id = *self.site_ids.entry(key.clone()).or_insert(next);
                    if id == next {
                        self.sites.push(key.clone());
                    }
                    id
                });
                self.cells += specs.len();
                self.nodes[node] = Node::Draws {
                    site,
                    specs: std::mem::take(specs),
                    children: Vec::new(),
                };
                true
            }
            _ => false,
        }
    }

    /// The index of recorded `node`'s edge along `joint`, whose
    /// log-density is `log_density`; a new edge opens its child if the
    /// density is finite and the memo has room.
    pub(crate) fn follow(
        &mut self,
        node: usize,
        joint: &[Value],
        log_density: f64,
    ) -> Option<usize> {
        let next = self.nodes.len();
        let full = self.cells >= MEMO_CELLS;
        let Node::Draws { children, .. } = &mut self.nodes[node] else {
            unreachable!("a run on the memo sits at a recorded step")
        };
        if let Some(edge) = children.iter().position(|edge| edge.joint == joint) {
            return Some(edge);
        }
        if full || !log_density.is_finite() {
            return None;
        }
        children.push(Edge {
            joint: joint.to_vec(),
            log_density,
            node: next,
        });
        let edge = children.len() - 1;
        self.nodes.push(Node::Open);
        self.cells += 1;
        Some(edge)
    }

    /// The child of recorded `node` along `joint`; see [`ChaseMemo::follow`].
    /// Lane groups never read an edge's log-density, so they record 0.
    fn child(&mut self, node: usize, joint: &[Value]) -> Option<usize> {
        let edge = self.follow(node, joint, 0.0)?;
        Some(self.edge(node, edge).node)
    }

    /// Records a group's terminal observation at its open `node`, unless
    /// it failed or its world does not fit.
    pub(crate) fn record_leaf(&mut self, node: usize, obs: &LaneObs) {
        let size = match obs {
            LaneObs::World(world) | LaneObs::Weighted(world, _) => world.len(),
            LaneObs::Rejected | LaneObs::Budget => 0,
            LaneObs::Failed(_) => return,
        };
        if matches!(self.nodes[node], Node::Open) && self.cells + size <= MEMO_CELLS {
            self.cells += size;
            self.nodes[node] = Node::Leaf(obs.clone());
        }
    }

    /// How many nodes hold a recorded step or leaf.
    #[cfg(test)]
    pub(crate) fn recorded(&self) -> usize {
        self.nodes
            .iter()
            .filter(|node| !matches!(node, Node::Open))
            .count()
    }

    /// The recorded leaves' observations.
    #[cfg(test)]
    pub(crate) fn leaves(&self) -> Vec<&LaneObs> {
        self.nodes
            .iter()
            .filter_map(|node| match node {
                Node::Leaf(obs) => Some(obs),
                _ => None,
            })
            .collect()
    }

    /// Drops a memo that recorded nothing during a batch and resolved
    /// less than half of it: walking it costs more draws than it saves.
    fn settle(&mut self, cells_before: usize, lanes: usize, chased: usize) {
        if self.active && self.cells == cells_before && 2 * chased > lanes {
            self.active = false;
            self.nodes = vec![Node::Open];
        }
    }
}

/// Run `run_ix`'s Monte-Carlo stream.
fn lane_rng(seed: u64, run_ix: usize) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, run_ix as u64))
}

/// Partitions `lanes` lanes by their joint outcomes, stored spec-major in
/// `outcomes` (draw `s` of lane `l` at `s * lanes + l`): each lane's part
/// index, and each part's joint outcome vector, in first-occurrence
/// order.
fn partition(outcomes: &[Value], lanes: usize) -> (Vec<usize>, Vec<Vec<Value>>) {
    let joint = |lane: usize| outcomes.iter().skip(lane).step_by(lanes);
    let mut joints: Vec<Vec<Value>> = Vec::new();
    let tags = (0..lanes)
        .map(|lane| {
            let found = joints.iter().position(|j| j.iter().eq(joint(lane)));
            found.unwrap_or_else(|| {
                joints.push(joint(lane).cloned().collect());
                joints.len() - 1
            })
        })
        .collect();
    (tags, joints)
}

/// The lanes of part `tag` (see [`partition`]) and copies of their RNGs.
fn part(tags: &[usize], tag: usize, lanes: &[usize], rngs: &[StdRng]) -> (Vec<usize>, Vec<StdRng>) {
    tags.iter()
        .zip(lanes.iter().zip(rngs))
        .filter(|(t, _)| **t == tag)
        .map(|(_, (&lane, rng))| (lane, rng.clone()))
        .unzip()
}

/// Keeps only the lanes of part 0 (see [`partition`]), in place.
fn keep_first_part(tags: &[usize], lanes: &mut Vec<usize>, rngs: &mut Vec<StdRng>) {
    if tags.iter().any(|&tag| tag != 0) {
        let mut keep = tags.iter().map(|&tag| tag == 0);
        lanes.retain(|_| keep.next() == Some(true));
        let mut keep = tags.iter().map(|&tag| tag == 0);
        rngs.retain(|_| keep.next() == Some(true));
    }
}

/// A set of runs whose chase states are still identical.
struct Group {
    /// Batch-local lane indices (positions into the result vector).
    lanes: Vec<usize>,
    /// One RNG per lane, parallel to `lanes`.
    rngs: Vec<StdRng>,
    /// The shared chase — instance, index, cached `App(D)`, policy state
    /// and steps; cloned on a split.
    chase: Chase,
    /// The memo node the group's next draw or end records into, while
    /// the group's path is on the memo.
    node: Option<usize>,
}

/// The experiments one chase step or parallel round fired, with every
/// lane's outcomes of them, awaiting the split.
#[derive(Default)]
struct Draws {
    /// Per experiment, in firing order: its auxiliary relation, its key
    /// values, and how many outcomes each lane drew for it.
    experiments: Vec<(RelId, Vec<Value>, usize)>,
    /// Every draw, in firing order.
    specs: Vec<Spec>,
    /// Every lane's outcome of every draw, spec-major.
    outcomes: Vec<Value>,
}

impl Draws {
    /// Samples experiment `e` under `valuation` in every lane, spec-major.
    /// The scalar loop's `fire` computes every outcome's log-density
    /// (the run's log-weight); this matches its work and its error
    /// surface, discarding the values — emission recomputes the
    /// conditioned weight from the final world. The memo walk skips the
    /// densities of recorded edges, which this computed when it recorded
    /// them (see [`ChaseMemo::walk`]).
    fn sample(
        &mut self,
        e: &ExistentialHead,
        valuation: &Tuple,
        rngs: &mut [StdRng],
    ) -> Result<(), DistError> {
        let mut densities = Vec::with_capacity(rngs.len());
        for spec in &e.samples {
            let params = eval_terms(&spec.param_terms, valuation);
            let start = self.outcomes.len();
            spec.dist.sample_batch(&params, rngs, &mut self.outcomes)?;
            densities.clear();
            spec.dist
                .log_density_batch(&params, &self.outcomes[start..], &mut densities)?;
            self.specs.push((Arc::clone(&spec.dist), params));
        }
        self.experiments.push((
            e.aux_rel,
            eval_terms(&e.key_terms, valuation),
            e.samples.len(),
        ));
        Ok(())
    }
}

impl Group {
    /// Fires the pairs of one step or parallel round in every lane.
    /// Deterministic facts go into the shared state at once (a round's
    /// pairs were fixed before it, and the instance is a set, so the
    /// insertion order within a round does not matter); existential pairs
    /// are sampled in every lane, spec-major. The group then splits: the
    /// lanes are partitioned by their joint outcomes (first-occurrence
    /// order), and each partition's experiment facts are inserted in
    /// firing order. Later partitions clone the chase once each and go
    /// onto the worklist; partition 0 keeps the group's chase in place.
    /// Most splits have one partition (discrete draws agree) or all
    /// singletons (continuous draws). A group on the memo records the
    /// draws and moves each partition to the child of its outcomes.
    fn fire(
        &mut self,
        program: &CompiledProgram,
        prepared: &PreparedProgram,
        fires: &mut Vec<AppPair>,
        memo: &mut ChaseMemo,
        worklist: &mut Vec<Group>,
    ) -> Result<(), DistError> {
        let mut draws = Draws::default();
        for AppPair { rule, valuation } in fires.drain(..) {
            match &program.rules[rule].kind {
                RuleKind::Deterministic { head } => {
                    self.chase.insert(prepared, head_fact(head, &valuation));
                }
                RuleKind::Existential(e) => draws.sample(e, &valuation, &mut self.rngs)?,
            }
        }
        let Draws {
            experiments,
            mut specs,
            outcomes,
        } = draws;
        if experiments.is_empty() {
            return Ok(());
        }
        let (tags, joints) = partition(&outcomes, self.lanes.len());
        let at = self
            .node
            .filter(|&node| memo.record_draws(node, &mut specs, None));
        let mut child = |joint: &[Value]| at.and_then(|node| memo.child(node, joint));
        let apply = |group: &mut Group, joint: Vec<Value>| {
            let mut outcomes = joint.into_iter();
            for (rel, key, width) in &experiments {
                let mut values = Vec::with_capacity(key.len() + width);
                values.extend_from_slice(key);
                values.extend(outcomes.by_ref().take(*width));
                let fact = Fact::new(*rel, Tuple::from(values));
                group.chase.insert(prepared, fact);
            }
        };
        let mut joints = joints.into_iter();
        let first = joints.next().expect("a non-empty group partitions");
        let first_node = child(&first);
        for (tag, joint) in (1..).zip(joints) {
            let (lanes, rngs) = part(&tags, tag, &self.lanes, &self.rngs);
            let mut spawned = Group {
                lanes,
                rngs,
                chase: self.chase.clone(),
                node: child(&joint),
            };
            apply(&mut spawned, joint);
            worklist.push(spawned);
        }
        keep_first_part(&tags, &mut self.lanes, &mut self.rngs);
        self.node = first_node;
        apply(self, first);
        Ok(())
    }
}

/// The observation of a terminated run with `world`: weighted by the
/// evidence's log-likelihood when conditioned.
fn terminal(world: Instance, observes: &[CompiledObserve]) -> LaneObs {
    if observes.is_empty() {
        return LaneObs::World(Arc::new(world));
    }
    match observe::log_weight(observes, &world) {
        Ok(lw) if lw == f64::NEG_INFINITY => LaneObs::Rejected,
        Ok(lw) => LaneObs::Weighted(Arc::new(world), lw),
        Err(err) => LaneObs::Failed(err),
    }
}

/// Executes the runs `range` of `job` as one batch and returns one
/// observation per lane, in run-index order. Each lane's outcome is
/// bit-identical to the scalar chase run of `job.options.variant` on the
/// same run index (same derived seeds, same draw order, same step
/// accounting); only the *work* is shared across lanes — within the batch
/// by lane groups, across batches through `memo` — never the randomness.
///
/// Deadline checks stay outside (cooperative at batch boundaries).
pub(crate) fn run_batch(
    job: &EvalJob<'_>,
    prepared: &PreparedProgram,
    existential: &[usize],
    memo: &mut ChaseMemo,
    range: Range<usize>,
) -> Vec<LaneObs> {
    if range.is_empty() {
        return Vec::new();
    }
    let mut results: Vec<Option<LaneObs>> = vec![None; range.len()];
    let chase = memo.walk(job.options.seed, range.clone(), &mut results);
    if !chase.is_empty() {
        let (cells, chased) = (memo.cells, chase.len());
        chase_lanes(
            job,
            prepared,
            existential,
            memo,
            range.start,
            chase,
            &mut results,
        );
        memo.settle(cells, range.len(), chased);
    }
    results
        .into_iter()
        .map(|obs| obs.expect("every lane is assigned exactly once"))
        .collect()
}

/// Chases the batch-local `lanes` of the batch starting at run `start`
/// through the group loop, from their runs' seeds, recording the paths
/// on the memo.
fn chase_lanes(
    job: &EvalJob<'_>,
    prepared: &PreparedProgram,
    existential: &[usize],
    memo: &mut ChaseMemo,
    start: usize,
    lanes: Vec<usize>,
    results: &mut [Option<LaneObs>],
) {
    let (program, options) = (job.program, job.options);
    let variant = options.variant;
    let kind = match variant {
        ChaseVariant::Sequential(kind) => kind,
        // The parallel and saturating chases read no policy.
        ChaseVariant::Parallel | ChaseVariant::Saturating => PolicyKind::Canonical,
    };
    // The root chase: the deterministic prefix below is shared by every
    // lane of a group.
    let policy = ChasePolicy::new(kind, existential);
    let root = Chase::new(prepared, program, job.input.clone(), variant, policy);
    let rng = |lane: usize| lane_rng(options.seed, start + lane);
    let mut worklist: Vec<Group> = match kind {
        PolicyKind::Random { seed } => lanes
            .iter()
            .map(|&lane| {
                let mut chase = root.clone();
                let seed = derive_seed(seed, (start + lane) as u64);
                chase.policy = ChasePolicy::new(PolicyKind::Random { seed }, existential);
                Group {
                    lanes: vec![lane],
                    rngs: vec![rng(lane)],
                    chase,
                    node: None,
                }
            })
            .collect(),
        _ => vec![Group {
            rngs: lanes.iter().map(|&lane| rng(lane)).collect(),
            lanes,
            chase: root,
            node: memo.active.then_some(0),
        }],
    };

    let mut fires = Vec::new();
    while let Some(mut group) = worklist.pop() {
        let obs = loop {
            match group
                .chase
                .next(prepared, program, options.max_depth, &mut fires)
            {
                Some(RunOutcome::Terminated) => {
                    // Project once, share across the group.
                    let world = if options.keep_aux {
                        group.chase.state.into_instance()
                    } else {
                        program.project_output(group.chase.state.instance())
                    };
                    break terminal(world, job.observes);
                }
                Some(RunOutcome::BudgetExhausted) => break LaneObs::Budget,
                None => {}
            }
            let fired = group.fire(program, prepared, &mut fires, memo, &mut worklist);
            #[cfg(test)]
            {
                memo.steps += 1;
            }
            if let Err(err) = fired {
                // Parameters are shared group-wide, so the error is
                // lane-independent for the standard family; a custom
                // member failing on one lane's outcome fails its whole
                // group (the batch boundary is the error granularity).
                break LaneObs::Failed(EngineError::Dist(err));
            }
        };
        if let Some(node) = group.node {
            memo.record_leaf(node, &obs);
        }
        #[cfg(test)]
        {
            memo.paths += 1;
        }
        for &lane in &group.lanes {
            results[lane] = Some(obs.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::run_parallel_prepared;
    use crate::saturate::run_saturating_prepared;
    use crate::sequential::{run_sequential_prepared, RunOutcome};
    use gdatalog_dist::Registry;
    use gdatalog_lang::{parse_program, translate, validate, SemanticsMode};
    use gdatalog_pdb::EmpiricalSink;

    fn compile(src: &str, mode: SemanticsMode) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, mode).unwrap()
    }

    fn existential_rules(program: &CompiledProgram) -> Vec<usize> {
        program
            .rules
            .iter()
            .filter(|r| r.is_existential())
            .map(|r| r.id)
            .collect()
    }

    /// Every chase variant the executor drives.
    const VARIANTS: [ChaseVariant; 7] = [
        ChaseVariant::Sequential(PolicyKind::Canonical),
        ChaseVariant::Sequential(PolicyKind::Reverse),
        ChaseVariant::Sequential(PolicyKind::RoundRobin),
        ChaseVariant::Sequential(PolicyKind::DeterministicFirst),
        ChaseVariant::Sequential(PolicyKind::Random { seed: 17 }),
        ChaseVariant::Parallel,
        ChaseVariant::Saturating,
    ];

    /// Run `run_ix` on the public reference loop of its variant: the run's
    /// RNG is seeded with `derive_seed(seed, run_ix)`, and a `Random`
    /// policy with `derive_seed(policy_seed, run_ix)`. `None` is the error
    /// event (budget exhausted).
    fn reference_obs(
        program: &CompiledProgram,
        prepared: &PreparedProgram,
        options: &EvalOptions,
        run_ix: usize,
    ) -> Option<Instance> {
        let input = &program.initial_instance;
        let mut rng = StdRng::seed_from_u64(derive_seed(options.seed, run_ix as u64));
        let run = match options.variant {
            ChaseVariant::Sequential(kind) => {
                let kind = match kind {
                    PolicyKind::Random { seed } => PolicyKind::Random {
                        seed: derive_seed(seed, run_ix as u64),
                    },
                    other => other,
                };
                let mut policy = ChasePolicy::new(kind, &existential_rules(program));
                run_sequential_prepared(
                    program,
                    prepared,
                    input,
                    &mut policy,
                    &mut rng,
                    options.max_depth,
                    false,
                )
            }
            ChaseVariant::Parallel => {
                run_parallel_prepared(program, prepared, input, &mut rng, options.max_depth, false)
            }
            ChaseVariant::Saturating => run_saturating_prepared(
                program,
                prepared,
                input,
                &mut rng,
                options.max_depth,
                false,
            ),
        }
        .unwrap();
        match run.outcome {
            RunOutcome::Terminated => Some(if options.keep_aux {
                run.instance
            } else {
                program.project_output(&run.instance)
            }),
            RunOutcome::BudgetExhausted => None,
        }
    }

    /// Drives `runs` runs through `run_batch` in lane batches of `batch`,
    /// on one memo as one worker does, and returns every lane's
    /// observation in run order.
    fn batched(
        program: &CompiledProgram,
        options: &EvalOptions,
        batch: usize,
        runs: usize,
    ) -> Vec<LaneObs> {
        batched_on(
            program,
            &[],
            options,
            batch,
            runs,
            &mut ChaseMemo::new(&EvalOptions { batch, ..*options }),
        )
    }

    /// [`batched`] under `observes`, on a caller's memo.
    fn batched_on(
        program: &CompiledProgram,
        observes: &[CompiledObserve],
        options: &EvalOptions,
        batch: usize,
        runs: usize,
        memo: &mut ChaseMemo,
    ) -> Vec<LaneObs> {
        let prepared = PreparedProgram::new(program);
        let existential = existential_rules(program);
        let job = EvalJob {
            program,
            prepared: Some(&prepared),
            input: &program.initial_instance,
            options,
            observes,
        };
        let mut out = Vec::with_capacity(runs);
        let mut lo = 0;
        while lo < runs {
            let hi = (lo + batch).min(runs);
            let lanes = run_batch(&job, &prepared, &existential, memo, lo..hi);
            assert_eq!(lanes.len(), hi - lo);
            out.extend(lanes);
            lo = hi;
        }
        out
    }

    /// Every lane equals the reference loop for its run index, for every
    /// variant, at batch 1, 7 and 64, with and without `keep_aux`. Returns
    /// how many lanes (over the whole matrix) exhausted the budget.
    fn assert_lanes_match_reference(
        src: &str,
        mode: SemanticsMode,
        seed: u64,
        max_depth: usize,
        runs: usize,
    ) -> usize {
        let program = compile(src, mode);
        let prepared = PreparedProgram::new(&program);
        let mut exhausted = 0;
        for variant in VARIANTS {
            for keep_aux in [false, true] {
                let options = EvalOptions {
                    seed,
                    max_depth,
                    variant,
                    keep_aux,
                    ..EvalOptions::default()
                };
                let reference: Vec<Option<Instance>> = (0..runs)
                    .map(|run_ix| reference_obs(&program, &prepared, &options, run_ix))
                    .collect();
                for batch in [1, 7, 64] {
                    let lanes = batched(&program, &options, batch, runs);
                    for (run_ix, (got, expect)) in lanes.iter().zip(&reference).enumerate() {
                        match (got, expect) {
                            (LaneObs::World(world), Some(expect)) => assert_eq!(
                                **world, *expect,
                                "{variant:?} keep_aux {keep_aux} batch {batch}: run {run_ix}"
                            ),
                            (LaneObs::Budget, None) => exhausted += 1,
                            (got, expect) => panic!(
                                "{variant:?} keep_aux {keep_aux} batch {batch}: run {run_ix} \
                                 gave {got:?}, reference {expect:?}"
                            ),
                        }
                    }
                }
            }
        }
        exhausted
    }

    const BURGLARY: &str = r#"
        rel City(symbol, real) input.
        City(gotham, 0.3).
        City(metropolis, 0.2).
        Earthquake(C, Flip<0.5>) :- City(C, R).
        Trig(X, Flip<0.6>) :- Earthquake(X, 1).
        Alarm(X) :- Trig(X, 1).
    "#;

    #[test]
    fn discrete_lanes_match_the_reference_loops() {
        let exhausted = assert_lanes_match_reference(BURGLARY, SemanticsMode::Grohe, 42, 1_000, 70);
        assert_eq!(exhausted, 0);
    }

    #[test]
    fn continuous_lanes_match_the_reference_loops() {
        let src = r#"
            M(Normal<0.0, 1.0>) :- true.
            Y(Normal<X, 0.5>) :- M(X).
            Out(X) :- Y(X).
        "#;
        assert_lanes_match_reference(src, SemanticsMode::Grohe, 7, 1_000, 70);
    }

    #[test]
    fn shared_experiments_match_the_reference_loops() {
        // Under Bárány semantics both rules demand one (Flip, 0.5)
        // experiment: a parallel round samples it once.
        let src = "R(Flip<0.5>) :- true. S(Flip<0.5>) :- true. T(X) :- R(X), S(X).";
        assert_lanes_match_reference(src, SemanticsMode::Barany, 5, 1_000, 70);
    }

    #[test]
    fn budget_exhaustion_matches_the_reference_loops() {
        let src = "C(0.0). C(Normal<V, 1.0>) :- C(V).";
        let exhausted = assert_lanes_match_reference(src, SemanticsMode::Grohe, 3, 30, 20);
        // Every lane of every cell of the matrix: 7 variants × 2 × 3 × 20.
        assert_eq!(exhausted, 7 * 2 * 3 * 20, "an a.s. non-terminating program");
    }

    #[test]
    fn parallel_run_absorbing_at_the_round_budget_terminates() {
        // Round 1 samples R's experiment, round 2 delivers R, round 3
        // derives S: the parallel run is absorbing after exactly 3 rounds,
        // and the sequential run after exactly 3 steps. Both test App(D)
        // before the budget, so both terminate at budget 3.
        let src = "R(Flip<0.5>) :- true. S(X) :- R(X).";
        let program = compile(src, SemanticsMode::Grohe);
        let lanes = |variant, max_depth| {
            let options = EvalOptions {
                seed: 9,
                max_depth,
                variant,
                ..EvalOptions::default()
            };
            batched(&program, &options, 7, 12)
        };
        let parallel = ChaseVariant::Parallel;
        let canonical = ChaseVariant::Sequential(PolicyKind::Canonical);
        assert!(lanes(parallel, 2)
            .iter()
            .all(|o| matches!(o, LaneObs::Budget)));
        assert!(lanes(parallel, 3)
            .iter()
            .all(|o| matches!(o, LaneObs::World(_))));
        assert!(lanes(parallel, 4)
            .iter()
            .all(|o| matches!(o, LaneObs::World(_))));
        assert!(lanes(canonical, 3)
            .iter()
            .all(|o| matches!(o, LaneObs::World(_))));
        assert_lanes_match_reference(src, SemanticsMode::Grohe, 9, 3, 12);
    }

    #[test]
    fn every_driver_spends_the_same_steps() {
        // Every run derives B(1), B(2), samples two experiments and
        // delivers them: a sequential run takes 6 steps (one per fact), a
        // parallel run 3 rounds (B, experiments, deliveries). The
        // saturating chase counts the 2 facts of its initial fixpoint,
        // then 2 per sampling step (the experiment and its delivery), and
        // tests the budget only before a sampling step: its last one
        // starts at 4 steps, so it needs a budget of 5 and ends at 6.
        let src = "A(1). A(2). B(X) :- A(X). R(X, Flip<0.5>) :- B(X).";
        let program = compile(src, SemanticsMode::Grohe);
        let prepared = PreparedProgram::new(&program);
        let input = &program.initial_instance;
        let runs = 64 * 4;
        for variant in VARIANTS {
            // The least budget that lets the run terminate, and the steps
            // the run then takes.
            let (k, spent) = match variant {
                ChaseVariant::Sequential(_) => (6, 6),
                ChaseVariant::Parallel => (3, 3),
                ChaseVariant::Saturating => (5, 6),
            };
            for (max_depth, terminates) in [(k, true), (k - 1, false)] {
                let options = EvalOptions {
                    seed: 2,
                    max_depth,
                    variant,
                    ..EvalOptions::default()
                };
                // The scalar loop.
                for seed in 0..8 {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let run = match variant {
                        ChaseVariant::Sequential(kind) => {
                            let mut policy = ChasePolicy::new(kind, &existential_rules(&program));
                            run_sequential_prepared(
                                &program,
                                &prepared,
                                input,
                                &mut policy,
                                &mut rng,
                                max_depth,
                                false,
                            )
                        }
                        ChaseVariant::Parallel => run_parallel_prepared(
                            &program, &prepared, input, &mut rng, max_depth, false,
                        ),
                        ChaseVariant::Saturating => run_saturating_prepared(
                            &program, &prepared, input, &mut rng, max_depth, false,
                        ),
                    }
                    .unwrap();
                    let outcome = if terminates {
                        RunOutcome::Terminated
                    } else {
                        RunOutcome::BudgetExhausted
                    };
                    assert_eq!(run.outcome, outcome, "{variant:?} at {max_depth}");
                    let steps = if terminates { spent } else { max_depth };
                    assert_eq!(run.steps, steps, "{variant:?} at {max_depth}");
                }
                // The lane executor: the first batch chases, later batches
                // walk the memo (except under the Random policy).
                let mut memo = ChaseMemo::new(&options);
                let lanes = batched_on(&program, &[], &options, 64, runs, &mut memo);
                for (run_ix, lane) in lanes.iter().enumerate() {
                    assert!(
                        matches!(
                            (lane, terminates),
                            (LaneObs::World(_), true) | (LaneObs::Budget, false)
                        ),
                        "{variant:?} at {max_depth}: run {run_ix} gave {lane:?}"
                    );
                }
                if memo.active {
                    assert!(memo.paths < 64, "{variant:?}: {} paths chased", memo.paths);
                }
            }
        }
        // The MH chain runs the canonical chase: it finds a state at 6
        // steps and none at 5.
        for (max_depth, found) in [(6, true), (5, false)] {
            let options = EvalOptions {
                runs: 20,
                burn_in: 5,
                max_depth,
                ..EvalOptions::default()
            };
            let job = EvalJob {
                program: &program,
                prepared: Some(&prepared),
                input,
                options: &options,
                observes: &[],
            };
            let mut sink = EmpiricalSink::new();
            let result =
                crate::backend::Backend::run(&crate::mcmc::MhBackend::new(), &job, &mut sink);
            match (result, found) {
                (Ok(()), true) | (Err(EngineError::ZeroEvidence), false) => {}
                (result, _) => panic!("MH at {max_depth} gave {result:?}"),
            }
        }
    }

    #[test]
    fn identical_lanes_share_one_world_allocation() {
        // Flip<1.0> draws 1 in every lane: the batch never splits and all
        // lanes alias one Arc world.
        let program = compile("R(Flip<1.0>) :- true.", SemanticsMode::Grohe);
        let obs = batched(&program, &EvalOptions::default(), 8, 8);
        let first = match &obs[0] {
            LaneObs::World(w) => Arc::clone(w),
            other => panic!("expected a world, got {other:?}"),
        };
        assert_eq!(Arc::strong_count(&first), 9, "8 lanes + the local clone");
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
    fn memo_chases_each_outcome_path_once() {
        let program = compile(DIAGNOSIS, SemanticsMode::Grohe);
        let prepared = PreparedProgram::new(&program);
        // With the auxiliary relations kept, a world records every draw
        // of its run: distinct worlds are distinct outcome paths.
        let options = EvalOptions {
            seed: 11,
            keep_aux: true,
            ..EvalOptions::default()
        };
        let runs = 64 * 24;
        let mut memo = ChaseMemo::new(&options);
        let lanes = batched_on(&program, &[], &options, 64, runs, &mut memo);
        let mut paths: Vec<&Instance> = Vec::new();
        for (run_ix, lane) in lanes.iter().enumerate() {
            let LaneObs::World(world) = lane else {
                panic!("run {run_ix} gave {lane:?}");
            };
            let expect = reference_obs(&program, &prepared, &options, run_ix);
            assert_eq!(Some(&**world), expect.as_ref(), "run {run_ix}");
            if !paths.contains(&&**world) {
                paths.push(world);
            }
        }
        assert!(
            memo.paths <= paths.len(),
            "{} paths chased for {} distinct outcome paths",
            memo.paths,
            paths.len()
        );
        assert!(paths.len() * 8 < runs, "the network shares paths");

        // The same runs again follow recorded edges only: no chase step.
        let (paths_before, steps_before) = (memo.paths, memo.steps);
        let again = batched_on(&program, &[], &options, 64, 64, &mut memo);
        assert_eq!((memo.paths, memo.steps), (paths_before, steps_before));
        for (lane, first) in again.iter().zip(&lanes) {
            let (LaneObs::World(a), LaneObs::World(b)) = (lane, first) else {
                panic!("{lane:?} vs {first:?}");
            };
            assert_eq!(a, b);
        }
    }

    #[test]
    fn memo_leaves_carry_the_evidence_likelihood() {
        let program = compile(DIAGNOSIS, SemanticsMode::Grohe);
        let prepared = PreparedProgram::new(&program);
        let observes = gdatalog_lang::compile_observations(
            &program,
            "Alarm(h1). Alarm(h2). Normal<M, 1.0> == 2.4 :- Quake(Q), SeismoMean(Q, M).",
        )
        .unwrap();
        let options = EvalOptions {
            seed: 5,
            ..EvalOptions::default()
        };
        let runs = 64 * 20;
        let mut memo = ChaseMemo::new(&options);
        let lanes = batched_on(&program, &observes, &options, 64, runs, &mut memo);
        assert!(memo.recorded() > 0);
        let mut accepted = 0;
        for (run_ix, lane) in lanes.iter().enumerate() {
            let world = reference_obs(&program, &prepared, &options, run_ix).unwrap();
            let lw = observe::log_weight(&observes, &world).unwrap();
            match lane {
                LaneObs::Weighted(got, got_lw) => {
                    assert_eq!(**got, world, "run {run_ix}");
                    assert_eq!(got_lw.to_bits(), lw.to_bits(), "run {run_ix}");
                    accepted += 1;
                }
                LaneObs::Rejected => assert_eq!(lw, f64::NEG_INFINITY, "run {run_ix}"),
                other => panic!("run {run_ix} gave {other:?}"),
            }
        }
        assert!(accepted > 0 && accepted < runs);
    }

    #[test]
    fn continuous_programs_leave_the_memo_empty() {
        for src in [
            "M(Normal<0.0, 1.0>) :- true. Y(Normal<X, 0.5>) :- M(X).",
            // A discrete root whose every path ends in a continuous draw:
            // recorded at first, dropped once it stops resolving lanes.
            "Q(Flip<0.5>) :- true. M(Normal<0.0, 1.0>) :- Q(X).",
        ] {
            let program = compile(src, SemanticsMode::Grohe);
            let options = EvalOptions::default();
            let mut memo = ChaseMemo::new(&options);
            batched_on(&program, &[], &options, 64, 64 * 4, &mut memo);
            assert_eq!(memo.recorded(), 0, "{src}");
        }
    }

    #[test]
    fn memo_stops_recording_at_its_cap() {
        // Twelve fair coins: 4096 outcome paths, more than the memo holds.
        let src: String = (0..12)
            .map(|i| format!("C{i}(Flip<0.5>) :- true. "))
            .collect();
        let program = compile(&src, SemanticsMode::Grohe);
        let prepared = PreparedProgram::new(&program);
        let options = EvalOptions {
            seed: 3,
            ..EvalOptions::default()
        };
        let mut memo = ChaseMemo::new(&options);
        let lanes = batched_on(&program, &[], &options, 64, 64 * 40, &mut memo);
        for (run_ix, lane) in lanes.iter().enumerate() {
            let LaneObs::World(world) = lane else {
                panic!("run {run_ix} gave {lane:?}");
            };
            let expect = reference_obs(&program, &prepared, &options, run_ix);
            assert_eq!(Some(&**world), expect.as_ref(), "run {run_ix}");
        }
        // Recording filled the memo to within one 12-fact world of its
        // cap, and a sequential step records at most one draw past it.
        assert!(
            memo.cells + 12 >= MEMO_CELLS && memo.cells <= MEMO_CELLS + 1,
            "{} cells",
            memo.cells
        );
    }

    #[test]
    fn memo_spans_mc_stream_calls() {
        let program = compile(DIAGNOSIS, SemanticsMode::Grohe);
        let options = EvalOptions {
            seed: 4,
            threads: 2,
            keep_aux: true,
            ..EvalOptions::default()
        };
        let job = EvalJob {
            program: &program,
            prepared: None,
            input: &program.initial_instance,
            options: &options,
            observes: &[],
        };
        let stream = |memos: &mut Vec<ChaseMemo>| {
            let mut sink = EmpiricalSink::new();
            crate::backend::mc_stream(&job, &mut sink, 0..64 * 24, false, memos).unwrap();
            sink.finish().samples().to_vec()
        };
        let chased = |memos: &[ChaseMemo]| {
            let paths = memos.iter().map(|memo| memo.paths).sum::<usize>();
            let steps = memos.iter().map(|memo| memo.steps).sum::<usize>();
            (paths, steps)
        };
        let mut memos = Vec::new();
        let first = stream(&mut memos);
        assert_eq!(memos.len(), 2, "one memo per worker slot");
        assert!(chased(&memos).0 > 0);
        // The same runs on the carried memos follow recorded edges only:
        // counted afresh, they chase no path and run no step.
        for memo in &mut memos {
            (memo.paths, memo.steps) = (0, 0);
        }
        let again = stream(&mut memos);
        assert_eq!(chased(&memos), (0, 0), "no path chased twice");
        assert_eq!(again, first);
    }

    /// A coin of bias `p` whose log-density fails on heads: a run drawing
    /// heads fails, at batch 1 by itself.
    struct Brittle;

    impl ParamDist for Brittle {
        fn name(&self) -> &str {
            "Brittle"
        }
        fn arity(&self) -> gdatalog_dist::DistArity {
            gdatalog_dist::DistArity::Exact(1)
        }
        fn output_type(&self) -> gdatalog_data::ColType {
            gdatalog_data::ColType::Int
        }
        fn is_discrete(&self) -> bool {
            true
        }
        fn sample(&self, params: &[Value], rng: &mut dyn rand::Rng) -> Result<Value, DistError> {
            let p = params[0].as_f64().expect("a real bias");
            Ok(Value::int(i64::from(rng.gen_bool(p))))
        }
        fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
            match outcome.as_i64() {
                Some(0) => Ok((1.0 - params[0].as_f64().expect("a real bias")).ln()),
                _ => Err(DistError::BadOutcome {
                    dist: "Brittle",
                    outcome: outcome.clone(),
                }),
            }
        }
    }

    #[test]
    fn walk_keeps_the_reference_error_surface() {
        let mut registry = Registry::standard();
        registry.register(Arc::new(Brittle));
        let src = "A(Brittle<0.02>) :- true. B(Flip<0.5>) :- A(0).";
        let validated = validate(parse_program(src).unwrap(), Arc::new(registry)).unwrap();
        let program = translate(&validated, SemanticsMode::Grohe).unwrap();
        let options = EvalOptions {
            seed: 8,
            ..EvalOptions::default()
        };
        let (recorded, walked) = (8 * 16, 512);
        let reference = batched(&program, &options, 1, recorded + walked);
        let failing = reference[recorded..]
            .iter()
            .filter(|obs| matches!(obs, LaneObs::Failed(_)))
            .count();
        assert!(failing > 0, "some walked run draws the failing outcome");

        let mut memo = ChaseMemo::new(&EvalOptions {
            batch: 8,
            ..options
        });
        batched_on(&program, &[], &options, 8, recorded, &mut memo);
        assert!(memo.recorded() > 0);
        let mut results = vec![None; walked];
        let chase = memo.walk(options.seed, recorded..recorded + walked, &mut results);
        assert!(
            chase.len() >= failing && chase.len() < walked / 2,
            "{} of {walked} lanes left to chase",
            chase.len()
        );
        for (lane, got) in results.iter().enumerate() {
            let expect = &reference[recorded + lane];
            match got {
                Some(got) => assert!(
                    same_obs(got, expect),
                    "run {}: {got:?} vs {expect:?}",
                    recorded + lane
                ),
                None => assert!(chase.contains(&lane)),
            }
        }
    }

    /// Lane observations compared bit for bit.
    fn same_obs(a: &LaneObs, b: &LaneObs) -> bool {
        match (a, b) {
            (LaneObs::World(a), LaneObs::World(b)) => a == b,
            (LaneObs::Weighted(a, x), LaneObs::Weighted(b, y)) => {
                a == b && x.to_bits() == y.to_bits()
            }
            (LaneObs::Rejected, LaneObs::Rejected) | (LaneObs::Budget, LaneObs::Budget) => true,
            (LaneObs::Failed(a), LaneObs::Failed(b)) => format!("{a:?}") == format!("{b:?}"),
            _ => false,
        }
    }
}
