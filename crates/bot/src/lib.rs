//! # dcs-bot — bag-of-tasks work-stealing baselines
//!
//! The paper compares its fork-join runtime against three *bag-of-tasks*
//! (BoT) systems on UTS (Fig. 8): SAWS (RDMA steal-half), Charm++/ParSSSE
//! (message-based random stealing) and X10/GLB (message-based lifeline
//! stealing). A BoT cannot express task dependencies, so it needs (a) a
//! per-worker bag of not-yet-expanded tree nodes and (b) **global
//! termination detection** before the per-worker counts can be reduced.
//!
//! This crate implements all three styles on the same simulated fabric:
//!
//! * [`onesided`] — SAWS/Scioto-like: the bag's control words live in
//!   pinned memory; thieves lock the bag with an RDMA CAS and take **half**
//!   the tasks one-sidedly, never interrupting the victim.
//! * [`twosided`] — Charm++-style random request/reply stealing and
//!   X10/GLB-style *lifeline* stealing, both over two-sided messages that
//!   the victim must poll for and handle (the overhead the paper blames for
//!   their poorer scaling).
//! * [`termination`] — Mattern four-counter (double-round) token
//!   termination detection: one crash-tolerant ring that both runtimes
//!   own, carried one-sidedly (token words written into the successor's
//!   segment) or as ring messages.
//!
//! ## Fail-stop recovery
//!
//! Under a recovery-armed [`dcs_sim::FaultPlan`] (`kill=…` entries or
//! `recover=on`) both runtimes survive permanent worker loss:
//!
//! * every batch of tasks that leaves a worker is recorded as a
//!   steal-lineage [`Batch`] at the *giver* ([`Recovery::record_batch`]);
//! * when a survivor's lease registry confirms a peer dead, the giver
//!   re-injects its un-replayed batches to that peer
//!   ([`Recovery::replay_batches`]) and the lowest live worker re-adopts
//!   the root if its holder died ([`Recovery::maybe_adopt_root`]);
//! * re-execution is **at-least-once**; the head-node [`Collector`]
//!   deduplicates observations by task id, so the reported result is
//!   exactly-once.

pub mod onesided;
pub mod termination;
pub mod twosided;

use std::collections::{BTreeSet, HashSet};

use dcs_apps::pfor::PforParams;
use dcs_apps::uts::UtsSpec;
use dcs_sim::engine::EngineReport;
use dcs_sim::{FabricStats, Machine, VTime, WorkerId};

/// A not-yet-expanded UTS node in a bag (legacy alias; bags hold [`Task`]).
pub type NodeTask = (dcs_apps::sha1::Digest, u32);

/// Wire size of one bag task: 20-byte digest + depth + header (a PFor range
/// task is padded to the same slot size).
pub const TASK_BYTES: usize = 28;

/// One unit of bag work, for any of the supported workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// An unexpanded UTS node: digest + depth.
    Node(dcs_apps::sha1::Digest, u32),
    /// A PFor iteration range `[lo, hi)`.
    Range(u64, u64),
}

impl Task {
    /// Stable task identifier used for result-layer dedup. UTS digests are
    /// unique per node by construction, so the first 8 bytes identify the
    /// node; a PFor range is identified by its bounds. Only *observed*
    /// tasks (every UTS node; PFor leaf chunks) need unique ids.
    pub fn id(&self) -> u64 {
        match self {
            Task::Node(d, _) => u64::from_be_bytes(d[..8].try_into().expect("8-byte prefix")),
            Task::Range(lo, hi) => (lo << 32) | (hi & 0xFFFF_FFFF),
        }
    }
}

/// PFor expressed as a bag workload: ranges split in half until they are
/// at most `grain` long, then the leaf computes `m` per element.
#[derive(Clone, Copy, Debug)]
pub struct PforBag {
    pub n: u64,
    pub grain: u64,
    /// Per-element compute duration (nominal, ITO-A scale).
    pub m: VTime,
}

impl PforBag {
    /// The paper's PFor parameters over a bag: per-element cost `M`, with a
    /// splitting grain chosen so the bag has ample parallel slack.
    pub fn paper(n: u64, grain: u64) -> PforBag {
        let p = PforParams::paper(n);
        PforBag { n, grain, m: p.m }
    }
}

/// What executing a task produced, for the head-node result stream:
/// `(task id, result contribution)`. UTS observes every node with delta 1;
/// PFor observes leaf chunks with their element count (splits are pure
/// control flow, re-derivable, so they are not observed).
pub type Observation = Option<(u64, u64)>;

/// The workload a BoT runtime executes.
#[derive(Clone, Debug)]
pub enum Workload {
    Uts(UtsSpec),
    Pfor(PforBag),
}

impl Workload {
    /// The single task the computation starts from.
    pub fn root_task(&self) -> Task {
        match self {
            Workload::Uts(spec) => Task::Node(spec.root(), 0),
            Workload::Pfor(p) => Task::Range(0, p.n),
        }
    }

    /// Execute one task: push children into `bag`, return
    /// `(children, observation, compute cost)`.
    pub fn execute(&self, task: Task, bag: &mut Vec<Task>, scale: f64) -> (u32, Observation, VTime) {
        match (self, task) {
            (Workload::Uts(spec), Task::Node(digest, depth)) => {
                let children = spec.children(&digest, depth);
                let n = children.len() as u32;
                for c in children {
                    bag.push(Task::Node(c, depth + 1));
                }
                (n, Some((task.id(), 1)), spec.visit_cost(n).scale(scale))
            }
            (Workload::Pfor(p), Task::Range(lo, hi)) => {
                let len = hi - lo;
                if len <= p.grain {
                    return (0, Some((task.id(), len)), (p.m * len).scale(scale));
                }
                let mid = lo + len / 2;
                bag.push(Task::Range(lo, mid));
                bag.push(Task::Range(mid, hi));
                // Splitting is control flow only: a fixed small charge.
                (2, None, VTime::ns(100).scale(scale))
            }
            (w, t) => panic!("task {t:?} does not belong to workload {w:?}"),
        }
    }

    /// The exact result a fault-free run must report (`nodes` for UTS,
    /// elements for PFor).
    pub fn expected(&self) -> u64 {
        match self {
            Workload::Uts(spec) => dcs_apps::uts::serial_count(spec).nodes,
            Workload::Pfor(p) => p.n,
        }
    }
}

/// Per-worker work/termination counters (Mattern's method counts task
/// creations and consumptions; both are monotone). `sent`/`recv` extend
/// the fold to four counters for the two-sided runtimes, where granted
/// tasks spend time in flight.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub created: u64,
    pub consumed: u64,
    /// Tasks granted/pushed to peers (counted by armed two-sided runs).
    pub sent: u64,
    /// Tasks accepted from peers (counted by armed two-sided runs).
    pub recv: u64,
    /// Nodes counted by this worker (the UTS result contribution).
    pub nodes: u64,
}

/// Head-node result collector: the model is that every executed task
/// streams its observation `(id, delta)` to the head node, which
/// deduplicates by id. At-least-once re-execution after a kill therefore
/// still yields an exactly-once *observed* result.
#[derive(Debug, Default)]
pub struct Collector {
    seen: HashSet<u64>,
    /// Deduplicated result (UTS nodes / PFor elements).
    pub unique: u64,
    /// Order-independent checksum: wrapping sum of first-seen task ids.
    pub checksum: u64,
    /// Duplicate observations absorbed (re-executed tasks).
    pub dups: u64,
}

impl Collector {
    pub fn observe(&mut self, id: u64, delta: u64) {
        if self.seen.insert(id) {
            self.unique += delta;
            self.checksum = self.checksum.wrapping_add(id);
        } else {
            self.dups += 1;
        }
    }
}

/// A steal-lineage record: a batch of tasks handed to `thief`, kept (never
/// retired) at the giver so it can be replayed if the thief dies.
#[derive(Clone, Debug)]
pub struct Batch {
    pub thief: WorkerId,
    pub tasks: Vec<Task>,
    pub replayed: bool,
}

/// Shared fail-stop recovery state of a BoT run (host view of what each
/// worker keeps in its own segment, plus the head-node collector).
#[derive(Debug)]
pub struct Recovery {
    /// `lineage[giver]` — batches that giver handed away.
    pub lineage: Vec<Vec<Batch>>,
    /// The worker currently responsible for the root task.
    pub root_holder: WorkerId,
    root_task: Task,
    pub collector: Collector,
    /// Tasks resident in bags of workers at their moment of death.
    pub lost_tasks: u64,
    /// Tasks re-injected by lineage replay (incl. root re-adoption).
    pub reexec_tasks: u64,
}

impl Recovery {
    pub fn new(workers: usize, root: Task) -> Recovery {
        Recovery {
            lineage: (0..workers).map(|_| Vec::new()).collect(),
            root_holder: 0,
            root_task: root,
            collector: Collector::default(),
            lost_tasks: 0,
            reexec_tasks: 0,
        }
    }

    /// The giver records a batch it is about to hand to `thief`.
    pub fn record_batch(&mut self, giver: WorkerId, thief: WorkerId, tasks: &[Task]) {
        self.lineage[giver].push(Batch {
            thief,
            tasks: tasks.to_vec(),
            replayed: false,
        });
    }

    /// `giver` confirmed `dead` dead: re-inject every un-replayed batch it
    /// gave that worker into `bag`. Returns the number of tasks re-injected
    /// (the giver must bump its `created` by as much).
    pub fn replay_batches(&mut self, giver: WorkerId, dead: WorkerId, bag: &mut Vec<Task>) -> u64 {
        let mut k = 0;
        for b in &mut self.lineage[giver] {
            if b.thief == dead && !b.replayed {
                b.replayed = true;
                k += b.tasks.len() as u64;
                bag.extend(b.tasks.iter().copied());
            }
        }
        self.reexec_tasks += k;
        k
    }

    /// Root coverage: the root task is a batch recorded at the host. When
    /// its holder is confirmed dead, the lowest live worker re-injects it
    /// and becomes the holder. `dead` is the caller's sparse confirmed-dead
    /// set; soundness of confirmation (live workers are never confirmed)
    /// makes "all lower ids confirmed dead" hold for at most one live
    /// worker. Returns true if `me` adopted (it must bump `created` by 1).
    pub fn maybe_adopt_root(
        &mut self,
        me: WorkerId,
        dead: &std::collections::BTreeSet<WorkerId>,
        bag: &mut Vec<Task>,
    ) -> bool {
        if dead.contains(&self.root_holder) && dead.range(..me).count() == me {
            bag.push(self.root_task);
            self.root_holder = me;
            self.reexec_tasks += 1;
            return true;
        }
        false
    }
}

/// Shared state of a bag run: the machine, every worker's bag and Mattern
/// counters, the recovery ledger, and the transport's shared medium `net` —
/// nothing for one-sided verbs (bag and token words live in the machine's
/// segments), the mailbox for two-sided messages.
pub struct BotWorld<N = ()> {
    pub m: Machine,
    pub bags: Vec<Vec<Task>>,
    pub counters: Vec<Counters>,
    pub recovery: Recovery,
    pub token_rounds: u64,
    /// The confirmed-dead set of the last judged token round.
    left_out: BTreeSet<WorkerId>,
    /// Whether a worker whose next steps would only re-poll may park
    /// instead. The same predicate as `dcs-core`'s `Worker::may_park`: off
    /// under a fault plan (timeouts, leases and crash windows are evaluated
    /// per poll) and under a schedule hook.
    pub(crate) may_park: bool,
    pub net: N,
}

impl<N> BotWorld<N> {
    /// A world whose only task is the root, in worker 0's bag.
    pub(crate) fn new(m: Machine, root: Task, net: N) -> BotWorld<N> {
        let workers = m.workers();
        let mut world = BotWorld {
            may_park: !m.faults_active(),
            m,
            bags: (0..workers).map(|_| Vec::new()).collect(),
            counters: vec![Counters::default(); workers],
            recovery: Recovery::new(workers, root),
            token_rounds: 0,
            left_out: BTreeSet::new(),
            net,
        };
        world.bags[0].push(root);
        world.counters[0].created = 1;
        world
    }

    /// A worker's detector judged a round: publish the count, and whom the
    /// round left out of its sums (the deaths its initiator had confirmed).
    pub(crate) fn note_round(&mut self, ring: &termination::Ring) {
        self.token_rounds = self.token_rounds.max(ring.rounds());
        self.left_out.clone_from(ring.dead());
    }

    /// What the finished run left behind, summed over the workers the last
    /// judged round counted — so the check agrees with the detector about a
    /// worker killed too late to be confirmed (its counters were folded in
    /// while it lived, and nobody re-labelled the tasks it handed over). No
    /// asserts: the checker reports mismatches.
    pub(crate) fn outcome(&self, run: &EngineReport) -> BotCheckOutcome {
        let counted = |p: &WorkerId| !self.left_out.contains(p);
        let workers = 0..self.bags.len();
        let nodes = self.counters.iter().map(|c| c.nodes).sum();
        BotCheckOutcome {
            nodes,
            unique: if self.m.recovery_armed() {
                self.recovery.collector.unique
            } else {
                nodes
            },
            checksum: self.recovery.collector.checksum,
            created: workers
                .clone()
                .filter(counted)
                .map(|p| self.counters[p].created)
                .sum(),
            consumed: workers
                .clone()
                .filter(counted)
                .map(|p| self.counters[p].consumed)
                .sum(),
            bags_nonempty: workers
                .clone()
                .filter(|p| counted(p) && !self.bags[*p].is_empty())
                .collect(),
            dead_workers: workers
                .filter(|&p| self.m.is_dead(p, run.end_time))
                .collect(),
            token_rounds: self.token_rounds,
            steps: run.steps,
        }
    }

    /// The asserted report of a plain run; the steal counts come from the
    /// actors.
    pub(crate) fn report(
        &self,
        run: &EngineReport,
        steals_ok: u64,
        steals_failed: u64,
    ) -> BotReport {
        let out = self.outcome(run);
        assert_eq!(
            out.created, out.consumed,
            "termination fired with outstanding work"
        );
        assert!(
            out.bags_nonempty.is_empty(),
            "live workers {:?} terminated with work",
            out.bags_nonempty
        );
        let fabric = self.m.stats_total();
        BotReport {
            elapsed: run.end_time,
            nodes: out.unique,
            checksum: out.checksum,
            steals_ok,
            steals_failed,
            messages: fabric.messages_handled,
            token_rounds: out.token_rounds,
            dead_workers: out.dead_workers.len() as u64,
            lost_tasks: self.recovery.lost_tasks,
            reexec_tasks: self.recovery.reexec_tasks,
            dup_results: self.recovery.collector.dups,
            fabric,
            steps: out.steps,
        }
    }
}

/// What a BoT run actually did — raw observations for `dcs-check`'s
/// termination oracle, with no asserts of its own (the checker turns
/// mismatches into reported violations instead of panics).
#[derive(Clone, Debug)]
pub struct BotCheckOutcome {
    /// UTS nodes expanded across all workers (raw, duplicates included).
    pub nodes: u64,
    /// Head-node deduplicated result (equals `nodes` when fault-free).
    pub unique: u64,
    /// Order-independent checksum of first-seen task ids.
    pub checksum: u64,
    /// Global created / consumed task counts over the workers the last
    /// judged token round counted (everyone it had not confirmed dead) —
    /// termination *safety* is `created == consumed`.
    pub created: u64,
    pub consumed: u64,
    /// Counted workers whose bag still held tasks when the run ended (must
    /// be empty: terminating with resident work loses it).
    pub bags_nonempty: Vec<WorkerId>,
    /// Workers killed by the fault plan before the run ended.
    pub dead_workers: Vec<WorkerId>,
    /// Token rounds the detector ran.
    pub token_rounds: u64,
    /// Engine steps taken — bounded, so an exploration that livelocks is
    /// caught by the engine's step ceiling rather than hanging the checker.
    pub steps: u64,
}

/// Result of a bag-of-tasks run.
#[derive(Debug, Clone)]
pub struct BotReport {
    /// Virtual makespan, including termination detection and the final
    /// count reduction.
    pub elapsed: VTime,
    /// Total nodes counted (must equal the tree size). In armed runs
    /// this is the head node's deduplicated count.
    pub nodes: u64,
    /// Order-independent checksum of observed task ids (armed runs).
    pub checksum: u64,
    pub steals_ok: u64,
    pub steals_failed: u64,
    /// Messages handled by receivers (two-sided runtimes).
    pub messages: u64,
    /// Token rounds until termination fired.
    pub token_rounds: u64,
    /// Workers permanently killed during the run.
    pub dead_workers: u64,
    /// Tasks lost with dead workers' bags.
    pub lost_tasks: u64,
    /// Tasks re-injected by lineage replay.
    pub reexec_tasks: u64,
    /// Duplicate result observations absorbed by the head-node dedup.
    pub dup_results: u64,
    pub fabric: FabricStats,
    pub steps: u64,
}

impl BotReport {
    /// UTS throughput in nodes per second of virtual time.
    pub fn throughput(&self) -> f64 {
        self.nodes as f64 / self.elapsed.as_secs_f64()
    }
}

/// Shared helper: expand one node, pushing children into `bag`, returning
/// (children, visit cost at the given compute scale).
pub fn expand_node(
    spec: &UtsSpec,
    task: NodeTask,
    bag: &mut Vec<NodeTask>,
    compute_scale: f64,
) -> (u32, VTime) {
    let (digest, depth) = task;
    let children = spec.children(&digest, depth);
    let n = children.len() as u32;
    for c in children {
        bag.push((c, depth + 1));
    }
    (n, spec.visit_cost(n).scale(compute_scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_apps::uts::presets;

    #[test]
    fn expand_matches_spec() {
        let spec = presets::tiny();
        let mut bag = Vec::new();
        let root = (spec.root(), 0u32);
        let (n, cost) = expand_node(&spec, root, &mut bag, 1.0);
        assert_eq!(n as usize, bag.len());
        assert_eq!(n, spec.num_children(&spec.root(), 0));
        assert_eq!(cost, spec.visit_cost(n));
        // Children are at depth 1.
        assert!(bag.iter().all(|&(_, d)| d == 1));
    }

    #[test]
    fn expand_scales_cost() {
        let spec = presets::tiny();
        let mut bag = Vec::new();
        let (_, c1) = expand_node(&spec, (spec.root(), 0), &mut bag, 1.0);
        bag.clear();
        let (_, c2) = expand_node(&spec, (spec.root(), 0), &mut bag, 2.0);
        assert_eq!(c2, c1.scale(2.0));
    }

    #[test]
    fn workload_uts_matches_expand_node() {
        let spec = presets::tiny();
        let w = Workload::Uts(spec.clone());
        let mut bag = Vec::new();
        let (n, obs, cost) = w.execute(w.root_task(), &mut bag, 1.0);
        let mut legacy = Vec::new();
        let (n2, cost2) = expand_node(&spec, (spec.root(), 0), &mut legacy, 1.0);
        assert_eq!(n, n2);
        assert_eq!(cost, cost2);
        assert_eq!(bag.len(), legacy.len());
        assert_eq!(obs.expect("uts observes every node").1, 1);
    }

    #[test]
    fn workload_pfor_splits_to_grain_and_observes_leaves() {
        let w = Workload::Pfor(PforBag { n: 64, grain: 8, m: VTime::us(1) });
        let mut bag = vec![w.root_task()];
        let mut total = 0;
        let mut ids = HashSet::new();
        while let Some(t) = bag.pop() {
            let (_, obs, _) = w.execute(t, &mut bag, 1.0);
            if let Some((id, delta)) = obs {
                assert!(ids.insert(id), "leaf ids must be unique");
                total += delta;
            }
        }
        assert_eq!(total, 64);
        assert_eq!(w.expected(), 64);
    }

    #[test]
    fn collector_dedups_by_id() {
        let mut c = Collector::default();
        c.observe(7, 1);
        c.observe(9, 3);
        c.observe(7, 1);
        assert_eq!(c.unique, 4);
        assert_eq!(c.dups, 1);
        assert_eq!(c.checksum, 16);
    }

    #[test]
    fn recovery_replays_each_batch_once() {
        let mut r = Recovery::new(4, Task::Range(0, 10));
        let batch = [Task::Range(0, 5), Task::Range(5, 10)];
        r.record_batch(1, 3, &batch);
        let mut bag = Vec::new();
        assert_eq!(r.replay_batches(1, 3, &mut bag), 2);
        assert_eq!(bag.len(), 2);
        // A second confirmation of the same death replays nothing.
        assert_eq!(r.replay_batches(1, 3, &mut bag), 0);
        // Other givers have nothing recorded for that thief.
        assert_eq!(r.replay_batches(2, 3, &mut bag), 0);
    }

    #[test]
    fn root_adoption_goes_to_lowest_live() {
        let mut r = Recovery::new(4, Task::Range(0, 10));
        let mut bag = Vec::new();
        let mut dead = std::collections::BTreeSet::new();
        dead.insert(0);
        // Worker 2 is not the lowest live worker (1 is): no adoption.
        assert!(!r.maybe_adopt_root(2, &dead, &mut bag));
        assert!(r.maybe_adopt_root(1, &dead, &mut bag));
        assert_eq!(r.root_holder, 1);
        assert_eq!(bag.len(), 1);
        // Holder is alive again: nobody adopts.
        assert!(!r.maybe_adopt_root(2, &dead, &mut bag));
    }
}
