//! Scheduling-policy and run configuration.

use dcs_sim::{profiles, FabricMode, FaultPlan, MachineProfile, Topology, VTime};

/// A time-varying compute slowdown: worker `worker` computes `factor`×
/// slower during `[from, until)` (a straggler, thermal throttling, an OS
/// noise burst). Overlapping windows compound multiplicatively.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowdownWindow {
    pub worker: usize,
    pub from: VTime,
    pub until: VTime,
    pub factor: f64,
}

/// Which stealing/threading strategy a run uses — the four configurations
/// compared throughout the paper's evaluation (§IV, Table II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Continuation stealing with the greedy RDMA join of Fig. 4 (the
    /// paper's contribution: work-first fast path + fetch-and-add race,
    /// suspended threads migrate to whoever loses the race).
    ContGreedy,
    /// Continuation stealing with the stalling join of Fig. 3 (original
    /// MassiveThreads/DM: suspended threads wait in a local FIFO wait queue
    /// and never migrate).
    ContStalling,
    /// Child stealing with fully-fledged threads: every task gets its own
    /// (32 KB) stack and can suspend at joins into the wait queue, but tasks
    /// are *tied* — they never migrate once started.
    ChildFull,
    /// Child stealing with run-to-completion threads: blocked joins nest the
    /// scheduler on the worker's single stack ("buried joins", §IV-B).
    ChildRtc,
}

impl Policy {
    /// Continuation stealing (stolen items are whole stacks)?
    pub fn is_cont(self) -> bool {
        matches!(self, Policy::ContGreedy | Policy::ContStalling)
    }

    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Policy::ContGreedy => "Cont. Steal (greedy)",
            Policy::ContStalling => "Cont. Steal (stalling)",
            Policy::ChildFull => "Child Steal (Full)",
            Policy::ChildRtc => "Child Steal (RtC)",
        }
    }

    pub const ALL: [Policy; 4] = [
        Policy::ContGreedy,
        Policy::ContStalling,
        Policy::ChildFull,
        Policy::ChildRtc,
    ];
}

/// Steal-protocol family: how thieves and owners synchronize on the
/// shared deque words (docs/PROTOCOLS.md, "Steal protocols").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// The paper's baseline: a CAS lock word serializes thieves and gates
    /// owner operations; every steal pays an AMO round trip to acquire it.
    CasLock,
    /// ABP/Chase-Lev-style lock-free: no lock word; the thief claims a
    /// task with a single CAS on `top`, the owner resolves the last-item
    /// race with an owner-local CAS. One AMO per steal, none per push.
    LockFree,
    /// Fully read/write fence-free stealing with multiplicity: both owner
    /// and thief use only plain gets/puts — no AMO verbs at all. A task
    /// may rarely be *taken* more than once (bounded multiplicity ≤ the
    /// number of concurrent thieves); a shared claim set closes the window
    /// so every task *executes* at most once observably.
    FenceFree,
}

impl Protocol {
    /// Display name used by the CLI and bench CSVs.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::CasLock => "cas-lock",
            Protocol::LockFree => "lock-free",
            Protocol::FenceFree => "fence-free",
        }
    }

    /// Does the steal path issue any AMO verbs?
    pub fn uses_amo(self) -> bool {
        !matches!(self, Protocol::FenceFree)
    }

    pub const ALL: [Protocol; 3] = [Protocol::CasLock, Protocol::LockFree, Protocol::FenceFree];
}

/// Remote-object memory management strategy (§III-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FreeStrategy {
    /// Baseline (original MassiveThreads/DM): per-worker lock-protected
    /// incoming queue; a remote free costs four round trips.
    LockQueue,
    /// The paper's *local collection*: owner-side doubly-linked registry +
    /// remote free-bit set with one non-blocking put; the owner sweeps when
    /// live remote-object bytes exceed a limit.
    LocalCollection,
}

impl FreeStrategy {
    pub fn label(self) -> &'static str {
        match self {
            FreeStrategy::LockQueue => "lock-queue",
            FreeStrategy::LocalCollection => "local-collection",
        }
    }
}

/// Thread-stack address-space scheme (§II-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AddressScheme {
    /// Uni-address (Akiyama & Taura): stacks of running threads share one
    /// region address across workers; suspended stacks are evacuated.
    /// Pinned space is bounded by live nesting depth per worker.
    Uni,
    /// Iso-address (PM2 / Charm++ / Adaptive MPI): every stack gets a
    /// globally unique pinned range for its lifetime — no evacuation or
    /// placement conflicts, but pinned space grows with the job's total
    /// live thread count.
    Iso,
}

impl AddressScheme {
    pub fn label(self) -> &'static str {
        match self {
            AddressScheme::Uni => "uni-address",
            AddressScheme::Iso => "iso-address",
        }
    }
}

/// Victim-selection policy for steal attempts.
///
/// The paper uses uniform random selection and flags topology-aware
/// stealing over RDMA as future work (§VI); the non-uniform policies below
/// implement the two standard families from that literature.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VictimPolicy {
    /// Uniformly random among all other workers (the paper's setting).
    Uniform,
    /// With probability `p_local`, pick a victim within the caller's node;
    /// otherwise pick globally (Paudel et al.-style selective locality).
    Locality { p_local: f64 },
    /// Try node-local victims first; escalate to global selection after
    /// `local_tries` consecutive failed attempts (hierarchical stealing,
    /// Min/Quintin-style).
    Hierarchical { local_tries: u32 },
}

impl VictimPolicy {
    pub fn label(self) -> &'static str {
        match self {
            VictimPolicy::Uniform => "uniform",
            VictimPolicy::Locality { .. } => "locality",
            VictimPolicy::Hierarchical { .. } => "hierarchical",
        }
    }
}

/// How much profiling a run records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Aggregate counters only (Table II columns).
    Counters,
    /// Counters + per-event series for busy workers and ready outstanding
    /// joins (Fig. 7).
    Series,
}

/// Full configuration of one simulated run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workers: usize,
    pub profile: MachineProfile,
    pub policy: Policy,
    /// Steal-protocol family ([`Protocol::CasLock`] is the default every
    /// golden is pinned to).
    pub protocol: Protocol,
    pub free_strategy: FreeStrategy,
    pub address_scheme: AddressScheme,
    /// Network topology of the simulated machine.
    pub topology: Topology,
    /// Victim-selection policy for steals.
    pub victim: VictimPolicy,
    /// Whole-run per-worker compute-speed multipliers: worker `w` runs
    /// compute `perturb[w]`× slower for the entire run. Empty =
    /// homogeneous. For *time-varying* degradation use [`RunConfig::slowdowns`]
    /// (which [`RunConfig::with_straggler`] now builds on); both compose
    /// multiplicatively with the profile's base compute scale.
    pub perturb: Vec<f64>,
    /// Time-windowed compute slowdowns (see [`SlowdownWindow`]); built by
    /// [`RunConfig::with_slowdown`] / [`RunConfig::with_straggler`].
    pub slowdowns: Vec<SlowdownWindow>,
    /// Fabric fault-injection plan (verb failures, message drop/dup,
    /// degraded-NIC and crash windows). [`FaultPlan::none()`] keeps the
    /// fault layer completely out of the run.
    pub fault: FaultPlan,
    /// Run the invariant watchdog (lost/duplicated tasks, double frees,
    /// no-progress stalls). Forced on whenever `fault` is active.
    pub watchdog: bool,
    /// Watchdog: longest tolerated gap between global progress events
    /// (spawn/death/successful steal) before a stall is reported.
    pub stall_limit: VTime,
    pub seed: u64,
    pub trace: TraceLevel,
    /// Ring capacity of each worker's deque (entries).
    pub deque_cap: u32,
    /// Capacity of the lock-queue incoming free buffer (entries).
    pub freeq_cap: u32,
    /// Uni-address stack slot reserved per thread (bytes).
    pub stack_slot: u64,
    /// Full-thread stack size for `ChildFull` (bytes; paper: 32 KB).
    pub full_stack: u64,
    /// Local-collection sweep threshold (bytes of live remote objects).
    pub collect_limit: u64,
    /// Pinned segment size per worker.
    pub seg_bytes: u32,
    /// Run end-of-run consistency assertions (no leaked entries, empty
    /// queues). Enabled by default; benchmarks may disable to shave memory.
    pub strict: bool,
    /// Engine runaway guard.
    pub max_steps: u64,
    /// The machine's issue depth, forwarded to
    /// [`dcs_sim::MachineConfig::fabric`]: [`FabricMode::Blocking`]
    /// (default; depth 1, the semantics every golden is pinned to) or
    /// [`FabricMode::Pipelined`] (the verbs of a protocol step overlap).
    /// The runtime issues the same verb sequence either way.
    pub fabric: FabricMode,
    /// Number of victims an idle worker probes *concurrently* per steal
    /// round. `1` (the default every golden is pinned to) is the
    /// one-victim ring; `K ≥ 2` posts the protocol's opening verbs to K
    /// distinct victims at once, commits the first attempt that lands with
    /// work and abandons the rest (docs/PROTOCOLS.md, "Multi-steal &
    /// abandonment").
    pub multi_steal: u32,
    /// Doorbell-batching fraction forwarded to the fabric
    /// ([`dcs_sim::MachineConfig::with_doorbell`]): chained verbs pay this
    /// fraction of `injection`. `1.0` (default) is charge-identical to
    /// unchained posting.
    pub doorbell: f64,
}

impl RunConfig {
    pub fn new(workers: usize, policy: Policy) -> RunConfig {
        RunConfig {
            workers,
            profile: profiles::itoa(),
            policy,
            protocol: Protocol::CasLock,
            free_strategy: FreeStrategy::LocalCollection,
            address_scheme: AddressScheme::Uni,
            topology: Topology::Flat,
            victim: VictimPolicy::Uniform,
            perturb: Vec::new(),
            slowdowns: Vec::new(),
            fault: FaultPlan::none(),
            watchdog: false,
            stall_limit: VTime::secs(2),
            seed: 0x5EED,
            trace: TraceLevel::Counters,
            deque_cap: 1 << 13,
            freeq_cap: 1 << 12,
            stack_slot: 16 << 10,
            full_stack: 32 << 10,
            collect_limit: 256 << 10,
            seg_bytes: 32 << 20,
            strict: true,
            max_steps: 20_000_000_000,
            fabric: FabricMode::Blocking,
            multi_steal: 1,
            doorbell: 1.0,
        }
    }

    pub fn with_fabric(mut self, mode: FabricMode) -> Self {
        self.fabric = mode;
        self
    }

    /// Probe `k` victims concurrently per steal round (`k ≥ 1`).
    pub fn with_multi_steal(mut self, k: u32) -> Self {
        assert!(k >= 1, "multi-steal width must be at least 1");
        self.multi_steal = k;
        self
    }

    /// Doorbell-batching fraction for chained verbs (`0.0 ..= 1.0`).
    pub fn with_doorbell(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "doorbell fraction must be in [0, 1]");
        self.doorbell = frac;
        self
    }

    pub fn with_protocol(mut self, p: Protocol) -> Self {
        self.protocol = p;
        self
    }

    pub fn with_profile(mut self, p: MachineProfile) -> Self {
        self.profile = p;
        self
    }

    pub fn with_free_strategy(mut self, s: FreeStrategy) -> Self {
        self.free_strategy = s;
        self
    }

    pub fn with_address_scheme(mut self, s: AddressScheme) -> Self {
        self.address_scheme = s;
        self
    }

    pub fn with_topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    pub fn with_victim(mut self, v: VictimPolicy) -> Self {
        self.victim = v;
        self
    }

    /// Inject a straggler: worker `w` computes `factor`× slower for the
    /// whole run. Thin wrapper over [`RunConfig::with_slowdown`] with the
    /// window `[0, ∞)`.
    pub fn with_straggler(self, w: usize, factor: f64) -> Self {
        self.with_slowdown(w, factor, VTime::ZERO, VTime::MAX)
    }

    /// Inject a time-varying slowdown: worker `w` computes `factor`× slower
    /// during `[from, until)`.
    pub fn with_slowdown(mut self, w: usize, factor: f64, from: VTime, until: VTime) -> Self {
        assert!(factor >= 1.0 && w < self.workers && from < until);
        self.slowdowns.push(SlowdownWindow {
            worker: w,
            from,
            until,
            factor,
        });
        self
    }

    /// Load a fabric fault-injection plan (implies the watchdog).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Enable or disable the invariant watchdog explicitly.
    pub fn with_watchdog(mut self, on: bool) -> Self {
        self.watchdog = on;
        self
    }

    /// True when the run should carry a live watchdog.
    pub fn watchdog_enabled(&self) -> bool {
        self.watchdog || self.fault.is_active()
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_trace(mut self, t: TraceLevel) -> Self {
        self.trace = t;
        self
    }

    pub fn with_seg_bytes(mut self, b: u32) -> Self {
        self.seg_bytes = b;
        self
    }

    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_classification() {
        assert!(Policy::ContGreedy.is_cont());
        assert!(Policy::ContStalling.is_cont());
        assert!(!Policy::ChildFull.is_cont());
        assert!(!Policy::ChildRtc.is_cont());
        assert_eq!(Policy::ALL.len(), 4);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Policy::ContGreedy.label(), "Cont. Steal (greedy)");
        assert_eq!(FreeStrategy::LocalCollection.label(), "local-collection");
    }

    #[test]
    fn protocol_families() {
        assert_eq!(Protocol::ALL.len(), 3);
        assert_eq!(Protocol::CasLock.label(), "cas-lock");
        assert_eq!(Protocol::LockFree.label(), "lock-free");
        assert_eq!(Protocol::FenceFree.label(), "fence-free");
        assert!(Protocol::CasLock.uses_amo());
        assert!(Protocol::LockFree.uses_amo());
        assert!(!Protocol::FenceFree.uses_amo());
        assert_eq!(
            RunConfig::new(1, Policy::ContGreedy).protocol,
            Protocol::CasLock,
            "cas-lock stays the default so goldens remain valid"
        );
    }

    #[test]
    fn builder_chains() {
        let cfg = RunConfig::new(8, Policy::ContGreedy)
            .with_profile(profiles::wisteria())
            .with_free_strategy(FreeStrategy::LockQueue)
            .with_seed(99)
            .with_trace(TraceLevel::Series)
            .with_fabric(FabricMode::Pipelined);
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.profile.name, "Wisteria-O");
        assert_eq!(cfg.free_strategy, FreeStrategy::LockQueue);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.trace, TraceLevel::Series);
        assert_eq!(cfg.fabric, FabricMode::Pipelined);
        assert_eq!(
            RunConfig::new(1, Policy::ContGreedy).fabric,
            FabricMode::Blocking,
            "blocking stays the default so goldens remain valid"
        );
    }

    #[test]
    fn multi_steal_and_doorbell_defaults() {
        let cfg = RunConfig::new(4, Policy::ChildRtc);
        assert_eq!(cfg.multi_steal, 1, "serial probing stays the default so goldens remain valid");
        assert_eq!(cfg.doorbell, 1.0, "full injection stays the default so goldens remain valid");
        let cfg = cfg.with_multi_steal(4).with_doorbell(0.25);
        assert_eq!(cfg.multi_steal, 4);
        assert_eq!(cfg.doorbell, 0.25);
    }

    #[test]
    #[should_panic(expected = "multi-steal width")]
    fn multi_steal_zero_rejected() {
        let _ = RunConfig::new(2, Policy::ChildRtc).with_multi_steal(0);
    }
}
