//! Deterministic fault injection for the simulated fabric.
//!
//! Real RDMA clusters see transient verb timeouts, lost and duplicated
//! messages, degraded NICs, and nodes that stop responding for a while. The
//! runtimes must stay *correct* under all of that and degrade gracefully in
//! *throughput*. This module injects exactly those faults, deterministically:
//! a [`FaultPlan`] carries its own seed, every worker draws from its own
//! fault stream (independent of the scheduler's victim-selection streams),
//! and all fault overheads are charged to virtual time, so a `(plan, seed)`
//! pair always reproduces the same run.
//!
//! Zero-cost when disabled: [`Machine`](crate::Machine) holds
//! `Option<FaultState>`; with [`FaultPlan::none()`] no RNG is ever drawn and
//! no cost is altered, so runs are bit-identical to a build without the
//! fault layer.
//!
//! Fault semantics:
//!
//! * **Transient verb failure** (`verb_fail_p`): each remote verb attempt
//!   independently fails with this probability. The issuer detects the
//!   failure after a timeout (a multiple of the verb's nominal latency),
//!   backs off exponentially with jitter, and re-issues. Verbs never give
//!   up — the memory effect is applied exactly once — so protocols stay
//!   correct by construction while retries show up in time and counters.
//! * **Crash-stop windows** (`crash`): worker `w` is unresponsive during
//!   `[from, until)`. Its own steps freeze (consumers poll
//!   [`Machine::crashed_until`](crate::Machine::crashed_until)) and verbs
//!   targeting it time out until the issuer's retry clock passes the window
//!   end. State is preserved — this models a hung process, not data loss.
//! * **Degraded-NIC windows** (`degrade`): the network component of any verb
//!   touching worker `w` during `[from, until)` is scaled by `factor`.
//! * **Message drop / duplication** (`msg_drop_p` / `msg_dup_p`): two-sided
//!   control messages are lost or delivered twice. Callers declare whether a
//!   message is droppable — task-carrying messages model a reliable bulk
//!   channel and are only ever duplicated, never dropped, so no work is
//!   destroyed by the network itself.
//! * **Fail-stop kills** (`kill`): worker `w` dies permanently at time `T`.
//!   Unlike a crash-stop window the state is *lost*: verbs targeting the
//!   dead worker fail fast with a NIC unreachable error (see
//!   [`Machine::dead_guard`](crate::Machine::dead_guard)), its memory
//!   segment becomes unreadable, and anything it held (bag contents, deque
//!   items, in-flight grants it had received) is gone. Survivors detect the
//!   death either through such a verb error or through the heartbeat/lease
//!   registry: every worker publishes a heartbeat every `hb_period` into a
//!   well-known registry (modeled as a pure function of the kill schedule —
//!   the beats stand for background NIC/progress-thread traffic), and a
//!   worker whose lease (`lease` since its last beat) has expired is
//!   *confirmed dead*. Confirmation is sound: a live worker's beats never
//!   stop, so only genuinely dead workers are ever confirmed.
//!
//! `recover=on` arms the recovery machinery (lineage tracking, heartbeat
//! reads, transfer-counted termination) without scheduling any kill — the
//! configuration used to measure the overhead of being *prepared* to lose a
//! worker (`ablate_recovery`).

use std::fmt;

use crate::rng::SimRng;
use crate::time::VTime;
use crate::WorkerId;

/// A failed verb attempt is detected after this multiple of the verb's
/// nominal (possibly degraded) latency — models a completion-queue timeout.
pub const TIMEOUT_FACTOR: u64 = 8;
/// Exponential backoff doubles up to this many times (then stays capped).
pub const BACKOFF_CAP_EXP: u32 = 6;
/// Default heartbeat period of the one-sided lease registry.
pub const HB_PERIOD_DEFAULT: VTime = VTime::us(25);
/// Default lease: a worker silent for this long since its last heartbeat is
/// confirmed dead (8 missed beats at the default period).
pub const LEASE_DEFAULT: VTime = VTime::us(200);
/// Nominal flight time of a heartbeat put from the worker's NIC to the lease
/// registry. Degraded-NIC windows covering the emitter scale it, which is
/// exactly how a live straggler's lease can expire under the message
/// detector.
pub const HB_FLIGHT: VTime = VTime::us(1);

/// How survivors decide that a peer is dead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Detector {
    /// Ground-truth detector computed from the kill schedule: a live worker
    /// is never suspected and a dead one is confirmed exactly `lease` after
    /// its kill. Sound by construction — the pre-PR-9 behaviour, and still
    /// the default so every golden stays byte-identical.
    #[default]
    Oracle,
    /// Message-based detector: each worker's beats are fabric puts subject
    /// to the plan's drop probability and degraded-NIC windows, so lease
    /// expiry can fire on a *live* worker. The runtime must survive the
    /// resulting false suspicion (epoch fencing + rejoin).
    Message,
}

/// A per-worker time window during which remote operations touching the
/// worker run `factor`× slower (degraded NIC / congested link).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradeWindow {
    pub worker: WorkerId,
    pub from: VTime,
    pub until: VTime,
    pub factor: f64,
}

/// A per-worker time window during which the worker is unresponsive
/// (crash-stop that recovers at `until`; state is preserved).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    pub worker: WorkerId,
    pub from: VTime,
    pub until: VTime,
}

/// Permanent fail-stop: `worker` dies at `at` and never returns; its state
/// (memory segment, held tasks) is lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillEvent {
    pub worker: WorkerId,
    pub at: VTime,
}

/// Typed rejection of a fault-plan spec: either the text itself is
/// malformed, or the clauses are individually well-formed but describe a
/// plan that cannot behave as written (a silently-miscalibrated registry,
/// a kill that can never fire). Collapsing these into one string would let
/// callers print them, but not distinguish a typo from a semantic trap —
/// the CLI wants to suggest the nearest working configuration for the
/// latter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// The spec text does not parse (unknown clause, bad number, …).
    Syntax(String),
    /// `lease=` is shorter than `hb=`: a worker could be confirmed dead
    /// between two of its own heartbeats, making the registry unsound
    /// (live workers "confirmed" and their work double-executed).
    LeaseShorterThanHeartbeat { lease: VTime, hb: VTime },
    /// A kill is scheduled at or past the plan's declared `horizon=`: it
    /// would never fire, silently turning a crash test into a healthy run.
    KillPastHorizon {
        worker: WorkerId,
        at: VTime,
        horizon: VTime,
    },
    /// Two `kill=W@T` clauses name the same worker. A worker fail-stops at
    /// most once; silently letting the later clause shadow the earlier one
    /// turns a typo into a different experiment.
    DuplicateKill { worker: WorkerId },
    /// Under `detector=message` the suspicion lease is shorter than one
    /// heartbeat period plus the beat flight time, so even a loss-free
    /// fabric would suspect live workers continuously.
    SuspectLeaseTooShort { suspect: VTime, min: VTime },
    /// A `kill=`, `crash=` or `degrade=` clause names a worker the run does
    /// not have. Only [`FaultPlan::check_workers`] can see this: a plan is
    /// parsed before it meets a worker count.
    WorkerOutOfRange {
        clause: &'static str,
        worker: WorkerId,
        workers: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::Syntax(s) => write!(f, "{s}"),
            FaultPlanError::LeaseShorterThanHeartbeat { lease, hb } => write!(
                f,
                "lease {lease} is shorter than the heartbeat period {hb}: a live worker \
                 could be confirmed dead between two of its own beats (need lease ≥ hb)"
            ),
            FaultPlanError::KillPastHorizon { worker, at, horizon } => write!(
                f,
                "kill of worker {worker} at {at} lies at or past the declared horizon \
                 {horizon}: it would never fire"
            ),
            FaultPlanError::DuplicateKill { worker } => write!(
                f,
                "worker {worker} has more than one kill= clause: a worker fail-stops \
                 at most once"
            ),
            FaultPlanError::SuspectLeaseTooShort { suspect, min } => write!(
                f,
                "suspect lease {suspect} is shorter than one heartbeat period plus the \
                 beat flight time ({min}): the message detector would suspect live \
                 workers even on a loss-free fabric"
            ),
            FaultPlanError::WorkerOutOfRange {
                clause,
                worker,
                workers,
            } => write!(
                f,
                "{clause}= names worker {worker}, but the run has {workers} workers \
                 (0..{workers})"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl From<String> for FaultPlanError {
    fn from(s: String) -> FaultPlanError {
        FaultPlanError::Syntax(s)
    }
}

impl From<FaultPlanError> for String {
    fn from(e: FaultPlanError) -> String {
        e.to_string()
    }
}

/// Declarative description of every fault the fabric will inject.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Per-attempt probability that a remote verb fails and must be retried.
    pub verb_fail_p: f64,
    /// Probability that a droppable (control) message is lost.
    pub msg_drop_p: f64,
    /// Probability that a message is delivered twice.
    pub msg_dup_p: f64,
    pub degrade: Vec<DegradeWindow>,
    pub crash: Vec<CrashWindow>,
    /// Permanent fail-stop kills.
    pub kill: Vec<KillEvent>,
    /// Arm the recovery machinery (lineage tracking, heartbeat/lease reads,
    /// transfer-counted termination) even when `kill` is empty.
    pub recover: bool,
    /// Heartbeat period of the lease registry.
    pub hb_period: VTime,
    /// Lease: silence beyond this since the last heartbeat confirms death.
    pub lease: VTime,
    /// How survivors confirm deaths (`detector=` clause).
    pub detector: Detector,
    /// Suspicion lease of the message detector (`suspect=` clause): silence
    /// beyond this since the last *visible* beat suspects the worker. Falls
    /// back to `lease` when unset. Smaller = more aggressive.
    pub suspect: Option<VTime>,
    /// Whether an evicted-but-live worker may rejoin as a fresh incarnation
    /// (`rejoin=` clause). Defaults on; `rejoin=off` makes false suspicion
    /// permanent, which is only useful for measuring the cost of rejoin.
    pub rejoin: bool,
    /// Declared run horizon (`horizon=` clause): the latest virtual time the
    /// caller intends to simulate. Purely a validation aid — kills scheduled
    /// at or past it are rejected instead of silently never firing.
    pub horizon: Option<VTime>,
    /// Seed of the fault RNG streams (independent of the run seed).
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: the fault layer is compiled out of the run entirely.
    pub fn none() -> FaultPlan {
        FaultPlan {
            verb_fail_p: 0.0,
            msg_drop_p: 0.0,
            msg_dup_p: 0.0,
            degrade: Vec::new(),
            crash: Vec::new(),
            kill: Vec::new(),
            recover: false,
            hb_period: HB_PERIOD_DEFAULT,
            lease: LEASE_DEFAULT,
            detector: Detector::Oracle,
            suspect: None,
            rejoin: true,
            horizon: None,
            seed: 0,
        }
    }

    /// Uniform transient-fault plan: verb failures at `p`, message drops at
    /// `p`, duplications at `p/2`. The shape used by the `ablate_faults`
    /// sweep.
    pub fn transient(p: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            verb_fail_p: p,
            msg_drop_p: p,
            msg_dup_p: p / 2.0,
            ..FaultPlan::none()
        }
        .with_seed(seed)
    }

    /// True when any fault can ever fire (or recovery is armed); `false`
    /// guarantees the plan costs nothing at runtime.
    pub fn is_active(&self) -> bool {
        self.verb_fail_p > 0.0
            || self.msg_drop_p > 0.0
            || self.msg_dup_p > 0.0
            || !self.degrade.is_empty()
            || !self.crash.is_empty()
            || self.recovery_armed()
    }

    /// True when the recovery machinery (lineage, leases, transfer-counted
    /// termination) must run: a kill is scheduled, the plan asks for it
    /// explicitly, or the message detector is selected (false suspicion can
    /// evict a live worker, whose in-flight work must then be replayable).
    pub fn recovery_armed(&self) -> bool {
        self.recover || !self.kill.is_empty() || self.suspicion_possible()
    }

    /// True when the detector can suspect a *live* worker (message detector
    /// selected). Callers that assume confirmation implies death — strict
    /// leak accounting, the oracle soundness shortcut — must check this.
    pub fn suspicion_possible(&self) -> bool {
        self.detector == Detector::Message
    }

    /// Lease the active detector applies to heartbeat silence.
    pub fn suspect_lease(&self) -> VTime {
        self.suspect.unwrap_or(self.lease)
    }

    /// First kill time of `worker`, if any.
    pub fn killed_at(&self, worker: WorkerId) -> Option<VTime> {
        self.kill
            .iter()
            .filter(|k| k.worker == worker)
            .map(|k| k.at)
            .min()
    }

    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    pub fn with_degrade(mut self, w: DegradeWindow) -> FaultPlan {
        self.degrade.push(w);
        self
    }

    pub fn with_crash(mut self, w: CrashWindow) -> FaultPlan {
        self.crash.push(w);
        self
    }

    pub fn with_kill(mut self, worker: WorkerId, at: VTime) -> FaultPlan {
        self.kill.push(KillEvent { worker, at });
        self
    }

    pub fn with_recovery(mut self) -> FaultPlan {
        self.recover = true;
        self
    }

    pub fn with_detector(mut self, detector: Detector) -> FaultPlan {
        self.detector = detector;
        self
    }

    pub fn with_suspect(mut self, suspect: VTime) -> FaultPlan {
        self.suspect = Some(suspect);
        self
    }

    /// Parse the CLI spec grammar, a comma-separated list of clauses:
    ///
    /// ```text
    /// verb=P              transient verb failure probability
    /// drop=P              control-message drop probability
    /// dup=P               message duplication probability
    /// degrade=W@A..B*F    worker W's NIC runs F× slower in [A, B)
    /// crash=W@A..B        worker W is unresponsive in [A, B)
    /// kill=W@T            worker W fail-stops permanently at T
    /// recover=on          arm recovery machinery without scheduling a kill
    /// hb=T                heartbeat period of the lease registry
    /// lease=T             lease timeout confirming a silent worker dead
    /// detector=oracle|message   how deaths are confirmed (default oracle)
    /// suspect=T           message-detector suspicion lease (default: lease)
    /// rejoin=on|off       evicted live workers rejoin (default on)
    /// horizon=T           declared run horizon; kills must fire before it
    /// ```
    ///
    /// Times accept `ns`/`us`/`ms`/`s` suffixes (default ns):
    /// `verb=0.01,drop=0.02,degrade=3@2ms..9ms*4,crash=1@1ms..3ms,kill=2@4ms`.
    ///
    /// Beyond the grammar, the assembled plan is [`validated`]
    /// (FaultPlan::validate): a lease shorter than the heartbeat period or
    /// a kill at/past the declared horizon is a typed error, not a plan
    /// that silently misbehaves.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(',').filter(|c| !c.is_empty()) {
            let (key, val) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not key=value"))?;
            match key {
                "verb" => plan.verb_fail_p = parse_prob(val)?,
                "drop" => plan.msg_drop_p = parse_prob(val)?,
                "dup" => plan.msg_dup_p = parse_prob(val)?,
                "degrade" => {
                    let (worker, rest) = parse_worker_at(val)?;
                    let (range, factor) = rest
                        .split_once('*')
                        .ok_or_else(|| format!("degrade `{val}` missing `*factor`"))?;
                    let (from, until) = parse_range(range)?;
                    let factor: f64 = factor
                        .parse()
                        .map_err(|_| format!("bad degrade factor `{factor}`"))?;
                    if factor < 1.0 {
                        return Err(format!("degrade factor {factor} must be ≥ 1").into());
                    }
                    plan.degrade.push(DegradeWindow {
                        worker,
                        from,
                        until,
                        factor,
                    });
                }
                "crash" => {
                    let (worker, range) = parse_worker_at(val)?;
                    let (from, until) = parse_range(range)?;
                    plan.crash.push(CrashWindow {
                        worker,
                        from,
                        until,
                    });
                }
                "kill" => {
                    let (worker, at) = parse_worker_at(val)?;
                    plan.kill.push(KillEvent {
                        worker,
                        at: parse_vtime(at)?,
                    });
                }
                "recover" => {
                    plan.recover = match val {
                        "on" | "true" | "1" => true,
                        "off" | "false" | "0" => false,
                        _ => return Err(format!("recover wants on/off, got `{val}`").into()),
                    };
                }
                "hb" => plan.hb_period = parse_vtime(val)?,
                "lease" => plan.lease = parse_vtime(val)?,
                "detector" => {
                    plan.detector = match val {
                        "oracle" => Detector::Oracle,
                        "message" => Detector::Message,
                        _ => {
                            return Err(
                                format!("detector wants oracle/message, got `{val}`").into()
                            )
                        }
                    };
                }
                "suspect" => plan.suspect = Some(parse_vtime(val)?),
                "rejoin" => {
                    plan.rejoin = match val {
                        "on" | "true" | "1" => true,
                        "off" | "false" | "0" => false,
                        _ => return Err(format!("rejoin wants on/off, got `{val}`").into()),
                    };
                }
                "horizon" => plan.horizon = Some(parse_vtime(val)?),
                _ => return Err(format!("unknown fault clause `{key}`").into()),
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Semantic validation of an assembled plan — the checks that individual
    /// clause parsing cannot see. Runs automatically at the end of
    /// [`Self::parse`]; programmatic constructors may call it directly.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        if self.recovery_armed() && self.lease < self.hb_period {
            return Err(FaultPlanError::LeaseShorterThanHeartbeat {
                lease: self.lease,
                hb: self.hb_period,
            });
        }
        if let Some(horizon) = self.horizon {
            if let Some(k) = self.kill.iter().find(|k| k.at >= horizon) {
                return Err(FaultPlanError::KillPastHorizon {
                    worker: k.worker,
                    at: k.at,
                    horizon,
                });
            }
        }
        for (i, k) in self.kill.iter().enumerate() {
            if self.kill[..i].iter().any(|p| p.worker == k.worker) {
                return Err(FaultPlanError::DuplicateKill { worker: k.worker });
            }
        }
        if self.detector == Detector::Message {
            let min = self.hb_period + HB_FLIGHT;
            if self.suspect_lease() < min {
                return Err(FaultPlanError::SuspectLeaseTooShort {
                    suspect: self.suspect_lease(),
                    min,
                });
            }
        }
        Ok(())
    }

    /// The check a plan needs once it meets a worker count: every worker a
    /// `kill=`, `crash=` or `degrade=` clause names exists.
    /// [`FaultState::new`] (and so `Machine::new`) refuses a plan that
    /// fails it.
    pub fn check_workers(&self, workers: usize) -> Result<(), FaultPlanError> {
        let named = (self.kill.iter().map(|k| ("kill", k.worker)))
            .chain(self.crash.iter().map(|c| ("crash", c.worker)))
            .chain(self.degrade.iter().map(|d| ("degrade", d.worker)));
        match named.into_iter().find(|&(_, w)| w >= workers) {
            Some((clause, worker)) => Err(FaultPlanError::WorkerOutOfRange {
                clause,
                worker,
                workers,
            }),
            None => Ok(()),
        }
    }
}

/// Emits the exact grammar [`FaultPlan::parse`] accepts, one clause per
/// non-default field, so `parse(format(p)) == p` for every plan whose times
/// are whole nanoseconds (all constructible ones are). Times print as raw
/// `{}ns`, probabilities and factors via `{}` (Rust's shortest round-trip
/// float repr) — both re-parse to the identical value.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        let mut clause = |f: &mut fmt::Formatter<'_>, args: fmt::Arguments<'_>| {
            let r = write!(f, "{sep}{args}");
            sep = ",";
            r
        };
        if self.verb_fail_p > 0.0 {
            clause(f, format_args!("verb={}", self.verb_fail_p))?;
        }
        if self.msg_drop_p > 0.0 {
            clause(f, format_args!("drop={}", self.msg_drop_p))?;
        }
        if self.msg_dup_p > 0.0 {
            clause(f, format_args!("dup={}", self.msg_dup_p))?;
        }
        for d in &self.degrade {
            clause(
                f,
                format_args!(
                    "degrade={}@{}ns..{}ns*{}",
                    d.worker,
                    d.from.as_ns(),
                    d.until.as_ns(),
                    d.factor
                ),
            )?;
        }
        for c in &self.crash {
            clause(
                f,
                format_args!("crash={}@{}ns..{}ns", c.worker, c.from.as_ns(), c.until.as_ns()),
            )?;
        }
        for k in &self.kill {
            clause(f, format_args!("kill={}@{}ns", k.worker, k.at.as_ns()))?;
        }
        if self.recover {
            clause(f, format_args!("recover=on"))?;
        }
        if self.hb_period != HB_PERIOD_DEFAULT {
            clause(f, format_args!("hb={}ns", self.hb_period.as_ns()))?;
        }
        if self.lease != LEASE_DEFAULT {
            clause(f, format_args!("lease={}ns", self.lease.as_ns()))?;
        }
        if self.detector == Detector::Message {
            clause(f, format_args!("detector=message"))?;
        }
        if let Some(s) = self.suspect {
            clause(f, format_args!("suspect={}ns", s.as_ns()))?;
        }
        if !self.rejoin {
            clause(f, format_args!("rejoin=off"))?;
        }
        if let Some(h) = self.horizon {
            clause(f, format_args!("horizon={}ns", h.as_ns()))?;
        }
        Ok(())
    }
}

fn parse_prob(s: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|_| format!("bad probability `{s}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability {p} outside [0, 1]"));
    }
    Ok(p)
}

fn parse_worker_at(s: &str) -> Result<(WorkerId, &str), String> {
    let (w, rest) = s
        .split_once('@')
        .ok_or_else(|| format!("window `{s}` missing `worker@`"))?;
    let worker: WorkerId = w.parse().map_err(|_| format!("bad worker id `{w}`"))?;
    Ok((worker, rest))
}

fn parse_range(s: &str) -> Result<(VTime, VTime), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("window `{s}` missing `start..end`"))?;
    let from = parse_vtime(a)?;
    let until = parse_vtime(b)?;
    if until <= from {
        return Err(format!("window `{s}` is empty or inverted"));
    }
    Ok((from, until))
}

/// Parse `123`, `5us`, `2ms`, `1s` (bare numbers are nanoseconds).
pub fn parse_vtime(s: &str) -> Result<VTime, String> {
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1u64)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        (s, 1)
    };
    let v: u64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad time `{s}` (expect e.g. 500us, 2ms)"))?;
    Ok(VTime::ns(v * mult))
}

/// What the fabric does with one two-sided message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgFate {
    /// Delivered once, normally.
    Deliver,
    /// Lost in flight; the sender still paid the injection cost.
    Drop,
    /// Delivered twice (the duplicate arrives one extra latency later).
    Duplicate,
}

/// Time-ordered feed of *candidate* detector status changes, shared by
/// every consumer of [`FaultState::confirmed_dead`].
///
/// The detector registry is a pure function of the plan, so the set of
/// instants at which any worker's confirmed/suspected status can flip is
/// computable up front (oracle: one event per kill) or incrementally
/// (message detector: suspicion intervals derived from each candidate's
/// visible-beat sequence). Consumers hold a cursor into the append-only
/// `events` list and learn in O(changes) which workers to re-examine —
/// replacing the former O(workers) full-registry scan per idle poll, the
/// dominant term at 10⁵ workers.
///
/// Candidate sets are conservative but tight: under the oracle only killed
/// workers ever confirm; under a loss-free message detector only killed or
/// degraded workers can be suspected (a live worker's beats all land within
/// the lease — validated at plan parse); with `msg_drop_p > 0` every worker
/// is a candidate and its beat stream is walked once per run, amortized
/// across all consumers.
#[derive(Default)]
struct DeathWatch {
    /// `(time, worker)` candidate status changes, sorted by time.
    events: Vec<(VTime, WorkerId)>,
    /// Every status change at or before this instant is already in
    /// `events` (`VTime` max when the feed is complete up front).
    generated_to: VTime,
    /// Per-candidate incremental generators (message detector only).
    gens: Vec<BeatGen>,
}

/// Incremental suspicion-interval generator for one message-detector
/// candidate: merges the worker's visible heartbeats into an "unsuspected
/// coverage" frontier and emits a feed event at each boundary where
/// suspicion begins or clears.
struct BeatGen {
    worker: WorkerId,
    /// Next heartbeat index to emit.
    next_k: u64,
    /// Visible-at times of beats already emitted but landing past the
    /// generated horizon (degraded flights arrive out of order), sorted.
    pending: Vec<VTime>,
    /// The worker is continuously unsuspected up to here (exclusive).
    cover_end: VTime,
    /// A suspicion interval is open (its start event is already emitted).
    gap_open: bool,
    /// The kill point was reached: no further beats will ever be emitted.
    beats_done: bool,
    /// Suspected forever (killed, all beats landed): nothing left to emit.
    done: bool,
}

impl DeathWatch {
    fn new(plan: &FaultPlan, workers: usize) -> DeathWatch {
        let complete = VTime::ns(u64::MAX);
        if !plan.recovery_armed() {
            // `confirmed_dead` is identically false: empty, complete feed.
            return DeathWatch {
                events: Vec::new(),
                generated_to: complete,
                gens: Vec::new(),
            };
        }
        match plan.detector {
            Detector::Oracle => {
                // Ground truth: worker `w` confirms exactly once, at
                // `kill + lease`, and never revokes.
                let mut events: Vec<(VTime, WorkerId)> = plan
                    .kill
                    .iter()
                    .map(|k| (k.at + plan.lease, k.worker))
                    .collect();
                events.sort_unstable();
                DeathWatch {
                    events,
                    generated_to: complete,
                    gens: Vec::new(),
                }
            }
            Detector::Message => {
                // Tight candidate set: with a loss-free fabric only killed
                // or degraded workers can ever be suspected; per-beat drops
                // make every worker a candidate.
                let mut cands: Vec<WorkerId> = if plan.msg_drop_p > 0.0 {
                    (0..workers).collect()
                } else {
                    plan.kill
                        .iter()
                        .map(|k| k.worker)
                        .chain(plan.degrade.iter().map(|d| d.worker))
                        .filter(|&w| w < workers)
                        .collect()
                };
                cands.sort_unstable();
                cands.dedup();
                let grace = plan.suspect_lease();
                let gens = cands
                    .into_iter()
                    .map(|worker| BeatGen {
                        worker,
                        next_k: 0,
                        pending: Vec::new(),
                        // Startup grace: `suspected` is false before one
                        // full lease regardless of beats.
                        cover_end: grace,
                        gap_open: false,
                        beats_done: false,
                        done: false,
                    })
                    .collect();
                DeathWatch {
                    events: Vec::new(),
                    generated_to: VTime::ZERO,
                    gens,
                }
            }
        }
    }

    /// Extend the feed so every status change at or before `target` is in
    /// `events`. Generates in chunks of at least 64 heartbeat periods so a
    /// caller polling every few nanoseconds touches the generators rarely.
    fn generate(&mut self, fs: &FaultState, target: VTime) {
        if target <= self.generated_to {
            return;
        }
        let period = fs.plan.hb_period.as_ns().max(1);
        let t = target.max(self.generated_to + VTime::ns(64 * period));
        let s = fs.plan.suspect_lease();
        let mut batch: Vec<(VTime, WorkerId)> = Vec::new();
        for g in &mut self.gens {
            if g.done {
                continue;
            }
            // Emit this chunk's beats. A beat emitted at `e` becomes
            // visible at `e + flight(e)` — possibly past `t` (parked in
            // `pending`) and possibly out of order under degrade windows.
            if !g.beats_done {
                loop {
                    let emit = VTime::ns(g.next_k * period);
                    if emit > t {
                        break;
                    }
                    if matches!(fs.kill_at[g.worker], Some(k) if emit >= k) {
                        g.beats_done = true; // beats stop at the kill
                        break;
                    }
                    if g.next_k == 0 || !fs.beat_dropped(g.worker, g.next_k) {
                        let flight =
                            HB_FLIGHT.scale(fs.degrade_factor(g.worker, g.worker, emit));
                        g.pending.push(emit + flight);
                    }
                    g.next_k += 1;
                }
                g.pending.sort_unstable();
            }
            // Merge beats visible by `t` into the coverage frontier. Every
            // boundary crossed is a feed event; `suspected` holds exactly
            // on the complement of `[0, grace) ∪ ⋃ [visible, visible+s)`.
            let cut = g.pending.partition_point(|&v| v <= t);
            for &v in &g.pending[..cut] {
                if g.gap_open {
                    batch.push((v, g.worker)); // suspicion clears at `v`
                    g.gap_open = false;
                    g.cover_end = v + s;
                } else if v > g.cover_end {
                    batch.push((g.cover_end, g.worker)); // suspicion begins
                    batch.push((v, g.worker)); // ... and clears
                    g.cover_end = v + s;
                } else {
                    g.cover_end = g.cover_end.max(v + s);
                }
            }
            g.pending.drain(..cut);
            // Coverage ran out within the horizon: suspicion begins at the
            // frontier and stays open into the next chunk (or forever).
            if !g.gap_open && g.cover_end <= t {
                batch.push((g.cover_end, g.worker));
                g.gap_open = true;
            }
            if g.beats_done && g.pending.is_empty() && g.gap_open {
                g.done = true; // killed, all beats landed: suspected forever
            }
        }
        // Each chunk's events all lie in (generated_to, t] — later than
        // everything already emitted — so a per-chunk sort keeps the whole
        // list time-ordered.
        batch.sort_unstable();
        self.events.extend(batch);
        self.generated_to = t;
    }
}

/// Live fault-injection state inside [`Machine`](crate::Machine). Exists only
/// when the plan is active.
pub struct FaultState {
    plan: FaultPlan,
    /// Per-worker fault streams, independent of scheduler RNG.
    rng: Vec<SimRng>,
    /// Virtual clock of each worker at the top of its current step; verbs
    /// evaluate time windows at `step_now + accumulated retry cost`.
    step_now: Vec<VTime>,
    /// Failed attempts since last [`take_faults`](FaultState::take_faults)
    /// poll, per worker — feeds the schedulers' victim blacklists.
    recent: Vec<u64>,
    /// First kill time per worker (precomputed from the plan).
    kill_at: Vec<Option<VTime>>,
    /// Shared candidate feed of detector status changes (see [`DeathWatch`]).
    watch: DeathWatch,
}

impl FaultState {
    pub fn new(plan: FaultPlan, workers: usize) -> FaultState {
        if let Err(e) = plan.check_workers(workers) {
            panic!("{e}");
        }
        let rng = (0..workers)
            // Decorrelate from scheduler streams (different domain constant).
            .map(|w| SimRng::for_worker(plan.seed ^ 0xFA01_7A11_u64, w))
            .collect();
        let kill_at = (0..workers).map(|w| plan.killed_at(w)).collect();
        let watch = DeathWatch::new(&plan, workers);
        FaultState {
            plan,
            rng,
            step_now: vec![VTime::ZERO; workers],
            recent: vec![0; workers],
            kill_at,
            watch,
        }
    }

    /// Advance `cursor` through the detector's candidate feed up to `now`,
    /// appending the id of every worker whose [`Self::confirmed_dead`]
    /// status may have changed since the cursor's last position. Each
    /// consumer owns its cursor (starting at 0) and re-examines only the
    /// returned workers — O(status changes) total instead of O(workers) per
    /// poll. The feed is conservative (a returned worker's status may be
    /// unchanged after an intra-poll toggle) but complete: a worker absent
    /// from the feed since the cursor's last position has not changed.
    pub fn death_candidates(&mut self, cursor: &mut usize, now: VTime, out: &mut Vec<WorkerId>) {
        self.extend_feed(now);
        let events = &self.watch.events;
        while let Some(&(t, w)) = events.get(*cursor) {
            if t > now {
                break;
            }
            out.push(w);
            *cursor += 1;
        }
    }

    /// Make the feed complete up to `to` (see [`DeathWatch::generate`]).
    fn extend_feed(&mut self, to: VTime) {
        if to > self.watch.generated_to {
            // Detach the feed so generation can read plan state through
            // `&self` (it never touches the watch itself).
            let mut watch = std::mem::take(&mut self.watch);
            watch.generate(self, to);
            self.watch = watch;
        }
    }

    /// The first instant after `now` at which a purely local poll by `me`
    /// can observe the plan differently: `me`'s kill, the start of one of
    /// `me`'s crash windows, or the next candidate status change in the
    /// detector feed (any worker's — [`Self::confirmed_dead`] of every
    /// worker is constant between feed events). Where the feed is not yet
    /// generated, the first instant past what is; [`VTime::MAX`] when
    /// nothing is due. Host-side only: the feed is a pure function of the
    /// plan, so generating it early changes no event.
    pub fn next_change_after(&mut self, me: WorkerId, now: VTime) -> VTime {
        let mut at = match self.kill_at[me] {
            Some(k) if k > now => k,
            _ => VTime::MAX,
        };
        for c in &self.plan.crash {
            if c.worker == me && c.from > now {
                at = at.min(c.from);
            }
        }
        self.extend_feed(now + VTime::ns(1));
        let events = &self.watch.events;
        let next = match events.get(events.partition_point(|&(t, _)| t <= now)) {
            Some(&(t, _)) => t,
            None if self.watch.generated_to == VTime::MAX => VTime::MAX,
            None => self.watch.generated_to + VTime::ns(1),
        };
        at.min(next)
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    #[inline]
    pub fn begin_step(&mut self, me: WorkerId, now: VTime) {
        self.step_now[me] = now;
    }

    pub fn take_faults(&mut self, me: WorkerId) -> u64 {
        std::mem::take(&mut self.recent[me])
    }

    /// Kill time of `worker`, if the plan fail-stops it at all.
    #[inline]
    pub fn killed_at(&self, worker: WorkerId) -> Option<VTime> {
        self.kill_at[worker]
    }

    /// Is `worker` fail-stopped at time `at`? This is ground truth (the
    /// NIC's view): verbs against a dead peer fail fast from the kill
    /// instant on, before any lease expires.
    #[inline]
    pub fn is_dead(&self, worker: WorkerId, at: VTime) -> bool {
        matches!(self.kill_at[worker], Some(t) if at >= t)
    }

    /// Does the active detector consider `worker` dead at `at`?
    ///
    /// * `detector=oracle`: ground truth — the lease registry is a pure
    ///   function of the kill schedule, so a live worker is never confirmed
    ///   and a dead one is confirmed exactly `lease` after its kill.
    /// * `detector=message`: beats travel over the lossy fabric, so this is
    ///   mere *suspicion* — it fires on a dead worker once its beats stop,
    ///   but can also fire on a live worker whose beats were dropped or
    ///   delayed past the suspicion lease. Callers must treat a confirmed
    ///   worker as evicted, not as provably dead.
    #[inline]
    pub fn confirmed_dead(&self, worker: WorkerId, at: VTime) -> bool {
        match self.plan.detector {
            Detector::Oracle => {
                matches!(self.kill_at[worker], Some(t) if at >= t + self.plan.lease)
            }
            Detector::Message => self.suspected(worker, at),
        }
    }

    /// Message-detector view: is `worker` suspected at `at` because no beat
    /// of its became visible within the suspicion lease?
    ///
    /// The beat sequence is a deterministic pure function of the plan: beat
    /// `k` is emitted at `k·hb_period` while the worker lives, dropped with
    /// probability `msg_drop_p` (hashed from `(seed, worker, k)`, so repeated
    /// queries agree), and becomes visible [`HB_FLIGHT`] later — scaled by
    /// any degraded-NIC window covering the emitter, which is how a live
    /// straggler gets falsely suspected. Beat 0 is the registration write
    /// and is never dropped, so a worker is only suspected after startup
    /// grace (`at ≥ suspect lease`).
    pub fn suspected(&self, worker: WorkerId, at: VTime) -> bool {
        let s = self.plan.suspect_lease();
        if at < s {
            return false;
        }
        let period = self.plan.hb_period.as_ns().max(1);
        // A beat emitted before the window start can still land inside it
        // after a degraded flight; widen the scan by the worst-case flight.
        let max_factor = self
            .plan
            .degrade
            .iter()
            .filter(|d| d.worker == worker)
            .map(|d| d.factor)
            .fold(1.0, f64::max);
        let max_flight = HB_FLIGHT.scale(max_factor);
        let lo = (at - s).as_ns().saturating_sub(max_flight.as_ns()) / period;
        let hi = at.as_ns() / period;
        for k in lo..=hi {
            let emit = VTime::ns(k * period);
            if matches!(self.kill_at[worker], Some(t) if emit >= t) {
                break; // beats stop at the kill
            }
            if k > 0 && self.beat_dropped(worker, k) {
                continue;
            }
            let flight = HB_FLIGHT.scale(self.degrade_factor(worker, worker, emit));
            let visible = emit + flight;
            // Not suspected iff some beat is visible in (at - s, at].
            if visible > at - s && visible <= at {
                return false;
            }
        }
        true
    }

    /// Deterministic per-(plan, worker, beat) drop draw, independent of every
    /// other RNG stream so querying suspicion never perturbs the run.
    fn beat_dropped(&self, worker: WorkerId, k: u64) -> bool {
        if self.plan.msg_drop_p <= 0.0 {
            return false;
        }
        let mut s = self.plan.seed
            ^ 0x5EED_BEA7_0000_0000
            ^ ((worker as u64) << 32)
            ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let x = crate::rng::splitmix64(&mut s);
        let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < self.plan.msg_drop_p
    }

    /// Has a heartbeat from `worker` been published strictly after `since`
    /// and become visible by `at`? Beats are emitted at multiples of
    /// `hb_period` while the worker lives. Used by the termination wave's
    /// attest rule: a token round may only complete once every
    /// not-confirmed-dead peer has beaten *after* the round started.
    pub fn fresh_since(&self, worker: WorkerId, since: VTime, at: VTime) -> bool {
        let period = self.plan.hb_period.as_ns().max(1);
        let alive_until = match self.kill_at[worker] {
            Some(t) if t <= at => t,
            _ => at,
        };
        // Latest beat emitted at or before `alive_until` (and strictly
        // before the kill, if any).
        let mut latest = alive_until.as_ns() / period * period;
        if matches!(self.kill_at[worker], Some(t) if latest >= t.as_ns()) {
            latest = latest.saturating_sub(period);
        }
        latest > since.as_ns()
    }

    /// End of a crash window covering `worker` at `at`, if any.
    pub fn crashed_until(&self, worker: WorkerId, at: VTime) -> Option<VTime> {
        self.plan
            .crash
            .iter()
            .filter(|c| c.worker == worker && c.from <= at && at < c.until)
            .map(|c| c.until)
            .max()
    }

    /// Largest degrade factor covering either endpoint at `at` (1.0 = none).
    fn degrade_factor(&self, a: WorkerId, b: WorkerId, at: VTime) -> f64 {
        self.plan
            .degrade
            .iter()
            .filter(|d| (d.worker == a || d.worker == b) && d.from <= at && at < d.until)
            .map(|d| d.factor)
            .fold(1.0, f64::max)
    }

    /// Charge one remote verb issued by `me` against `peer` with nominal
    /// cost `base`: retries through transient failures and crash windows
    /// until the attempt lands, returning the total elapsed cost. Bumps
    /// `retries`/`timeouts` counters through the returned struct.
    pub fn charge_verb(
        &mut self,
        me: WorkerId,
        peer: WorkerId,
        base: VTime,
        retries: &mut u64,
        timeouts: &mut u64,
    ) -> VTime {
        let mut acc = VTime::ZERO;
        let mut attempt: u32 = 0;
        loop {
            let at = self.step_now[me] + acc;
            let factor = self.degrade_factor(me, peer, at);
            let scaled = if factor > 1.0 { base.scale(factor) } else { base };
            // An unresponsive peer looks exactly like a lost completion: the
            // issuer times out and retries; the accumulated backoff is what
            // eventually carries the retry clock past the window end.
            let crashed = self.crashed_until(peer, at).is_some();
            let transient = !crashed
                && self.plan.verb_fail_p > 0.0
                && self.rng[me].unit_f64() < self.plan.verb_fail_p;
            if !crashed && !transient {
                return acc + scaled;
            }
            if crashed {
                *timeouts += 1;
            } else {
                *retries += 1;
            }
            self.recent[me] += 1;
            acc += scaled * TIMEOUT_FACTOR + self.backoff(me, scaled, attempt);
            attempt += 1;
        }
    }

    /// Exponential backoff with jitter: `scaled × 2^min(attempt, cap)` plus
    /// a uniform jitter in `[0, backoff/2)` to break retry synchronization.
    fn backoff(&mut self, me: WorkerId, scaled: VTime, attempt: u32) -> VTime {
        let exp = attempt.min(BACKOFF_CAP_EXP);
        let b = scaled * (1u64 << exp);
        let jitter = if b > VTime::ZERO {
            VTime::ns(self.rng[me].below(b.as_ns() / 2 + 1))
        } else {
            VTime::ZERO
        };
        b + jitter
    }

    /// Decide the fate of one two-sided message sent by `me`. Task-carrying
    /// messages pass `droppable = false` (reliable channel: duplication
    /// possible, loss not).
    pub fn msg_fate(&mut self, me: WorkerId, droppable: bool) -> MsgFate {
        if droppable && self.plan.msg_drop_p > 0.0 && self.rng[me].unit_f64() < self.plan.msg_drop_p
        {
            return MsgFate::Drop;
        }
        if self.plan.msg_dup_p > 0.0 && self.rng[me].unit_f64() < self.plan.msg_dup_p {
            return MsgFate::Duplicate;
        }
        MsgFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn none_is_inactive_and_default() {
        assert!(!FaultPlan::none().is_active());
        assert_eq!(FaultPlan::default(), FaultPlan::none());
        assert!(FaultPlan::transient(0.01, 1).is_active());
        assert!(!FaultPlan::transient(0.0, 1).is_active());
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse("verb=0.01,drop=0.02,dup=0.005,degrade=3@2ms..9ms*4,crash=1@1ms..3ms")
            .unwrap();
        assert_eq!(p.verb_fail_p, 0.01);
        assert_eq!(p.msg_drop_p, 0.02);
        assert_eq!(p.msg_dup_p, 0.005);
        assert_eq!(
            p.degrade,
            vec![DegradeWindow {
                worker: 3,
                from: VTime::ms(2),
                until: VTime::ms(9),
                factor: 4.0
            }]
        );
        assert_eq!(
            p.crash,
            vec![CrashWindow {
                worker: 1,
                from: VTime::ms(1),
                until: VTime::ms(3)
            }]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("verb=1.5").is_err());
        assert!(FaultPlan::parse("nope=1").is_err());
        assert!(FaultPlan::parse("crash=1@5ms..2ms").is_err());
        assert!(FaultPlan::parse("degrade=0@1ms..2ms").is_err()); // missing factor
        assert!(FaultPlan::parse("crash=x@1ms..2ms").is_err());
        assert!(FaultPlan::parse("").map(|p| !p.is_active()).unwrap());
    }

    #[test]
    fn parse_vtime_units() {
        assert_eq!(parse_vtime("123").unwrap(), VTime::ns(123));
        assert_eq!(parse_vtime("5us").unwrap(), VTime::us(5));
        assert_eq!(parse_vtime("2ms").unwrap(), VTime::ms(2));
        assert_eq!(parse_vtime("1s").unwrap(), VTime::secs(1));
        assert!(parse_vtime("1.5ms").is_err());
    }

    #[test]
    fn charge_verb_clean_is_base() {
        let mut fs = FaultState::new(FaultPlan::none().with_seed(1), 2);
        let (mut r, mut t) = (0, 0);
        let c = fs.charge_verb(0, 1, VTime::us(2), &mut r, &mut t);
        assert_eq!(c, VTime::us(2));
        assert_eq!((r, t), (0, 0));
    }

    #[test]
    fn transient_failures_retry_and_count() {
        let mut plan = FaultPlan::none();
        plan.verb_fail_p = 0.5;
        plan.seed = 42;
        let mut fs = FaultState::new(plan, 2);
        let (mut r, mut t) = (0, 0);
        let mut total = VTime::ZERO;
        for _ in 0..200 {
            total += fs.charge_verb(0, 1, VTime::us(2), &mut r, &mut t);
        }
        assert!(r > 50, "p=0.5 over 200 verbs must retry many times, got {r}");
        assert_eq!(t, 0);
        assert!(total > VTime::us(2) * 200);
        assert_eq!(fs.take_faults(0), r);
        assert_eq!(fs.take_faults(0), 0, "take_faults clears");
    }

    #[test]
    fn crash_window_times_out_until_recovery() {
        let plan = FaultPlan::none().with_crash(CrashWindow {
            worker: 1,
            from: VTime::ZERO,
            until: VTime::ms(1),
        });
        let mut fs = FaultState::new(plan, 2);
        fs.begin_step(0, VTime::ZERO);
        let (mut r, mut t) = (0, 0);
        let c = fs.charge_verb(0, 1, VTime::us(2), &mut r, &mut t);
        // The verb can only land once the retry clock passes the window end.
        assert!(c >= VTime::ms(1));
        assert!(t >= 1);
        assert_eq!(r, 0);
        // After recovery the same verb is clean again.
        fs.begin_step(0, VTime::ms(2));
        let c2 = fs.charge_verb(0, 1, VTime::us(2), &mut r, &mut t);
        assert_eq!(c2, VTime::us(2));
    }

    #[test]
    fn degrade_window_scales_cost() {
        let plan = FaultPlan::none().with_degrade(DegradeWindow {
            worker: 1,
            from: VTime::ZERO,
            until: VTime::ms(1),
            factor: 4.0,
        });
        let mut fs = FaultState::new(plan, 2);
        fs.begin_step(0, VTime::ZERO);
        let (mut r, mut t) = (0, 0);
        assert_eq!(
            fs.charge_verb(0, 1, VTime::us(2), &mut r, &mut t),
            VTime::us(8)
        );
        // Outside the window: nominal. Untouched pair: nominal.
        fs.begin_step(0, VTime::ms(5));
        assert_eq!(
            fs.charge_verb(0, 1, VTime::us(2), &mut r, &mut t),
            VTime::us(2)
        );
        assert_eq!((r, t), (0, 0), "degradation slows but never fails verbs");
    }

    #[test]
    fn parse_kill_and_recover() {
        let p = FaultPlan::parse("kill=2@4ms,kill=0@1s,recover=on,hb=10us,lease=80us").unwrap();
        assert_eq!(
            p.kill,
            vec![
                KillEvent { worker: 2, at: VTime::ms(4) },
                KillEvent { worker: 0, at: VTime::secs(1) },
            ]
        );
        assert!(p.recover);
        assert_eq!(p.hb_period, VTime::us(10));
        assert_eq!(p.lease, VTime::us(80));
        assert!(p.is_active());
        assert!(p.recovery_armed());
        assert_eq!(p.killed_at(2), Some(VTime::ms(4)));
        assert_eq!(p.killed_at(1), None);
        // recover=on alone arms the machinery.
        let r = FaultPlan::parse("recover=on").unwrap();
        assert!(r.recovery_armed() && r.is_active() && r.kill.is_empty());
        assert!(FaultPlan::parse("kill=1@").is_err());
        assert!(FaultPlan::parse("kill=@2ms").is_err());
        assert!(FaultPlan::parse("recover=maybe").is_err());
    }

    #[test]
    fn parse_rejects_lease_shorter_than_heartbeat() {
        // A registry that could confirm a live worker dead is rejected with
        // the typed error, not accepted as a silently-unsound plan.
        let err = FaultPlan::parse("kill=1@2ms,hb=50us,lease=20us").unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::LeaseShorterThanHeartbeat {
                lease: VTime::us(20),
                hb: VTime::us(50),
            }
        );
        assert!(err.to_string().contains("lease"), "{err}");
        // Same misconfiguration under recover=on (no kill scheduled).
        assert!(matches!(
            FaultPlan::parse("recover=on,hb=50us,lease=20us"),
            Err(FaultPlanError::LeaseShorterThanHeartbeat { .. })
        ));
        // Equality is fine; so is a short lease when recovery never runs.
        assert!(FaultPlan::parse("kill=1@2ms,hb=20us,lease=20us").is_ok());
        assert!(FaultPlan::parse("hb=50us,lease=20us").is_ok());
    }

    #[test]
    fn parse_rejects_kill_past_horizon() {
        let err = FaultPlan::parse("kill=2@5ms,horizon=4ms").unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::KillPastHorizon {
                worker: 2,
                at: VTime::ms(5),
                horizon: VTime::ms(4),
            }
        );
        assert!(err.to_string().contains("horizon"), "{err}");
        // At the horizon exactly: still never fires (run ends first).
        assert!(FaultPlan::parse("kill=2@4ms,horizon=4ms").is_err());
        // Strictly before: valid, and the horizon round-trips.
        let p = FaultPlan::parse("kill=2@3ms,horizon=4ms").unwrap();
        assert_eq!(p.horizon, Some(VTime::ms(4)));
        assert_eq!(FaultPlan::parse(&p.to_string()).unwrap(), p);
        // A horizon with no kills constrains nothing.
        assert!(FaultPlan::parse("horizon=1us,crash=1@2ms..3ms").is_ok());
    }

    #[test]
    fn parse_rejects_duplicate_kill() {
        // Same worker twice: typed error, whatever the times are.
        let err = FaultPlan::parse("kill=2@4ms,kill=2@9ms").unwrap_err();
        assert_eq!(err, FaultPlanError::DuplicateKill { worker: 2 });
        assert!(err.to_string().contains("more than one kill"), "{err}");
        assert!(matches!(
            FaultPlan::parse("kill=1@5us,kill=0@9us,kill=1@5us"),
            Err(FaultPlanError::DuplicateKill { worker: 1 })
        ));
        // Distinct workers still parse.
        assert!(FaultPlan::parse("kill=1@5us,kill=0@9us").is_ok());
        // Programmatic construction trips the same validation.
        let p = FaultPlan::none()
            .with_kill(3, VTime::us(1))
            .with_kill(3, VTime::us(2));
        assert_eq!(
            p.validate(),
            Err(FaultPlanError::DuplicateKill { worker: 3 })
        );
    }

    #[test]
    fn check_workers_rejects_a_worker_the_run_lacks() {
        let p = FaultPlan::parse("kill=9@1us").unwrap();
        let err = p.check_workers(4).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::WorkerOutOfRange {
                clause: "kill",
                worker: 9,
                workers: 4
            }
        );
        assert!(err.to_string().contains("kill= names worker 9"), "{err}");
        assert!(p.check_workers(10).is_ok());
        // Crash and degrade windows name workers too.
        let p = FaultPlan::parse("crash=1@1ms..2ms,degrade=4@0..1ms*2").unwrap();
        assert!(matches!(
            p.check_workers(4),
            Err(FaultPlanError::WorkerOutOfRange {
                clause: "degrade",
                worker: 4,
                ..
            })
        ));
        assert!(matches!(
            p.check_workers(1),
            Err(FaultPlanError::WorkerOutOfRange {
                clause: "crash",
                worker: 1,
                ..
            })
        ));
        assert!(FaultPlan::none().check_workers(1).is_ok());
    }

    #[test]
    fn parse_detector_suspect_rejoin() {
        let p = FaultPlan::parse("detector=message,suspect=40us,rejoin=off").unwrap();
        assert_eq!(p.detector, Detector::Message);
        assert_eq!(p.suspect, Some(VTime::us(40)));
        assert!(!p.rejoin);
        assert!(p.suspicion_possible());
        // Message detector alone arms recovery: false suspicion must be
        // survivable even with no kill scheduled.
        assert!(p.recovery_armed() && p.is_active());
        assert_eq!(p.suspect_lease(), VTime::us(40));
        // Defaults: oracle, no suspicion, rejoin on, suspect falls back to
        // the lease.
        let d = FaultPlan::none();
        assert_eq!(d.detector, Detector::Oracle);
        assert!(d.rejoin && !d.suspicion_possible());
        assert_eq!(d.suspect_lease(), d.lease);
        // Round-trip of the new clauses.
        assert_eq!(FaultPlan::parse(&p.to_string()).unwrap(), p);
        assert!(FaultPlan::parse("detector=gossip").is_err());
        assert!(FaultPlan::parse("rejoin=maybe").is_err());
    }

    #[test]
    fn parse_rejects_too_aggressive_suspect_lease() {
        // hb=25us default + 1us flight: suspect below 26us would suspect
        // live workers even loss-free.
        let err = FaultPlan::parse("detector=message,suspect=20us").unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::SuspectLeaseTooShort {
                suspect: VTime::us(20),
                min: HB_PERIOD_DEFAULT + HB_FLIGHT,
            }
        );
        assert!(err.to_string().contains("suspect lease"), "{err}");
        assert!(FaultPlan::parse("detector=message,suspect=26us").is_ok());
        // Under the oracle the suspect lease is inert and unvalidated.
        assert!(FaultPlan::parse("suspect=1ns").is_ok());
    }

    #[test]
    fn message_detector_loss_free_never_suspects_live_workers() {
        let plan = FaultPlan::none()
            .with_detector(Detector::Message)
            .with_suspect(VTime::us(30));
        let fs = FaultState::new(plan, 2);
        for t in (0..2_000).map(VTime::us) {
            assert!(!fs.suspected(0, t), "falsely suspected at {t}");
            assert!(!fs.confirmed_dead(0, t));
        }
    }

    #[test]
    fn message_detector_suspects_dead_workers() {
        let plan = FaultPlan::none()
            .with_kill(1, VTime::us(60))
            .with_detector(Detector::Message)
            .with_suspect(VTime::us(30));
        let fs = FaultState::new(plan, 2);
        // Last beat emitted at 50us, visible 51us; suspicion holds from
        // 81us on (and forever, since beats never resume).
        assert!(!fs.suspected(1, VTime::us(80)));
        assert!(fs.suspected(1, VTime::us(82)));
        assert!(fs.suspected(1, VTime::ms(50)));
        assert!(fs.confirmed_dead(1, VTime::ms(50)));
    }

    #[test]
    fn degraded_nic_window_causes_false_suspicion() {
        // Worker 1 is alive the whole run, but a 50× degraded NIC inflates
        // its beat flight to 50us > the 30us suspicion lease: the detector
        // falsely suspects it, then clears once beats land again.
        let plan = FaultPlan::none()
            .with_degrade(DegradeWindow {
                worker: 1,
                from: VTime::ZERO,
                until: VTime::us(500),
                factor: 50.0,
            })
            .with_detector(Detector::Message)
            .with_suspect(VTime::us(30));
        let fs = FaultState::new(plan, 2);
        // Beat 0 emitted at 0 is visible at 50us; nothing is visible in
        // (5us, 35us] so worker 1 is suspected at 35us...
        assert!(fs.suspected(1, VTime::us(35)));
        // ...but unsuspected once the delayed beats land (50us, 75us, ...).
        assert!(!fs.suspected(1, VTime::us(55)));
        // The undegraded worker 0 is never suspected.
        for t in (0..600).map(VTime::us) {
            assert!(!fs.suspected(0, t));
        }
        // Under the oracle the same plan confirms nobody (ground truth).
        let mut oracle = fs.plan().clone();
        oracle.detector = Detector::Oracle;
        let ofs = FaultState::new(oracle, 2);
        assert!(!ofs.confirmed_dead(1, VTime::us(35)));
    }

    #[test]
    fn beat_drops_are_deterministic() {
        let mut plan = FaultPlan::none()
            .with_detector(Detector::Message)
            .with_suspect(VTime::us(60));
        plan.msg_drop_p = 0.5;
        plan.seed = 9;
        let a = FaultState::new(plan.clone(), 4);
        let b = FaultState::new(plan, 4);
        let mut suspected_somewhere = false;
        for w in 0..4 {
            for t in (0..4_000).map(VTime::us) {
                assert_eq!(a.suspected(w, t), b.suspected(w, t));
                suspected_somewhere |= a.suspected(w, t);
            }
        }
        assert!(
            suspected_somewhere,
            "p=0.5 drops with a 60us lease must falsely suspect somebody"
        );
    }

    #[test]
    fn kill_death_and_lease_semantics() {
        let plan = FaultPlan::none().with_kill(1, VTime::ms(1));
        let lease = plan.lease;
        let fs = FaultState::new(plan, 3);
        assert!(!fs.is_dead(1, VTime::ms(1) - VTime::ns(1)));
        assert!(fs.is_dead(1, VTime::ms(1)));
        assert!(!fs.is_dead(0, VTime::secs(9)), "unkilled workers never die");
        // Lease: confirmation lags death by exactly the lease.
        assert!(!fs.confirmed_dead(1, VTime::ms(1)));
        assert!(!fs.confirmed_dead(1, VTime::ms(1) + lease - VTime::ns(1)));
        assert!(fs.confirmed_dead(1, VTime::ms(1) + lease));
        assert!(!fs.confirmed_dead(0, VTime::secs(9)), "live workers are never confirmed");
    }

    #[test]
    fn heartbeats_fresh_only_while_alive() {
        let plan = FaultPlan::none().with_kill(1, VTime::us(60));
        let period = plan.hb_period; // 25us
        let fs = FaultState::new(plan, 2);
        // Live worker 0: a beat lands strictly after `since` once a period
        // boundary passes.
        assert!(!fs.fresh_since(0, VTime::us(30), VTime::us(40)));
        assert!(fs.fresh_since(0, VTime::us(30), period * 2));
        // Worker 1 dies at 60us: its last beat is at 50us; nothing after.
        assert!(fs.fresh_since(1, VTime::us(30), VTime::ms(5)));
        assert!(!fs.fresh_since(1, VTime::us(50), VTime::ms(5)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn display_parse_round_trip(
            verb_m in 0u64..3,
            drop_m in 0u64..3,
            dup_m in 0u64..3,
            degrade in proptest::collection::vec((0usize..16, 0u64..1_000_000, 1u64..1_000_000), 0..3),
            crash in proptest::collection::vec((0usize..16, 0u64..1_000_000, 1u64..1_000_000), 0..3),
            kill in proptest::collection::vec((0usize..16, 0u64..5_000_000), 0..4),
            recover in proptest::bool::ANY,
            hb_us in 1u64..100,
            lease_extra_us in 0u64..1000,
            default_registry in proptest::bool::ANY,
            with_horizon in proptest::bool::ANY,
            message in proptest::bool::ANY,
            suspect_extra_us in 0u64..500,
            rejoin in proptest::bool::ANY,
        ) {
            let mut p = FaultPlan::none();
            p.verb_fail_p = verb_m as f64 * 0.005;
            p.msg_drop_p = drop_m as f64 * 0.01;
            p.msg_dup_p = dup_m as f64 * 0.0025;
            for (w, from, len) in degrade {
                p.degrade.push(DegradeWindow {
                    worker: w,
                    from: VTime::ns(from),
                    until: VTime::ns(from + len),
                    factor: 2.0,
                });
            }
            for (w, from, len) in crash {
                p.crash.push(CrashWindow { worker: w, from: VTime::ns(from), until: VTime::ns(from + len) });
            }
            for (w, at) in kill {
                // At most one kill per worker (DuplicateKill is validated).
                if p.kill.iter().all(|k| k.worker != w) {
                    p.kill.push(KillEvent { worker: w, at: VTime::ns(at) });
                }
            }
            p.recover = recover;
            if !default_registry {
                // A valid registry needs lease ≥ hb (validated at parse), so
                // generate the lease as heartbeat-plus-slack.
                p.hb_period = VTime::us(hb_us);
                p.lease = VTime::us(hb_us + lease_extra_us);
            }
            if message {
                p.detector = Detector::Message;
                // The suspicion lease must cover a beat period plus flight.
                p.suspect = Some(p.hb_period + HB_FLIGHT + VTime::us(suspect_extra_us));
            }
            p.rejoin = rejoin;
            if with_horizon {
                // The horizon must lie strictly past every kill to be valid.
                let last = p.kill.iter().map(|k| k.at).max().unwrap_or(VTime::ZERO);
                p.horizon = Some(last + VTime::ns(1));
            }
            let printed = p.to_string();
            let back = FaultPlan::parse(&printed)
                .unwrap_or_else(|e| panic!("`{printed}` failed to re-parse: {e}"));
            prop_assert_eq!(back, p, "round-trip through `{}`", printed);
        }
    }

    /// A consumer that re-examines only fed candidates must observe every
    /// status transition a brute-force all-worker scan would, at the same
    /// poll instants.
    fn assert_feed_covers_brute_force(plan: FaultPlan, workers: usize, horizon_us: u64) {
        let mut fs = FaultState::new(plan, workers);
        let mut cursor = 0usize;
        let mut latched = vec![false; workers];
        let mut out = Vec::new();
        for t in (0..horizon_us).map(VTime::us) {
            out.clear();
            fs.death_candidates(&mut cursor, t, &mut out);
            for (w, latch) in latched.iter_mut().enumerate() {
                let now_dead = fs.confirmed_dead(w, t);
                if now_dead != *latch {
                    assert!(
                        out.contains(&w),
                        "feed missed worker {w}'s transition to {now_dead} at {t}"
                    );
                    *latch = now_dead;
                }
            }
        }
    }

    #[test]
    fn death_feed_covers_oracle_transitions() {
        let plan = FaultPlan::none()
            .with_kill(1, VTime::us(60))
            .with_kill(5, VTime::us(300))
            .with_kill(0, VTime::us(301));
        assert_feed_covers_brute_force(plan, 8, 1_000);
    }

    #[test]
    fn death_feed_covers_message_detector_transitions() {
        // Loss-free: candidates are exactly the killed + degraded workers.
        let plan = FaultPlan::none()
            .with_kill(1, VTime::us(60))
            .with_degrade(DegradeWindow {
                worker: 2,
                from: VTime::us(100),
                until: VTime::us(400),
                factor: 50.0,
            })
            .with_detector(Detector::Message)
            .with_suspect(VTime::us(30));
        assert_feed_covers_brute_force(plan, 4, 1_000);
        // Lossy: every worker is a candidate; drops carve suspicion
        // intervals out of live workers' beat streams.
        let mut lossy = FaultPlan::none()
            .with_detector(Detector::Message)
            .with_suspect(VTime::us(30));
        lossy.msg_drop_p = 0.5;
        lossy.seed = 9;
        assert_feed_covers_brute_force(lossy, 4, 2_000);
    }

    #[test]
    fn death_feed_is_silent_for_steady_workers() {
        // Oracle, one kill: the feed names only the killed worker, once.
        let plan = FaultPlan::none().with_kill(1, VTime::us(60));
        let mut fs = FaultState::new(plan, 8);
        let (mut cursor, mut out) = (0usize, Vec::new());
        fs.death_candidates(&mut cursor, VTime::secs(1), &mut out);
        assert_eq!(out, vec![1]);
        // A transient-only plan (no recovery armed) feeds nothing at all.
        let mut fs = FaultState::new(FaultPlan::transient(0.1, 3), 8);
        let (mut cursor, mut out) = (0usize, Vec::new());
        fs.death_candidates(&mut cursor, VTime::secs(1), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn death_feed_is_poll_granularity_independent() {
        // The feed is a pure function of the plan: polling every 1us and
        // polling once at the horizon must generate identical events.
        let mut plan = FaultPlan::none()
            .with_kill(1, VTime::us(777))
            .with_detector(Detector::Message)
            .with_suspect(VTime::us(30));
        plan.msg_drop_p = 0.4;
        plan.seed = 12;
        let horizon = VTime::us(3_000);
        let mut fine = FaultState::new(plan.clone(), 3);
        let (mut cursor, mut sink) = (0usize, Vec::new());
        for t in (0..3_000).map(VTime::us) {
            fine.death_candidates(&mut cursor, t, &mut sink);
        }
        let mut coarse = FaultState::new(plan, 3);
        let (mut cursor2, mut sink2) = (0usize, Vec::new());
        coarse.death_candidates(&mut cursor2, horizon, &mut sink2);
        let upto = |fs: &FaultState| -> Vec<(VTime, WorkerId)> {
            fs.watch
                .events
                .iter()
                .copied()
                .take_while(|&(t, _)| t <= horizon)
                .collect()
        };
        assert_eq!(upto(&fine), upto(&coarse));
        assert!(!sink2.is_empty(), "drops at p=0.4 must produce suspicions");
    }

    #[test]
    fn msg_fates_deterministic_and_distributed() {
        let mut plan = FaultPlan::none();
        plan.msg_drop_p = 0.3;
        plan.msg_dup_p = 0.3;
        plan.seed = 7;
        let mut a = FaultState::new(plan.clone(), 1);
        let mut b = FaultState::new(plan, 1);
        let fates_a: Vec<_> = (0..100).map(|_| a.msg_fate(0, true)).collect();
        let fates_b: Vec<_> = (0..100).map(|_| b.msg_fate(0, true)).collect();
        assert_eq!(fates_a, fates_b);
        assert!(fates_a.contains(&MsgFate::Drop));
        assert!(fates_a.contains(&MsgFate::Duplicate));
        assert!(fates_a.contains(&MsgFate::Deliver));
        // Non-droppable messages are never dropped.
        assert!((0..200).all(|_| a.msg_fate(0, false) != MsgFate::Drop));
    }
}
