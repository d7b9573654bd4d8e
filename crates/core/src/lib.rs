//! # dcs-core — distributed continuation stealing / child stealing runtime
//!
//! The paper's contribution, reproduced on a simulated RDMA cluster
//! (`dcs-sim`): a work-stealing runtime for fork-join and future parallelism
//! on distributed memory, supporting four scheduling configurations
//! ([`Policy`]):
//!
//! * **continuation stealing** with the **greedy** RDMA join of Fig. 4
//!   (work-first fast path, fetch-and-add race, migration of suspended
//!   joiners) — the paper's headline configuration,
//! * continuation stealing with the **stalling** join of Fig. 3 (original
//!   MassiveThreads/DM),
//! * **child stealing** with fully-fledged (suspendable, tied) threads,
//! * child stealing with run-to-completion threads (buried joins).
//!
//! plus the two remote-object memory managers of §III-B
//! ([`FreeStrategy`]): the lock-queue baseline and the paper's *local
//! collection*.
//!
//! ## Writing programs
//!
//! Task code is continuation-passing: a task is a `fn(Value, &mut TaskCtx)
//! -> Effect`, and continuations are closures boxed with [`frame()`]. See
//! `dcs-apps` for complete benchmarks (PFor, RecPFor, UTS, LCS) and the
//! workspace `examples/` for commented walk-throughs.
//!
//! ```
//! use dcs_core::prelude::*;
//!
//! // Parallel sum of 0..n via binary fork-join.
//! fn sum(arg: Value, _: &mut TaskCtx) -> Effect {
//!     let (lo, hi) = arg.into_pair();
//!     let (lo, hi) = (lo.as_u64(), hi.as_u64());
//!     if hi - lo == 1 {
//!         return Effect::ret(lo);
//!     }
//!     let mid = (lo + hi) / 2;
//!     Effect::fork(sum, Value::pair(lo.into(), mid.into()), frame(move |h, _| {
//!         let h = h.as_handle();
//!         Effect::call(sum, Value::pair(mid.into(), hi.into()), frame(move |right, _| {
//!             let right = right.as_u64();
//!             Effect::join(h, frame(move |left, _| Effect::ret(left.as_u64() + right)))
//!         }))
//!     }))
//! }
//!
//! let cfg = RunConfig::new(4, Policy::ContGreedy).with_profile(profiles::test_profile());
//! let report = run(cfg, Program::new(sum, Value::pair(0u64.into(), 128u64.into())));
//! assert_eq!(report.result.as_u64(), (0..128).sum::<u64>());
//! ```

pub mod dedup;
pub mod deque;
pub mod entry;
pub mod frame;
pub mod layout;
pub mod policy;
pub mod remote_free;
pub mod runner;
pub mod sched;
pub mod stats;
pub mod steal;
pub mod trace;
pub mod util;
pub mod value;
pub mod watchdog;
pub mod world;

pub use dedup::ClaimSet;
pub use frame::{frame, ret_frame, AppCtx, Effect, Frame, HostWork, TaskCtx, TaskFn, VThread};
pub use policy::{AddressScheme, FreeStrategy, Policy, Protocol, RunConfig, SlowdownWindow, TraceLevel, VictimPolicy};
pub use runner::{run, run_full, run_hooked, Program, RunOutcome, RunReport};
pub use stats::{DelayReport, RunStats};
pub use trace::chrome_trace;
pub use value::{ThreadHandle, Value};
pub use watchdog::{Violation, Watchdog, WatchdogReport};
pub use world::UnrecoverableReason;

/// Convenient glob import for writing programs and harnesses.
pub mod prelude {
    pub use crate::frame::{frame, ret_frame, Effect, TaskCtx, TaskFn};
    pub use crate::policy::{AddressScheme, FreeStrategy, Policy, Protocol, RunConfig, SlowdownWindow, TraceLevel, VictimPolicy};
    pub use crate::runner::{run, run_full, run_hooked, Program, RunOutcome, RunReport};
    pub use crate::value::{ThreadHandle, Value};
    pub use crate::watchdog::{Violation, WatchdogReport};
    pub use dcs_sim::{profiles, FabricMode, FaultPlan, MachineProfile, Topology, VTime};
}
