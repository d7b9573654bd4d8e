//! # dcs-sim — a deterministic simulator of an RDMA-connected cluster
//!
//! This crate provides the machine substrate that the distributed
//! continuation-stealing runtime (`dcs-core`) runs on. The paper evaluated on
//! two real supercomputers (ITO-A: Xeon + InfiniBand EDR, Wisteria-O: A64FX +
//! Tofu-D) with MPI-3 RMA as the one-sided communication layer. Reproducing
//! that requires a cluster; instead we model the *performance-relevant*
//! behaviour exactly:
//!
//! * every worker is a simulated **process** with its own pinned memory
//!   [`Segment`] — a worker can touch remote memory *only* through one-sided
//!   verbs: one [`Verb`] type (get, span get, put, fetch-and-add, CAS,
//!   bulk get, bulk put) *posted* through one [`Machine::post`] and reaped
//!   from a per-worker completion queue ([`Machine::wait`] /
//!   [`Machine::poll_cq`]), exactly like `ibv_post_send` / `ibv_poll_cq`;
//!   [`Machine::post_unsignaled`] is the write that never completes on the
//!   queue, and the blocking form [`Machine::call`] is `post + wait`,
//! * each verb charges a calibrated latency ([`LatencyModel`], with presets for
//!   both machines in [`profiles`]) to the issuing worker's **virtual clock**
//!   and updates per-worker operation/byte counters ([`FabricStats`]),
//! * a discrete-event [`Engine`] runs worker [`Actor`]s strictly in
//!   smallest-virtual-clock-first order, which makes every simulation
//!   **deterministic** given a seed.
//!
//! Atomicity model: the memory effect of a verb is applied at issue time and
//! the round-trip latency is charged to the issuer. Races between workers
//! therefore resolve within one latency window of real hardware — the same
//! nondeterminism envelope physical RDMA has — while every individual
//! operation stays linearizable.

pub mod engine;
pub mod fault;
pub mod latency;
pub mod machine;
pub mod mailbox;
pub mod mem;
pub mod rng;
pub mod time;
pub mod topology;

pub use engine::{Actor, Engine, EventQueue, ScheduleHook, Step};
pub use fault::{CrashWindow, DegradeWindow, Detector, FaultPlan, KillEvent, MsgFate};
pub use latency::{profiles, LatencyModel, MachineProfile};
pub use machine::{
    Completion, FabricMode, FabricStats, Machine, MachineConfig, Verb, VerbHandle, Window,
};
pub use mailbox::Mailbox;
pub use mem::{GlobalAddr, SegAlloc, Segment, PAGE_BYTES, WORD};
pub use rng::SimRng;
pub use time::VTime;
pub use topology::Topology;

/// Identifier of a worker (= simulated process = node rank in the paper's
/// one-worker-per-core deployment).
pub type WorkerId = usize;
