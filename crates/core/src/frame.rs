//! Continuation frames and virtual threads.
//!
//! The original system migrates *native call stacks* between nodes; stacks
//! stay valid because the uni-address scheme pins them to identical virtual
//! addresses everywhere. Safe Rust cannot replay that trick inside one
//! process (all OS threads share one address space), so this reproduction
//! represents a thread's stack as an explicit, position-independent vector of
//! [`Frame`]s — boxed one-shot continuations, each of which knows the byte
//! size of its captured state. The performance-relevant properties of real
//! stacks are preserved:
//!
//! * a continuation can be stolen/suspended/resumed only at the same points
//!   the real runtime allows (spawn, join, compute boundaries),
//! * migrating a thread costs `get_bulk(stack_bytes)` on the fabric, where
//!   `stack_bytes` grows with nesting depth and captured state exactly like
//!   a native stack (the paper measures 1–2 KB median stolen stacks),
//! * the uni-address placement discipline is enforced through
//!   [`dcs_uniaddr::UniRegion`] via the [`VThread::home`] slot.
//!
//! Task code is written in continuation-passing style against [`Effect`]:
//! each step of a task either returns, calls, forks, joins, or computes; the
//! scheduler interprets the effect per its stealing policy.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use dcs_sim::{VTime, WorkerId};
use dcs_uniaddr::StackSlot;

use crate::value::{ThreadHandle, Value};

/// Entry point of a task body. Being a plain function pointer (plus a
/// [`Value`] argument) is exactly what makes a *child-stealing* task
/// descriptor trivially migratable — the paper's 56-byte stolen tasks.
pub type TaskFn = fn(Value, &mut TaskCtx) -> Effect;

/// Application context shared by all tasks of a run (input arrays, workload
/// parameters). Read-only; models data replicated at program start.
pub type AppCtx = Arc<dyn Any + Send + Sync>;

/// Per-resume context handed to task code.
pub struct TaskCtx<'a> {
    /// Worker currently executing the task.
    pub worker: WorkerId,
    /// Application data for the run.
    pub app: &'a AppCtx,
    /// Machine compute-speed scale (1.0 = ITO-A-like Xeon); task code
    /// multiplies its kernel durations by this.
    pub compute_scale: f64,
}

impl<'a> TaskCtx<'a> {
    /// Downcast the application context; panics on type mismatch (a wiring
    /// bug, not a runtime condition).
    #[track_caller]
    pub fn app<T: 'static>(&self) -> &T {
        self.app
            .downcast_ref::<T>()
            .expect("application context type mismatch")
    }

    /// Scale a nominal compute duration for the current machine.
    pub fn scaled(&self, base: VTime) -> VTime {
        base.scale(self.compute_scale)
    }
}

/// Host-side work performed inside a `Compute` effect: real computation whose
/// result feeds the continuation (e.g. the LCS leaf kernel, UTS hash
/// expansion). Charged `dur` of virtual time regardless of host cost.
pub type HostWork = Box<dyn FnOnce(&mut TaskCtx) -> Value + Send>;

/// What a task does next. Produced by every frame resume / task start.
///
/// No effect lets task code read or write memory: as in the paper (§VII),
/// a task exchanges data only through its argument, its return value and
/// the futures it joins.
pub enum Effect {
    /// Return `v` to the calling frame (or complete the thread if the stack
    /// is empty, triggering the DIE protocol).
    Return(Value),
    /// Ordinary (non-stealable) call on the same thread stack: push `cont`,
    /// then run `callee(arg)`.
    Call {
        callee: TaskFn,
        arg: Value,
        cont: Box<dyn Frame>,
    },
    /// Spawn a child thread. Under continuation stealing the *continuation*
    /// (`cont`, resumed with `Value::Handle`) becomes stealable and the
    /// child runs first; under child stealing the *child descriptor* becomes
    /// stealable and `cont` runs immediately.
    Fork {
        child: TaskFn,
        arg: Value,
        /// Consumer multiplicity of the created future (1 = plain fork-join).
        consumers: u32,
        cont: Box<dyn Frame>,
    },
    /// Join a thread/future; `cont` is resumed with the joined return value.
    Join {
        handle: ThreadHandle,
        cont: Box<dyn Frame>,
    },
    /// Spend `dur` of virtual compute time, optionally running real host
    /// work, then resume `cont` with the work's result (or `Unit`).
    Compute {
        dur: VTime,
        work: Option<HostWork>,
        cont: Box<dyn Frame>,
    },
    /// Cooperatively yield the processor: the continuation is re-enqueued
    /// as ready work (stealable under continuation stealing; wait-queued
    /// for fully-fledged child threads) and the worker schedules something
    /// else. §II-C: the generic suspension capability behind yields, locks
    /// and barriers. Run-to-completion threads cannot yield by definition.
    Yield { cont: Box<dyn Frame> },
}

impl Effect {
    pub fn ret(v: impl Into<Value>) -> Effect {
        Effect::Return(v.into())
    }

    pub fn call(callee: TaskFn, arg: impl Into<Value>, cont: Box<dyn Frame>) -> Effect {
        Effect::Call {
            callee,
            arg: arg.into(),
            cont,
        }
    }

    pub fn fork(child: TaskFn, arg: impl Into<Value>, cont: Box<dyn Frame>) -> Effect {
        Effect::Fork {
            child,
            arg: arg.into(),
            consumers: 1,
            cont,
        }
    }

    /// Fork a future with `consumers` consumers (§V-D).
    pub fn fork_future(
        child: TaskFn,
        arg: impl Into<Value>,
        consumers: u32,
        cont: Box<dyn Frame>,
    ) -> Effect {
        assert!(consumers >= 1, "a future needs at least one consumer");
        Effect::Fork {
            child,
            arg: arg.into(),
            consumers,
            cont,
        }
    }

    pub fn join(handle: ThreadHandle, cont: Box<dyn Frame>) -> Effect {
        Effect::Join { handle, cont }
    }

    pub fn compute(dur: VTime, cont: Box<dyn Frame>) -> Effect {
        Effect::Compute {
            dur,
            work: None,
            cont,
        }
    }

    pub fn compute_with(dur: VTime, work: HostWork, cont: Box<dyn Frame>) -> Effect {
        Effect::Compute {
            dur,
            work: Some(work),
            cont,
        }
    }

    pub fn yield_now(cont: Box<dyn Frame>) -> Effect {
        Effect::Yield { cont }
    }
}

impl fmt::Debug for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Effect::Return(v) => write!(f, "Return({v:?})"),
            Effect::Call { .. } => write!(f, "Call"),
            Effect::Fork { consumers, .. } => write!(f, "Fork(consumers={consumers})"),
            Effect::Join { handle, .. } => write!(f, "Join({:?})", handle.entry),
            Effect::Compute { dur, .. } => write!(f, "Compute({dur})"),
            Effect::Yield { .. } => write!(f, "Yield"),
        }
    }
}

/// Fixed per-frame byte overhead modelling what a native frame carries beyond
/// captured locals: return address, saved registers, frame linkage, padding.
/// Chosen so that typical stolen stacks land in the paper's 1–2 KB band.
pub const FRAME_OVERHEAD: usize = 96;

/// Base bytes of any thread context (register file + thread descriptor).
pub const CONTEXT_BASE: usize = 256;

/// A one-shot continuation: the rest of a task after a suspension point.
pub trait Frame: Send {
    /// Consume the frame, feeding it the value produced by whatever it was
    /// waiting on (callee return, fork handle, join result, compute result).
    fn resume(self: Box<Self>, input: Value, ctx: &mut TaskCtx) -> Effect;

    /// Bytes this frame occupies on the (migratable) stack.
    fn size(&self) -> usize;
}

/// Closure-backed frame. `size` is the closure's captured state plus
/// [`FRAME_OVERHEAD`], so deeper/fatter continuations cost more to migrate —
/// the same scaling a native stack has.
struct FnFrame<F> {
    f: F,
    size: usize,
}

impl<F> Frame for FnFrame<F>
where
    F: FnOnce(Value, &mut TaskCtx) -> Effect + Send,
{
    fn resume(self: Box<Self>, input: Value, ctx: &mut TaskCtx) -> Effect {
        (self.f)(input, ctx)
    }

    fn size(&self) -> usize {
        self.size
    }
}

/// Box a closure as a continuation frame.
pub fn frame<F>(f: F) -> Box<dyn Frame>
where
    F: FnOnce(Value, &mut TaskCtx) -> Effect + Send + 'static,
{
    let size = std::mem::size_of::<F>() + FRAME_OVERHEAD;
    Box::new(FnFrame { f, size })
}

/// A frame that ignores its input and returns a fixed value; handy terminal
/// continuation for leaf tasks.
pub fn ret_frame(v: impl Into<Value>) -> Box<dyn Frame> {
    let v = v.into();
    frame(move |_, _| Effect::Return(v))
}

/// What a thread will do when next scheduled.
pub enum Pending {
    /// Begin executing a task body (fresh thread).
    Start(TaskFn, Value),
    /// Pop the top frame and resume it with the value.
    Resume(Value),
    /// Suspended at a join: the resumer injects the joined value, turning
    /// this into `Resume`.
    AwaitValue,
}

impl fmt::Debug for Pending {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pending::Start(..) => write!(f, "Start"),
            Pending::Resume(v) => write!(f, "Resume({v:?})"),
            Pending::AwaitValue => write!(f, "AwaitValue"),
        }
    }
}

/// A virtual thread: explicit stack of frames + what to do next + uni-address
/// placement bookkeeping.
pub struct VThread {
    pub frames: Vec<Box<dyn Frame>>,
    pub pending: Pending,
    /// The thread's home stack slot in the uni-address region (assigned at
    /// first placement; migration must re-claim this exact range).
    pub home: Option<StackSlot>,
    /// Unique id, for profiling and debug assertions.
    pub tid: u64,
    /// This thread's own entry — passed to DIE when it completes. The root
    /// thread carries the NULL handle.
    pub own: ThreadHandle,
    /// Set while the thread is suspended at a join: (suspend time, entry
    /// address). Cleared — and turned into an outstanding-join statistic —
    /// when the thread actually resumes.
    pub suspension: Option<(VTime, u64)>,
    /// Fail-stop lineage back-pointer (armed fault plans only): the
    /// `(worker, index)` of this thread's origin record in the shared
    /// lineage log, marked done when the thread dies and re-keyed when it
    /// migrates (the record always lives with the worker that physically
    /// holds the thread). `None` for non-replayable threads (ChildFull,
    /// unstolen ChildRtc children) and in every run without an armed plan.
    pub replay_rec: Option<(usize, usize)>,
}

impl VThread {
    /// Fresh thread about to start `f(arg)`, reporting to entry `own`.
    pub fn new(tid: u64, f: TaskFn, arg: Value, own: ThreadHandle) -> VThread {
        VThread {
            frames: Vec::new(),
            pending: Pending::Start(f, arg),
            home: None,
            tid,
            own,
            suspension: None,
            replay_rec: None,
        }
    }

    /// Execute one step: run the pending action to produce the next effect.
    pub fn advance(&mut self, ctx: &mut TaskCtx) -> Effect {
        match std::mem::replace(&mut self.pending, Pending::AwaitValue) {
            Pending::Start(f, arg) => f(arg, ctx),
            Pending::Resume(v) => {
                let top = self
                    .frames
                    .pop()
                    .expect("advance called on completed thread");
                top.resume(v, ctx)
            }
            Pending::AwaitValue => panic!("advance called on suspended thread {}", self.tid),
        }
    }

    /// True when a `Resume` would complete the thread (no frames left).
    pub fn would_complete(&self) -> bool {
        self.frames.is_empty()
    }

    /// Inject the joined value into a thread suspended at a join.
    pub fn supply(&mut self, v: Value) {
        debug_assert!(
            matches!(self.pending, Pending::AwaitValue),
            "supply on non-suspended thread"
        );
        self.pending = Pending::Resume(v);
    }

    /// Migratable stack size in bytes: context base + every frame + any
    /// in-flight pending value.
    pub fn stack_bytes(&self) -> usize {
        let frames: usize = self.frames.iter().map(|f| f.size()).sum();
        let pending = match &self.pending {
            Pending::Start(_, arg) => arg.wire_size(),
            Pending::Resume(v) => v.wire_size(),
            Pending::AwaitValue => 0,
        };
        CONTEXT_BASE + frames + pending
    }
}

impl fmt::Debug for VThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VThread(tid={}, depth={}, {:?}, {} B)",
            self.tid,
            self.frames.len(),
            self.pending,
            self.stack_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_sim::GlobalAddr;

    fn ctx_app() -> AppCtx {
        Arc::new(42u32)
    }

    fn mk_ctx(app: &AppCtx) -> TaskCtx<'_> {
        TaskCtx {
            worker: 0,
            app,
            compute_scale: 2.0,
        }
    }

    fn doubler(arg: Value, _ctx: &mut TaskCtx) -> Effect {
        Effect::ret(arg.as_u64() * 2)
    }

    fn null_h() -> ThreadHandle {
        ThreadHandle::single(GlobalAddr::NULL)
    }

    #[test]
    fn start_and_return() {
        let app = ctx_app();
        let mut ctx = mk_ctx(&app);
        let mut t = VThread::new(1, doubler, Value::U64(21), null_h());
        match t.advance(&mut ctx) {
            Effect::Return(v) => assert_eq!(v.as_u64(), 42),
            e => panic!("unexpected {e:?}"),
        }
        assert!(t.would_complete());
    }

    #[test]
    fn frames_resume_in_lifo_order() {
        let app = ctx_app();
        let mut ctx = mk_ctx(&app);
        let mut t = VThread::new(2, doubler, Value::U64(1), null_h());
        // Manually push two continuations: +10 then *100 (LIFO: *100 first).
        t.frames
            .push(frame(|v, _| Effect::ret(v.as_u64() + 10)));
        t.frames
            .push(frame(|v, _| Effect::ret(v.as_u64() * 100)));
        let v0 = match t.advance(&mut ctx) {
            Effect::Return(v) => v,
            e => panic!("{e:?}"),
        };
        t.pending = Pending::Resume(v0);
        let v1 = match t.advance(&mut ctx) {
            Effect::Return(v) => v,
            e => panic!("{e:?}"),
        };
        assert_eq!(v1.as_u64(), 200);
        t.pending = Pending::Resume(v1);
        let v2 = match t.advance(&mut ctx) {
            Effect::Return(v) => v,
            e => panic!("{e:?}"),
        };
        assert_eq!(v2.as_u64(), 210);
        assert!(t.would_complete());
    }

    #[test]
    fn stack_bytes_grow_with_depth_and_captures() {
        let mut t = VThread::new(3, doubler, Value::Unit, null_h());
        let empty = t.stack_bytes();
        t.frames.push(frame(|_, _| Effect::ret(0u64)));
        let one = t.stack_bytes();
        assert!(one > empty);
        let big = [0u64; 32];
        t.frames.push(frame(move |_, _| Effect::ret(big[0])));
        let two = t.stack_bytes();
        assert!(two >= one + FRAME_OVERHEAD + 32 * 8);
    }

    #[test]
    fn suspend_and_supply() {
        let app = ctx_app();
        let mut ctx = mk_ctx(&app);
        let mut t = VThread::new(4, doubler, Value::U64(0), null_h());
        t.frames.push(frame(|v, _| Effect::ret(v.as_u64() + 1)));
        t.pending = Pending::AwaitValue;
        t.supply(Value::U64(9));
        match t.advance(&mut ctx) {
            Effect::Return(v) => assert_eq!(v.as_u64(), 10),
            e => panic!("{e:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "suspended thread")]
    fn advancing_suspended_thread_panics() {
        let app = ctx_app();
        let mut ctx = mk_ctx(&app);
        let mut t = VThread::new(5, doubler, Value::Unit, null_h());
        t.pending = Pending::AwaitValue;
        let _ = t.advance(&mut ctx);
    }

    #[test]
    fn task_ctx_helpers() {
        let app = ctx_app();
        let ctx = mk_ctx(&app);
        assert_eq!(*ctx.app::<u32>(), 42);
        assert_eq!(ctx.scaled(VTime::us(10)), VTime::us(20));
    }

    #[test]
    fn effect_constructors() {
        let h = ThreadHandle::single(GlobalAddr::new(0, 8));
        assert!(matches!(
            Effect::fork_future(doubler, 0u64, 3, ret_frame(0u64)),
            Effect::Fork { consumers: 3, .. }
        ));
        assert!(matches!(
            Effect::join(h, ret_frame(0u64)),
            Effect::Join { .. }
        ));
        assert!(matches!(
            Effect::compute(VTime::us(1), ret_frame(0u64)),
            Effect::Compute { work: None, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "at least one consumer")]
    fn zero_consumer_future_rejected() {
        let _ = Effect::fork_future(doubler, 0u64, 0, ret_frame(0u64));
    }
}
