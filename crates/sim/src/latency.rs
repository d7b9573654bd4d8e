//! Latency and machine models.
//!
//! [`LatencyModel`] assigns a virtual-time cost to every class of simulated
//! operation. [`MachineProfile`] bundles a latency model with a compute-speed
//! scale so that applications can express compute kernels in "ITO-A time" and
//! have them automatically slowed down on the A64FX-like profile.
//!
//! The presets in [`profiles`] are calibrated so that the *composite*
//! operation costs land near the paper's measurements (Table II):
//!
//! * a successful child steal (queue lock CAS + metadata get + 56 B descriptor
//!   get + unlock put) ≈ 20–30 µs,
//! * a successful continuation steal additionally moves a 1–2 KB call stack,
//!   adding < 20% latency,
//! * an RDMA atomic (fetch-and-add) round trip is slightly costlier than a
//!   small get.

use crate::time::VTime;

/// Virtual-time cost of each simulated operation class.
///
/// All values are nanoseconds except `bytes_per_ns` (effective small-message
/// bandwidth used to charge bulk payloads on top of the base latency).
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyModel {
    /// A purely local operation (deque push/pop, local flag check, allocator
    /// touch). Mirrors a handful of cache accesses.
    pub local_op: u64,
    /// CPU-side cost of injecting any one-sided verb (descriptor setup,
    /// doorbell). Paid even for non-blocking puts.
    pub injection: u64,
    /// Round-trip latency of a small (≤ 8 B) RDMA read.
    pub rdma_get: u64,
    /// Round-trip latency of a small RDMA write (the issuer waits for the
    /// completion; see [`crate::machine::Machine::post_unsignaled`] for the
    /// fire-and-forget variant that only costs `injection`).
    pub rdma_put: u64,
    /// Round-trip latency of an RDMA atomic (fetch-and-add / CAS).
    pub rdma_amo: u64,
    /// Effective bandwidth for bulk payloads, bytes per nanosecond. Charged as
    /// `len / bytes_per_ns` *on top of* the base get/put latency. Deliberately
    /// set to the small-message effective bandwidth (far below line rate)
    /// because stolen stacks are 1–2 KB.
    pub bytes_per_ns: f64,
    /// Cost of a full user-level context switch (saving/restoring a
    /// suspended thread, starting a fully-fledged thread on a fresh stack).
    pub ctx_switch: u64,
    /// Cost of resuming a continuation whose stack is already resident in
    /// the uni-address region (popping the parent at DIE, taking a deque
    /// continuation): close to a subroutine return.
    pub ctx_restore: u64,
    /// One-way latency of a two-sided (active message) send. Used only by the
    /// message-based baselines (Charm++/X10-style stealing in `dcs-bot`).
    pub message: u64,
    /// CPU cost, at the receiver, of handling one two-sided message
    /// (progress-engine interruption — the cost RDMA designs avoid).
    pub msg_handler: u64,
}

impl LatencyModel {
    /// Cost of a small one-sided read.
    #[inline]
    pub fn get_small(&self) -> VTime {
        VTime::ns(self.injection + self.rdma_get)
    }

    /// Cost of a blocking small one-sided write.
    #[inline]
    pub fn put_small(&self) -> VTime {
        VTime::ns(self.injection + self.rdma_put)
    }

    /// Cost of a non-blocking small write (issuer does not wait).
    #[inline]
    pub fn put_nb(&self) -> VTime {
        VTime::ns(self.injection)
    }

    /// Cost of a one-sided atomic.
    #[inline]
    pub fn amo(&self) -> VTime {
        VTime::ns(self.injection + self.rdma_amo)
    }

    /// Payload term for a bulk transfer of `len` bytes.
    #[inline]
    pub fn payload(&self, len: usize) -> VTime {
        VTime::ns((len as f64 / self.bytes_per_ns).round() as u64)
    }

    /// Cost of a bulk one-sided read of `len` bytes.
    #[inline]
    pub fn get_bulk(&self, len: usize) -> VTime {
        self.get_small() + self.payload(len)
    }

    /// Cost of a bulk one-sided write of `len` bytes.
    #[inline]
    pub fn put_bulk(&self, len: usize) -> VTime {
        self.put_small() + self.payload(len)
    }

    #[inline]
    pub fn local(&self) -> VTime {
        VTime::ns(self.local_op)
    }

    #[inline]
    pub fn ctx_switch(&self) -> VTime {
        VTime::ns(self.ctx_switch)
    }

    #[inline]
    pub fn ctx_restore(&self) -> VTime {
        VTime::ns(self.ctx_restore)
    }
}

/// A named machine configuration: latency model + compute scaling.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineProfile {
    pub name: &'static str,
    pub latency: LatencyModel,
    /// Multiplier applied by applications to compute-kernel durations.
    /// 1.0 on the Xeon-like profile; > 1 on the slower A64FX-like profile.
    pub compute_scale: f64,
}

impl MachineProfile {
    /// Scale an application compute duration for this machine.
    #[inline]
    pub fn compute(&self, base: VTime) -> VTime {
        base.scale(self.compute_scale)
    }
}

/// Calibrated machine presets.
pub mod profiles {
    use super::{LatencyModel, MachineProfile};

    /// ITO-A-like: Intel Xeon Gold 6154 (3.0 GHz) + InfiniBand EDR 4x,
    /// Open MPI 5 / UCX one-sided backend.
    ///
    /// Composite costs with this model: child steal ≈ 26 µs, continuation
    /// steal ≈ 30 µs with a 1.8 KB stack (paper: 27.7 µs / 31.6 µs).
    pub fn itoa() -> MachineProfile {
        MachineProfile {
            name: "ITO-A",
            latency: LatencyModel {
                local_op: 10,
                injection: 300,
                rdma_get: 5_200,
                rdma_put: 5_000,
                rdma_amo: 6_000,
                bytes_per_ns: 0.45,
                ctx_switch: 350,
                ctx_restore: 30,
                message: 7_000,
                msg_handler: 2_500,
            },
            compute_scale: 1.0,
        }
    }

    /// Wisteria-O-like: Fujitsu A64FX (2.2 GHz) + Tofu Interconnect-D.
    /// Lower network latency than ITO-A (paper Table II: ~20 µs steals vs.
    /// ~28 µs) but slower cores (serial UTS 1.55 vs. 5.27 Mnodes/s, LCS leaf
    /// 0.872 vs. 0.340 ms ⇒ compute_scale ≈ 2.56) and costlier context
    /// switches (§V-B: "Full threads incur larger overheads on WISTERIA-O
    /// because of their relatively large context switching costs").
    pub fn wisteria() -> MachineProfile {
        MachineProfile {
            name: "Wisteria-O",
            latency: LatencyModel {
                local_op: 18,
                injection: 250,
                rdma_get: 3_600,
                rdma_put: 3_400,
                rdma_amo: 4_200,
                bytes_per_ns: 0.40,
                ctx_switch: 1_400,
                ctx_restore: 100,
                message: 5_200,
                msg_handler: 3_500,
            },
            compute_scale: 2.56,
        }
    }

    /// A zero-latency model for unit tests: all operations cost 1 ns so that
    /// schedules still interleave deterministically but tests run fast and
    /// timing asserts stay trivial.
    pub fn test_profile() -> MachineProfile {
        MachineProfile {
            name: "test",
            latency: LatencyModel {
                local_op: 1,
                injection: 1,
                rdma_get: 1,
                rdma_put: 1,
                rdma_amo: 1,
                bytes_per_ns: 1024.0,
                ctx_switch: 1,
                ctx_restore: 1,
                message: 1,
                msg_handler: 1,
            },
            compute_scale: 1.0,
        }
    }

    /// All known profiles by name (used by benchmark binaries' CLI).
    pub fn by_name(name: &str) -> Option<MachineProfile> {
        match name {
            "itoa" | "ito-a" | "ITO-A" => Some(itoa()),
            "wisteria" | "wisteria-o" | "Wisteria-O" => Some(wisteria()),
            "test" => Some(test_profile()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_steal_costs_match_paper_shape() {
        let m = profiles::itoa();
        let l = &m.latency;
        // Child steal: lock CAS + bounds get + descriptor get + unlock put.
        let child = l.amo() + l.get_small() + l.get_bulk(56) + l.put_nb();
        // Continuation steal: same protocol + 1.8 KB stack payload + entry update.
        let cont = l.amo() + l.get_small() + l.get_bulk(1800) + l.put_nb();
        let child_us = child.as_us_f64();
        let cont_us = cont.as_us_f64();
        assert!(
            (15.0..40.0).contains(&child_us),
            "child steal {child_us} µs out of calibration window"
        );
        // Paper: continuation steal latency < 20% above child steal.
        let overhead = cont_us / child_us - 1.0;
        assert!(
            overhead > 0.02 && overhead < 0.35,
            "cont-steal overhead {overhead} not in plausible band"
        );
    }

    #[test]
    fn wisteria_is_lower_latency_but_slower_compute() {
        let a = profiles::itoa();
        let w = profiles::wisteria();
        assert!(w.latency.rdma_get < a.latency.rdma_get);
        assert!(w.compute_scale > a.compute_scale);
        assert!(w.latency.ctx_switch > a.latency.ctx_switch);
    }

    #[test]
    fn payload_costs_scale_with_length() {
        let l = profiles::itoa().latency;
        assert!(l.get_bulk(2048) > l.get_bulk(56));
        assert_eq!(l.payload(0), VTime::ZERO);
    }

    #[test]
    fn profile_lookup() {
        assert_eq!(profiles::by_name("itoa").unwrap().name, "ITO-A");
        assert_eq!(profiles::by_name("wisteria").unwrap().name, "Wisteria-O");
        assert!(profiles::by_name("nonexistent").is_none());
    }

    use crate::time::VTime;

    #[test]
    fn compute_scaling() {
        let w = profiles::wisteria();
        assert_eq!(w.compute(VTime::us(100)), VTime::ns(256_000));
    }
}
