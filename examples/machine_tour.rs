//! A tour of the simulated machine: what the runtime is built on.
//!
//! ```text
//! cargo run --release --example machine_tour
//! ```
//!
//! Shows the one-sided verbs, their calibrated costs on both machine
//! profiles, the uni-address versus iso-address address-space behaviour,
//! and the two remote-object freeing strategies — the substrates behind
//! every number in the paper reproduction.

use dcs::prelude::*;
use dcs::sim::{Machine, MachineConfig, Verb};
use dcs::uniaddr::{IsoAlloc, UniRegion};

fn main() {
    println!("== one-sided verb costs ==\n");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>14} {:>14}",
        "profile", "local op", "small get", "atomic", "get 56 B", "get 1.8 kB"
    );
    for profile in [profiles::itoa(), profiles::wisteria()] {
        let l = &profile.latency;
        println!(
            "{:<14} {:>12} {:>12} {:>12} {:>14} {:>14}",
            profile.name,
            l.local().to_string(),
            l.get_small().to_string(),
            l.amo().to_string(),
            (l.get_small() + l.payload(56)).to_string(),
            (l.get_small() + l.payload(1800)).to_string(),
        );
    }
    println!("\n(56 B = a child-stealing task descriptor; 1.8 kB = a typical");
    println!(" migrated continuation stack — <20% extra steal latency.)\n");

    println!("== verbs in action ==\n");
    let mut m = Machine::new(MachineConfig::new(2, profiles::itoa()).with_seg_bytes(1 << 16));
    let flag = m.alloc(1, 8); // worker 1 owns a flag word
    let (old, cost) = m.call(0, Verb::Faa(flag, 1));
    println!("worker 0: fetch_add on worker 1's flag: old={old}, cost={cost}");
    let (v, cost) = m.call(0, Verb::Get(flag));
    println!("worker 0: get the flag:                 v={v},   cost={cost}");
    let (v, cost) = m.call(1, Verb::Get(flag));
    println!("worker 1: get its own flag:             v={v},   cost={cost} (local)");
    let s = m.stats(0);
    println!(
        "worker 0 fabric counters: {} gets, {} atomics, {} bytes read\n",
        s.remote_gets, s.remote_amos, s.bytes_got
    );

    println!("== uni-address vs iso-address ==\n");
    const SLOT: u64 = 16 << 10;
    let mut uni = UniRegion::with_default_base(1 << 30);
    let mut iso = IsoAlloc::new();
    // Simulate 10 000 short-lived threads at nesting depth ≤ 3.
    for _ in 0..10_000 {
        let a = uni.place_child(None, SLOT);
        let b = uni.place_child(Some(a), SLOT);
        let c = uni.place_child(Some(b), SLOT);
        let (ia, ib, ic) = (iso.alloc(SLOT), iso.alloc(SLOT), iso.alloc(SLOT));
        uni.release(c);
        uni.release(b);
        uni.release(a);
        iso.free(ic);
        iso.free(ib);
        iso.free(ia);
    }
    println!(
        "uni-address pinned peak: {:>12} bytes (bounded by live depth)",
        uni.stats().peak_bytes
    );
    println!(
        "iso-address pinned peak: {:>12} bytes (grows with total threads)",
        iso.peak_bytes()
    );
    println!("\nthis is §II-D's motivation: RDMA needs stacks pinned, and the");
    println!("iso-address scheme would pin address space proportional to every");
    println!("thread ever created across the whole job.");
}
