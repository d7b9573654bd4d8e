//! Simulator integration tests: engine + machine + mailbox + topology
//! working together, exercised by small purpose-built actors.

use dcs_sim::{
    profiles, Actor, Engine, GlobalAddr, Machine, MachineConfig, Mailbox, SimRng, Step, Topology,
    VTime, Verb, WorkerId,
};

/// World for the ping-pong test: machine + mailbox.
struct PingWorld {
    m: Machine,
    mail: Mailbox<u64>,
}

/// Two actors bounce a counter via messages until it reaches a limit.
struct Pinger {
    peer: WorkerId,
    limit: u64,
    sent: u64,
    serve: bool,
}

impl Actor<PingWorld> for Pinger {
    fn step(&mut self, me: WorkerId, now: VTime, w: &mut PingWorld) -> Step {
        if let Some((_, v)) = w.mail.recv(me, now) {
            if v >= self.limit {
                return Step::Halt;
            }
            let cost = w.m.message_handled(me) + w.m.message_sent(me);
            let deliver = now + cost + VTime::ns(w.m.lat().message);
            w.mail.send(me, self.peer, deliver, v + 1);
            self.sent = v + 1;
            if v + 1 >= self.limit {
                return Step::Halt;
            }
            return Step::Yield(cost);
        }
        if self.serve {
            // Kick off the exchange once.
            self.serve = false;
            let cost = w.m.message_sent(me);
            let deliver = now + cost + VTime::ns(w.m.lat().message);
            w.mail.send(me, self.peer, deliver, 1);
            return Step::Yield(cost);
        }
        Step::Yield(w.m.local_op(me))
    }
}

#[test]
fn message_ping_pong_advances_virtual_time_consistently() {
    let m = Machine::new(MachineConfig::new(2, profiles::itoa()).with_seg_bytes(1 << 12));
    let one_way = VTime::ns(m.lat().message);
    let world = PingWorld {
        m,
        mail: Mailbox::new(2),
    };
    let actors = vec![
        Pinger {
            peer: 1,
            limit: 100,
            sent: 0,
            serve: true,
        },
        Pinger {
            peer: 0,
            limit: 100,
            sent: 0,
            serve: false,
        },
    ];
    let mut e = Engine::new(world, actors);
    let report = e.run();
    // 100 messages, each at least one one-way latency apart.
    assert!(report.end_time >= one_way * 100);
    assert!(e.world.mail.is_empty());
}

/// Counters distributed over a hierarchical machine: intra-node atomics are
/// cheaper, and every worker's final clock reflects its own operation mix.
struct Bumper {
    target: GlobalAddr,
    rounds: u32,
}

impl Actor<Machine> for Bumper {
    fn step(&mut self, me: WorkerId, _now: VTime, m: &mut Machine) -> Step {
        if self.rounds == 0 {
            return Step::Halt;
        }
        self.rounds -= 1;
        let (_, cost) = m.call(me, Verb::Faa(self.target, 1));
        Step::Yield(cost)
    }
}

#[test]
fn hierarchical_topology_speeds_up_intra_node_actors() {
    let topo = Topology::Hierarchical {
        node_size: 2,
        intra_factor: 0.25,
    };
    let mut m = Machine::new(
        MachineConfig::new(4, profiles::itoa())
            .with_seg_bytes(1 << 12)
            .with_topology(topo),
    );
    let target = m.alloc(1, 8); // lives on worker 1
    let actors: Vec<Bumper> = (0..4)
        .map(|_| Bumper { target, rounds: 50 })
        .collect();
    let mut e = Engine::new(m, actors);
    e.run();
    // All 200 increments landed.
    let (v, _) = e.world.call(1, Verb::Get(target));
    assert_eq!(v, 200);
    // Worker 0 shares a node with the target's owner: its 50 atomics are
    // cheaper, so its final clock is earlier than worker 2/3's.
    assert!(e.clock(0) < e.clock(2));
    assert!(e.clock(0) < e.clock(3));
    // The owner itself pays only local costs.
    assert!(e.clock(1) < e.clock(0));
}

/// Deterministic interleaving: a machine-wide FAA race has one winner per
/// value, and the exact sequence is reproducible across engine runs.
struct Racer {
    word: GlobalAddr,
    won: Vec<u64>,
    rng: SimRng,
    rounds: u32,
}

impl Actor<Machine> for Racer {
    fn step(&mut self, me: WorkerId, _now: VTime, m: &mut Machine) -> Step {
        if self.rounds == 0 {
            return Step::Halt;
        }
        self.rounds -= 1;
        let (old, cost) = m.call(me, Verb::Faa(self.word, 1));
        self.won.push(old);
        // Jitter the next attempt so interleavings vary.
        let jitter = VTime::ns(self.rng.below(500));
        Step::Yield(cost + jitter)
    }
}

#[test]
fn faa_race_is_linearizable_and_deterministic() {
    let build = || {
        let mut m = Machine::new(MachineConfig::new(3, profiles::itoa()).with_seg_bytes(1 << 12));
        let word = m.alloc(0, 8);
        let actors: Vec<Racer> = (0..3)
            .map(|w| Racer {
                word,
                won: Vec::new(),
                rng: SimRng::for_worker(42, w),
                rounds: 40,
            })
            .collect();
        Engine::new(m, actors)
    };
    let mut a = build();
    a.run();
    let mut b = build();
    b.run();
    // Every value 0..120 handed out exactly once (linearizable counter).
    let mut all: Vec<u64> = a.actors().iter().flat_map(|r| r.won.clone()).collect();
    all.sort_unstable();
    assert_eq!(all, (0..120).collect::<Vec<u64>>());
    // And the per-actor sequences are bit-identical across runs.
    for (x, y) in a.actors().iter().zip(b.actors()) {
        assert_eq!(x.won, y.won);
    }
}
