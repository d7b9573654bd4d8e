//! Behaviour pins for the scenario catalog: what every scenario does under
//! a handful of fixed schedules, what every committed `.schedule` fixture
//! replays to, and how many schedules the raw-deque scenarios explore.
//!
//! The tables are keyed by scenario name and only the names listed here are
//! checked, so adding a scenario to the catalog does not edit this file. A
//! refactor of `scenarios.rs` that claims "same behaviour" must leave every
//! number below alone: a digest covers the decisions taken, the branching
//! factor at each decision (which actors were still runnable, in which
//! clock order) and the violation text.

use dcs_check::{by_name, explore_exhaustive, RunRecord, Schedule};

/// The native schedule plus three fixed perturbations of it.
const VECTORS: [&[u32]; 4] = [&[], &[1], &[0, 1, 0, 2], &[2, 0, 0, 1, 1]];

/// FNV-1a over the record's decisions, branching factors and violations.
fn digest(rec: &RunRecord) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for part in [&rec.taken, &rec.eligible] {
        eat(&(part.len() as u64).to_le_bytes());
        for c in part {
            eat(&c.to_le_bytes());
        }
    }
    for v in &rec.violations {
        eat(v.as_bytes());
        eat(&[0xff]);
    }
    h
}

/// `(scenario, digests under VECTORS at catalog(2, 1), at catalog(3, 1))`.
#[rustfmt::skip]
const RUNS: &[(&str, [u64; 4], [u64; 4])] = &[
    ("deque-steal", [0x1085f2e8ad518f44, 0x32d3f07cdd9e5ed7, 0x9e89f34f9315a784, 0xfdd4b92e63b321f5], [0xc6f60726e2d16834, 0x47f86ff5b11626a6, 0xe8cb6c8e5417bf37, 0x72e8e60e019977c5]),
    ("broken-release", [0xdeb917c887297880, 0xf5a330cc5c5d29f4, 0xb8166d0423cf73e7, 0xe6e24b2a95bd28c6], [0xdeb917c887297880, 0xf5a330cc5c5d29f4, 0xb8166d0423cf73e7, 0xe6e24b2a95bd28c6]),
    ("deque-steal-pipelined", [0xdaea9025bd7af915, 0x749dfe2b57cd0526, 0x6ae9fe027940c215, 0xf0e5c74aefb4a9c4], [0x0c73e7fdab2a9504, 0x6b1863101f659be6, 0x40e7d98edaafed46, 0x72e8e60e019977c5]),
    ("lock-free-steal", [0xae05043739111364, 0x9f89f4aa53e957b4, 0x9e89f34f9315a784, 0x15c474ce64ae2807], [0x4eccb7976f05ead5, 0xfd59e446f6a1d2d7, 0x46be520f27f490a5, 0x50aabc24b0e5dfa5]),
    ("fence-free-steal", [0xae05043739111364, 0xd86876118826c627, 0x9e89f34f9315a784, 0x15c474ce64ae2807], [0x5be544c396d35226, 0xfd59e446f6a1d2d7, 0x5ce1614a00ec9d66, 0x50aabc24b0e5dfa5]),
    ("broken-claim", [0xb280f6f0ee740f25, 0x00b38d2e296fc1d5, 0xdb86b8b88e845267, 0x50ac1c11dc5861b5], [0xb280f6f0ee740f25, 0x00b38d2e296fc1d5, 0xdb86b8b88e845267, 0x50ac1c11dc5861b5]),
    ("multi-steal-probe", [0x476a3c25c9e897a5, 0xd35f7ca399e61b84, 0x535b003db7469344, 0x9c7ab47f18865204], [0x476a3c25c9e897a5, 0xd35f7ca399e61b84, 0x535b003db7469344, 0x9c7ab47f18865204]),
    ("multi-steal-probe-pipelined", [0xb09d68bcb9e12e96, 0x4a30727977bc8a57, 0xc7b11363343e43c5, 0x9c7ab47f18865204], [0xb09d68bcb9e12e96, 0x4a30727977bc8a57, 0xc7b11363343e43c5, 0x9c7ab47f18865204]),
    ("multi-steal-ff", [0xd88dc40fb7452987, 0x9abf24a1c723b526, 0x535b003db7469344, 0x9c7ab47f18865204], [0xd88dc40fb7452987, 0x9abf24a1c723b526, 0x535b003db7469344, 0x9c7ab47f18865204]),
    ("single-steal:greedy:lockq", [0xb5d341f7f60dc0b5, 0xbc842ed9f6c6dd34, 0x21d12211859bfe36, 0x4ae6708d199e2d04], [0x84a7897ecdff1254, 0xac3d41efb9ecd415, 0x95c3d5b05e5a2024, 0x6d3f613ac8cb5c94]),
    ("single-steal:greedy:localc", [0x8c22966c14bfcc04, 0x28706a23853204a5, 0x21d12211859bfe36, 0x0100786545348c75], [0x493826f732067256, 0xefe63bf90c7aa817, 0x318538f91662c435, 0x6d3f613ac8cb5c94]),
    ("single-steal-pipelined:greedy", [0x75b0c3ff558fe196, 0x7d475d86feefe657, 0x21d12211859bfe36, 0xe09d07b3aad25c87], [0x0a2fc2658dd73717, 0x6b31c7a4c15e4b16, 0xe6d36488c4c583c4, 0xb7f135ab1a689d05]),
    ("single-steal-ff:greedy", [0xf7e58d3031dd5e56, 0xacc93c80327fcc17, 0x21d12211859bfe36, 0x76575eaa5db61ad5], [0x69c4e4301acf4ef5, 0xaa5e22f21a5610d4, 0x58562dba5931c726, 0xf300afc9a5533a07]),
    ("single-steal:stalling:lockq", [0xb5d341f7f60dc0b5, 0xbc842ed9f6c6dd34, 0x21d12211859bfe36, 0x4ae6708d199e2d04], [0x84a7897ecdff1254, 0xac3d41efb9ecd415, 0x95c3d5b05e5a2024, 0x6d3f613ac8cb5c94]),
    ("single-steal:stalling:localc", [0x8c22966c14bfcc04, 0x28706a23853204a5, 0x21d12211859bfe36, 0x0100786545348c75], [0x493826f732067256, 0xefe63bf90c7aa817, 0x318538f91662c435, 0x6d3f613ac8cb5c94]),
    ("single-steal-pipelined:stalling", [0x75b0c3ff558fe196, 0x7d475d86feefe657, 0x21d12211859bfe36, 0xe09d07b3aad25c87], [0x0a2fc2658dd73717, 0x6b31c7a4c15e4b16, 0xe6d36488c4c583c4, 0xb7f135ab1a689d05]),
    ("single-steal-ff:stalling", [0xf7e58d3031dd5e56, 0xacc93c80327fcc17, 0x21d12211859bfe36, 0x76575eaa5db61ad5], [0x69c4e4301acf4ef5, 0xaa5e22f21a5610d4, 0x58562dba5931c726, 0xf300afc9a5533a07]),
    ("single-steal:child-full:lockq", [0xbc80060151babfe4, 0x7d475d86feefe657, 0x79bd1b9a14eb7404, 0xe09d07b3aad25c87], [0x6c44297d5595db46, 0x0304adfdc2c0d9a7, 0x276dea22eedcd1c4, 0x5afba8617f80f105]),
    ("single-steal:child-full:localc", [0xbc80060151babfe4, 0x487a5c98c18e4685, 0x79bd1b9a14eb7404, 0xc19aa94abc5d1855], [0x6c44297d5595db46, 0x0304adfdc2c0d9a7, 0xf5056bd8e1238a77, 0xea29bcd47c9668d7]),
    ("single-steal-pipelined:child-full", [0x2643303928f593f5, 0x9d2ae26a7ee83ff4, 0x980fc65118b90bd5, 0x27030310d12197c4], [0xee0710095e0ad1d5, 0x19ad1ace51498894, 0x2f85ce9c61dbd474, 0x5afba8617f80f105]),
    ("single-steal-ff:child-full", [0xbc80060151babfe4, 0x57a30120e36a9fe5, 0x79bd1b9a14eb7404, 0x493524062cbf6755], [0xdbb397b82a6a81e5, 0x3f16211139643144, 0x2a06d6d173390b36, 0xd91f5204ded6eb97]),
    ("single-steal:child-rtc:lockq", [0xbc80060151babfe4, 0x7d475d86feefe657, 0x79bd1b9a14eb7404, 0xe09d07b3aad25c87], [0x34a87238f68921a4, 0x4a1125ce841ba645, 0xb6430ca8e0de96e5, 0x8970d20c6dda9da4]),
    ("single-steal:child-rtc:localc", [0xbc80060151babfe4, 0x487a5c98c18e4685, 0x79bd1b9a14eb7404, 0xc19aa94abc5d1855], [0x34a87238f68921a4, 0x4a1125ce841ba645, 0xb6430ca8e0de96e5, 0x626e91c0a36ccbb5]),
    ("single-steal-pipelined:child-rtc", [0x5cb12800480f66d6, 0xc32f1888f03f6317, 0xcb08af5e4cd5e6b6, 0x59dd5a1729b2e8e7], [0x98e5d42833bc9526, 0x13ea136a7fec79c7, 0xb6430ca8e0de96e5, 0x0fc87d322b600fa5]),
    ("single-steal-ff:child-rtc", [0x75b0c3ff558fe196, 0x33a5c82d92f17037, 0x3f919c1391d67176, 0xd1f379c55adb2567], [0xf5f177bc2819b445, 0x0384f629fb5ea564, 0x6bcf7b3db4c67ad6, 0xb52dc78da30e4977]),
    ("fork-join", [0x61f6f20f630e5624, 0x2fa0a09f4a3904c5, 0x19ed3873e70dae84, 0xedecd2daa8faf7d5], [0xdf1a2cd16da69597, 0x6e0468b5eb3bae16, 0xfae6a362d99dec17, 0x8f616469d237d076]),
    ("fork-join-pipelined", [0x856d4ba356e5dde4, 0x03fd53f78f1e83a5, 0xef36995fdfdaa744, 0x1645f3b2f022de95], [0x18ae7879f5c08805, 0x49e195d3a24eb924, 0xfae6a362d99dec17, 0x8f616469d237d076]),
    ("fence-free-term", [0xb12fee088a4be516, 0xd3500c3b2f30bc25, 0x199b64bd5dd973b6, 0x278373722317c6b5], [0xf717aa54beb86246, 0x80a34c914a628ca7, 0xef9e2c7b97eb71d5, 0x0e8911a2d0ea6a34]),
    ("fence-free-term-pipelined", [0x5348cd364ae7f244, 0xd3500c3b2f30bc25, 0x862d9fc0dfa44224, 0x278373722317c6b5], [0x36f4418f9c3b8b96, 0x514145abd9a4e0d7, 0xfc25c4ffc5de0985, 0x9851bbfd2c2d4f44]),
    ("lock-free-term", [0x5348cd364ae7f244, 0x6c69d9f31c1ccc17, 0x862d9fc0dfa44224, 0x9ac7f5310d8f3407], [0x7e8cebc84dbb5765, 0xfe828da5294fb424, 0x33bbf96b13642ab6, 0xd4ce2f7df6b1d277]),
    ("multi-steal:cas-lock", [0x856d4ba356e5dde4, 0x3ebb5afa3a2cb0f7, 0xef36995fdfdaa744, 0xe8addccc6eb7c527], [0xc74260f0a6986ca5, 0xbd7711c6499f94e4, 0xef9e2c7b97eb71d5, 0x7f740c89b9d09454]),
    ("multi-steal:lock-free", [0xc7c49614c2cef636, 0x6c69d9f31c1ccc17, 0xd9914d9dc0b54656, 0x9ac7f5310d8f3407], [0x36f4418f9c3b8b96, 0x514145abd9a4e0d7, 0x07cc18919b933d75, 0x7f740c89b9d09454]),
    ("multi-steal:fence-free", [0x5348cd364ae7f244, 0xd3500c3b2f30bc25, 0x862d9fc0dfa44224, 0x278373722317c6b5], [0x36f4418f9c3b8b96, 0x514145abd9a4e0d7, 0xfc25c4ffc5de0985, 0x9851bbfd2c2d4f44]),
    ("bot-term", [0x8f1a4caaf7b57eb5, 0x0dde143109910926, 0xc32913a024f60275, 0xa7e75d43c5dde516], [0xd6f67ce7b1d5eea5, 0xc5caf7fa8e3b3444, 0x70692281dfc19bd5, 0xc3b0ab03ad5013d7]),
    ("bot-term-pipelined", [0x35918489e1c1a175, 0x8bb5cc0e6f796f77, 0xaecf7d689b217127, 0xbee45e0903eeeba7], [0x85f89d210833f184, 0x16c8d7c137dd3165, 0x5b8a25c4e3613246, 0x72b2cb3d03ae16b6]),
    ("crash-recovery", [0xf2c5418172a371a0, 0xe7ab3e994fcf8326, 0x3a10889e8ef36365, 0xa6fbe7d9bb155226], [0xf0b84f93d8ed8144, 0x82ec0fe77f491985, 0xbdd4c0edee9a9764, 0x6800eb3f3be61696]),
    ("crash-recovery-greedy", [0xa70f7587d6712951, 0xb907d8ba6d621de5, 0x595b84dd047a5931, 0x3cdafb7da6b50f35], [0xcb73a264f1089ee1, 0xf8525b220068b614, 0x193ca1c5d75a4840, 0x058a0d9e71cc3cd5]),
    ("crash-recovery-stalling", [0xa70f7587d6712951, 0xb907d8ba6d621de5, 0x595b84dd047a5931, 0x3cdafb7da6b50f35], [0xe67fe3b20d61dd1a, 0xd16554edcc35163b, 0xd57f9cf9ad2959c3, 0x1d302a00d0f497ca]),
    ("crash-recovery-root", [0x9da664560b32d697, 0x04f9c95b3393d476, 0xd7c7f19219a83a77, 0x6dabc25cf2d99e32], [0x3454598332f91569, 0x99a331f7f961b5dc, 0xcd75d06c587e963c, 0x897d41e646b7c771]),
    ("crash-abort", [0x7cbeca5d74b7a776, 0xa72334bc85935757, 0xb87cc7dfafc22f84, 0x2cfe629e29ed4007], [0x0400885ba8069935, 0x9aa7a870c0806f34, 0x6dacee5082c53646, 0x6a89dda4c91223f4]),
    ("zombie-steal", [0x53b05efe6b5a0464, 0xc1023828394d6db6, 0xb139f90163ccb614, 0x0f12cd1a38f08055], [0x53b05efe6b5a0464, 0xc1023828394d6db6, 0xb139f90163ccb614, 0x0f12cd1a38f08055]),
    ("broken-fence", [0x58759d5795919894, 0xad951958c079d888, 0x1930cd9ab37ac705, 0x25cee8353d5b6c04], [0x58759d5795919894, 0xad951958c079d888, 0x1930cd9ab37ac705, 0x25cee8353d5b6c04]),
    ("false-suspect-term", [0xe4402376af73a484, 0x5e57299e864726e5, 0x60365ef95ca940ba, 0x1191cd45f0e521eb], [0x999c9a0a25970298, 0x0fb9e6425bcfb16d, 0x1d01c3bc59450ad6, 0x87421c3c9411b9f4]),
    ("rejoin-replay", [0xf121f54913620b80, 0xf37b3b045af385d8, 0x07bdeb71bd6d2277, 0x3c232fddc8965b96], [0xfd7208b73565b292, 0x279ba334f5e7b413, 0x5339b9b9aac8131d, 0xdb9d375c25608ef6]),
];

/// `(fixture file, digest of its replay)`.
const FIXTURES: &[(&str, u64)] = &[
    ("broken-claim.schedule", 0x039ef0782468ab8e),
    ("broken-fence.schedule", 0xd468667cfcdf4e9a),
    ("broken-release.schedule", 0xdeb917c887297880),
    ("crash-recovery-greedy.schedule", 0xc5bca97108370b76),
    ("crash-recovery-root.schedule", 0x2cc20508c403c7b4),
    ("crash-recovery-stalling.schedule", 0xb708c95a792eee84),
    ("deque-steal-pipelined.schedule", 0xad03efc639f68a56),
    ("fence-free-steal.schedule", 0x3aa7a3c50abe9097),
    ("multi-steal-ff.schedule", 0x96e39055bd156e64),
    ("multi-steal-probe-pipelined.schedule", 0x96e39055bd156e64),
    ("single-steal-pipelined-greedy.schedule", 0x588e934944ca3436),
    ("zombie-steal.schedule", 0x7ea2798db5ba9e25),
];

/// `explore_exhaustive(_, 2, 50_000).schedules` of the raw scenarios.
const COUNTS_W2: &[(&str, u64)] = &[
    ("deque-steal", 36),
    ("broken-release", 23),
    ("deque-steal-pipelined", 42),
    ("lock-free-steal", 25),
    ("fence-free-steal", 24),
    ("broken-claim", 13),
    ("multi-steal-probe", 404),
    ("multi-steal-probe-pipelined", 339),
    ("multi-steal-ff", 221),
    ("zombie-steal", 249),
    ("broken-fence", 1571),
];
const COUNTS_W3: &[(&str, u64)] = &[
    ("deque-steal", 422),
    ("deque-steal-pipelined", 484),
    ("lock-free-steal", 196),
    ("fence-free-steal", 188),
];

fn hex(d: [u64; 4]) -> String {
    format!("[{:#018x}, {:#018x}, {:#018x}, {:#018x}]", d[0], d[1], d[2], d[3])
}

fn run_digests(name: &str, workers: usize) -> [u64; 4] {
    let s = by_name(name, workers, 1).unwrap_or_else(|| panic!("{name} left the catalog"));
    VECTORS.map(|v| digest(&s.run_choices(v)))
}

#[test]
fn every_pinned_scenario_takes_the_same_decisions() {
    let mut drift = Vec::new();
    for &(name, w2, w3) in RUNS {
        let (got2, got3) = (run_digests(name, 2), run_digests(name, 3));
        if (got2, got3) != (w2, w3) {
            drift.push(format!("    (\"{name}\", {}, {}),", hex(got2), hex(got3)));
        }
    }
    assert!(drift.is_empty(), "scenario behaviour moved:\n{}", drift.join("\n"));
}

#[test]
fn every_committed_fixture_replays_to_the_same_record() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/schedules");
    let mut drift = Vec::new();
    for &(file, want) in FIXTURES {
        let text = std::fs::read_to_string(format!("{dir}/{file}")).expect("fixture exists");
        let sched = Schedule::parse(&text).expect("fixture parses");
        let s = by_name(&sched.scenario, sched.workers, sched.seed).expect("fixture resolves");
        let got = digest(&s.run_choices(&sched.choices));
        if got != want {
            drift.push(format!("    (\"{file}\", {got:#018x}),"));
        }
    }
    assert!(drift.is_empty(), "fixture replays moved:\n{}", drift.join("\n"));
    let on_disk = std::fs::read_dir(dir).expect("fixture directory").count();
    assert!(on_disk >= FIXTURES.len(), "a pinned fixture was deleted");
}

#[test]
fn raw_scenarios_explore_the_same_number_of_schedules() {
    for (workers, table) in [(2, COUNTS_W2), (3, COUNTS_W3)] {
        for &(name, want) in table {
            let s = by_name(name, workers, 1).unwrap_or_else(|| panic!("{name} left the catalog"));
            let out = explore_exhaustive(&|c| s.run_choices(c), 2, 50_000);
            assert_eq!(out.schedules, want, "{name} at W = {workers}");
        }
    }
}
