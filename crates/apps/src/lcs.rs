//! LCS — longest common subsequence via recursive decomposition and futures
//! (§V-D, Fig. 10/11).
//!
//! The DP recurrence has a *wavefront* dependency pattern; strict fork-join
//! decomposition would stretch the critical path from `O(n)` to
//! `O(n^{log₂3})`. Following Chowdhury & Ramachandran's decomposition, each
//! block of the 2-D table is a **future** whose value is either
//!
//! * (leaf, `n ≤ C`) its output boundaries — `(bot, rgt)`, the bottom row and
//!   right column including the pass-through corners — or
//! * (internal) the triple of child futures `(X01, X10, X11)`, which
//!   consumers navigate recursively (Fig. 11 line 60).
//!
//! Geometry (block origin `(i, j)`, size `n`, covering DP cells
//! `(i+1..=i+n) × (j+1..=j+n)`):
//!
//! ```text
//!        T (block above)
//!      ┌───────┬───────┐
//!   L  │  X00  →  X01  │      X00 inputs: T.X10 (top), L.X01 (left)
//!      │   ↓  ↘   ↓    │      X01 inputs: T.X11, X00
//!      │  X10  →  X11  │      X10 inputs: X00, L.X11
//!      └───────┴───────┘      X11 inputs: X01, X10
//! ```
//!
//! Every future's **consumer count is fixed at spawn** (§V-D): `X00` has
//! exactly 3 consumers (X01, X10, and the parent's throttling join of
//! Fig. 11 line 65); the others have one consumer per existing neighbour
//! plus, for the global bottom-right corner chain, the root navigator that
//! extracts the final length.
//!
//! # The leaf kernel: a bit-vector recurrence that tiles
//!
//! Rows and columns of an LCS table rise by 0 or 1 per cell, so a block row
//! is `⌈n/64⌉` words `V` of *horizontal differences* — bit `c` set ⇔
//! `X(r, c+1) == X(r, c)` — and a whole row of the DP is one multi-word
//! addition (Crochemore et al. / Hyyrö). With `M` the match mask of the
//! row's character (bit `c` ⇔ `a[r] == b[c]`), word by word:
//!
//! ```text
//! x = V[k];  y = x & M[k];  sum = x + y + carry;
//! V[k] = sum | (x & !M[k]);  carry = carry-out of the addition
//! ```
//!
//! What makes it tile at any column is that the adder's carry *is* the
//! vertical DP difference. One cell, with `h` / `h'` the horizontal
//! difference above / below it (`x = 1 − h`) and `v` / `v'` the vertical
//! difference to its left / right (`v` = carry in, `v'` = carry out):
//!
//! ```text
//! match  h  v  │ h'  v'    DP                        adder
//!   1    ·  ·  │ 1−v 1−h   X = diag + 1              y = x: sum bit = v, carry = x
//!   0    0  0  │  0   0    up == left                1 + 0 + 0: bit 1, no carry
//!   0    0  1  │  0   1    left wins (up == diag)    1 + 0 + 1: carry; x & !M keeps the bit
//!   0    1  0  │  1   0    up wins                   0 + 0 + 0: bit 0, no carry
//!   0    1  1  │  0   0    up == left                0 + 0 + 1: bit 1, no carry
//! ```
//!
//! So the carry *into* row `r` is `left[r] − left[r−1]`, the carry *out* of
//! its last column is `rgt[r] − rgt[r−1]`, `V` starts as `top`'s flat
//! steps, and `bot` is read back from its zero bits. A partial last word
//! (`n % 64 ≠ 0`) keeps its unused high bits zero, so its carry-out is bit
//! `n % 64` of the sum rather than the adder's overflow. None of this is
//! defined on a boundary that is not unit-step, which is why
//! [`leaf_kernel`] asserts its preconditions in release builds.
//!
//! The 256 × `⌈n/64⌉`-word mask table of `b[j..j+n]` is built once per
//! *leaf*, inside the leaf's charged host work (8 KB and ~0.3 µs at
//! `C = 256`, against ~2.3 µs for the rows): a per-run table over all of `b`
//! would be 256 · N/8 bytes of input set-up (8 MB at N = 2¹⁸) that every
//! run pays before its first step, to save a tenth of the kernel.

use std::sync::Arc;

use dcs_core::prelude::*;
use dcs_core::HostWork;
use dcs_sim::SimRng;

/// Workload parameters and input sequences.
#[derive(Clone, Debug)]
pub struct LcsParams {
    /// Problem size (sequence length); power of two.
    pub n: u64,
    /// Leaf block size `C` (paper: 512); power of two, ≤ n.
    pub c: u64,
    /// Virtual time of one `C×C` leaf kernel at ITO-A scale.
    pub tc: VTime,
    pub a: Arc<[u8]>,
    pub b: Arc<[u8]>,
}

impl LcsParams {
    /// Paper-calibrated leaf time: 0.340 ms for C = 512 on ITO-A, scaled
    /// quadratically with the block size.
    pub fn tc_for(c: u64) -> VTime {
        VTime::ns((340_000.0 * (c as f64 / 512.0).powi(2)) as u64)
    }

    /// Random 1-byte-character sequences (the paper's input).
    pub fn random(n: u64, c: u64, seed: u64) -> LcsParams {
        assert!(n.is_power_of_two() && c.is_power_of_two() && c <= n);
        let mut rng = SimRng::new(seed);
        let gen = |rng: &mut SimRng| -> Arc<[u8]> {
            (0..n).map(|_| rng.next_u64() as u8).collect()
        };
        let a = gen(&mut rng);
        let b = gen(&mut rng);
        LcsParams {
            n,
            c,
            tc: Self::tc_for(c),
            a,
            b,
        }
    }

    /// Restrict the alphabet (higher match density stresses the diagonal
    /// path; used by tests).
    pub fn random_alpha(n: u64, c: u64, seed: u64, alphabet: u8) -> LcsParams {
        let mut p = LcsParams::random(n, c, seed);
        let shrink = |s: &Arc<[u8]>| -> Arc<[u8]> {
            s.iter().map(|&x| x % alphabet).collect()
        };
        p.a = shrink(&p.a);
        p.b = shrink(&p.b);
        p
    }

    /// Total work `T1 = (N/C)² · Tc` (paper §V-D), machine-scaled.
    pub fn t1(&self, compute_scale: f64) -> VTime {
        let blocks = (self.n / self.c) * (self.n / self.c);
        (self.tc * blocks).scale(compute_scale)
    }

    /// Span `T∞ = (2N/C − 1) · Tc`, machine-scaled.
    pub fn t_inf(&self, compute_scale: f64) -> VTime {
        (self.tc * (2 * self.n / self.c - 1)).scale(compute_scale)
    }
}

// ---------------------------------------------------------------------
// Reference implementation
// ---------------------------------------------------------------------

/// O(N²) time, O(N) space reference DP (ground truth for tests).
pub fn lcs_reference(a: &[u8], b: &[u8]) -> u32 {
    let mut row = vec![0u32; b.len() + 1];
    for &ac in a {
        let mut diag = 0;
        for (j, &bc) in b.iter().enumerate() {
            let up = row[j + 1];
            row[j + 1] = if ac == bc {
                diag + 1
            } else {
                up.max(row[j])
            };
            diag = up;
        }
    }
    row[b.len()]
}

// ---------------------------------------------------------------------
// Leaf kernel
// ---------------------------------------------------------------------

/// Compute one block given its input boundaries.
///
/// * `top[c] = X(i, j+c)` for `c = 0..=n` (corner included),
/// * `left[r] = X(i+r, j)` for `r = 0..=n`,
/// * returns `bot[c] = X(i+n, j+c)` and `rgt[r] = X(i+r, j+n)` — both with
///   their pass-through corner elements (`bot[0] = left[n]`,
///   `rgt[0] = top[n]`).
///
/// Bit-vector recurrence (module docs): `O(n²/64)` word operations.
///
/// # Panics
///
/// The recurrence carries one bit per DP difference, so it is only defined
/// on boundaries that *are* LCS boundaries: both `n + 1` long, agreeing in
/// the corner, and unit-step (`0 ≤ v[k+1] − v[k] ≤ 1`). Anything else —
/// and an `a[i..i+n]` / `b[j..j+n]` that does not exist — panics instead of
/// returning a wrong block.
pub fn leaf_kernel(a: &[u8], b: &[u8], i: usize, j: usize, n: usize, top: &[u32], left: &[u32]) -> (Vec<u32>, Vec<u32>) {
    assert!(
        top.len() == n + 1 && left.len() == n + 1,
        "boundaries must be n + 1 long"
    );
    assert_eq!(top[0], left[0], "corner must agree");
    assert!(
        unit_step(top) && unit_step(left),
        "boundaries must be unit-step"
    );
    assert!(
        i + n <= a.len() && j + n <= b.len(),
        "block must lie inside the sequences"
    );
    let words = n.div_ceil(64);
    // The last word's carry leaves through bit `tail` when the word is
    // partial, through the adder's overflow when it is full.
    let tail = n % 64;

    // Match masks of this block's columns: bit c of `masks[ch]` ⇔ b[j+c] == ch.
    let mut masks = vec![0u64; 256 * words];
    for (c, &ch) in b[j..j + n].iter().enumerate() {
        masks[ch as usize * words + c / 64] |= 1 << (c % 64);
    }
    // Bit c of `v` ⇔ X(r, j+c+1) == X(r, j+c); row 0 is `top`.
    let mut v = vec![0u64; words];
    for (c, pair) in top.windows(2).enumerate() {
        v[c / 64] |= ((pair[0] == pair[1]) as u64) << (c % 64);
    }

    let mut rgt = Vec::with_capacity(n + 1);
    let mut x_rgt = top[n];
    rgt.push(x_rgt);
    for (&ac, l) in a[i..i + n].iter().zip(left.windows(2)) {
        let m = &masks[ac as usize * words..][..words];
        let mut carry = (l[1] - l[0]) as u64;
        for (vk, &mk) in v.iter_mut().zip(m) {
            let x = *vk;
            let (sum, c1) = x.overflowing_add(x & mk);
            let (sum, c2) = sum.overflowing_add(carry);
            *vk = sum | (x & !mk);
            carry = (c1 | c2) as u64;
        }
        if tail != 0 {
            let last = &mut v[words - 1];
            carry = (*last >> tail) & 1;
            *last &= (1 << tail) - 1;
        }
        x_rgt += carry as u32;
        rgt.push(x_rgt);
    }

    let mut bot = Vec::with_capacity(n + 1);
    let mut x_bot = left[n];
    bot.push(x_bot);
    for c in 0..n {
        x_bot += 1 - ((v[c / 64] >> (c % 64)) & 1) as u32;
        bot.push(x_bot);
    }
    (bot, rgt)
}

/// `0 ≤ v[k+1] − v[k] ≤ 1` throughout — what every row and column of an LCS
/// table satisfies.
fn unit_step(v: &[u32]) -> bool {
    v.windows(2).all(|p| p[1].wrapping_sub(p[0]) <= 1)
}

// ---------------------------------------------------------------------
// Future-based block decomposition
// ---------------------------------------------------------------------

/// A block descriptor travelling as a task argument. `t`/`l` are the
/// top/left neighbour futures (`None` = matrix edge, zero boundary).
#[derive(Clone, Copy, Debug)]
struct Blk {
    i: u64,
    j: u64,
    n: u64,
    t: Option<ThreadHandle>,
    l: Option<ThreadHandle>,
}

fn bnd_value(h: Option<ThreadHandle>) -> Value {
    match h {
        None => Value::U64(0),
        Some(h) => Value::Handle(h),
    }
}

fn bnd_from(v: &Value) -> Option<ThreadHandle> {
    match v {
        Value::U64(0) => None,
        Value::Handle(h) => Some(*h),
        other => panic!("bad boundary encoding: {other:?}"),
    }
}

impl Blk {
    fn pack(&self) -> Value {
        Value::pair(
            Value::pair(self.i.into(), self.j.into()),
            Value::pair(
                self.n.into(),
                Value::pair(bnd_value(self.t), bnd_value(self.l)),
            ),
        )
    }

    fn unpack(v: &Value) -> Blk {
        let Value::Pair(ij, rest) = v else {
            panic!("bad block encoding")
        };
        let Value::Pair(i, j) = ij.as_ref() else {
            panic!("bad block encoding")
        };
        let Value::Pair(n, tl) = rest.as_ref() else {
            panic!("bad block encoding")
        };
        let Value::Pair(t, l) = tl.as_ref() else {
            panic!("bad block encoding")
        };
        Blk {
            i: i.as_u64(),
            j: j.as_u64(),
            n: n.as_u64(),
            t: bnd_from(t),
            l: bnd_from(l),
        }
    }
}

/// Task body of one block: join the T and L futures (if any), then either
/// run the leaf kernel or spawn the four children.
fn lcs_block(arg: Value, ctx: &mut TaskCtx) -> Effect {
    let blk = Blk::unpack(&arg);
    match blk.t {
        None => got_t(blk, None, ctx),
        Some(h) => Effect::join(h, frame(move |tv, ctx| got_t(blk, Some(tv), ctx))),
    }
}

fn got_t(blk: Blk, tv: Option<Value>, ctx: &mut TaskCtx) -> Effect {
    match blk.l {
        None => dispatch(blk, tv, None, ctx),
        Some(h) => Effect::join(h, frame(move |lv, ctx| dispatch(blk, tv, Some(lv), ctx))),
    }
}

fn dispatch(blk: Blk, tv: Option<Value>, lv: Option<Value>, ctx: &mut TaskCtx) -> Effect {
    let params = ctx.app::<LcsParams>();
    if blk.n <= params.c {
        leaf(blk, tv, lv, ctx)
    } else {
        internal(blk, tv, lv, params.n)
    }
}

fn zeros(n: usize) -> Arc<[u32]> {
    vec![0u32; n + 1].into()
}

/// Leaf: extract `(t, _)` from T and `(_, l)` from L (Fig. 11 line 56), run
/// the kernel as charged host work, return `(bot, rgt)`.
fn leaf(blk: Blk, tv: Option<Value>, lv: Option<Value>, ctx: &mut TaskCtx) -> Effect {
    let params = ctx.app::<LcsParams>();
    let n = blk.n as usize;
    debug_assert_eq!(blk.n, params.c, "leaves are exactly C-sized");
    let top = match tv {
        None => zeros(n),
        Some(v) => {
            let (bot, _) = v.into_pair();
            Arc::clone(bot.as_u32s())
        }
    };
    let left = match lv {
        None => zeros(n),
        Some(v) => {
            let (_, rgt) = v.into_pair();
            Arc::clone(rgt.as_u32s())
        }
    };
    let dur = ctx.scaled(params.tc);
    let (i, j) = (blk.i as usize, blk.j as usize);
    let work: HostWork = Box::new(move |ctx: &mut TaskCtx| {
        let params = ctx.app::<LcsParams>();
        let (bot, rgt) = leaf_kernel(&params.a, &params.b, i, j, n, &top, &left);
        Value::pair(Value::U32s(bot.into()), Value::U32s(rgt.into()))
    });
    Effect::compute_with(dur, work, frame(|v, _| Effect::Return(v)))
}

/// Consumer count of each child future (see module docs).
fn child_consumers(blk: &Blk, big_n: u64) -> (u32, u32, u32) {
    let below = (blk.i + blk.n < big_n) as u32;
    let right = (blk.j + blk.n < big_n) as u32;
    let corner = (below == 0 && right == 0) as u32;
    let c01 = 1 + right;
    let c10 = 1 + below;
    let c11 = below + right + corner;
    (c01, c10, c11)
}

/// Internal block: extract the child futures of T and L, spawn the four
/// children in wavefront order, throttle on X00, return the triple.
fn internal(blk: Blk, tv: Option<Value>, lv: Option<Value>, big_n: u64) -> Effect {
    let h = blk.n / 2;
    // (_, T10, T11) ← T.join(); (L01, _, L11) ← L.join()  (Fig. 11 l. 60)
    let (t10, t11) = match tv {
        None => (None, None),
        Some(v) => {
            let hs = v.as_handles3();
            (Some(hs[1]), Some(hs[2]))
        }
    };
    let (l01, l11) = match lv {
        None => (None, None),
        Some(v) => {
            let hs = v.as_handles3();
            (Some(hs[0]), Some(hs[2]))
        }
    };
    let (c01, c10, c11) = child_consumers(&blk, big_n);
    let (i, j) = (blk.i, blk.j);
    let b00 = Blk { i, j, n: h, t: t10, l: l01 };
    Effect::fork_future(
        lcs_block,
        b00.pack(),
        3,
        frame(move |h00, _| {
            let x00 = h00.as_handle();
            let b01 = Blk { i, j: j + h, n: h, t: t11, l: Some(x00) };
            Effect::fork_future(
                lcs_block,
                b01.pack(),
                c01,
                frame(move |h01, _| {
                    let x01 = h01.as_handle();
                    let b10 = Blk { i: i + h, j, n: h, t: Some(x00), l: l11 };
                    Effect::fork_future(
                        lcs_block,
                        b10.pack(),
                        c10,
                        frame(move |h10, _| {
                            let x10 = h10.as_handle();
                            let b11 = Blk {
                                i: i + h,
                                j: j + h,
                                n: h,
                                t: Some(x01),
                                l: Some(x10),
                            };
                            Effect::fork_future(
                                lcs_block,
                                b11.pack(),
                                c11,
                                frame(move |h11, _| {
                                    let x11 = h11.as_handle();
                                    // X00.join() — throttle (Fig. 11 l. 65).
                                    Effect::join(
                                        x00,
                                        frame(move |_, _| {
                                            Effect::ret(Value::Handles3([x01, x10, x11]))
                                        }),
                                    )
                                }),
                            )
                        }),
                    )
                }),
            )
        }),
    )
}

/// Root task: spawn the whole matrix as one future, then navigate the
/// bottom-right X11 chain down to the final leaf and extract `X(N, N)`.
fn lcs_root(_arg: Value, ctx: &mut TaskCtx) -> Effect {
    let params = ctx.app::<LcsParams>();
    let root_blk = Blk {
        i: 0,
        j: 0,
        n: params.n,
        t: None,
        l: None,
    };
    Effect::fork_future(
        lcs_block,
        root_blk.pack(),
        1,
        frame(|h, _| navigate(h.as_handle())),
    )
}

fn navigate(h: ThreadHandle) -> Effect {
    Effect::join(
        h,
        frame(|v, _| match v {
            Value::Handles3(hs) => navigate(hs[2]),
            Value::Pair(bot, _) => {
                let bot = bot.as_u32s();
                Effect::ret(*bot.last().expect("non-empty boundary") as u64)
            }
            other => panic!("unexpected block value: {other:?}"),
        }),
    )
}

/// Build the LCS program.
pub fn program(params: LcsParams) -> Program {
    Program {
        root: lcs_root,
        arg: Value::Unit,
        app: Arc::new(params),
        init: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::policy::Policy;
    use proptest::prelude::*;

    #[test]
    fn reference_known_cases() {
        assert_eq!(lcs_reference(b"ABCBDAB", b"BDCABA"), 4);
        assert_eq!(lcs_reference(b"", b"xyz"), 0);
        assert_eq!(lcs_reference(b"same", b"same"), 4);
        assert_eq!(lcs_reference(b"abc", b"def"), 0);
        assert_eq!(lcs_reference(b"axbycz", b"abc"), 3);
    }

    /// The scalar DP the bit-vector kernel replaced, cell by cell: the
    /// oracle for [`leaf_kernel`] on whole boundaries, at any block.
    fn scalar_leaf(
        a: &[u8],
        b: &[u8],
        i: usize,
        j: usize,
        n: usize,
        top: &[u32],
        left: &[u32],
    ) -> (Vec<u32>, Vec<u32>) {
        let mut row = top.to_vec();
        let mut rgt = Vec::with_capacity(n + 1);
        rgt.push(top[n]);
        for r in 1..=n {
            let mut diag = row[0];
            row[0] = left[r];
            let ac = a[i + r - 1];
            for c in 1..=n {
                let up = row[c];
                row[c] = if ac == b[j + c - 1] {
                    diag + 1
                } else {
                    up.max(row[c - 1])
                };
                diag = up;
            }
            rgt.push(row[n]);
        }
        (row, rgt)
    }

    type Kernel = fn(&[u8], &[u8], usize, usize, usize, &[u32], &[u32]) -> (Vec<u32>, Vec<u32>);

    fn random_string(rng: &mut SimRng, len: usize, alphabet: u32) -> Vec<u8> {
        (0..len)
            .map(|_| (rng.next_u64() % alphabet as u64) as u8)
            .collect()
    }

    /// Run `kernel` on the four blocks of a 2×2 tiling of `a × b` — three
    /// edge blocks and the interior one, whose `top` and `left` are the
    /// oracle's outputs for its real neighbours — and name the first block
    /// on which `(bot, rgt)` differs from the scalar oracle's.
    fn first_mismatch(kernel: Kernel, a: &[u8], b: &[u8], n: usize) -> Option<&'static str> {
        let z = vec![0u32; n + 1];
        let (bot00, rgt00) = scalar_leaf(a, b, 0, 0, n, &z, &z);
        let (bot01, _) = scalar_leaf(a, b, 0, n, n, &z, &rgt00);
        let (_, rgt10) = scalar_leaf(a, b, n, 0, n, &bot00, &z);
        let blocks = [
            ("corner block", 0, 0, &z, &z),
            ("top-edge block", 0, n, &z, &rgt00),
            ("left-edge block", n, 0, &bot00, &z),
            ("interior block", n, n, &bot01, &rgt10),
        ];
        for (name, i, j, top, left) in blocks {
            if kernel(a, b, i, j, n, top, left) != scalar_leaf(a, b, i, j, n, top, left) {
                return Some(name);
            }
        }
        None
    }

    /// Block sizes around every word boundary the kernel can meet, and
    /// alphabets from "mostly matches" to the paper's random bytes.
    const SIZES: [usize; 15] = [
        1, 2, 3, 5, 16, 63, 64, 65, 100, 127, 128, 129, 200, 256, 300,
    ];
    const ALPHABETS: [u32; 5] = [2, 3, 4, 26, 256];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn bit_kernel_equals_scalar_oracle(seed in 0u64..u64::MAX) {
            let mut rng = SimRng::new(seed);
            for n in SIZES {
                for alphabet in ALPHABETS {
                    let a = random_string(&mut rng, 2 * n, alphabet);
                    let b = random_string(&mut rng, 2 * n, alphabet);
                    prop_assert_eq!(
                        first_mismatch(leaf_kernel, &a, &b, n),
                        None,
                        "n = {}, alphabet = {}",
                        n,
                        alphabet
                    );
                }
            }
        }
    }

    /// A kernel whose carry into every row is 0 instead of
    /// `left[r] − left[r−1]`: a constant `left` column makes every carry-in
    /// 0, and `bot` is lifted back so that only the recurrence is wrong.
    fn zero_carry_in_kernel(
        a: &[u8],
        b: &[u8],
        i: usize,
        j: usize,
        n: usize,
        top: &[u32],
        left: &[u32],
    ) -> (Vec<u32>, Vec<u32>) {
        let (mut bot, rgt) = leaf_kernel(a, b, i, j, n, top, &vec![top[0]; n + 1]);
        bot.iter_mut().for_each(|x| *x += left[n] - left[0]);
        (bot, rgt)
    }

    #[test]
    fn zero_carry_in_is_caught_at_blocks_with_a_left_neighbour() {
        // What catches it is `first_mismatch`'s `(bot, rgt)` comparison, and
        // only where `left` rises: the two blocks on the zero left edge have
        // carry-in 0 anyway, so a test over edge blocks alone would pass.
        let mut rng = SimRng::new(11);
        for n in [5, 64, 100, 256] {
            let a = random_string(&mut rng, 2 * n, 4);
            let b = random_string(&mut rng, 2 * n, 4);
            assert_eq!(
                first_mismatch(zero_carry_in_kernel, &a, &b, n),
                Some("top-edge block"),
                "n = {n}"
            );
            let z = vec![0u32; n + 1];
            let (bot00, _) = scalar_leaf(&a, &b, 0, 0, n, &z, &z);
            for (i, top) in [(0, &z), (n, &bot00)] {
                assert_eq!(
                    zero_carry_in_kernel(&a, &b, i, 0, n, top, &z),
                    scalar_leaf(&a, &b, i, 0, n, top, &z),
                );
            }
        }
    }

    #[test]
    fn kernel_matches_reference_on_whole_matrix() {
        // One big leaf block == the full DP.
        for (n, alphabet) in [(16, 4), (100, 3), (256, 26), (300, 256)] {
            let mut rng = SimRng::new(5);
            let a = random_string(&mut rng, n, alphabet);
            let b = random_string(&mut rng, n, alphabet);
            let (bot, rgt) = leaf_kernel(&a, &b, 0, 0, n, &zeros(n), &zeros(n));
            let expected = lcs_reference(&a, &b);
            assert_eq!(bot[n], expected);
            assert_eq!(rgt[n], expected);
        }
    }

    #[test]
    fn kernel_composes_across_blocks() {
        // A 3×3 grid of leaves, each fed its neighbours' outputs by hand,
        // ends in the reference answer.
        for (n, alphabet) in [(4, 3), (50, 4), (64, 26), (100, 256)] {
            let mut rng = SimRng::new(9);
            let a = random_string(&mut rng, 3 * n, alphabet);
            let b = random_string(&mut rng, 3 * n, alphabet);
            // `bots[bj]`: bottom row of the block above in block column `bj`.
            let mut bots = vec![vec![0u32; n + 1]; 3];
            for bi in 0..3 {
                let mut left = vec![0u32; n + 1];
                for (bj, top) in bots.iter_mut().enumerate() {
                    let (bot, rgt) = leaf_kernel(&a, &b, bi * n, bj * n, n, top, &left);
                    *top = bot;
                    left = rgt;
                }
            }
            assert_eq!(bots[2][n], lcs_reference(&a, &b), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "unit-step")]
    fn kernel_rejects_a_decreasing_boundary() {
        leaf_kernel(b"abc", b"abc", 0, 0, 3, &[0, 1, 0, 1], &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "unit-step")]
    fn kernel_rejects_a_step_of_two() {
        leaf_kernel(b"abc", b"abc", 0, 0, 3, &[0, 0, 0, 0], &[0, 0, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "corner must agree")]
    fn kernel_rejects_a_corner_mismatch() {
        leaf_kernel(b"abc", b"abc", 0, 0, 3, &[1, 1, 1, 1], &[0, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "n + 1 long")]
    fn kernel_rejects_a_short_boundary() {
        leaf_kernel(b"abc", b"abc", 0, 0, 3, &[0, 0, 0], &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "inside the sequences")]
    fn kernel_rejects_a_block_past_the_end_of_a_sequence() {
        leaf_kernel(b"abc", b"ab", 0, 0, 3, &[0, 0, 0, 0], &[0, 0, 0, 0]);
    }

    fn run_lcs(policy: Policy, workers: usize, n: u64, c: u64, seed: u64) -> u64 {
        let params = LcsParams::random_alpha(n, c, seed, 4);
        let expected = lcs_reference(&params.a, &params.b) as u64;
        let cfg = RunConfig::new(workers, policy)
            .with_profile(profiles::test_profile())
            .with_seg_bytes(64 << 20);
        let report = dcs_core::run(cfg, program(params));
        assert_eq!(report.result.as_u64(), expected, "{policy:?} P={workers}");
        expected
    }

    #[test]
    fn single_leaf_root() {
        run_lcs(Policy::ContGreedy, 2, 8, 8, 1);
    }

    #[test]
    fn futures_greedy_matches_reference() {
        run_lcs(Policy::ContGreedy, 1, 32, 8, 2);
        run_lcs(Policy::ContGreedy, 4, 32, 8, 3);
        run_lcs(Policy::ContGreedy, 8, 64, 8, 4);
    }

    #[test]
    fn futures_stalling_matches_reference() {
        run_lcs(Policy::ContStalling, 1, 32, 8, 5);
        run_lcs(Policy::ContStalling, 4, 32, 8, 6);
    }

    #[test]
    fn futures_child_full_matches_reference() {
        run_lcs(Policy::ChildFull, 1, 32, 8, 7);
        run_lcs(Policy::ChildFull, 4, 32, 8, 8);
    }

    #[test]
    fn work_span_formulas() {
        let p = LcsParams::random(64, 8, 1);
        assert_eq!(p.t1(1.0), p.tc * 64);
        assert_eq!(p.t_inf(1.0), p.tc * 15);
        assert_eq!(LcsParams::tc_for(512), VTime::ns(340_000));
        assert_eq!(LcsParams::tc_for(256), VTime::ns(85_000));
    }

    #[test]
    fn consumer_counts() {
        // Interior block: all neighbours exist.
        let blk = Blk { i: 0, j: 0, n: 8, t: None, l: None };
        assert_eq!(child_consumers(&blk, 64), (2, 2, 2));
        // Global corner block (covers the whole matrix).
        assert_eq!(child_consumers(&blk, 8), (1, 1, 1));
        // Bottom edge, not right edge.
        let bottom = Blk { i: 56, j: 0, n: 8, t: None, l: None };
        assert_eq!(child_consumers(&bottom, 64), (2, 1, 1));
        // Right edge, not bottom.
        let right = Blk { i: 0, j: 56, n: 8, t: None, l: None };
        assert_eq!(child_consumers(&right, 64), (1, 2, 1));
    }
}
