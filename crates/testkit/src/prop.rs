//! Minimal property-based testing: strategies, a deterministic runner, and
//! tape-based shrinking.
//!
//! Replaces the `proptest` dependency for this repository's suites. The
//! design follows Hypothesis rather than QuickCheck: every random draw a
//! strategy makes goes through a [`Gen`], which records the raw `u64`
//! choices on a *tape*. When a property fails, the runner shrinks the tape
//! (deleting chunks, binary-searching individual draws toward zero) and
//! replays the generator on the shrunk tape — so shrinking composes through
//! `map`, recursion and collections with no per-type shrink code. All draw
//! mappings are monotone, so smaller tape values mean simpler values.
//!
//! Knobs (environment variables):
//! - `TESTKIT_CASES`:   cases per property (default 64; `#[cases(n)]` in
//!   [`crate::props!`] overrides per test)
//! - `TESTKIT_SEED`:    base seed, for reproducing a reported failure
//! - `TESTKIT_SHRINKS`: shrink-attempt budget on failure (default 1500)

use crate::rng::{Rng, SplitMix64};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Generation context
// ---------------------------------------------------------------------------

/// The source of randomness handed to strategies: either recording fresh
/// draws from an [`Rng`], or replaying a (possibly shrunk) tape. Reads past
/// the end of a replay tape return 0 — the "simplest" draw — which is what
/// makes tape truncation a valid shrink step.
pub struct Gen {
    mode: Mode,
    notes: Vec<String>,
    capture: bool,
}

enum Mode {
    Record { rng: Rng, tape: Vec<u64> },
    Replay { tape: Vec<u64>, pos: usize },
}

impl Gen {
    fn record(rng: Rng) -> Gen {
        Gen {
            mode: Mode::Record {
                rng,
                tape: Vec::new(),
            },
            notes: Vec::new(),
            capture: false,
        }
    }

    fn replay(tape: &[u64]) -> Gen {
        Gen {
            mode: Mode::Replay {
                tape: tape.to_vec(),
                pos: 0,
            },
            notes: Vec::new(),
            capture: false,
        }
    }

    fn into_tape(self) -> Vec<u64> {
        match self.mode {
            Mode::Record { tape, .. } => tape,
            Mode::Replay { tape, .. } => tape,
        }
    }

    /// One raw draw. Everything a strategy does reduces to this.
    pub fn next_u64(&mut self) -> u64 {
        match &mut self.mode {
            Mode::Record { rng, tape } => {
                let v = rng.next_u64();
                tape.push(v);
                v
            }
            Mode::Replay { tape, pos } => {
                let v = tape.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                v
            }
        }
    }

    /// Uniform in `[0, n)`, monotone in the underlying draw.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`, monotone in the underlying draw.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Records `name = value` for the failure report (used by [`crate::props!`];
    /// a no-op except on the final replay of a shrunk counterexample).
    pub fn note(&mut self, name: &str, value: &dyn Debug) {
        if self.capture {
            self.notes.push(format!("  {name} = {value:?}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A recipe for generating values of one type from a [`Gen`].
pub trait Strategy {
    type Value: Debug;

    fn generate(&self, g: &mut Gen) -> Self::Value;

    /// Transforms generated values (the `prop_map` of this harness).
    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases to a shared, clonable strategy handle.
    fn boxed(self) -> SBox<Self::Value>
    where
        Self: Sized + 'static,
    {
        Rc::new(self)
    }
}

/// A shared, type-erased strategy (clonable — recursion builds on this).
pub type SBox<T> = Rc<dyn Strategy<Value = T>>;

impl<T: Debug> Strategy for SBox<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        (**self).generate(g)
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        (self.f)(self.inner.generate(g))
    }
}

/// Always produces a clone of one value.
pub struct Just<T: Clone + Debug>(pub T);

pub fn just<T: Clone + Debug>(v: T) -> Just<T> {
    Just(v)
}

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _g: &mut Gen) -> T {
        self.0.clone()
    }
}

// Integer and float ranges are strategies directly: `(0i64..100)`.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, g: &mut Gen) -> $t {
                assert!(self.start < self.end, "strategy: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + g.below(span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, g: &mut Gen) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "strategy: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                if span > u64::MAX as u128 {
                    return g.next_u64() as $t;
                }
                (lo as i128 + g.below(span as u64) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, g: &mut Gen) -> f64 {
        assert!(self.start < self.end, "strategy: empty range");
        let v = self.start + g.unit_f64() * (self.end - self.start);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// Full-range `i64` (shrinks toward 0 via the tape).
pub fn any_i64() -> impl Strategy<Value = i64> {
    FromFn(|g: &mut Gen| g.next_u64() as i64)
}

pub fn any_bool() -> impl Strategy<Value = bool> {
    FromFn(|g: &mut Gen| g.below(2) == 1)
}

struct FromFn<F>(F);

impl<T: Debug, F: Fn(&mut Gen) -> T> Strategy for FromFn<F> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        (self.0)(g)
    }
}

// Tuples of strategies generate tuples of values.
macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, g: &mut Gen) -> Self::Value {
                ($(self.$idx.generate(g),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Uniform choice among alternatives (see the [`crate::one_of!`] macro). Earlier
/// alternatives are "simpler": the choice index shrinks toward 0.
pub struct Union<T> {
    options: Vec<SBox<T>>,
}

pub fn union<T: Debug>(options: Vec<SBox<T>>) -> Union<T> {
    assert!(!options.is_empty(), "union of zero strategies");
    Union { options }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        let i = g.below(self.options.len() as u64) as usize;
        self.options[i].generate(g)
    }
}

/// `Vec` of values with a length drawn from `len` (inclusive bounds).
pub fn vec_of<S: Strategy>(
    elem: S,
    len: core::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = Vec<S::Value>> {
    let (lo, hi) = (*len.start(), *len.end());
    FromFn(move |g: &mut Gen| {
        let n = lo + g.below((hi - lo + 1) as u64) as usize;
        (0..n).map(|_| elem.generate(g)).collect()
    })
}

/// `Option` of a value; `None` (the simpler case) roughly a quarter of the
/// time, and under shrinking.
pub fn option_of<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    FromFn(move |g: &mut Gen| {
        if g.below(4) == 0 {
            None
        } else {
            Some(inner.generate(g))
        }
    })
}

/// Strings over a fixed alphabet with length in `len` (inclusive).
pub fn string_of(
    alphabet: &str,
    len: core::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = String> {
    let chars: Vec<char> = alphabet.chars().collect();
    assert!(!chars.is_empty(), "string_of: empty alphabet");
    let (lo, hi) = (*len.start(), *len.end());
    FromFn(move |g: &mut Gen| {
        let n = lo + g.below((hi - lo + 1) as u64) as usize;
        (0..n)
            .map(|_| chars[g.below(chars.len() as u64) as usize])
            .collect()
    })
}

pub const ALPHA_LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// Adversarial strings for robustness properties: ASCII printables plus
/// quotes, escapes, control characters, NUL and multi-byte code points —
/// a superset of proptest's `\PC` class, on purpose (a parser that must
/// not panic should not panic on control bytes either).
pub fn adversarial_string(len: core::ops::RangeInclusive<usize>) -> impl Strategy<Value = String> {
    const EXTRA: &[char] = &[
        '\0', '\n', '\t', '\r', '\x07', '\x1b', '\'', '"', '`', '\\', '\u{80}', '\u{a0}', 'Å', 'ß',
        'Ω', '€', '語', '🦀', '\u{202e}', '\u{fffd}',
    ];
    let (lo, hi) = (*len.start(), *len.end());
    FromFn(move |g: &mut Gen| {
        let n = lo + g.below((hi - lo + 1) as u64) as usize;
        (0..n)
            .map(|_| {
                let k = g.below(100);
                if k < 85 {
                    // printable ASCII
                    char::from(b' ' + g.below(95) as u8)
                } else {
                    EXTRA[g.below(EXTRA.len() as u64) as usize]
                }
            })
            .collect()
    })
}

/// Bounded recursion: at each of `depth` levels, pick the leaf or one level
/// of `branch` applied to the strategy built so far (the `prop_recursive`
/// of this harness).
pub fn recursive<T: Debug + 'static>(
    leaf: SBox<T>,
    depth: usize,
    branch: impl Fn(SBox<T>) -> SBox<T>,
) -> SBox<T> {
    let mut cur = leaf.clone();
    for _ in 0..depth {
        let deeper = branch(cur);
        cur = union(vec![leaf.clone(), deeper]).boxed();
    }
    cur
}

/// Uniform choice among strategies producing the same type:
/// `one_of![just(1), 10i64..20, any_i64()]`. Put the simplest first — the
/// shrinker steers toward earlier alternatives.
#[macro_export]
macro_rules! one_of {
    ($($s:expr),+ $(,)?) => {
        $crate::prop::union(vec![$($crate::prop::Strategy::boxed($s)),+])
    };
}

// ---------------------------------------------------------------------------
// Runner + shrinking
// ---------------------------------------------------------------------------

const DEFAULT_CASES: u32 = 64;
const DEFAULT_SHRINK_BUDGET: u32 = 1500;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| {
        let s = s.trim();
        s.strip_prefix("0x")
            .map(|h| u64::from_str_radix(h, 16).ok())
            .unwrap_or_else(|| s.parse().ok())
    })
}

/// Outcome of a failed property run, for reporting (and for testing the
/// shrinker itself — see `tests/prop_shrink.rs`).
#[derive(Debug)]
pub struct Failure {
    pub case: u32,
    pub seed: u64,
    pub shrink_steps: u32,
    pub tape_len: usize,
    /// `name = value` lines captured by [`Gen::note`] on the minimal case.
    pub notes: Vec<String>,
    pub message: String,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `prop` while the default panic hook is silenced, so the dozens of
/// intentional panics during shrinking don't flood stderr. Serialized
/// through a global lock because the hook is process-wide.
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    use std::sync::Mutex;
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    let _ = std::panic::take_hook();
    std::panic::set_hook(prev);
    r
}

/// Deterministic base seed per property, so unrelated properties explore
/// different inputs but every run of one property explores the same ones.
fn seed_for(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Core runner. Returns the shrunk failure instead of panicking;
/// [`run`] is the panicking wrapper tests go through.
pub fn check(name: &str, cases: Option<u32>, prop: impl Fn(&mut Gen)) -> Result<(), Failure> {
    let cases = cases
        .or(env_u64("TESTKIT_CASES").map(|v| v as u32))
        .unwrap_or(DEFAULT_CASES);
    let seed = env_u64("TESTKIT_SEED").unwrap_or_else(|| seed_for(name));
    let budget = env_u64("TESTKIT_SHRINKS")
        .map(|v| v as u32)
        .unwrap_or(DEFAULT_SHRINK_BUDGET);
    let mut case_seeds = SplitMix64::new(seed);
    for case in 0..cases {
        let case_seed = case_seeds.next_u64();
        let mut g = Gen::record(Rng::seed_from_u64(case_seed));
        let failed = with_quiet_panics(|| catch_unwind(AssertUnwindSafe(|| prop(&mut g))).is_err());
        if failed {
            let tape = g.into_tape();
            return Err(with_quiet_panics(|| {
                let (tape, shrink_steps) = shrink(tape, budget, &prop);
                // final replay: capture the argument notes and the message
                let mut g = Gen::replay(&tape);
                g.capture = true;
                let message = match catch_unwind(AssertUnwindSafe(|| prop(&mut g))) {
                    Err(payload) => panic_message(payload),
                    // shrinking is best-effort; flaky properties may pass on
                    // the confirming replay — still report the original case
                    Ok(()) => "<failure did not reproduce on replay — flaky property?>".to_string(),
                };
                Failure {
                    case,
                    seed,
                    shrink_steps,
                    tape_len: tape.len(),
                    notes: std::mem::take(&mut g.notes),
                    message,
                }
            }));
        }
    }
    Ok(())
}

/// Panicking wrapper around [`check`], with a reproduction recipe in the
/// failure text. This is what the [`crate::props!`] macro calls.
pub fn run(name: &str, cases: Option<u32>, prop: impl Fn(&mut Gen)) {
    if let Err(f) = check(name, cases, prop) {
        panic!(
            "[testkit] property `{name}` failed on case {case} (base seed {seed:#018x})\n\
             minimal counterexample after {steps} shrink step(s) ({len} draws):\n\
             {notes}\n  panic: {msg}\n\
             reproduce with: TESTKIT_SEED={seed:#x} cargo test {short}\n",
            case = f.case,
            seed = f.seed,
            steps = f.shrink_steps,
            len = f.tape_len,
            notes = f.notes.join("\n"),
            msg = f.message,
            short = name.rsplit("::").next().unwrap_or(name),
        );
    }
}

fn fails(tape: &[u64], prop: &impl Fn(&mut Gen)) -> bool {
    let mut g = Gen::replay(tape);
    catch_unwind(AssertUnwindSafe(|| prop(&mut g))).is_err()
}

/// Tape shrinking: (1) delete chunks, halving the chunk size, which both
/// shortens collections and simplifies recursive structures; (2) binary-
/// search each surviving draw toward 0. Every candidate is re-run; a
/// candidate is kept only if the property still fails.
fn shrink(mut tape: Vec<u64>, budget: u32, prop: &impl Fn(&mut Gen)) -> (Vec<u64>, u32) {
    let mut attempts = 0u32;
    let mut steps = 0u32;

    // Pass 1: chunk deletion.
    let mut chunk = tape.len().max(1);
    while chunk >= 1 {
        let mut start = 0;
        while start + chunk <= tape.len() && attempts < budget {
            let mut candidate = Vec::with_capacity(tape.len() - chunk);
            candidate.extend_from_slice(&tape[..start]);
            candidate.extend_from_slice(&tape[start + chunk..]);
            attempts += 1;
            if fails(&candidate, prop) {
                tape = candidate;
                steps += 1;
                // same start now names the next chunk — retry in place
            } else {
                start += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }

    // Pass 2: per-draw value minimization, left to right, to fixpoint.
    loop {
        let mut improved = false;
        for i in 0..tape.len() {
            if tape[i] == 0 || attempts >= budget {
                continue;
            }
            let original = tape[i];
            tape[i] = 0;
            attempts += 1;
            if fails(&tape, prop) {
                steps += 1;
                improved = true;
                continue;
            }
            // binary search the smallest failing value: lo passes, hi fails
            let (mut lo, mut hi) = (0u64, original);
            while lo + 1 < hi && attempts < budget {
                let mid = lo + (hi - lo) / 2;
                tape[i] = mid;
                attempts += 1;
                if fails(&tape, prop) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            tape[i] = hi;
            if hi != original {
                steps += 1;
                improved = true;
            }
        }
        if !improved || attempts >= budget {
            break;
        }
    }
    (tape, steps)
}

/// Declares property tests. Each `fn` becomes a `#[test]`; arguments are
/// drawn from the strategy after `in`, and use plain `assert!`-family
/// macros in the body. An optional `#[cases(N)]` overrides the per-test
/// case count.
///
/// ```
/// use cbqt_testkit::{props, one_of};
/// use cbqt_testkit::prop::{Strategy, vec_of};
///
/// props! {
///     fn addition_commutes(a in -100i64..100, b in -100i64..100) {
///         assert_eq!(a + b, b + a);
///     }
///
///     #[cases(16)]
///     fn sum_of_small_vec_is_bounded(v in vec_of(0i64..10, 0..=5)) {
///         assert!(v.iter().sum::<i64>() < 50);
///     }
/// }
/// # fn main() {}
/// ```
#[macro_export]
macro_rules! props {
    () => {};
    (#[cases($n:expr)] fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        #[test]
        fn $name() {
            $crate::prop::run(concat!(module_path!(), "::", stringify!($name)), Some($n), |g| {
                $(
                    let $arg = $crate::prop::Strategy::generate(&($strat), g);
                    g.note(stringify!($arg), &$arg);
                )+
                $body
            });
        }
        $crate::props! { $($rest)* }
    };
    (fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        #[test]
        fn $name() {
            $crate::prop::run(concat!(module_path!(), "::", stringify!($name)), None, |g| {
                $(
                    let $arg = $crate::prop::Strategy::generate(&($strat), g);
                    g.note(stringify!($arg), &$arg);
                )+
                $body
            });
        }
        $crate::props! { $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_passes() {
        assert!(check("t::pass", Some(200), |g| {
            let v = (0i64..100).generate(g);
            assert!((0..100).contains(&v));
        })
        .is_ok());
    }

    #[test]
    fn union_covers_all_alternatives() {
        let s = one_of![just(1i64), just(2i64), just(3i64)];
        let seen = std::cell::RefCell::new(cbqt_common::hash::HashSet::default());
        let _ = check("t::union", Some(200), |g| {
            seen.borrow_mut().insert(s.generate(g));
        });
        assert_eq!(seen.borrow().len(), 3);
    }

    #[test]
    fn vec_lengths_respect_bounds() {
        assert!(check("t::vec", Some(200), |g| {
            let v = vec_of(0i64..5, 2..=6).generate(g);
            assert!((2..=6).contains(&v.len()));
        })
        .is_ok());
    }

    #[test]
    fn recursion_is_depth_bounded() {
        #[derive(Debug, Clone)]
        enum T {
            Leaf,
            Node(Box<T>, Box<T>),
        }
        fn depth(t: &T) -> usize {
            match t {
                T::Leaf => 0,
                T::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = recursive(just(T::Leaf).boxed(), 3, |inner| {
            (inner.clone(), inner)
                .prop_map(|(a, b)| T::Node(Box::new(a), Box::new(b)))
                .boxed()
        });
        assert!(check("t::rec", Some(300), |g| {
            let t = strat.generate(g);
            assert!(depth(&t) <= 3);
        })
        .is_ok());
    }

    #[test]
    fn failure_reports_seed_and_shrinks() {
        let f = check("t::fail", Some(500), |g| {
            let v = (0i64..1000).generate(g);
            g.note("v", &v);
            assert!(v < 500, "too big");
        })
        .expect_err("property must fail");
        assert!(f.message.contains("too big"), "message: {}", f.message);
        // the shrunk counterexample must be the boundary value
        assert_eq!(f.notes, vec!["  v = 500".to_string()]);
    }
}
