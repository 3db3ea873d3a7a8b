//! In-tree test infrastructure for the cbqt workspace — the hermetic
//! replacement for the `rand`, `proptest` and `criterion` dependencies.
//!
//! Five modules:
//! - [`rng`]: seedable SplitMix64 / xoshiro256** PRNG with the
//!   `gen_range` / `gen_bool` surface the data and workload generators
//!   use; golden-value tests pin its output per seed across platforms.
//! - [`prop`]: property-based testing with tape-based shrinking (see the
//!   [`props!`] macro).
//! - [`mod@bench`]: a criterion-shaped benchmark harness that emits JSON
//!   lines to stdout (see the [`bench_main!`] macro).
//! - [`failpoints`]: the fault-injection harness arming the engine's
//!   compiled-in `failpoint!` sites (see `cbqt_common::failpoint`).
//! - [`mod@alloc`]: a counting global allocator for per-statement
//!   allocation budgets.
//!
//! This crate must never grow an *external* dependency — the CI
//! hermeticity guard (`ci/check_hermetic.sh`) fails the build if any
//! crate in the workspace resolves a registry or git dependency. Its
//! only dependency is the in-tree `cbqt-common`, which itself depends
//! on nothing.

pub mod alloc;
pub mod bench;
pub mod failpoints;
pub mod prop;
pub mod rng;

pub use rng::{Rng, SplitMix64};
