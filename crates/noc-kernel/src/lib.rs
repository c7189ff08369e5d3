//! Deterministic simulation primitives for NoC modelling.
//!
//! This crate is the substrate on which the rest of the workspace runs. It
//! provides:
//!
//! - [`ClockDomain`], divisor-based clock domains so that mixed-clock
//!   systems stay deterministic;
//! - [`Horizon`], the min-combining accumulator for the absolute wake
//!   cycles components report under quiescence-aware stepping;
//! - [`Calendar`], the wakeup queue that inverts horizon polling:
//!   components schedule their next wake cycle once and the advance loop
//!   pops the earliest instead of rescanning every component;
//! - [`SplitMix64`], a tiny deterministic RNG used to seed all stochastic
//!   behaviour in the workspace.
//!
//! Reproducibility matters more than wall-clock speed for architecture
//! studies: every experiment in the workspace must be replayable
//! bit-for-bit from a seed. Stepping is therefore sequential. Parallelism
//! enters only across independent runs (sweep points and serve
//! requests), each of which steps one simulation on one thread.
//!
//! # Examples
//!
//! A component on a half-rate clock asks to wake at base cycle 9; the
//! calendar hands the advance loop the first edge of its domain there.
//!
//! ```
//! use noc_kernel::{Calendar, ClockDomain, Horizon};
//!
//! let half = ClockDomain::new(2);
//! let mut cal = Calendar::new();
//! let slow = cal.register();
//! let idle = cal.register();
//! cal.set(slow, Some(half.next_active(9)));
//! cal.set(idle, None); // quiescent until input
//! let mut horizon = Horizon::new();
//! horizon.merge(cal.peek());
//! assert_eq!(horizon.earliest_from(4), Some(10));
//! ```

pub mod calendar;
pub mod clock;
pub mod horizon;
pub mod rng;

pub use calendar::{Calendar, WakeId};
pub use clock::ClockDomain;
pub use horizon::Horizon;
pub use rng::SplitMix64;
