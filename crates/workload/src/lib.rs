//! Tenant workload substrate: synthetic power traces and tail-latency models.
//!
//! The paper drives its year-long simulations with power traces derived from
//! Facebook and Baidu request logs (default) and a Google cluster trace
//! (alternate), scaled to 75 % average utilization of the 8 kW edge
//! colocation, and models tenant performance with 95th-percentile response
//! times measured on a CloudSuite prototype. None of those inputs are public,
//! so this crate provides shape-preserving synthetic equivalents:
//!
//! * [`generate`] produces seeded, reproducible power traces with diurnal and
//!   weekly seasonality, autocorrelated noise, and load bursts
//!   ([`TraceShape::FacebookBaidu`]), or a flatter, spikier cluster profile
//!   ([`TraceShape::Google`]).
//!   [`generate_shared`] hands every caller with an equal config one shared
//!   copy while any is alive.
//! * [`latency`] models the 95th-percentile response time of an interactive
//!   service as a function of the power cap and offered load, calibrated to
//!   the paper's anchor (≈4× latency at a 60 % power cap — Fig. 14b/15).
//!
//! # Examples
//!
//! ```
//! use hbm_units::{Duration, Power};
//! use hbm_workload::{generate, TraceConfig, TraceShape};
//!
//! let config = TraceConfig {
//!     shape: TraceShape::FacebookBaidu,
//!     seed: 7,
//!     slot: Duration::from_minutes(1.0),
//!     len: 24 * 60,
//!     mean: Power::from_kilowatts(5.4),
//!     peak: Power::from_kilowatts(7.2),
//! };
//! let trace = generate(&config);
//! assert_eq!(trace.len(), 24 * 60);
//! assert!((trace.mean().as_kilowatts() - 5.4).abs() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod io;
pub mod latency;
pub mod queue;
mod shared;
mod trace;

pub use io::ParseTraceError;
pub use shared::generate_shared;
pub use trace::{generate, PowerTrace, TraceConfig, TraceShape};

/// Crate-internal percentile (linear interpolation between closest ranks).
pub(crate) fn stats_percentile(samples: &[f64], p: f64) -> f64 {
    debug_assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}
