//! Helpers of the `perfbench` benchmark: cell sets and reference digests,
//! the traced replay of the measurement protocol, spans and self time,
//! order statistics, and the result line. See `NOTES.md` for the
//! workloads and metrics.

pub mod cells;
pub mod output;
pub mod pmu;
pub mod replay;
pub mod stats;
pub mod trace;
