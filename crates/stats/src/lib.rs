//! Statistics toolkit for the `rtbh` workspace.
//!
//! Implements exactly the statistical machinery the paper uses, nothing more:
//!
//! * [`ewma`] — the Exponentially Weighted Moving Average anomaly detector of
//!   §5.3 (24 h window of 288 five-minute slots, α = 2/(s+1), anomalies at
//!   2.5·SD above the weighted mean, full window required);
//! * [`mod@quantile`] — quantiles, medians and empirical CDFs for the drop-rate
//!   and participation analyses (Figs. 6, 14, 15, 18);
//! * [`offset`] — the maximum-likelihood control/data-plane clock-offset
//!   estimator of §3.1 (Fig. 2), a difference-array vote over the offset grid
//!   that batch alignment and the streaming analyzer share;
//! * [`radviz`] — the RadViz multivariate projection of §6.1 (Fig. 16);
//! * [`topk`] — weight-ranked top-k selection (Figs. 7, 15).
//!
//! All routines are deterministic and allocation-conscious; none read clocks
//! or RNGs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ewma;
pub mod offset;
pub mod quantile;
pub mod radviz;
pub mod topk;

pub use ewma::{EwmaConfig, EwmaDetector, EwmaVerdict};
pub use offset::{OffsetScan, OffsetVotes};
pub use quantile::{quantile, Ecdf};
pub use radviz::{radviz_project, RadvizPoint};
pub use topk::top_k_by;
