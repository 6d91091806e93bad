//! The BGP blackholing model.
//!
//! This crate implements the control-plane half of the IXP digital twin
//! (paper §2.1, Fig. 1):
//!
//! 1. a member announces (or withdraws) a prefix carrying the RFC 7999
//!    BLACKHOLE community to the IXP **route server** ([`update`]);
//! 2. the route server fans the route out to all peers or, with
//!    distribution-control communities, to a subset ([`route_server`]);
//! 3. every receiving peer applies its local **import policy** — crucially,
//!    default BGP configurations reject prefixes longer than /24, so a /32
//!    blackhole route needs explicit whitelisting ([`policy`]);
//! 4. accepted routes enter the peer's **RIB** and win by longest-prefix
//!    match, redirecting the victim's traffic to the blackhole next-hop
//!    ([`rib`]).
//!
//! [`timeline`] reconstructs per-prefix blackhole activity intervals from an
//! update log — the control-plane side of every correlation in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flowspec;
pub mod policy;
pub mod rib;
pub mod route_server;
pub mod timeline;
pub mod update;
pub mod wire;

pub use flowspec::{amplification_mitigation, FlowAction, FlowSpecRule, FlowSpecTable, PortRange};
pub use policy::ImportPolicy;
pub use rib::{Forwarding, Rib};
pub use route_server::RouteServer;
pub use timeline::{active_count_series, blackhole_intervals, PrefixIntervals};
pub use update::{BgpUpdate, UpdateKind, UpdateLog};
pub use wire::{
    decode_update, decode_update_log, encode_update, encode_update_log, encode_update_log_into,
    WireError,
};
