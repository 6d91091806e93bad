//! The IXP switching-fabric simulator.
//!
//! This crate implements the data-plane half of the IXP digital twin (paper
//! §3.1):
//!
//! * [`member`] — IXP members with one or more router ports, each owning a
//!   MAC address and a policy-filtered RIB. Per-router (not per-AS) RIBs are
//!   what lets the twin reproduce the paper's "inconsistent" ASes whose
//!   routers disagree about a /32 blackhole;
//! * [`fabric`] — the forwarding decision: ingress router consults its RIB;
//!   a winning blackhole route rewrites the destination MAC to the dedicated
//!   **blackhole MAC** that no port forwards, marking the packet as dropped;
//! * [`flow`] — IPFIX-style sampled packet records, the data-plane corpus
//!   (timestamps, MACs, addresses, ports, protocol, length, fragment flag);
//! * [`sampler`] — 1-in-N packet sampling (the paper samples 1:10,000).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod flow;
pub mod member;
pub mod sampler;
pub mod wire;

pub use fabric::{Fabric, ForwardOutcome};
pub use flow::{FlowLog, FlowSample};
pub use member::{Member, MemberId, RouterPort};
pub use sampler::Sampler;
pub use wire::{decode_flow_log, encode_flow_log, encode_flow_log_into, FlowWireError};
