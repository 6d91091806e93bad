//! Network primitives for the `rtbh` workspace.
//!
//! This crate provides the small, dependency-light vocabulary shared by every
//! other crate in the reproduction of *"Down the Black Hole: Dismantling
//! Operational Practices of BGP Blackholing at IXPs"* (IMC 2019):
//!
//! * [`Ipv4Addr`] — a 32-bit IPv4 address with arithmetic helpers. The paper
//!   restricts itself to IPv4 (>95% of traffic, >98% of RTBH events at the
//!   studied IXP), and so do we.
//! * [`Prefix`] — a canonical CIDR prefix with containment/overlap algebra.
//! * [`PrefixTrie`] — a binary radix trie with longest-prefix matching, the
//!   lookup structure behind every RIB in `rtbh-bgp`.
//! * [`FrozenLpm`] — the grow-only, cache-friendly stride-8 counterpart
//!   for the sample-scan hot paths: built in bulk or one insert at a time,
//!   never removing a prefix.
//! * [`MacAddr`] — Ethernet addresses; the IXP identifies member routers and
//!   the blackhole next-hop by MAC (paper §3.1 "Identifying Dropped Traffic").
//! * [`Asn`] — autonomous system numbers.
//! * [`Community`] — BGP communities, including the RFC 7999 BLACKHOLE
//!   community and the route-server distribution-control conventions.
//! * [`Protocol`] / [`amplification`] — transport protocols and the
//!   UDP-amplification service table of the paper's Table 3.
//! * [`Timestamp`] / [`TimeDelta`] — millisecond-resolution virtual time.
//! * [`cursor`] / [`frame`] — byte cursors and length-prefixed framing for
//!   the wire codecs and the `rtbhd` query protocol.
//!
//! Everything here is plain data: `Copy` where possible, totally ordered,
//! hashable, and JSON-serializable (via the in-tree `rtbh-json` traits), so
//! corpora can be persisted and results
//! reproduced bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod amplification;
pub mod asn;
pub mod community;
pub mod cursor;
pub mod error;
pub mod frame;
pub mod lpm;
pub mod mac;
pub mod ports;
pub mod prefix;
pub mod time;
pub mod trie;

pub use addr::Ipv4Addr;
pub use amplification::{AmplificationProtocol, AMPLIFICATION_PROTOCOLS};
pub use asn::Asn;
pub use community::Community;
pub use error::ParseError;
pub use lpm::FrozenLpm;
pub use mac::MacAddr;
pub use ports::{Port, Protocol, Service};
pub use prefix::Prefix;
pub use time::{Interval, TimeDelta, Timestamp};
pub use trie::PrefixTrie;
