//! A stride-8, grow-only longest-prefix-match table.
//!
//! [`PrefixTrie`] is the right structure while a table *churns* (RIB
//! per-update insert/withdraw), but it is a poor fit for the sample-scan
//! hot paths: RTBH tables are dominated by hyper-specific `/32`s, so every
//! lookup is a full 32-step walk chasing `Option<u32>` child pointers
//! through a pointer-hopping arena — one dependent cache miss per bit,
//! twice per sample (source and destination).
//!
//! [`FrozenLpm`] is the lookup-side counterpart: a level-compressed
//! **stride-8 multibit table**. Lookups consume one address *byte* per step
//! instead of one bit, so a `/32` match costs at most four slot reads from
//! a flat arena; prefixes that do not end on a byte boundary are expanded
//! over the slot range they cover (controlled prefix expansion). The best
//! match seen so far is carried down the walk, which keeps expansion
//! *local to one level* — no recursive leaf-pushing into child tables.
//!
//! The table is built in bulk ([`FrozenLpm::from_entries`]) or grown one
//! prefix at a time ([`FrozenLpm::insert`]); it never removes a prefix.
//! Both apply one slot rule: a slot takes a new prefix if it is empty or
//! holds a prefix no longer than the new one. Within one stride table all
//! prefixes covering a slot are nested, so each slot ends up holding the
//! longest of them whatever the insertion order. Slots index an
//! append-only value arena, so an insert never renumbers what existing
//! slots point to.
//!
//! The structure is plain owned data (`Vec`s of POD slots plus the value
//! arena), hence `Send + Sync` whenever `T` is, and safe to share across
//! the scan workers of `rtbh-core`'s data-parallel kernels by reference.
//!
//! ```
//! use rtbh_net::{FrozenLpm, Ipv4Addr, PrefixTrie};
//!
//! let mut rib = PrefixTrie::new();
//! rib.insert("203.0.113.0/24".parse().unwrap(), "regular");
//! rib.insert("203.0.113.7/32".parse().unwrap(), "blackhole");
//! let mut lpm = FrozenLpm::from_trie(&rib);
//!
//! let victim: Ipv4Addr = "203.0.113.7".parse().unwrap();
//! assert_eq!(lpm.longest_match(victim).unwrap().1, &"blackhole");
//! assert_eq!(lpm.longest_match("203.0.113.8".parse().unwrap()).unwrap().1, &"regular");
//!
//! // A shorter prefix inserted later never shadows a longer one.
//! lpm.insert("203.0.0.0/16".parse().unwrap(), "aggregate");
//! assert_eq!(lpm.longest_match(victim).unwrap().1, &"blackhole");
//! assert_eq!(lpm.longest_match("203.0.7.1".parse().unwrap()).unwrap().1, &"aggregate");
//! ```

use crate::addr::Ipv4Addr;
use crate::prefix::Prefix;
use crate::trie::PrefixTrie;

/// Sentinel for "no value" / "no child" in a [`Slot`].
const NONE: u32 = u32::MAX;

/// Number of slots per stride-8 table (one per byte value).
const TABLE_SLOTS: usize = 256;

/// One slot of a stride-8 table: the longest stored prefix ending at this
/// level that covers the slot's byte (by index into the value arena, with
/// its length for reconstructing the matched prefix), plus the child table
/// for longer prefixes sharing the byte path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// Index into the value arena, or [`NONE`].
    value: u32,
    /// Child table index, or [`NONE`].
    child: u32,
    /// Prefix length of `value` (meaningless when `value == NONE`).
    value_len: u8,
}

impl Slot {
    const EMPTY: Self = Self {
        value: NONE,
        child: NONE,
        value_len: 0,
    };
}

/// A grow-only longest-prefix-match map from [`Prefix`] to `T`.
///
/// Compiled in bulk from a [`PrefixTrie`] (or any set of unique prefixes)
/// via [`FrozenLpm::from_trie`] / [`FrozenLpm::from_entries`], or grown
/// with [`FrozenLpm::insert`]; prefixes are never removed.
/// [`FrozenLpm::longest_match`] agrees exactly with
/// [`PrefixTrie::longest_match`] on the same entries (pinned by a seeded
/// randomized equivalence test in `crates/net/tests/frozen.rs` and by the
/// `lpm_diff` fuzz suite, which also grows tables insert by insert).
#[derive(Debug, Clone)]
pub struct FrozenLpm<T> {
    /// Stored prefixes, sorted by `(network bits, length)` — the natural
    /// [`Prefix`] order — for exact lookups by binary search.
    entries: Vec<Prefix>,
    /// Per entry of `entries`: the index of its value in `values`.
    value_ids: Vec<u32>,
    /// The value arena, append-only: a table built by
    /// [`FrozenLpm::from_entries`] stores its values in prefix order, and
    /// every insert of a new prefix appends one.
    values: Vec<T>,
    /// Slot arena: `TABLE_SLOTS` consecutive slots per table, table 0 is
    /// the root (first address byte).
    slots: Vec<Slot>,
}

impl<T> Default for FrozenLpm<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FrozenLpm<T> {
    /// An empty table (one root stride table).
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            value_ids: Vec::new(),
            values: Vec::new(),
            slots: vec![Slot::EMPTY; TABLE_SLOTS],
        }
    }

    /// Compiles the index from `(prefix, value)` pairs in one bulk pass:
    /// one sort, then every prefix is expanded under the slot rule.
    ///
    /// Prefixes must be unique (checked in debug builds); order does not
    /// matter.
    pub fn from_entries(entries: impl IntoIterator<Item = (Prefix, T)>) -> Self {
        let mut pairs: Vec<(Prefix, T)> = entries.into_iter().collect();
        pairs.sort_by_key(|(p, _)| *p);
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 != w[1].0),
            "FrozenLpm entries must have unique prefixes"
        );
        let mut lpm = Self::new();
        lpm.entries.reserve_exact(pairs.len());
        lpm.value_ids.reserve_exact(pairs.len());
        lpm.values.reserve_exact(pairs.len());
        for (prefix, value) in pairs {
            let id = lpm.push_value(value);
            lpm.entries.push(prefix);
            lpm.value_ids.push(id);
            lpm.expand(prefix, id);
        }
        lpm
    }

    /// Compiles the index from a live trie (tombstoned entries excluded,
    /// exactly as [`PrefixTrie::iter`] skips them).
    pub fn from_trie(trie: &PrefixTrie<T>) -> Self
    where
        T: Clone,
    {
        Self::from_entries(trie.iter().map(|(p, v)| (p, v.clone())))
    }

    /// Adds `prefix` with `value`, or replaces the value of a prefix
    /// already stored, returning the old value. A new prefix appends its
    /// value to the arena and is expanded under the slot rule; the slots
    /// of every other prefix keep their arena indices.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        match self.entries.binary_search(&prefix) {
            Ok(i) => Some(std::mem::replace(
                &mut self.values[self.value_ids[i] as usize],
                value,
            )),
            Err(i) => {
                let id = self.push_value(value);
                self.entries.insert(i, prefix);
                self.value_ids.insert(i, id);
                self.expand(prefix, id);
                None
            }
        }
    }

    /// Appends `value` to the arena and returns its index.
    fn push_value(&mut self, value: T) -> u32 {
        let id = u32::try_from(self.values.len())
            .ok()
            .filter(|&id| id != NONE)
            .expect("FrozenLpm holds fewer than 2^32 - 1 values");
        self.values.push(value);
        id
    }

    /// Writes arena value `id` of `prefix` over every slot the prefix
    /// covers in its stride table that is empty or holds a prefix no
    /// longer than it, creating the table's path on demand.
    fn expand(&mut self, prefix: Prefix, id: u32) {
        let bits = prefix.network().to_u32();
        let len = prefix.len() as usize;
        // The table holding a /L lives (L-1)/8 bytes deep; /0 covers the
        // whole root table.
        let (depth, base, span) = if len == 0 {
            (0, 0, TABLE_SLOTS)
        } else {
            let depth = (len - 1) / 8;
            let byte = ((bits >> (24 - 8 * depth)) & 0xFF) as usize;
            // 1..=8 prefix bits fall inside this table's byte; the rest of
            // the byte is free, so the prefix covers 2^(8-fixed)
            // consecutive slots (host bits are zero by canonicality).
            let fixed = len - 8 * depth;
            (depth, byte, 1usize << (8 - fixed))
        };
        let mut table = 0usize;
        for d in 0..depth {
            let byte = ((bits >> (24 - 8 * d)) & 0xFF) as usize;
            let slot = table * TABLE_SLOTS + byte;
            table = if self.slots[slot].child == NONE {
                let child = self.slots.len() / TABLE_SLOTS;
                self.slots[slot].child = child as u32;
                self.slots
                    .resize(self.slots.len() + TABLE_SLOTS, Slot::EMPTY);
                child
            } else {
                self.slots[slot].child as usize
            };
        }
        let start = table * TABLE_SLOTS + base;
        for slot in &mut self.slots[start..start + span] {
            if slot.value == NONE || slot.value_len <= prefix.len() {
                slot.value = id;
                slot.value_len = prefix.len();
            }
        }
    }

    /// The number of stored prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of stride-8 tables in the arena (a memory-footprint proxy:
    /// each table is 256 slots).
    pub fn table_count(&self) -> usize {
        self.slots.len() / TABLE_SLOTS
    }

    /// The value stored for exactly `prefix`.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        self.entries
            .binary_search(&prefix)
            .ok()
            .map(|i| &self.values[self.value_ids[i] as usize])
    }

    /// The most specific stored prefix containing `addr`, with its value.
    ///
    /// At most four slot reads; agrees with [`PrefixTrie::longest_match`].
    pub fn longest_match(&self, addr: Ipv4Addr) -> Option<(Prefix, &T)> {
        let slot = self.walk(addr.to_u32());
        (slot.value != NONE).then(|| {
            let prefix = Prefix::new(addr, slot.value_len).expect("stored prefix length <= 32");
            (prefix, &self.values[slot.value as usize])
        })
    }

    /// The value of the most specific stored prefix containing `addr`:
    /// the walk of [`FrozenLpm::longest_match`] without rebuilding the
    /// matched prefix, for callers that only need the value.
    #[inline]
    pub fn longest_value(&self, addr: Ipv4Addr) -> Option<&T> {
        let slot = self.walk(addr.to_u32());
        (slot.value != NONE).then(|| &self.values[slot.value as usize])
    }

    /// The deepest slot on `bits`' path that holds a value (or an empty
    /// slot when none does): at most four slot reads.
    #[inline]
    fn walk(&self, bits: u32) -> Slot {
        let mut best = Slot::EMPTY;
        let mut table = 0usize;
        for d in 0..4 {
            let byte = ((bits >> (24 - 8 * d)) & 0xFF) as usize;
            let slot = self.slots[table * TABLE_SLOTS + byte];
            if slot.value != NONE {
                best = slot;
            }
            if slot.child == NONE {
                break;
            }
            table = slot.child as usize;
        }
        best
    }

    /// Iterates over all `(prefix, value)` pairs in lexicographic
    /// (network bits, length) order — the same order as [`PrefixTrie::iter`].
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> + '_ {
        self.entries
            .iter()
            .zip(&self.value_ids)
            .map(|(&p, &id)| (p, &self.values[id as usize]))
    }

    /// All stored prefixes, sorted.
    pub fn prefixes(&self) -> &[Prefix] {
        &self.entries
    }

    /// All stored values, in arena order: [`Self::prefixes`] order for a
    /// table built by [`FrozenLpm::from_entries`], then one value per
    /// prefix added by [`FrozenLpm::insert`], in insertion order.
    pub fn values(&self) -> &[T] {
        &self.values
    }
}

impl<T> FromIterator<(Prefix, T)> for FrozenLpm<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        Self::from_entries(iter)
    }
}

rtbh_json::impl_json! { struct Slot { value, child, value_len } }
rtbh_json::impl_json! { generic struct FrozenLpm<T> { entries, value_ids, values, slots } }

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn assert_send_sync<S: Send + Sync>() {}

    #[test]
    fn is_send_and_sync() {
        assert_send_sync::<FrozenLpm<usize>>();
        assert_send_sync::<FrozenLpm<Vec<u64>>>();
    }

    #[test]
    fn longest_match_prefers_specific() {
        let lpm = FrozenLpm::from_entries([
            (p("0.0.0.0/0"), "default"),
            (p("203.0.113.0/24"), "net"),
            (p("203.0.113.7/32"), "host"),
        ]);
        assert_eq!(
            lpm.longest_match(a("203.0.113.7")).unwrap(),
            (p("203.0.113.7/32"), &"host")
        );
        assert_eq!(
            lpm.longest_match(a("203.0.113.8")).unwrap(),
            (p("203.0.113.0/24"), &"net")
        );
        assert_eq!(
            lpm.longest_match(a("8.8.8.8")).unwrap(),
            (p("0.0.0.0/0"), &"default")
        );
        assert_eq!(lpm.longest_value(a("203.0.113.7")), Some(&"host"));
        assert_eq!(lpm.longest_value(a("203.0.113.8")), Some(&"net"));
        assert_eq!(lpm.longest_value(a("8.8.8.8")), Some(&"default"));
    }

    #[test]
    fn no_default_no_match() {
        let lpm = FrozenLpm::from_entries([(p("10.0.0.0/8"), ())]);
        assert!(lpm.longest_match(a("11.0.0.0")).is_none());
        assert!(lpm.longest_value(a("11.0.0.0")).is_none());
        assert!(lpm.longest_match(a("10.1.2.3")).is_some());
    }

    #[test]
    fn empty_index_matches_nothing() {
        let lpm: FrozenLpm<u8> = FrozenLpm::from_entries([]);
        assert!(lpm.is_empty());
        assert_eq!(lpm.len(), 0);
        assert!(lpm.longest_match(a("1.2.3.4")).is_none());
        assert!(lpm.get(p("0.0.0.0/0")).is_none());
    }

    #[test]
    fn exact_get_distinguishes_lengths() {
        let lpm = FrozenLpm::from_entries([
            (p("10.0.0.0/8"), 8u8),
            (p("10.0.0.0/9"), 9u8),
            (p("10.0.0.0/24"), 24u8),
        ]);
        assert_eq!(lpm.get(p("10.0.0.0/8")), Some(&8));
        assert_eq!(lpm.get(p("10.0.0.0/9")), Some(&9));
        assert_eq!(lpm.get(p("10.0.0.0/24")), Some(&24));
        assert_eq!(lpm.get(p("10.0.0.0/10")), None);
        assert_eq!(lpm.len(), 3);
    }

    #[test]
    fn mid_byte_prefixes_expand_correctly() {
        // /9 and /12 land in the same second-level table; the /12 range
        // must win inside its 16 slots, the /9 elsewhere in its 128.
        let lpm =
            FrozenLpm::from_entries([(p("10.0.0.0/9"), "nine"), (p("10.16.0.0/12"), "twelve")]);
        assert_eq!(
            lpm.longest_match(a("10.16.1.1")).unwrap(),
            (p("10.16.0.0/12"), &"twelve")
        );
        assert_eq!(
            lpm.longest_match(a("10.32.1.1")).unwrap(),
            (p("10.32.0.0/9"), &"nine")
        );
        assert!(lpm.longest_match(a("10.128.0.1")).is_none());
    }

    #[test]
    fn byte_boundary_host_route() {
        let lpm = FrozenLpm::from_entries([(Prefix::host(a("255.255.255.255")), "edge")]);
        assert_eq!(lpm.longest_match(a("255.255.255.255")).unwrap().1, &"edge");
        assert!(lpm.longest_match(a("255.255.255.254")).is_none());
    }

    #[test]
    fn from_trie_skips_tombstones_and_agrees() {
        let mut trie = PrefixTrie::new();
        trie.insert(p("10.0.0.0/9"), "low");
        trie.insert(p("10.128.0.0/9"), "high");
        trie.remove(p("10.0.0.0/9"));
        let lpm = FrozenLpm::from_trie(&trie);
        assert_eq!(lpm.len(), trie.len());
        assert_eq!(lpm.longest_match(a("10.200.0.1")).unwrap().1, &"high");
        assert!(lpm.longest_match(a("10.5.0.1")).is_none());
    }

    #[test]
    fn iter_is_sorted_like_the_trie() {
        let prefixes = [
            "10.0.0.0/8",
            "10.0.0.0/16",
            "9.0.0.0/8",
            "10.128.0.0/9",
            "0.0.0.0/0",
        ];
        let trie: PrefixTrie<usize> = prefixes
            .iter()
            .enumerate()
            .map(|(i, s)| (p(s), i))
            .collect();
        let lpm = FrozenLpm::from_trie(&trie);
        let got: Vec<Prefix> = lpm.iter().map(|(px, _)| px).collect();
        let want: Vec<Prefix> = trie.prefixes();
        assert_eq!(got, want);
        assert_eq!(lpm.values().len(), prefixes.len());
    }

    #[test]
    fn insert_order_does_not_change_the_answers() {
        let prefixes = [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.0.0.0/9",
            "10.16.0.0/12",
            "10.16.3.0/24",
            "10.16.3.7/32",
            "10.16.3.8/31",
        ];
        let bulk = FrozenLpm::from_entries(prefixes.iter().map(|s| (p(s), *s)));
        let mut grown = FrozenLpm::new();
        for s in prefixes.iter().rev() {
            assert_eq!(grown.insert(p(s), *s), None);
        }
        assert_eq!(grown.len(), bulk.len());
        assert!(grown.iter().eq(bulk.iter()));
        for addr in [
            "10.16.3.7",
            "10.16.3.9",
            "10.16.3.1",
            "10.17.0.1",
            "10.200.0.1",
            "8.8.8.8",
        ] {
            assert_eq!(
                grown.longest_match(a(addr)),
                bulk.longest_match(a(addr)),
                "{addr}"
            );
        }
        assert_eq!(
            grown.longest_match(a("10.16.3.9")).unwrap().1,
            &"10.16.3.8/31"
        );
    }

    #[test]
    fn insert_replaces_values_without_moving_the_arena() {
        let mut lpm = FrozenLpm::new();
        assert_eq!(lpm.insert(p("10.0.0.7/32"), 0), None);
        assert_eq!(lpm.insert(p("10.0.0.0/24"), 1), None);
        assert_eq!(lpm.insert(p("9.0.0.0/8"), 2), None);
        assert_eq!(lpm.insert(p("10.0.0.0/24"), 10), Some(1));
        assert_eq!(lpm.len(), 3);
        // Values stay in arena (insertion) order; prefixes are sorted.
        assert_eq!(lpm.values(), &[0, 10, 2]);
        assert_eq!(
            lpm.prefixes(),
            &[p("9.0.0.0/8"), p("10.0.0.0/24"), p("10.0.0.7/32")]
        );
        assert_eq!(lpm.get(p("10.0.0.0/24")), Some(&10));
        assert_eq!(lpm.longest_match(a("10.0.0.9")).unwrap().1, &10);
        assert_eq!(lpm.longest_match(a("10.0.0.7")).unwrap().1, &0);
    }

    #[test]
    fn default_route_survives_more_specific_overwrites() {
        let lpm = FrozenLpm::from_entries([(p("0.0.0.0/0"), 0u8), (p("128.0.0.0/1"), 1u8)]);
        assert_eq!(
            lpm.longest_match(a("200.0.0.1")).unwrap(),
            (p("128.0.0.0/1"), &1)
        );
        assert_eq!(
            lpm.longest_match(a("5.0.0.1")).unwrap(),
            (p("0.0.0.0/0"), &0)
        );
        assert!(lpm.table_count() >= 1);
    }
}
