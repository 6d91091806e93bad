//! Predicate pushdown over the sealed chunks: selection masks and
//! branch-free compare kernels.
//!
//! The paper's headline mitigation result (§6: 90% of anomaly-backed
//! events are fully mitigated by filtering a fixed list of UDP
//! amplification ports) makes ad-hoc port/protocol/length predicates the
//! hottest query shape the server faces. This module evaluates such
//! predicates as *pushed-down* columnar passes over the sealed chunks
//! instead of rowwise walks:
//!
//! - A [`SelectionMask`] holds one `u64` word per 64 rows of a chunk —
//!   the same packing as the flag bitset columns
//!   ([`abi::FLAG_WORD_BITS`]: row `r` lives in bit `r & 63` of word
//!   `r >> 6`, tail bits zero), so predicate masks fuse with the
//!   `fragment`/`dropped`/`active` columns by a single AND per word.
//! - Compare predicates ([`Predicate::Cmp`]) are evaluated by
//!   branch-free loops that write one mask word per 64-row block
//!   ([`pred_words_into`]'s `w |= (p as u64) << bit` shape): no per-row
//!   branches, which is the shape LLVM autovectorizes into wide compares
//!   plus mask extraction. The module stays std-only; vectorization is
//!   verified by `BENCH_filters.json` deltas, not intrinsics.
//! - Aggregation walks mask words ([`aggregate_chunk`]): popcounts for
//!   counts, `bits &= bits - 1` set-bit walks for byte sums, and a plain
//!   (autovectorizable) slice reduction for fully-selected words.
//! - Per-prefix conjuncts join the prefix's sorted sample-id list from
//!   the sample index ([`SampleIndex::towards`]) into the selection mask:
//!   the list is cut to the window by gallop search, and chunks where it
//!   has no row are skipped.
//!
//! Every kernel is cross-checked against [`filter_aggregate_naive`], the
//! definitionally-correct rowwise reference, by unit tests, the
//! `filter_diff` differential suite (chunk capacities × prepare worker
//! counts) and the filters bench (answers byte-checked before timing).

use std::collections::HashMap;

use rtbh_net::{Prefix, Timestamp};

use crate::columns::{abi, gallop_partition_point, ColumnarFlows, SealedChunk};
use crate::index::SampleIndex;

/// Most predicates accepted in one query (wire-validated; conjunctions
/// beyond this are hostile, not expressive).
pub const MAX_PREDICATES: usize = 16;

// ---------------------------------------------------------------------------
// Selection masks
// ---------------------------------------------------------------------------

/// A per-chunk row-selection bitset: one `u64` word per 64 rows, packed
/// exactly like the flag bitset columns (row `r` → bit `r & 63` of word
/// `r >> 6`, LSB-first, tail bits of the last word zero). Reused across
/// chunks as scratch: `reset_*` re-sizes without reallocating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectionMask {
    words: Vec<u64>,
    len: usize,
}

impl SelectionMask {
    /// An empty mask over zero rows (reset it per chunk).
    pub fn new() -> SelectionMask {
        SelectionMask::default()
    }

    fn resize(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Resets to `len` rows, none selected.
    pub fn reset_zero(&mut self, len: usize) {
        self.resize(len);
    }

    /// Resets to `len` rows with exactly rows `a..b` selected
    /// (`b` clamped to `len`).
    pub fn reset_range(&mut self, len: usize, a: usize, b: usize) {
        self.resize(len);
        let b = b.min(len);
        if b <= a {
            return;
        }
        let (first, last) = (a / 64, (b - 1) / 64);
        for w in &mut self.words[first..=last] {
            *w = !0;
        }
        self.words[first] &= !0u64 << (a % 64);
        let top = b - last * 64;
        if top < 64 {
            self.words[last] &= (1u64 << top) - 1;
        }
    }

    /// Rows covered (selected or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed selection words; tail bits of the last word are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Selects row `r`.
    pub fn set(&mut self, r: usize) {
        debug_assert!(r < self.len);
        self.words[r >> 6] |= 1u64 << (r & 63);
    }

    /// Whether row `r` is selected.
    pub fn get(&self, r: usize) -> bool {
        (self.words[r >> 6] >> (r & 63)) & 1 == 1
    }

    /// Selected rows — a word-at-a-time popcount.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// ANDs `words` into the mask starting at word `offset` (words past
    /// the mask end are ignored).
    pub fn and_words_at(&mut self, offset: usize, words: &[u64]) {
        for (m, &w) in self.words[offset..].iter_mut().zip(words) {
            *m &= w;
        }
    }

    /// Fuses a flag bitset column into the mask starting at word
    /// `offset`: keeps rows whose flag equals `set`. Safe for
    /// `set == false` even though `!flag` sets tail bits — the mask's own
    /// tail bits are zero, and AND preserves that invariant.
    pub fn and_flag_at(&mut self, offset: usize, flag_words: &[u64], set: bool) {
        for (m, &f) in self.words[offset..].iter_mut().zip(flag_words) {
            *m &= if set { f } else { !f };
        }
    }
}

/// Packs 8 little-endian `0/1` bytes into 8 bits: byte `i`'s low bit
/// lands on result bit `i`. The multiply places byte `i` at bit
/// `56 + i` (positions `8i + (56 - 7j)` collide for no `i != j`), so the
/// shift extracts exactly the 8 flag bits — a movemask in plain integer
/// arithmetic.
const LANE_PACK: u64 = 0x0102_0408_1020_4080;

/// Writes one selection word per 64-row block of `vals`: bit `i & 63` of
/// word `i >> 6` is `pred(vals[i])`. Two branch-free passes per block:
/// the predicate writes a `0/1` byte per row (a straight compare loop the
/// autovectorizer turns into packed compares), then eight
/// multiply-shift packs fold the byte lanes into the word — no
/// data-dependent shift-by-row-index for the vectorizer to trip on.
pub fn pred_words_into<T: Copy>(vals: &[T], pred: impl Fn(T) -> bool, out: &mut Vec<u64>) {
    out.clear();
    out.reserve(vals.len().div_ceil(64));
    let mut blocks = vals.chunks_exact(64);
    for block in blocks.by_ref() {
        let mut lanes = [0u8; 64];
        for (lane, &v) in lanes.iter_mut().zip(block) {
            *lane = u8::from(pred(v));
        }
        let mut w = 0u64;
        for (k, eight) in lanes.chunks_exact(8).enumerate() {
            let packed = u64::from_le_bytes(eight.try_into().expect("chunks_exact(8)"));
            w |= (packed.wrapping_mul(LANE_PACK) >> 56) << (8 * k);
        }
        out.push(w);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut w = 0u64;
        for (bit, &v) in tail.iter().enumerate() {
            w |= u64::from(pred(v)) << bit;
        }
        out.push(w);
    }
}

fn cmp_words<T: Copy + Into<u32>>(vals: &[T], op: CmpOp, value: u32, out: &mut Vec<u64>) {
    match op {
        CmpOp::Eq => pred_words_into(vals, |v| v.into() == value, out),
        CmpOp::Ne => pred_words_into(vals, |v| v.into() != value, out),
        CmpOp::Lt => pred_words_into(vals, |v| v.into() < value, out),
        CmpOp::Le => pred_words_into(vals, |v| v.into() <= value, out),
        CmpOp::Gt => pred_words_into(vals, |v| v.into() > value, out),
        CmpOp::Ge => pred_words_into(vals, |v| v.into() >= value, out),
    }
}

// ---------------------------------------------------------------------------
// Predicates
// ---------------------------------------------------------------------------

/// A value column addressable by compare predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpCol {
    /// `src_port` (`u16`).
    SrcPort,
    /// `dst_port` (`u16`).
    DstPort,
    /// `protocol` (raw IP protocol number, `u8`).
    Protocol,
    /// `packet_len` (`u32`).
    PacketLen,
}

impl CmpCol {
    /// Every compare column, in wire-code order.
    pub const ALL: [CmpCol; 4] = [
        CmpCol::SrcPort,
        CmpCol::DstPort,
        CmpCol::Protocol,
        CmpCol::PacketLen,
    ];

    /// Wire/fingerprint code (codes 0–3; the flag columns use 4–6).
    pub fn code(self) -> u8 {
        match self {
            CmpCol::SrcPort => 0,
            CmpCol::DstPort => 1,
            CmpCol::Protocol => 2,
            CmpCol::PacketLen => 3,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<CmpCol> {
        CmpCol::ALL.get(code as usize).copied()
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            CmpCol::SrcPort => "src_port",
            CmpCol::DstPort => "dst_port",
            CmpCol::Protocol => "protocol",
            CmpCol::PacketLen => "packet_len",
        }
    }

    /// Largest value representable in the column; bigger right-hand
    /// sides are rejected at decode time so every accepted predicate has
    /// one canonical encoding.
    pub fn max_value(self) -> u32 {
        match self {
            CmpCol::SrcPort | CmpCol::DstPort => u32::from(u16::MAX),
            CmpCol::Protocol => u32::from(u8::MAX),
            CmpCol::PacketLen => u32::MAX,
        }
    }
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Every operator, in wire-code order.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Wire/fingerprint code.
    pub fn code(self) -> u8 {
        match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<CmpOp> {
        CmpOp::ALL.get(code as usize).copied()
    }

    /// The CLI spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Applies the operator.
    pub fn eval(self, lhs: u32, rhs: u32) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// A flag bitset column addressable by predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlagCol {
    /// The `fragment` bitset.
    Fragment,
    /// The `dropped` bitset.
    Dropped,
    /// The `active` bitset (dropped while a route-server blackhole was
    /// active).
    Active,
}

impl FlagCol {
    /// Every flag column, in wire-code order.
    pub const ALL: [FlagCol; 3] = [FlagCol::Fragment, FlagCol::Dropped, FlagCol::Active];

    /// Wire/fingerprint code (codes 4–6, after the compare columns).
    pub fn code(self) -> u8 {
        match self {
            FlagCol::Fragment => 4,
            FlagCol::Dropped => 5,
            FlagCol::Active => 6,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<FlagCol> {
        match code {
            4 => Some(FlagCol::Fragment),
            5 => Some(FlagCol::Dropped),
            6 => Some(FlagCol::Active),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            FlagCol::Fragment => "fragment",
            FlagCol::Dropped => "dropped",
            FlagCol::Active => "active",
        }
    }
}

/// One conjunct of a [`FilterQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `column op value` over a value column.
    Cmp {
        /// The column scanned.
        col: CmpCol,
        /// The comparison operator.
        op: CmpOp,
        /// The right-hand value (≤ [`CmpCol::max_value`]).
        value: u32,
    },
    /// A flag bitset column equals `set`.
    Flag {
        /// The flag column.
        col: FlagCol,
        /// The required flag state.
        set: bool,
    },
}

impl Predicate {
    /// The `(column code, op code, value)` wire triple — also the
    /// canonical sort/dedup key.
    pub fn key(self) -> (u8, u8, u32) {
        match self {
            Predicate::Cmp { col, op, value } => (col.code(), op.code(), value),
            Predicate::Flag { col, set } => (col.code(), CmpOp::Eq.code(), u32::from(set)),
        }
    }

    /// Rebuilds a predicate from its wire triple, validating ranges:
    /// compare values must fit the column, flag columns accept only
    /// `= 0` / `= 1`. `None` on anything else.
    pub fn from_key(col: u8, op: u8, value: u32) -> Option<Predicate> {
        if let Some(c) = CmpCol::from_code(col) {
            let op = CmpOp::from_code(op)?;
            (value <= c.max_value()).then_some(Predicate::Cmp { col: c, op, value })
        } else if let Some(c) = FlagCol::from_code(col) {
            (op == CmpOp::Eq.code() && value <= 1).then_some(Predicate::Flag {
                col: c,
                set: value == 1,
            })
        } else {
            None
        }
    }

    /// Parses the CLI spelling: `column op value` with op one of
    /// `= != < <= > >=` — e.g. `dst_port=53`, `packet_len>=1000`,
    /// `protocol!=6`, `fragment=1`. Flag columns accept only `=0`/`=1`.
    pub fn parse(text: &str) -> Option<Predicate> {
        let idx = text.find(['=', '!', '<', '>'])?;
        let (name, rest) = text.split_at(idx);
        // Two-character operators first, so `<=` never parses as `<`.
        let (op, value) = [
            CmpOp::Ne,
            CmpOp::Le,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Lt,
            CmpOp::Gt,
        ]
        .into_iter()
        .find_map(|op| rest.strip_prefix(op.symbol()).map(|v| (op, v)))?;
        let value: u32 = value.trim().parse().ok()?;
        let col = CmpCol::ALL
            .iter()
            .find(|c| c.name() == name)
            .map(|c| c.code())
            .or_else(|| {
                FlagCol::ALL
                    .iter()
                    .find(|c| c.name() == name)
                    .map(|c| c.code())
            })?;
        Predicate::from_key(col, op.code(), value)
    }

    /// Rowwise evaluation — the reference the mask kernels are
    /// differentially tested against.
    pub fn matches_row(self, chunk: &SealedChunk, r: usize) -> bool {
        match self {
            Predicate::Cmp { col, op, value } => {
                let v = match col {
                    CmpCol::SrcPort => u32::from(chunk.src_ports()[r]),
                    CmpCol::DstPort => u32::from(chunk.dst_ports()[r]),
                    CmpCol::Protocol => u32::from(chunk.protocols()[r]),
                    CmpCol::PacketLen => chunk.packet_lens()[r],
                };
                op.eval(v, value)
            }
            Predicate::Flag { col, set } => {
                let f = match col {
                    FlagCol::Fragment => chunk.fragment(r),
                    FlagCol::Dropped => chunk.dropped(r),
                    FlagCol::Active => chunk.active(r),
                };
                f == set
            }
        }
    }

    /// Narrows `mask` to rows of `chunk` satisfying the predicate,
    /// touching only words `wa..wb` (rows `wa*64 .. min(len, wb*64)`).
    /// Compare predicates run the branch-free kernel into `scratch` and
    /// fuse with one AND per word; flag predicates skip the compute and
    /// fuse the chunk's bitset column directly.
    pub fn apply_words(
        self,
        chunk: &SealedChunk,
        wa: usize,
        wb: usize,
        mask: &mut SelectionMask,
        scratch: &mut Vec<u64>,
    ) {
        let len = chunk.len();
        let lo = (wa * 64).min(len);
        let hi = (wb * 64).min(len);
        if hi <= lo {
            return;
        }
        match self {
            Predicate::Cmp { col, op, value } => {
                match col {
                    CmpCol::SrcPort => cmp_words(&chunk.src_ports()[lo..hi], op, value, scratch),
                    CmpCol::DstPort => cmp_words(&chunk.dst_ports()[lo..hi], op, value, scratch),
                    CmpCol::Protocol => cmp_words(&chunk.protocols()[lo..hi], op, value, scratch),
                    CmpCol::PacketLen => {
                        cmp_words(&chunk.packet_lens()[lo..hi], op, value, scratch)
                    }
                }
                mask.and_words_at(wa, scratch);
            }
            Predicate::Flag { col, set } => {
                let words = match col {
                    FlagCol::Fragment => chunk.fragment_words(),
                    FlagCol::Dropped => chunk.dropped_words(),
                    FlagCol::Active => chunk.active_words(),
                };
                let wb = wb.min(words.len());
                if wb > wa {
                    mask.and_flag_at(wa, &words[wa..wb], set);
                }
            }
        }
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Predicate::Cmp { col, op, value } => {
                write!(f, "{}{}{}", col.name(), op.symbol(), value)
            }
            Predicate::Flag { col, set } => write!(f, "{}={}", col.name(), u32::from(set)),
        }
    }
}

// ---------------------------------------------------------------------------
// Queries and aggregates
// ---------------------------------------------------------------------------

/// A conjunctive filter query: time window ∧ optional destination-prefix
/// conjunct ∧ value/flag predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterQuery {
    /// Window start (inclusive), epoch milliseconds.
    pub start_ms: i64,
    /// Window end (exclusive), epoch milliseconds.
    pub end_ms: i64,
    /// Optional conjunct: only samples whose destination resolves to
    /// this blackholed prefix (the `dst_pid` column / the index's
    /// `towards` list).
    pub prefix: Option<Prefix>,
    /// Value/flag conjuncts; all must hold.
    pub predicates: Vec<Predicate>,
}

impl FilterQuery {
    /// A query over the whole corpus with no prefix conjunct.
    pub fn matching(predicates: Vec<Predicate>) -> FilterQuery {
        FilterQuery {
            start_ms: i64::MIN,
            end_ms: i64::MAX,
            prefix: None,
            predicates,
        }
    }

    /// Restricts the query to `start_ms <= at < end_ms`.
    pub fn with_window(mut self, start_ms: i64, end_ms: i64) -> FilterQuery {
        self.start_ms = start_ms;
        self.end_ms = end_ms;
        self
    }

    /// Adds the destination-prefix conjunct.
    pub fn with_prefix(mut self, prefix: Prefix) -> FilterQuery {
        self.prefix = Some(prefix);
        self
    }

    /// Canonicalizes in place: predicates sorted by wire key and
    /// deduplicated. Queries differing only in predicate order or
    /// repetition canonicalize identically — the server caches under the
    /// canonical encoding, so they share one cache entry.
    pub fn canonicalize(&mut self) {
        self.predicates.sort_by_key(|p| p.key());
        self.predicates.dedup();
    }
}

/// Aggregate over every sample matching a [`FilterQuery`]. All fields
/// are order-independent `u64` sums, so the answer is identical at every
/// chunk capacity and prepare worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterAggregate {
    /// Samples matching every conjunct.
    pub samples: u64,
    /// Sum of their packet lengths.
    pub total_bytes: u64,
    /// Dropped samples among them.
    pub dropped_packets: u64,
    /// Sum of dropped packet lengths.
    pub dropped_bytes: u64,
    /// Dropped samples explained by an active route-server blackhole.
    pub explained_packets: u64,
    /// Their packet lengths.
    pub explained_bytes: u64,
    /// Fragments among the matches.
    pub fragments: u64,
}

rtbh_json::impl_json! {
    serialize struct FilterAggregate {
        samples, total_bytes, dropped_packets, dropped_bytes,
        explained_packets, explained_bytes, fragments,
    }
}

impl FilterAggregate {
    /// Adds another aggregate's sums; every field is a commutative sum,
    /// so merge order cannot change the result.
    pub fn merge(&mut self, other: &FilterAggregate) {
        self.samples += other.samples;
        self.total_bytes += other.total_bytes;
        self.dropped_packets += other.dropped_packets;
        self.dropped_bytes += other.dropped_bytes;
        self.explained_packets += other.explained_packets;
        self.explained_bytes += other.explained_bytes;
        self.fragments += other.fragments;
    }
}

/// Folds one chunk's selected rows into `agg`: popcounts for the counts,
/// a plain slice reduction for fully-selected words' byte totals, and
/// `bits &= bits - 1` set-bit walks everywhere a packet length must be
/// looked up. The shared back end of the masked filter drivers, which
/// answer every `Window`, `Prefix` and `Filter` query.
pub fn aggregate_chunk(chunk: &SealedChunk, mask: &SelectionMask, agg: &mut FilterAggregate) {
    let lens = chunk.packet_lens();
    let dropped = chunk.dropped_words();
    let active = chunk.active_words();
    let fragment = chunk.fragment_words();
    for (w, &m) in mask.words().iter().enumerate() {
        if m == 0 {
            continue;
        }
        agg.samples += u64::from(m.count_ones());
        let base = w * 64;
        let d = dropped[w] & m;
        let e = d & active[w];
        agg.dropped_packets += u64::from(d.count_ones());
        agg.explained_packets += u64::from(e.count_ones());
        agg.fragments += u64::from((fragment[w] & m).count_ones());
        // Dense words skip the set-bit walks entirely: a straight slice
        // reduction autovectorizes, and `e == !0` implies `d == !0`
        // implies `m == !0` (each is an AND of the previous).
        let full = if m == !0u64 {
            let mut total = 0u64;
            for &l in &lens[base..base + 64] {
                total += u64::from(l);
            }
            agg.total_bytes += total;
            total
        } else {
            let mut bits = m;
            while bits != 0 {
                agg.total_bytes += u64::from(lens[base + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
            0
        };
        if d == !0u64 {
            agg.dropped_bytes += full;
        } else {
            let mut bits = d;
            while bits != 0 {
                agg.dropped_bytes += u64::from(lens[base + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        if e == !0u64 {
            agg.explained_bytes += full;
        } else {
            let mut bits = e;
            while bits != 0 {
                agg.explained_bytes += u64::from(lens[base + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Filter drivers
// ---------------------------------------------------------------------------

/// Selects the rows of the chunk starting at global row `start` that
/// `ids` lists before `end`, and advances `ids` past them. `false` (and
/// the mask untouched) when the list has no row there.
fn scatter_ids(ids: &mut &[u32], start: usize, end: usize, mask: &mut SelectionMask) -> bool {
    let n = gallop_partition_point(ids, 0, end as u32);
    if n == 0 {
        return false;
    }
    mask.reset_zero(end - start);
    for &id in &ids[..n] {
        mask.set(id as usize - start);
    }
    *ids = &ids[n..];
    true
}

/// Masked, chunk-pruned filter evaluation. The window prunes whole
/// chunks by their first and last timestamps
/// ([`ColumnarFlows::time_range`]). The optional prefix conjunct
/// `ids` is the sorted sample-id list of the resolved
/// [`FilterQuery::prefix`] ([`SampleIndex::towards`]; the caller resolves
/// the prefix so an unknown one can be reported before any scan): it is
/// cut to the window by gallop search ([`ColumnarFlows::window_ids`]) and
/// scattered into the mask, and every chunk where it has no row is
/// skipped. Each
/// predicate is one branch-free pass over the covered word range.
/// Byte-identical to [`filter_aggregate_naive`].
pub fn filter_aggregate(
    cols: &ColumnarFlows,
    ids: Option<&[u32]>,
    query: &FilterQuery,
) -> FilterAggregate {
    let mut agg = FilterAggregate::default();
    if query.end_ms <= query.start_ms {
        return agg;
    }
    let (start, end) = (Timestamp(query.start_ms), Timestamp(query.end_ms));
    let (lo, hi) = cols.time_range(start, end);
    if hi <= lo {
        return agg;
    }
    let mut ids = ids.map(|ids| cols.window_ids(ids, start, end));
    let mut mask = SelectionMask::new();
    let mut scratch = Vec::new();
    for chunk in cols.chunks() {
        let cs = chunk.start();
        let ce = cs + chunk.len();
        if ce <= lo {
            continue;
        }
        if cs >= hi {
            break;
        }
        let a = lo.saturating_sub(cs);
        let b = hi.min(ce) - cs;
        match ids.as_mut() {
            Some(ids) => {
                if !scatter_ids(ids, cs, ce, &mut mask) {
                    continue;
                }
            }
            None => mask.reset_range(chunk.len(), a, b),
        }
        let (wa, wb) = (a / 64, b.div_ceil(64));
        for &pred in &query.predicates {
            pred.apply_words(chunk, wa, wb, &mut mask, &mut scratch);
        }
        aggregate_chunk(chunk, &mask, &mut agg);
    }
    agg
}

/// Masked evaluation without chunk pruning: every chunk is scanned and
/// the window itself becomes a branch-free mask pass over the `at`
/// column. The bench's middle variant — isolates what masking alone buys
/// before header pruning is added. `ids` is the prefix conjunct's sorted
/// sample-id list, as for [`filter_aggregate`], to which it is
/// byte-identical.
pub fn filter_aggregate_scan(
    cols: &ColumnarFlows,
    mut ids: Option<&[u32]>,
    query: &FilterQuery,
) -> FilterAggregate {
    let mut agg = FilterAggregate::default();
    let mut mask = SelectionMask::new();
    let mut scratch = Vec::new();
    let windowed = !(query.start_ms == i64::MIN && query.end_ms == i64::MAX);
    for chunk in cols.chunks() {
        let cs = chunk.start();
        let len = chunk.len();
        match ids.as_mut() {
            Some(ids) => {
                if !scatter_ids(ids, cs, cs + len, &mut mask) {
                    mask.reset_zero(len);
                }
            }
            None => mask.reset_range(len, 0, len),
        }
        if windowed {
            let (s, e) = (query.start_ms, query.end_ms);
            pred_words_into(chunk.at_millis(), |v| s <= v && v < e, &mut scratch);
            mask.and_words_at(0, &scratch);
        }
        for &pred in &query.predicates {
            pred.apply_words(chunk, 0, len.div_ceil(64), &mut mask, &mut scratch);
        }
        aggregate_chunk(chunk, &mask, &mut agg);
    }
    agg
}

/// The rowwise reference: per-row loads, per-row branches, no masks, no
/// pruning, no dictionary. Definitionally correct and deliberately
/// naive — every fast path is differentially tested against it. `pid` is
/// the resolved id of [`FilterQuery::prefix`] (checked against the
/// `dst_pid` column directly).
pub fn filter_aggregate_naive(
    cols: &ColumnarFlows,
    pid: Option<u32>,
    query: &FilterQuery,
) -> FilterAggregate {
    let mut agg = FilterAggregate::default();
    for chunk in cols.chunks() {
        let at = chunk.at_millis();
        let lens = chunk.packet_lens();
        let dst_pid = chunk.dst_prefix_ids();
        for r in 0..chunk.len() {
            if !(query.start_ms <= at[r] && at[r] < query.end_ms) {
                continue;
            }
            if let Some(p) = pid {
                if dst_pid[r] != p {
                    continue;
                }
            }
            if !query
                .predicates
                .iter()
                .all(|pred| pred.matches_row(chunk, r))
            {
                continue;
            }
            let len = u64::from(lens[r]);
            agg.samples += 1;
            agg.total_bytes += len;
            if chunk.fragment(r) {
                agg.fragments += 1;
            }
            if chunk.dropped(r) {
                agg.dropped_packets += 1;
                agg.dropped_bytes += len;
                if chunk.active(r) {
                    agg.explained_packets += 1;
                    agg.explained_bytes += len;
                }
            }
        }
    }
    agg
}

// ---------------------------------------------------------------------------
// Dictionary-encoded sorted id lists
// ---------------------------------------------------------------------------

/// Dictionary-encoded sorted id lists, off the query path: the filter
/// drivers join the sample index's own lists. Every list is split into
/// blocks of [`abi::DICT_SYNC_INTERVAL`] ids; a block's first id lives
/// in a sync table (absolute, so a reader can start at any block) and
/// the remaining ids are delta-varints in one shared byte arena.
/// Identical lists are deduplicated at build time by content (hash plus
/// byte compare of their encodings), so lists shared across prefixes
/// are stored once.
#[derive(Debug, Clone)]
pub struct IdDict {
    arena: Vec<u8>,
    entry_offsets: Vec<u32>,
    entry_bytes: Vec<u32>,
    entry_lens: Vec<u32>,
    /// `entries + 1` bounds into `sync_ids`/`sync_offsets`.
    sync_bounds: Vec<u32>,
    sync_ids: Vec<u32>,
    sync_offsets: Vec<u32>,
    /// List index → entry index (many-to-one after deduplication).
    map: Vec<u32>,
}

impl IdDict {
    /// Builds the dictionary from strictly-increasing id lists
    /// (panics on an unsorted or duplicated id — the index's `towards`
    /// lists satisfy this by construction).
    pub fn build<'a>(lists: impl IntoIterator<Item = &'a [u32]>) -> IdDict {
        let mut d = IdDict {
            arena: Vec::new(),
            entry_offsets: Vec::new(),
            entry_bytes: Vec::new(),
            entry_lens: Vec::new(),
            sync_bounds: vec![0],
            sync_ids: Vec::new(),
            sync_offsets: Vec::new(),
            map: Vec::new(),
        };
        let mut seen: HashMap<u64, Vec<u32>> = HashMap::new();
        let (mut stream, mut firsts, mut rel) = (Vec::new(), Vec::<u32>::new(), Vec::<u32>::new());
        for list in lists {
            stream.clear();
            firsts.clear();
            rel.clear();
            let mut prev = 0u32;
            for (i, &id) in list.iter().enumerate() {
                assert!(
                    i == 0 || id > prev,
                    "IdDict lists must be strictly increasing"
                );
                if i % abi::DICT_SYNC_INTERVAL == 0 {
                    firsts.push(id);
                    rel.push(stream.len() as u32);
                } else {
                    put_varint(&mut stream, id - prev);
                }
                prev = id;
            }
            let h = content_hash(list.len(), &firsts, &stream);
            let found = seen
                .get(&h)
                .into_iter()
                .flatten()
                .copied()
                .find(|&e| d.entry_matches(e as usize, list.len(), &firsts, &stream));
            let entry = match found {
                Some(e) => e,
                None => {
                    let e = d.entry_lens.len() as u32;
                    let base = d.arena.len() as u32;
                    d.entry_offsets.push(base);
                    d.entry_bytes.push(stream.len() as u32);
                    d.entry_lens.push(list.len() as u32);
                    d.arena.extend_from_slice(&stream);
                    d.sync_ids.extend_from_slice(&firsts);
                    d.sync_offsets.extend(rel.iter().map(|&r| base + r));
                    d.sync_bounds.push(d.sync_ids.len() as u32);
                    seen.entry(h).or_default().push(e);
                    e
                }
            };
            d.map.push(entry);
        }
        d
    }

    fn entry_matches(&self, e: usize, len: usize, firsts: &[u32], stream: &[u8]) -> bool {
        if self.entry_lens[e] as usize != len {
            return false;
        }
        let (s, t) = (
            self.sync_bounds[e] as usize,
            self.sync_bounds[e + 1] as usize,
        );
        if self.sync_ids[s..t] != *firsts {
            return false;
        }
        let off = self.entry_offsets[e] as usize;
        self.arena[off..off + self.entry_bytes[e] as usize] == *stream
    }

    /// One list per blackholed prefix id, in index order: the sorted
    /// sample ids towards that prefix ([`SampleIndex::towards`]).
    pub fn from_index(index: &SampleIndex) -> IdDict {
        IdDict::build((0..index.prefixes().len()).map(|pid| index.towards(pid)))
    }

    /// Number of lists (dictionary keys).
    pub fn lists(&self) -> usize {
        self.map.len()
    }

    /// Distinct stored encodings after deduplication.
    pub fn distinct(&self) -> usize {
        self.entry_lens.len()
    }

    /// Decodes list `i` in full.
    pub fn decode_list(&self, i: usize) -> Vec<u32> {
        let e = self.map[i] as usize;
        let n = self.entry_lens[e] as usize;
        let (s, t) = (
            self.sync_bounds[e] as usize,
            self.sync_bounds[e + 1] as usize,
        );
        let mut out = Vec::with_capacity(n);
        for k in 0..(t - s) {
            let mut pos = self.sync_offsets[s + k] as usize;
            let mut id = self.sync_ids[s + k];
            let block_len = (n - k * abi::DICT_SYNC_INTERVAL).min(abi::DICT_SYNC_INTERVAL);
            out.push(id);
            for _ in 1..block_len {
                id += get_varint(&self.arena, &mut pos);
                out.push(id);
            }
        }
        out
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u32::from(b & 0x7F) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

fn content_hash(len: usize, firsts: &[u32], stream: &[u8]) -> u64 {
    let mut h = fnv_bytes(0xcbf2_9ce4_8422_2325, &(len as u64).to_le_bytes());
    for &f in firsts {
        h = fnv_bytes(h, &f.to_le_bytes());
    }
    fnv_bytes(h, stream)
}

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// Corpus-backed differential coverage (capacities × prepare workers, fuzzed
// predicate sets, prefix joins against the real sample index) lives in the
// testkit's `filter_diff` suite and `tests/serve_engine.rs`; the tests here
// pin the pure kernel and dictionary mechanics on synthetic data.
#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_fabric::{FlowLog, FlowSample};
    use rtbh_net::MacAddr;

    /// Deterministic xorshift for synthetic columns (no dev-dep needed).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn sample_log(n: usize, seed: u64) -> FlowLog {
        let mut rng = Rng(seed | 1);
        let samples: Vec<FlowSample> = (0..n)
            .map(|i| {
                let r = rng.next();
                FlowSample {
                    at: Timestamp(i as i64 * 250),
                    src_mac: MacAddr::from_id(1),
                    dst_mac: if r % 3 == 0 {
                        MacAddr::BLACKHOLE
                    } else {
                        MacAddr::from_id(2)
                    },
                    src_ip: "192.0.2.1".parse().unwrap(),
                    dst_ip: "198.51.100.9".parse().unwrap(),
                    protocol: if r % 5 == 0 {
                        rtbh_net::Protocol::Tcp
                    } else {
                        rtbh_net::Protocol::Udp
                    },
                    src_port: (r % 7_000) as u16,
                    dst_port: if r % 4 == 0 { 53 } else { (r % 60_000) as u16 },
                    packet_len: 64 + (r % 1400) as u16,
                    fragment: r % 11 == 0,
                }
            })
            .collect();
        FlowLog::from_samples(samples)
    }

    #[test]
    fn selection_mask_range_matches_bit_arithmetic_and_keeps_tails_zero() {
        let mut mask = SelectionMask::new();
        for (len, a, b) in [
            (0usize, 0usize, 0usize),
            (1, 0, 1),
            (64, 0, 64),
            (65, 64, 65),
            (100, 0, 100),
            (100, 17, 83),
            (100, 63, 65),
            (100, 50, 50),
            (100, 80, 2_000),
            (130, 1, 129),
        ] {
            mask.reset_range(len, a, b);
            assert_eq!(mask.len(), len);
            assert_eq!(mask.words().len(), len.div_ceil(64));
            let b_eff = b.min(len);
            for r in 0..len {
                assert_eq!(
                    mask.get(r),
                    a <= r && r < b_eff,
                    "len {len} [{a},{b}) row {r}"
                );
            }
            assert_eq!(mask.count(), (b_eff.saturating_sub(a)) as u64);
            if len % 64 != 0 {
                let tail = mask.words().last().copied().unwrap_or(0);
                assert_eq!(tail >> (len % 64), 0, "tail bits must stay zero");
            }
        }
    }

    #[test]
    fn pred_words_match_rowwise_evaluation() {
        let mut rng = Rng(0x5EED);
        let vals: Vec<u16> = (0..321).map(|_| (rng.next() % 1_000) as u16).collect();
        let mut out = Vec::new();
        for (op, rhs) in [
            (CmpOp::Eq, 500u32),
            (CmpOp::Ne, 500),
            (CmpOp::Lt, 250),
            (CmpOp::Le, 250),
            (CmpOp::Gt, 750),
            (CmpOp::Ge, 750),
        ] {
            cmp_words(&vals, op, rhs, &mut out);
            assert_eq!(out.len(), vals.len().div_ceil(64));
            for (i, &v) in vals.iter().enumerate() {
                let bit = (out[i >> 6] >> (i & 63)) & 1 == 1;
                assert_eq!(bit, op.eval(u32::from(v), rhs), "{op:?} {rhs} @ {i}");
            }
            let tail = out.last().copied().unwrap();
            assert_eq!(tail >> (vals.len() % 64), 0, "tail bits must stay zero");
        }
    }

    #[test]
    fn predicate_parse_display_round_trips_and_rejects_junk() {
        for text in [
            "src_port=53",
            "dst_port!=123",
            "protocol=17",
            "packet_len>=1000",
            "packet_len<64",
            "src_port<=1023",
            "dst_port>49151",
            "fragment=1",
            "dropped=0",
            "active=1",
        ] {
            let p = Predicate::parse(text).unwrap_or_else(|| panic!("parse {text}"));
            assert_eq!(p.to_string(), text);
            assert_eq!(Predicate::parse(&p.to_string()), Some(p));
            let (c, o, v) = p.key();
            assert_eq!(Predicate::from_key(c, o, v), Some(p));
        }
        for junk in [
            "",
            "port=1",
            "dst_port",
            "dst_port==2",
            "dst_port=70000",
            "protocol=256",
            "fragment<1",
            "fragment=2",
            "dropped!=0",
            "=5",
            "dst_port=x",
            "dst_port=-1",
        ] {
            assert_eq!(Predicate::parse(junk), None, "{junk:?} must not parse");
        }
        // Out-of-range or unknown wire triples are rejected too.
        assert_eq!(Predicate::from_key(7, 0, 0), None);
        assert_eq!(Predicate::from_key(0, 6, 0), None);
        assert_eq!(Predicate::from_key(0, 0, 70_000), None);
        assert_eq!(Predicate::from_key(4, 1, 1), None);
        assert_eq!(Predicate::from_key(4, 0, 2), None);
    }

    #[test]
    fn canonicalize_sorts_and_dedups_predicates() {
        let a = Predicate::parse("dst_port=53").unwrap();
        let b = Predicate::parse("protocol=17").unwrap();
        let c = Predicate::parse("fragment=0").unwrap();
        let mut q1 = FilterQuery::matching(vec![c, b, a, b]);
        let mut q2 = FilterQuery::matching(vec![a, b, c]);
        q1.canonicalize();
        q2.canonicalize();
        assert_eq!(q1, q2);
        assert_eq!(q1.predicates.len(), 3);
        let keys: Vec<_> = q1.predicates.iter().map(|p| p.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn masked_filters_match_naive_on_synthetic_chunks() {
        let cols = ColumnarFlows::from_log_with_capacity(&sample_log(1_000, 0xA1), 64);
        let span_end = 1_000i64 * 250;
        let queries = [
            FilterQuery::matching(vec![]),
            FilterQuery::matching(vec![Predicate::parse("dst_port=53").unwrap()]),
            FilterQuery::matching(vec![
                Predicate::parse("protocol=17").unwrap(),
                Predicate::parse("packet_len>=700").unwrap(),
            ]),
            FilterQuery::matching(vec![
                Predicate::parse("src_port<3500").unwrap(),
                Predicate::parse("fragment=0").unwrap(),
                Predicate::parse("dropped=1").unwrap(),
            ]),
            FilterQuery::matching(vec![Predicate::parse("packet_len<64").unwrap()]),
            FilterQuery::matching(vec![]).with_window(10_000, 100_000),
            FilterQuery::matching(vec![Predicate::parse("dst_port!=53").unwrap()])
                .with_window(span_end / 3, span_end / 2),
            FilterQuery::matching(vec![]).with_window(5_000, 5_000),
            FilterQuery::matching(vec![]).with_window(7_000, 3_000),
            FilterQuery::matching(vec![]).with_window(-500, 1),
        ];
        for query in &queries {
            let naive = filter_aggregate_naive(&cols, None, query);
            assert_eq!(filter_aggregate(&cols, None, query), naive, "{query:?}");
            assert_eq!(
                filter_aggregate_scan(&cols, None, query),
                naive,
                "{query:?}"
            );
        }
        // Sanity: the unfiltered whole-corpus query sees every sample.
        assert_eq!(
            filter_aggregate(&cols, None, &FilterQuery::matching(vec![])).samples,
            cols.len() as u64
        );
    }

    #[test]
    fn id_dict_round_trips_and_dedups() {
        let mut rng = Rng(0xD1C7);
        let mut lists: Vec<Vec<u32>> = Vec::new();
        for n in [0usize, 1, 63, 64, 65, 200, 1_000] {
            let mut ids: Vec<u32> = (0..n).map(|_| (rng.next() % 50_000) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            lists.push(ids);
        }
        // Two exact duplicates and one empty duplicate exercise dedup.
        lists.push(lists[5].clone());
        lists.push(lists[0].clone());
        let dict = IdDict::build(lists.iter().map(|l| l.as_slice()));
        assert_eq!(dict.lists(), lists.len());
        assert!(dict.distinct() < lists.len(), "duplicates must dedup");
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(dict.decode_list(i), *list, "list {i}");
        }
        // Shared entries point at the same arena bytes.
        assert_eq!(dict.map[5], dict.map[lists.len() - 2]);
        assert_eq!(dict.map[0], dict.map[lists.len() - 1]);
    }

    #[test]
    fn aggregates_serialize_and_merge() {
        let mut a = FilterAggregate {
            samples: 1,
            total_bytes: 2,
            dropped_packets: 3,
            dropped_bytes: 4,
            explained_packets: 5,
            explained_bytes: 6,
            fragments: 7,
        };
        let json = String::from_utf8(rtbh_json::to_vec_pretty(&a)).unwrap();
        assert!(json.contains("\"dropped_bytes\": 4"));
        let b = a;
        a.merge(&b);
        assert_eq!(a.samples, 2);
        assert_eq!(a.fragments, 14);
    }
}
