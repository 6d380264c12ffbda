//! The `Prev` history table: per-slice carry-outs of past additions, keyed
//! along the spatial (PC) and thread-sharing axes of the design space.
//!
//! The practical hardware realisation of the winning configuration
//! (`Ltid+Prev+ModPC4`) is the Carry Register File in [`crate::crf`]; this
//! module is the *behavioural* table used by the design-space exploration,
//! which also covers the unimplementably large configurations (FullPC,
//! Gtid) that the paper evaluates as idealised upper bounds.

use crate::bits::mask;
use crate::config::{PcIndex, ThreadKey};
use crate::event::OpContext;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Maximum supported history depth (the paper's design uses depth 1).
pub(crate) const MAX_DEPTH: usize = 4;

/// Widest PC index kept in directly indexed storage: with lane keying that
/// is at most 32 × 2⁸ entries. Wider indices, full PCs and global thread
/// ids are kept in a map.
const DENSE_PC_BITS: u8 = 8;

/// One table entry: a small ring of the most recent boundary-carry vectors.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    vals: [u64; MAX_DEPTH],
    len: u8,
    head: u8,
}

impl Entry {
    fn push(&mut self, v: u64, depth: u8) {
        self.vals[usize::from(self.head)] = v;
        self.head = if self.head + 1 == depth {
            0
        } else {
            self.head + 1
        };
        self.len = (self.len + 1).min(depth);
    }

    /// Per-bit majority over the retained vectors (ties predict 1, since a
    /// tie means the carry fired in half the recent past), for all bits at
    /// once. Until the ring wraps, the retained vectors are the first
    /// `len` slots.
    fn majority(&self) -> u64 {
        let [a, b, c, d] = self.vals;
        match self.len {
            0 => 0,
            1 => a,
            2 => a | b,
            3 => a & b | a & c | b & c,
            _ => (a | b) & (c | d) | a & b | c & d,
        }
    }
}

/// Where a table keeps its entries.
#[derive(Debug, Clone)]
enum Storage {
    /// A bounded key space, indexed by `thread << pc_bits | pc`.
    Dense { pc_bits: u8, entries: Vec<Entry> },
    /// An unbounded key space (full PC or global thread id), keyed by
    /// `thread << 32 | pc`.
    Map(HashMap<u64, Entry, BuildHasherDefault<IntHasher>>),
}

/// A multiply-xorshift hasher for integer keys. The keys are simulator
/// state, not attacker input, so SipHash's flooding resistance buys
/// nothing; the final xorshift folds the high (thread) half of a key into
/// the low bits a hash table indexes by.
#[derive(Debug, Clone, Copy, Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, v: u64) {
        let h = (self.0 ^ v ^ v >> 32).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ h >> 29;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A behavioural `Prev` history table.
///
/// Tables with a bounded key space (no PC, or a PC index of at most 8
/// bits, shared or lane-keyed) keep their entries in a flat array; the
/// idealised unbounded ones (full PC, global thread id) use a map.
///
/// ```
/// use st2_core::{history::HistoryTable, OpContext, PcIndex, ThreadKey};
/// let mut t = HistoryTable::new(PcIndex::ModPc(4), ThreadKey::Ltid, 1);
/// let ctx = OpContext { pc: 0x13, gtid: 100, ltid: 4 };
/// assert_eq!(t.predict(&ctx), 0); // cold: predict no carries
/// t.record(&ctx, 0b0000101);
/// assert_eq!(t.predict(&ctx), 0b0000101);
/// // A different warp, same lane, same PC slot shares the entry:
/// let other = OpContext { pc: 0x13, gtid: 900, ltid: 4 };
/// assert_eq!(t.predict(&other), 0b0000101);
/// ```
#[derive(Debug, Clone)]
pub struct HistoryTable {
    pc_index: PcIndex,
    thread_key: ThreadKey,
    depth: u8,
    storage: Storage,
}

impl HistoryTable {
    /// Creates an empty table for the given indexing scheme.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or exceeds `MAX_DEPTH`.
    #[must_use]
    pub fn new(pc_index: PcIndex, thread_key: ThreadKey, depth: u8) -> Self {
        let pc_bits = match pc_index {
            PcIndex::None => Some(0),
            PcIndex::ModPc(k) | PcIndex::XorFold(k) => Some(k).filter(|&k| k <= DENSE_PC_BITS),
            PcIndex::Full => None,
        };
        let thread_slots = match thread_key {
            ThreadKey::Shared => Some(1),
            ThreadKey::Ltid => Some(32),
            ThreadKey::Gtid => None,
        };
        let storage = match (pc_bits, thread_slots) {
            (Some(pc_bits), Some(threads)) => Storage::Dense {
                pc_bits,
                entries: vec![Entry::default(); threads << pc_bits],
            },
            _ => Storage::Map(HashMap::default()),
        };
        Self::with_storage(pc_index, thread_key, depth, storage)
    }

    fn with_storage(pc_index: PcIndex, thread_key: ThreadKey, depth: u8, storage: Storage) -> Self {
        assert!(
            depth >= 1 && usize::from(depth) <= MAX_DEPTH,
            "history depth must be 1..={MAX_DEPTH}"
        );
        HistoryTable {
            pc_index,
            thread_key,
            depth,
            storage,
        }
    }

    /// The (thread, PC) parts of an operation's index.
    fn parts(&self, ctx: &OpContext) -> (u64, u64) {
        let pc_part = match self.pc_index {
            PcIndex::None => 0,
            PcIndex::ModPc(k) => u64::from(ctx.pc) & mask(u32::from(k)),
            PcIndex::XorFold(k) => xor_fold(ctx.pc, k),
            PcIndex::Full => u64::from(ctx.pc),
        };
        let thread_part = match self.thread_key {
            ThreadKey::Shared => 0u64,
            ThreadKey::Gtid => u64::from(ctx.gtid),
            ThreadKey::Ltid => u64::from(ctx.ltid & 31),
        };
        (thread_part, pc_part)
    }

    /// The predicted boundary-carry vector for this operation, or `None`
    /// when its entry has never been written.
    #[must_use]
    pub(crate) fn lookup(&self, ctx: &OpContext) -> Option<u64> {
        let (thread_part, pc_part) = self.parts(ctx);
        match &self.storage {
            Storage::Dense {
                pc_bits, entries, ..
            } => {
                let e = &entries[(thread_part << pc_bits | pc_part) as usize];
                (e.len > 0).then(|| e.majority())
            }
            Storage::Map(map) => map.get(&(thread_part << 32 | pc_part)).map(Entry::majority),
        }
    }

    /// The predicted boundary-carry vector for this operation (0 when cold).
    #[must_use]
    pub fn predict(&self, ctx: &OpContext) -> u64 {
        self.lookup(ctx).unwrap_or(0)
    }

    /// Records the true boundary carries of a completed operation.
    pub fn record(&mut self, ctx: &OpContext, true_carries: u64) {
        let (thread_part, pc_part) = self.parts(ctx);
        let depth = self.depth;
        let entry = match &mut self.storage {
            Storage::Dense { pc_bits, entries } => {
                &mut entries[(thread_part << *pc_bits | pc_part) as usize]
            }
            Storage::Map(map) => map.entry(thread_part << 32 | pc_part).or_default(),
        };
        entry.push(true_carries, depth);
    }
}

/// XOR-fold a 32-bit PC into `k` bits.
#[must_use]
pub(crate) fn xor_fold(pc: u32, k: u8) -> u64 {
    if k == 0 {
        return 0;
    }
    let m = mask(u32::from(k));
    let mut acc = 0u64;
    let mut v = u64::from(pc);
    while v != 0 {
        acc ^= v & m;
        v >>= k;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pc: u32, gtid: u32, ltid: u32) -> OpContext {
        OpContext { pc, gtid, ltid }
    }

    /// Whether `a` and `b` share one entry of a table keyed as given: a
    /// write under `a` is visible to a lookup under `b`.
    fn shared_entry(pc_index: PcIndex, thread_key: ThreadKey, a: OpContext, b: OpContext) -> bool {
        let mut t = HistoryTable::new(pc_index, thread_key, 1);
        t.record(&a, 0b101);
        t.lookup(&b) == Some(0b101)
    }

    #[test]
    fn modpc_aliases_distant_pcs() {
        let modpc4 = |a, b| shared_entry(PcIndex::ModPc(4), ThreadKey::Shared, a, b);
        assert!(modpc4(ctx(0x3, 0, 0), ctx(0x13, 0, 0)));
        assert!(!modpc4(ctx(0x3, 0, 0), ctx(0x4, 0, 0)));
    }

    #[test]
    fn full_pc_disambiguates() {
        assert!(!shared_entry(
            PcIndex::Full,
            ThreadKey::Shared,
            ctx(0x3, 0, 0),
            ctx(0x13, 0, 0)
        ));
    }

    #[test]
    fn gtid_vs_ltid_sharing() {
        // Same lane in different warps: gtids 5 and 37, both lane 5.
        let (a, b) = (ctx(1, 5, 5), ctx(1, 37, 5));
        assert!(!shared_entry(PcIndex::ModPc(4), ThreadKey::Gtid, a, b));
        assert!(shared_entry(PcIndex::ModPc(4), ThreadKey::Ltid, a, b));
    }

    #[test]
    fn record_then_predict_roundtrip() {
        let mut t = HistoryTable::new(PcIndex::ModPc(4), ThreadKey::Ltid, 1);
        let c = ctx(9, 41, 9);
        t.record(&c, 0b101_0101);
        assert_eq!(t.predict(&c), 0b101_0101);
        t.record(&c, 0b000_0001);
        assert_eq!(t.predict(&c), 0b000_0001, "depth-1 keeps only the latest");
    }

    #[test]
    fn deeper_history_votes_majority() {
        let mut t = HistoryTable::new(PcIndex::None, ThreadKey::Shared, 3);
        let c = ctx(0, 0, 0);
        t.record(&c, 0b1);
        t.record(&c, 0b1);
        t.record(&c, 0b0);
        assert_eq!(t.predict(&c) & 1, 1, "2-of-3 majority");
    }

    #[test]
    fn dense_and_map_storage_agree() {
        let pc_indices = [
            PcIndex::None,
            PcIndex::ModPc(1),
            PcIndex::ModPc(4),
            PcIndex::ModPc(8),
            PcIndex::ModPc(12),
            PcIndex::XorFold(4),
            PcIndex::XorFold(8),
            PcIndex::Full,
        ];
        let thread_keys = [ThreadKey::Shared, ThreadKey::Gtid, ThreadKey::Ltid];
        for pc_index in pc_indices {
            for thread_key in thread_keys {
                for depth in 1..=MAX_DEPTH as u8 {
                    let mut table = HistoryTable::new(pc_index, thread_key, depth);
                    let mut map = HistoryTable::with_storage(
                        pc_index,
                        thread_key,
                        depth,
                        Storage::Map(HashMap::default()),
                    );
                    let mut state = 0x2545_f491_4f6c_dd1du64;
                    for _ in 0..4000 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let gtid = (state >> 8) as u32 & 0x3ff;
                        let c = ctx((state >> 20) as u32 & 0x7ff, gtid, gtid & 31);
                        assert_eq!(table.lookup(&c), map.lookup(&c));
                        table.record(&c, state >> 40 & 0x7f);
                        map.record(&c, state >> 40 & 0x7f);
                    }
                }
            }
        }
    }

    #[test]
    fn majority_votes_every_bit_at_once() {
        let mut e = Entry::default();
        for v in [0b0011, 0b0101, 0b0110] {
            e.push(v, 4);
        }
        // Three vectors: a bit needs two of three votes.
        assert_eq!(e.majority(), 0b0111);
        e.push(0b0000, 4);
        // Four vectors: two of four is a tie, which predicts 1.
        assert_eq!(e.majority(), 0b0111);
        e.push(0b0000, 4);
        // The ring dropped 0b0011, leaving only bit 2 with two votes.
        assert_eq!(e.majority(), 0b0100);
    }

    #[test]
    fn xor_fold_folds() {
        assert_eq!(xor_fold(0x0000_0000, 4), 0);
        assert_eq!(xor_fold(0x0000_00ab, 4), 0xa ^ 0xb);
        // 1^2^3^4^5^6^7^8 = 8
        assert_eq!(xor_fold(0x1234_5678, 4), 0x8);
        assert_eq!(xor_fold(0xffff_ffff, 0), 0);
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_depth_rejected() {
        let _ = HistoryTable::new(PcIndex::None, ThreadKey::Shared, 0);
    }
}
