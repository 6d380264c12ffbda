//! **b+tree_K1 / b+tree_K2** (Rodinia b+tree findK / findRangeK).
//!
//! A B+-tree over sorted integer keys, flattened into a complete F-ary
//! array-of-nodes as the Rodinia port does before transfer. Each thread
//! walks root→leaf comparing its query against the node's separator keys
//! (subtract-compares) and accumulating the child index (adds) — the
//! pointer-chasing, compare-dominated end of the workload spectrum.
//! K1 looks up single keys; K2 resolves [lo, hi) range bounds.

use crate::data;
use crate::spec::{check_i32_region, BenchSuite, KernelSpec, Scale};
use st2_isa::{KernelBuilder, LaunchConfig, MemImage, Operand, Reg, Special};
use std::sync::Arc;

const FANOUT: usize = 8; // children per internal node; FANOUT-1 keys
const LEVELS: usize = 3; // internal levels; leaves = FANOUT^LEVELS slots

fn leaves() -> usize {
    FANOUT.pow(LEVELS as u32)
}

/// The flattened tree: internal nodes level by level, each storing
/// FANOUT−1 separator keys; plus the sorted leaf array.
struct Tree {
    /// Separators, level-major: level l has FANOUT^l nodes.
    separators: Vec<i32>,
    /// Sorted leaf keys (one per slot; tree is complete).
    leaves: Vec<i32>,
}

fn build_tree(mut keys: Vec<i32>) -> Tree {
    keys.sort_unstable();
    keys.dedup();
    keys.truncate(leaves());
    while keys.len() < leaves() {
        let last = *keys.last().expect("non-empty") + 7;
        keys.push(last);
    }
    let mut separators = Vec::new();
    for level in 0..LEVELS {
        let nodes = FANOUT.pow(level as u32);
        let span = leaves() / nodes; // leaf slots under each node
        for nd in 0..nodes {
            for s in 1..FANOUT {
                // Separator s = smallest key of child s's subtree.
                separators.push(keys[nd * span + s * span / FANOUT]);
            }
        }
    }
    Tree {
        separators,
        leaves: keys,
    }
}

/// CPU walk: returns the leaf slot a query lands in.
fn cpu_find(tree: &Tree, q: i32) -> usize {
    let mut node = 0usize; // node index within its level
    let mut level_base = 0usize; // start of level in `separators`
    for level in 0..LEVELS {
        let keys_at = level_base + node * (FANOUT - 1);
        let mut child = 0usize;
        for s in 0..FANOUT - 1 {
            if q >= tree.separators[keys_at + s] {
                child += 1;
            }
        }
        node = node * FANOUT + child;
        level_base += FANOUT.pow(level as u32) * (FANOUT - 1);
    }
    node
}

fn emit_find(k: &mut KernelBuilder, q: Reg, sep_base: u64) -> Reg {
    // Walk the LEVELS internal levels (unrolled; level geometry is
    // compile-time constant, as in the Rodinia kernel's `height` loop
    // with known height).
    let node = k.reg();
    k.mov(node, Operand::Imm(0));
    let mut level_base = 0usize;
    for level in 0..LEVELS {
        let keys_at = k.reg();
        k.imul(keys_at, node.into(), Operand::Imm((FANOUT - 1) as i64));
        k.iadd(keys_at, keys_at.into(), Operand::Imm(level_base as i64));
        let child = k.reg();
        k.mov(child, Operand::Imm(0));
        k.for_range(
            Operand::Imm(0),
            Operand::Imm((FANOUT - 1) as i64),
            |k, s| {
                let ka = k.reg();
                k.iadd(ka, keys_at.into(), s.into());
                k.imul(ka, ka.into(), Operand::Imm(4));
                let sep = k.reg();
                k.ld_global_u32(sep, ka, sep_base as i64);
                let ge = k.reg();
                k.setle(ge, sep.into(), q.into());
                k.iadd(child, child.into(), ge.into());
            },
        );
        k.imul(node, node.into(), Operand::Imm(FANOUT as i64));
        k.iadd(node, node.into(), child.into());
        level_base += FANOUT.pow(level as u32) * (FANOUT - 1);
    }
    node
}

fn common(tag: &str, scale: Scale) -> (Tree, Vec<i32>, usize) {
    let mut rng = data::rng_for(tag);
    let keys = data::i32_vec(&mut rng, leaves(), 0, 1 << 20);
    let tree = build_tree(keys);
    let queries = data::i32_vec(&mut rng, 256 * scale.factor() as usize, 0, 1 << 20);
    let nq = queries.len();
    (tree, queries, nq)
}

fn layout(tree: &Tree, queries: &[i32], extra_out: usize) -> (MemImage, u64, u64, u64) {
    let sep_base = 0u64;
    let leaf_base = (tree.separators.len() * 4) as u64;
    let q_base = leaf_base + (tree.leaves.len() * 4) as u64;
    let o_base = q_base + (queries.len() * 4) as u64;
    let mut memory = MemImage::new(o_base + (queries.len() * extra_out * 4) as u64);
    for (i, &s) in tree.separators.iter().enumerate() {
        memory.write_u32(sep_base + i as u64 * 4, s as u32);
    }
    for (i, &l) in tree.leaves.iter().enumerate() {
        memory.write_u32(leaf_base + i as u64 * 4, l as u32);
    }
    for (i, &q) in queries.iter().enumerate() {
        memory.write_u32(q_base + i as u64 * 4, q as u32);
    }
    (memory, sep_base, q_base, o_base)
}

/// Builds b+tree_K1 (findK: the leaf key at each query's slot).
#[must_use]
pub fn build_k1(scale: Scale) -> KernelSpec {
    let (tree, queries, nq) = common("btree1", scale);
    let (memory, sep_base, q_base, o_base) = layout(&tree, &queries, 1);
    let leaf_base = (tree.separators.len() * 4) as u64;

    let expect: Vec<i64> = queries
        .iter()
        .map(|&q| i64::from(tree.leaves[cpu_find(&tree, q)]))
        .collect();

    let mut k = KernelBuilder::new("b+tree_K1");
    let tid = k.special(Special::GlobalTid);
    let in_range = k.reg();
    k.setlt(in_range, tid.into(), Operand::Imm(nq as i64));
    k.if_(in_range, |k| {
        let qa = k.reg();
        k.imul(qa, tid.into(), Operand::Imm(4));
        let q = k.reg();
        k.ld_global_u32(q, qa, q_base as i64);
        let slot = emit_find(k, q, sep_base);
        let la = k.reg();
        k.imul(la, slot.into(), Operand::Imm(4));
        let v = k.reg();
        k.ld_global_u32(v, la, leaf_base as i64);
        let oa = k.reg();
        k.imul(oa, tid.into(), Operand::Imm(4));
        k.iadd(oa, oa.into(), Operand::Imm(o_base as i64));
        k.st_global_u32(v.into(), oa, 0);
    });

    KernelSpec {
        name: "b+tree_K1",
        suite: BenchSuite::Rodinia,
        program: k.finish(),
        launch: LaunchConfig::new((nq as u32).div_ceil(128), 128),
        memory,
        check: Some(Arc::new(move |mem| check_i32_region(mem, o_base, &expect))),
    }
}

/// Builds b+tree_K2 (findRangeK: leaf slots of `q` and `q + span`).
#[must_use]
pub(crate) fn build_k2(scale: Scale) -> KernelSpec {
    let (tree, queries, nq) = common("btree2", scale);
    let (memory, sep_base, q_base, o_base) = layout(&tree, &queries, 2);
    let span = 10_000i32;

    let mut expect: Vec<i64> = Vec::with_capacity(2 * nq);
    for &q in &queries {
        expect.push(cpu_find(&tree, q) as i64);
        expect.push(cpu_find(&tree, q.saturating_add(span)) as i64);
    }

    let mut k = KernelBuilder::new("b+tree_K2");
    let tid = k.special(Special::GlobalTid);
    let in_range = k.reg();
    k.setlt(in_range, tid.into(), Operand::Imm(nq as i64));
    k.if_(in_range, |k| {
        let qa = k.reg();
        k.imul(qa, tid.into(), Operand::Imm(4));
        let q = k.reg();
        k.ld_global_u32(q, qa, q_base as i64);
        let lo_slot = emit_find(k, q, sep_base);
        let hi = k.reg();
        k.iadd(hi, q.into(), Operand::Imm(i64::from(span)));
        let hi_slot = emit_find(k, hi, sep_base);
        let oa = k.reg();
        k.imul(oa, tid.into(), Operand::Imm(8));
        k.iadd(oa, oa.into(), Operand::Imm(o_base as i64));
        k.st_global_u32(lo_slot.into(), oa, 0);
        k.st_global_u32(hi_slot.into(), oa, 4);
    });

    KernelSpec {
        name: "b+tree_K2",
        suite: BenchSuite::Rodinia,
        program: k.finish(),
        launch: LaunchConfig::new((nq as u32).div_ceil(128), 128),
        memory,
        check: Some(Arc::new(move |mem| check_i32_region(mem, o_base, &expect))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_and_verify;

    #[test]
    fn btree_k1_matches_reference() {
        run_and_verify(&build_k1(Scale::Test));
    }

    #[test]
    fn btree_k2_matches_reference() {
        run_and_verify(&build_k2(Scale::Test));
    }

    #[test]
    fn cpu_find_brackets_queries() {
        let tree = build_tree((0..leaves() as i32).map(|i| i * 3).collect());
        for q in [0, 1, 100, 1000, leaves() as i32 * 3] {
            let slot = cpu_find(&tree, q);
            // The found leaf is the last one whose key <= q (or slot 0).
            if tree.leaves[slot] > q {
                assert_eq!(slot, 0, "query {q} slot {slot}");
            } else if slot + 1 < leaves() {
                assert!(tree.leaves[slot + 1] > q, "query {q} slot {slot}");
            }
        }
    }
}
