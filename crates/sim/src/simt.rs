//! The SIMT reconvergence stack.
//!
//! Classic immediate-post-dominator divergence handling: each stack entry
//! is `(active mask, pc, reconvergence pc)`. On a divergent branch the
//! current entry's pc advances to the reconvergence point and one entry is
//! pushed per non-empty path; an entry is popped the moment its pc reaches
//! its own reconvergence pc, revealing the merged parent.

/// A 32-bit lane mask.
pub(crate) type Mask = u32;

/// Full warp mask for `n` active lanes.
#[must_use]
pub fn full_mask(lanes: u32) -> Mask {
    if lanes >= 32 {
        u32::MAX
    } else {
        (1u32 << lanes) - 1
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    mask: Mask,
    pc: u32,
    rpc: u32,
}

/// Sentinel "no reconvergence" pc for the base entry.
pub(crate) const NO_RPC: u32 = u32::MAX;

/// The per-warp divergence stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimtStack {
    entries: Vec<Entry>,
}

impl SimtStack {
    /// A fresh stack: all `lanes` threads at pc 0.
    #[must_use]
    pub fn new(lanes: u32) -> Self {
        SimtStack {
            entries: vec![Entry {
                mask: full_mask(lanes),
                pc: 0,
                rpc: NO_RPC,
            }],
        }
    }

    /// Whether every thread has finished.
    #[must_use]
    pub(crate) fn is_done(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current pc (top of stack).
    ///
    /// # Panics
    ///
    /// Panics if the warp has finished.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.top().pc
    }

    /// Currently active lanes.
    #[must_use]
    pub fn active_mask(&self) -> Mask {
        self.entries.last().map_or(0, |e| e.mask)
    }

    /// Stack depth (nesting level).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    fn top(&self) -> &Entry {
        self.entries.last().expect("warp already finished")
    }

    fn top_mut(&mut self) -> &mut Entry {
        self.entries.last_mut().expect("warp already finished")
    }

    /// Sequential advance past a non-branch instruction.
    pub(crate) fn advance(&mut self) {
        let pc = self.top().pc + 1;
        self.set_pc(pc);
    }

    /// Jump (uniform control transfer for the whole active set).
    pub fn set_pc(&mut self, pc: u32) {
        self.top_mut().pc = pc;
        self.pop_converged();
    }

    /// Resolves a (possibly divergent) conditional branch.
    ///
    /// `taken` must be a subset of the active mask. `fallthrough` is the
    /// next sequential pc, `target` the branch target, `reconv` the
    /// immediate post-dominator.
    pub fn branch(&mut self, taken: Mask, target: u32, fallthrough: u32, reconv: u32) {
        let active = self.active_mask();
        debug_assert_eq!(taken & !active, 0, "taken mask exceeds active set");
        let not_taken = active & !taken;
        if not_taken == 0 {
            self.set_pc(target);
            return;
        }
        if taken == 0 {
            self.set_pc(fallthrough);
            return;
        }
        // Divergence: parent waits at the reconvergence point.
        self.top_mut().pc = reconv;
        // The fall-through path runs first and the taken path after it
        // (taken pushed first ⇒ popped last).
        if target != reconv {
            self.entries.push(Entry {
                mask: taken,
                pc: target,
                rpc: reconv,
            });
        }
        if fallthrough != reconv {
            self.entries.push(Entry {
                mask: not_taken,
                pc: fallthrough,
                rpc: reconv,
            });
        }
        self.pop_converged();
    }

    /// Kills `mask` threads everywhere in the stack (thread `Exit`).
    pub(crate) fn exit_threads(&mut self, mask: Mask) {
        for e in &mut self.entries {
            e.mask &= !mask;
        }
        self.entries.retain(|e| e.mask != 0);
        self.pop_converged();
    }

    /// Test-only: overwrite the top entry's active mask. The public API
    /// never produces a live warp with an empty mask (branches don't push
    /// empty paths and `exit_threads` drops emptied entries), so tests
    /// that model a fully predicated-off warp construct one here.
    #[cfg(test)]
    pub(crate) fn force_mask(&mut self, mask: Mask) {
        self.top_mut().mask = mask;
    }

    fn pop_converged(&mut self) {
        while let Some(top) = self.entries.last() {
            if top.rpc != NO_RPC && top.pc == top.rpc {
                self.entries.pop();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_flow() {
        let mut s = SimtStack::new(32);
        assert_eq!(s.active_mask(), u32::MAX);
        s.advance();
        assert_eq!(s.pc(), 1);
        s.set_pc(10);
        assert_eq!(s.pc(), 10);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn partial_warp_mask() {
        let s = SimtStack::new(20);
        assert_eq!(s.active_mask(), (1 << 20) - 1);
    }

    #[test]
    fn if_else_reconverges() {
        // Branch at pc 0: taken -> 3 (else), fallthrough 1 (then),
        // reconv 4.
        let mut s = SimtStack::new(4);
        s.branch(0b0011, 3, 1, 4);
        // Fallthrough path (then, lanes 2-3) executes first.
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), 0b1100);
        s.advance(); // pc 2
        s.set_pc(4); // then-path jump to reconvergence → pop
        assert_eq!(s.pc(), 3);
        assert_eq!(s.active_mask(), 0b0011);
        s.advance(); // else falls into pc 4 = reconv → pop
        assert_eq!(s.pc(), 4);
        assert_eq!(s.active_mask(), 0b1111);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn branch_where_one_path_is_reconv() {
        // Loop exit: taken -> END == reconv; not-taken continues the body.
        let mut s = SimtStack::new(2);
        s.set_pc(5);
        s.branch(0b01, 9, 6, 9);
        // Only the continue path is pushed; the exiting lane waits in the
        // parent at pc 9.
        assert_eq!(s.pc(), 6);
        assert_eq!(s.active_mask(), 0b10);
        s.set_pc(9); // body lane reaches reconv
        assert_eq!(s.active_mask(), 0b11);
        assert_eq!(s.pc(), 9);
    }

    #[test]
    fn all_taken_is_uniform() {
        let mut s = SimtStack::new(8);
        s.branch(0xff, 7, 1, 9);
        assert_eq!(s.pc(), 7);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn exit_threads_cleans_up() {
        let mut s = SimtStack::new(2);
        s.branch(0b01, 5, 1, 8);
        assert_eq!(s.active_mask(), 0b10);
        s.exit_threads(0b10); // active path dies
                              // Taken path (lane 0) remains at pc 5.
        assert_eq!(s.active_mask(), 0b01);
        assert_eq!(s.pc(), 5);
        s.exit_threads(0b01);
        assert!(s.is_done());
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(4);
        // Outer branch: lanes 0-1 to 10, lanes 2-3 continue at 1, reconv 20.
        s.branch(0b0011, 10, 1, 20);
        assert_eq!((s.pc(), s.active_mask()), (1, 0b1100));
        // Inner branch on the fallthrough path: lane 2 to 5, lane 3 at 2,
        // reconv 8.
        s.branch(0b0100, 5, 2, 8);
        assert_eq!((s.pc(), s.active_mask()), (2, 0b1000));
        s.set_pc(8); // inner fallthrough converges
        assert_eq!((s.pc(), s.active_mask()), (5, 0b0100));
        s.set_pc(8); // inner taken converges
        assert_eq!((s.pc(), s.active_mask()), (8, 0b1100));
        s.set_pc(20); // outer fallthrough converges
        assert_eq!((s.pc(), s.active_mask()), (10, 0b0011));
        s.set_pc(20); // outer taken converges
        assert_eq!((s.pc(), s.active_mask()), (20, 0b1111));
        assert_eq!(s.depth(), 1);
    }
}
