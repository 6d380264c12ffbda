//! Adder netlist constructions.
//!
//! Three designs matter to the paper's circuit study:
//!
//! * [`ripple_adder`] — the slice implementation (short chains, small).
//! * [`reference_adder`] — a 4-bit-group carry-lookahead design standing in
//!   for the Synopsys DesignWare "balanced" default adder the paper uses
//!   as its reference.
//! * [`carry_select_adder`] — CSLA: duplicated per-slice ripple adders with
//!   mux selection, the classic design ST² improves upon energy-wise.

use crate::netlist::{GateKind, NetId, Netlist};

/// Input-net convention for an `n`-bit adder: nets `0..n` are `a`,
/// `n..2n` are `b`, and net `2n` is the carry-in.
#[must_use]
pub(crate) fn adder_input_count(bits: u32) -> u32 {
    2 * bits + 1
}

/// A full adder; returns `(sum, cout)`.
fn full_adder(n: &mut Netlist, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
    let p = n.gate(GateKind::Xor2, &[a, b]);
    let s = n.gate(GateKind::Xor2, &[p, cin]);
    let g = n.gate(GateKind::And2, &[a, b]);
    let t = n.gate(GateKind::And2, &[p, cin]);
    let co = n.gate(GateKind::Or2, &[g, t]);
    (s, co)
}

/// An `bits`-wide ripple-carry adder. Outputs: `bits` sum nets then the
/// carry-out.
///
/// ```
/// use st2_circuit::builder::{pack_inputs, ripple_adder, unpack_outputs};
/// let a = ripple_adder(8);
/// let outs = a.eval(&pack_inputs(8, 200, 100, false));
/// assert_eq!(outs.len(), 9);
/// assert_eq!(unpack_outputs(8, &outs), (44, true));
/// ```
#[must_use]
pub fn ripple_adder(bits: u32) -> Netlist {
    assert!(bits >= 1, "adder must have at least one bit");
    let mut n = Netlist::new(adder_input_count(bits));
    let mut cin = 2 * bits; // carry-in net
    let mut sums = Vec::with_capacity(bits as usize);
    for i in 0..bits {
        let (s, co) = full_adder(&mut n, i, bits + i, cin);
        sums.push(s);
        cin = co;
    }
    for s in sums {
        n.mark_output(s);
    }
    n.mark_output(cin);
    n
}

/// A `bits`-wide two-level group carry-lookahead adder (4-bit lookahead
/// groups whose group generate/propagate signals are computed in parallel,
/// with the group-carry chain sequenced through `C_{j+1} = G_j | P_j·C_j`)
/// — a balanced speed/area design standing in for the DesignWare default
/// the paper synthesises as its reference. Outputs: `bits` sums then
/// carry-out.
#[must_use]
pub fn reference_adder(bits: u32) -> Netlist {
    assert!(bits >= 1, "adder must have at least one bit");
    let mut n = Netlist::new(adder_input_count(bits));
    let cin0 = 2 * bits;
    let mut sums = Vec::with_capacity(bits as usize);

    // Phase 1: all per-bit and group G/P signals, in parallel.
    struct Group {
        base: u32,
        width: u32,
        p: Vec<NetId>,
        g: Vec<NetId>,
        big_g: NetId,
        big_p: NetId,
    }
    let mut groups = Vec::new();
    let mut i = 0;
    while i < bits {
        let w = (bits - i).min(4);
        let mut p = Vec::new();
        let mut g = Vec::new();
        for k in 0..w {
            p.push(n.gate(GateKind::Xor2, &[i + k, bits + i + k]));
            g.push(n.gate(GateKind::And2, &[i + k, bits + i + k]));
        }
        // Group propagate: AND-tree of per-bit propagates.
        let mut big_p = p[0];
        for &pk in &p[1..] {
            big_p = n.gate(GateKind::And2, &[big_p, pk]);
        }
        // Group generate: G = g_{w-1} | p_{w-1}(g_{w-2} | p_{w-2}(...)).
        let mut big_g = g[0];
        for k in 1..w as usize {
            let t = n.gate(GateKind::And2, &[p[k], big_g]);
            big_g = n.gate(GateKind::Or2, &[g[k], t]);
        }
        groups.push(Group {
            base: i,
            width: w,
            p,
            g,
            big_g,
            big_p,
        });
        i += w;
    }

    // Phase 2: group-carry chain C_{j+1} = G_j | P_j·C_j.
    let mut group_cin = cin0;
    for grp in &groups {
        let _ = grp.base;
        // Phase 3 (per group): in-group carries ripple from the group's
        // carry-in; sums are p ^ c.
        let mut c = group_cin;
        for k in 0..grp.width as usize {
            let s = n.gate(GateKind::Xor2, &[grp.p[k], c]);
            sums.push(s);
            if k + 1 < grp.width as usize {
                let t = n.gate(GateKind::And2, &[grp.p[k], c]);
                c = n.gate(GateKind::Or2, &[grp.g[k], t]);
            }
        }
        let t = n.gate(GateKind::And2, &[grp.big_p, group_cin]);
        group_cin = n.gate(GateKind::Or2, &[grp.big_g, t]);
    }

    for s in sums {
        n.mark_output(s);
    }
    n.mark_output(group_cin);
    n
}

/// A carry-select adder: `slice_bits`-wide ripple slices, every slice above
/// the first duplicated for carry-in 0 and 1 with mux selection by the
/// rippled true carry. Outputs: `bits` sums then carry-out.
#[must_use]
pub fn carry_select_adder(bits: u32, slice_bits: u32) -> Netlist {
    assert!(slice_bits >= 1 && bits >= slice_bits, "invalid slicing");
    let mut n = Netlist::new(adder_input_count(bits));
    let cin0 = 2 * bits;
    let mut sums: Vec<NetId> = Vec::with_capacity(bits as usize);

    // Slice 0: plain ripple with the real carry-in.
    let mut carry = cin0;
    let first = slice_bits.min(bits);
    for i in 0..first {
        let (s, co) = full_adder(&mut n, i, bits + i, carry);
        sums.push(s);
        carry = co;
    }

    let mut base = first;
    while base < bits {
        let w = (bits - base).min(slice_bits);
        // Constant carry-in 0 / 1 paths. We synthesise constants from an
        // input: c0 = x & !x is avoided; instead use half-adder forms.
        // cin=0 path: bit0 is a half adder (s = a^b, co = a&b).
        let mut sums0 = Vec::new();
        let mut sums1 = Vec::new();
        let mut c0;
        let mut c1;
        {
            let (a0, b0) = (base, bits + base);
            let p0 = n.gate(GateKind::Xor2, &[a0, b0]);
            // cin = 0: s = p, co = a&b
            sums0.push(p0);
            c0 = n.gate(GateKind::And2, &[a0, b0]);
            // cin = 1: s = !p, co = a|b
            sums1.push(n.gate(GateKind::Not, &[p0]));
            c1 = n.gate(GateKind::Or2, &[a0, b0]);
        }
        for k in 1..w {
            let (ak, bk) = (base + k, bits + base + k);
            let (s0, co0) = full_adder(&mut n, ak, bk, c0);
            sums0.push(s0);
            c0 = co0;
            let (s1, co1) = full_adder(&mut n, ak, bk, c1);
            sums1.push(s1);
            c1 = co1;
        }
        // Select by the incoming (true) carry.
        for k in 0..w as usize {
            sums.push(n.gate(GateKind::Mux2, &[carry, sums0[k], sums1[k]]));
        }
        carry = n.gate(GateKind::Mux2, &[carry, c0, c1]);
        base += w;
    }

    for s in sums {
        n.mark_output(s);
    }
    n.mark_output(carry);
    n
}

/// Packs `(a, b, cin)` into the flat input vector of an adder netlist.
#[must_use]
pub fn pack_inputs(bits: u32, a: u64, b: u64, cin: bool) -> Vec<bool> {
    let mut v = Vec::with_capacity(adder_input_count(bits) as usize);
    for i in 0..bits {
        v.push(a >> i & 1 != 0);
    }
    for i in 0..bits {
        v.push(b >> i & 1 != 0);
    }
    v.push(cin);
    v
}

/// Unpacks an adder's output vector into `(sum, cout)`.
#[must_use]
pub fn unpack_outputs(bits: u32, outs: &[bool]) -> (u64, bool) {
    let mut sum = 0u64;
    for (i, &o) in outs[..bits as usize].iter().enumerate() {
        if o {
            sum |= 1 << i;
        }
    }
    (sum, outs[bits as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_adder(net: &Netlist, bits: u32) {
        let m = if bits >= 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        let cases = [
            (0u64, 0u64, false),
            (m, 1, false),
            (m, m, true),
            (0x5a5a_5a5a_5a5a_5a5a & m, 0xa5a5_a5a5_a5a5_a5a5 & m, false),
            (123456789 & m, 987654321 & m, true),
        ];
        for (a, b, cin) in cases {
            let outs = net.eval(&pack_inputs(bits, a, b, cin));
            let (sum, cout) = unpack_outputs(bits, &outs);
            let wide = (a as u128) + (b as u128) + u128::from(cin);
            assert_eq!(
                sum,
                (wide as u64) & m,
                "{bits}-bit sum of {a:#x}+{b:#x}+{cin}"
            );
            assert_eq!(cout, wide >> bits & 1 == 1, "cout of {a:#x}+{b:#x}+{cin}");
        }
    }

    #[test]
    fn ripple_correct() {
        for bits in [1, 4, 8, 17, 64] {
            check_adder(&ripple_adder(bits), bits);
        }
    }

    #[test]
    fn reference_correct() {
        for bits in [4, 8, 15, 32, 64] {
            check_adder(&reference_adder(bits), bits);
        }
    }

    #[test]
    fn csla_correct() {
        for (bits, slice) in [(16, 4), (64, 8), (24, 8), (13, 5)] {
            check_adder(&carry_select_adder(bits, slice), bits);
        }
    }

    #[test]
    fn csla_exhaustive_small() {
        let net = carry_select_adder(6, 2);
        for a in 0..64u64 {
            for b in 0..64u64 {
                let outs = net.eval(&pack_inputs(6, a, b, false));
                let (sum, cout) = unpack_outputs(6, &outs);
                assert_eq!(sum, (a + b) & 63);
                assert_eq!(cout, a + b > 63);
            }
        }
    }

    #[test]
    fn slice_is_much_faster_than_reference() {
        // The premise of speculative voltage scaling: a short slice settles
        // far earlier than the wide reference adder.
        let slice = ripple_adder(8);
        let rf = reference_adder(64);
        assert!(
            rf.critical_path() as f64 >= 1.6 * slice.critical_path() as f64,
            "reference {} vs slice {}",
            rf.critical_path(),
            slice.critical_path()
        );
    }

    #[test]
    fn ripple_64_is_slower_than_reference_64() {
        // The reference must actually be a balanced (faster) design.
        assert!(reference_adder(64).critical_path() < ripple_adder(64).critical_path());
    }
}
