//! Primitive-gate netlists.
//!
//! A [`Netlist`] is a DAG of two/three-input gates over boolean nets.
//! Net ids `0..n_inputs` are primary inputs; every gate drives exactly one
//! new net (`n_inputs + gate_index`). This is deliberately simple — enough
//! to express adders and their selection logic — while supporting the two
//! analyses the characterisation needs: static critical-path extraction
//! and event-driven transition counting.

use serde::{Deserialize, Serialize};

/// A net identifier.
pub(crate) type NetId = u32;

/// Primitive gate kinds with their relative delay (gate-delay units) and
/// switching capacitance (relative units), loosely following a 90 nm
/// standard-cell library's ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum GateKind {
    /// Inverter.
    Not,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2:1 multiplexer — inputs `[sel, a, b]`, output `sel ? b : a`.
    Mux2,
}

impl GateKind {
    /// Propagation delay in gate-delay units.
    #[must_use]
    pub(crate) fn delay(self) -> u32 {
        match self {
            GateKind::Not => 1,
            GateKind::And2 | GateKind::Or2 => 1,
            GateKind::Xor2 | GateKind::Mux2 => 2,
        }
    }

    /// Relative switching capacitance (energy per output transition).
    #[must_use]
    pub(crate) fn capacitance(self) -> f64 {
        match self {
            GateKind::Not => 1.0,
            GateKind::And2 | GateKind::Or2 => 2.0,
            GateKind::Xor2 => 3.0,
            GateKind::Mux2 => 3.2,
        }
    }

    /// Number of inputs.
    #[must_use]
    pub(crate) fn arity(self) -> usize {
        match self {
            GateKind::Not => 1,
            GateKind::Mux2 => 3,
            _ => 2,
        }
    }

    /// Evaluates the gate.
    #[must_use]
    pub(crate) fn eval(self, ins: [bool; 3]) -> bool {
        let [a, b, c] = ins;
        match self {
            GateKind::Not => !a,
            GateKind::And2 => a && b,
            GateKind::Or2 => a || b,
            GateKind::Xor2 => a ^ b,
            GateKind::Mux2 => {
                if a {
                    c
                } else {
                    b
                }
            }
        }
    }
}

/// One gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Gate {
    /// Gate kind.
    pub(crate) kind: GateKind,
    /// Input nets (`arity()` of them are meaningful).
    pub(crate) inputs: [NetId; 3],
}

/// A combinational netlist.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Netlist {
    n_inputs: u32,
    gates: Vec<Gate>,
    outputs: Vec<NetId>,
}

impl Netlist {
    /// Creates a netlist with `n_inputs` primary inputs.
    #[must_use]
    pub(crate) fn new(n_inputs: u32) -> Self {
        Netlist {
            n_inputs,
            gates: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Number of primary inputs.
    #[must_use]
    pub(crate) fn n_inputs(&self) -> u32 {
        self.n_inputs
    }

    /// Total nets (inputs + gate outputs).
    #[must_use]
    pub(crate) fn n_nets(&self) -> u32 {
        self.n_inputs + self.gates.len() as u32
    }

    /// The gates, in topological order by construction.
    #[must_use]
    pub(crate) fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The designated output nets.
    #[must_use]
    pub(crate) fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Adds a gate and returns the net it drives.
    ///
    /// # Panics
    ///
    /// Panics if any input net does not exist yet (the netlist must stay a
    /// topologically ordered DAG).
    pub(crate) fn gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        assert_eq!(inputs.len(), kind.arity(), "wrong arity for {kind:?}");
        let next = self.n_nets();
        let mut padded = [0; 3];
        for (i, &n) in inputs.iter().enumerate() {
            assert!(n < next, "gate input {n} references a future net");
            padded[i] = n;
        }
        self.gates.push(Gate {
            kind,
            inputs: padded,
        });
        next
    }

    /// Marks a net as a primary output.
    pub(crate) fn mark_output(&mut self, net: NetId) {
        assert!(net < self.n_nets(), "output net does not exist");
        self.outputs.push(net);
    }

    /// Static critical path in gate-delay units (longest weighted path
    /// from any input to any net).
    #[must_use]
    pub fn critical_path(&self) -> u32 {
        let mut arrival = vec![0u32; self.n_nets() as usize];
        let mut worst = 0;
        for (i, g) in self.gates.iter().enumerate() {
            let at = g.inputs[..g.kind.arity()]
                .iter()
                .map(|&n| arrival[n as usize])
                .max()
                .unwrap_or(0)
                + g.kind.delay();
            arrival[self.n_inputs as usize + i] = at;
            worst = worst.max(at);
        }
        worst
    }

    /// Zero-delay functional evaluation (reference semantics for tests).
    #[must_use]
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.n_inputs as usize, "input width mismatch");
        let mut vals = vec![false; self.n_nets() as usize];
        vals[..inputs.len()].copy_from_slice(inputs);
        for (i, g) in self.gates.iter().enumerate() {
            let mut ins = [false; 3];
            for (k, &n) in g.inputs[..g.kind.arity()].iter().enumerate() {
                ins[k] = vals[n as usize];
            }
            vals[self.n_inputs as usize + i] = g.kind.eval(ins);
        }
        self.outputs.iter().map(|&n| vals[n as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_eval_full_adder() {
        // sum = a ^ b ^ cin; cout = ab | cin(a ^ b)
        let mut n = Netlist::new(3);
        let (a, b, cin) = (0, 1, 2);
        let p = n.gate(GateKind::Xor2, &[a, b]);
        let s = n.gate(GateKind::Xor2, &[p, cin]);
        let g = n.gate(GateKind::And2, &[a, b]);
        let t = n.gate(GateKind::And2, &[p, cin]);
        let co = n.gate(GateKind::Or2, &[g, t]);
        n.mark_output(s);
        n.mark_output(co);
        for bits in 0..8u32 {
            let ins = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let out = n.eval(&ins);
            let total = ins.iter().filter(|&&x| x).count();
            assert_eq!(out[0], total % 2 == 1, "sum for {bits:03b}");
            assert_eq!(out[1], total >= 2, "cout for {bits:03b}");
        }
        // Critical path: xor(2) -> and(1) -> or(1) = 4.
        assert_eq!(n.critical_path(), 4);
        assert_eq!(n.gates().len(), 5);
    }

    #[test]
    fn mux_semantics() {
        let mut n = Netlist::new(3);
        let m = n.gate(GateKind::Mux2, &[0, 1, 2]); // sel=0, a=1, b=2
        n.mark_output(m);
        assert_eq!(n.eval(&[false, true, false]), vec![true]); // sel 0 -> a
        assert_eq!(n.eval(&[true, true, false]), vec![false]); // sel 1 -> b
    }

    #[test]
    #[should_panic(expected = "future net")]
    fn forward_reference_rejected() {
        let mut n = Netlist::new(1);
        let _ = n.gate(GateKind::Not, &[5]);
    }
}
