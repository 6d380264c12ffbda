//! Event-driven unit-delay netlist simulation with transition counting.
//!
//! Unlike a zero-delay functional evaluation, an event-driven simulation
//! with per-gate delays reproduces *glitching*: when a late-arriving carry
//! ripples through an adder, downstream gates switch several times per
//! operation, each transition costing `C·V²` energy. Short predicted-carry
//! slices glitch far less than a wide adder — a real part of the sliced
//! design's energy advantage, and the reason the paper simulates its
//! netlists in analog mode rather than counting functional toggles.

use crate::netlist::Netlist;
use std::collections::VecDeque;

/// Per-operation simulation report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepReport {
    /// Total output transitions (including glitches).
    pub toggles: u64,
    /// Capacitance-weighted transitions (relative energy units; multiply by
    /// the voltage model's `C·V²` factor for joules).
    pub(crate) switched_capacitance: f64,
    /// Time of the last transition (gate-delay units) — the operation's
    /// dynamic settling delay.
    pub settle_time: u32,
}

/// A stateful event-driven simulator for one netlist.
///
/// ```
/// use st2_circuit::{builder, sim::EventSim};
/// let adder = builder::ripple_adder(8);
/// let mut sim = EventSim::new(&adder);
/// let r = sim.apply(&builder::pack_inputs(8, 0xff, 0x01, false));
/// assert!(r.toggles > 0);
/// // The long carry ripple settles late:
/// assert!(r.settle_time >= 14);
/// ```
#[derive(Debug)]
pub struct EventSim<'a> {
    net: &'a Netlist,
    values: Vec<bool>,
    /// net -> gate indices it feeds
    fanout: Vec<Vec<u32>>,
}

impl<'a> EventSim<'a> {
    /// Creates a simulator initialised to the all-zero-input steady state.
    #[must_use]
    pub fn new(net: &'a Netlist) -> Self {
        let mut fanout = vec![Vec::new(); net.n_nets() as usize];
        for (gi, g) in net.gates().iter().enumerate() {
            for &input in &g.inputs[..g.kind.arity()] {
                fanout[input as usize].push(gi as u32);
            }
        }
        // Steady state for all-zero inputs, computed functionally (the
        // gates are stored in topological order).
        let mut values = vec![false; net.n_nets() as usize];
        for (gi, g) in net.gates().iter().enumerate() {
            let mut ins = [false; 3];
            for (k, &n) in g.inputs[..g.kind.arity()].iter().enumerate() {
                ins[k] = values[n as usize];
            }
            values[net.n_inputs() as usize + gi] = g.kind.eval(ins);
        }
        EventSim {
            net,
            values,
            fanout,
        }
    }

    /// Current output values.
    #[must_use]
    pub fn outputs(&self) -> Vec<bool> {
        self.net
            .outputs()
            .iter()
            .map(|&n| self.values[n as usize])
            .collect()
    }

    /// Applies a new input vector and propagates to quiescence, counting
    /// every transition.
    ///
    /// # Panics
    ///
    /// Panics if the input width mismatches the netlist.
    pub fn apply(&mut self, inputs: &[bool]) -> StepReport {
        assert_eq!(
            inputs.len(),
            self.net.n_inputs() as usize,
            "input width mismatch"
        );
        // Time wheel: events[t] = gates to (re)evaluate at time t.
        let horizon = (self.net.critical_path() as usize + 2).max(4);
        let mut wheel: Vec<VecDeque<u32>> = vec![VecDeque::new(); horizon + 1];
        let mut report = StepReport::default();

        // Input changes at t = 0.
        for (i, &v) in inputs.iter().enumerate() {
            if self.values[i] != v {
                self.values[i] = v;
                for &gi in &self.fanout[i] {
                    let d = self.net.gates()[gi as usize].kind.delay() as usize;
                    wheel[d].push_back(gi);
                }
            }
        }

        for t in 0..=horizon {
            while let Some(gi) = {
                // Split borrow: take from wheel[t] without holding the Vec.
                let slot = &mut wheel[t];
                slot.pop_front()
            } {
                let g = self.net.gates()[gi as usize];
                let mut ins = [false; 3];
                for (k, &n) in g.inputs[..g.kind.arity()].iter().enumerate() {
                    ins[k] = self.values[n as usize];
                }
                let new = g.kind.eval(ins);
                let out_net = self.net.n_inputs() as usize + gi as usize;
                if self.values[out_net] != new {
                    self.values[out_net] = new;
                    report.toggles += 1;
                    report.switched_capacitance += g.kind.capacitance();
                    report.settle_time = report.settle_time.max(t as u32);
                    for &succ in &self.fanout[out_net] {
                        let d = self.net.gates()[succ as usize].kind.delay() as usize;
                        let when = (t + d).min(horizon);
                        wheel[when].push_back(succ);
                    }
                }
            }
        }
        debug_assert_eq!(
            self.outputs(),
            self.net.eval(inputs),
            "event simulation diverged from functional evaluation"
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{pack_inputs, reference_adder, ripple_adder, unpack_outputs};

    #[test]
    fn event_sim_matches_functional_eval() {
        let adder = ripple_adder(16);
        let mut sim = EventSim::new(&adder);
        let mut x = 0x9e37u64;
        for _ in 0..200 {
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(1);
            let a = x & 0xffff;
            let b = x >> 16 & 0xffff;
            let ins = pack_inputs(16, a, b, x >> 63 != 0);
            let _ = sim.apply(&ins);
            let (sum, _) = unpack_outputs(16, &sim.outputs());
            assert_eq!(sum, (a + b + (x >> 63)) & 0xffff);
        }
    }

    #[test]
    fn long_carry_chains_glitch_more() {
        // 0 -> (0xffff + 1): the carry ripples through every bit.
        let adder = ripple_adder(16);
        let mut sim = EventSim::new(&adder);
        let quiet = sim.apply(&pack_inputs(16, 1, 2, false));
        let mut sim2 = EventSim::new(&adder);
        let ripple = sim2.apply(&pack_inputs(16, 0xffff, 1, false));
        assert!(
            ripple.toggles > quiet.toggles,
            "full ripple {} should out-toggle quiet add {}",
            ripple.toggles,
            quiet.toggles
        );
        assert!(ripple.settle_time > quiet.settle_time);
    }

    #[test]
    fn idempotent_input_produces_no_toggles() {
        let adder = ripple_adder(8);
        let mut sim = EventSim::new(&adder);
        let ins = pack_inputs(8, 0x12, 0x34, false);
        let _ = sim.apply(&ins);
        let again = sim.apply(&ins);
        assert_eq!(again.toggles, 0);
        assert_eq!(again.switched_capacitance, 0.0);
    }

    #[test]
    fn settle_time_bounded_by_critical_path() {
        let adder = reference_adder(64);
        let cp = adder.critical_path();
        let mut sim = EventSim::new(&adder);
        let mut x = 123456789u64;
        for _ in 0..100 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = sim.apply(&pack_inputs(64, x, x.rotate_left(17), false));
            assert!(
                r.settle_time <= cp,
                "settle {} > critical path {cp}",
                r.settle_time
            );
        }
    }

    #[test]
    fn average_capacitance_over_stream() {
        let adder = ripple_adder(8);
        let mut sim = EventSim::new(&adder);
        let total: f64 = (0..50u64)
            .map(|i| {
                let v = pack_inputs(8, (i * 7) & 0xff, (i * 13) & 0xff, false);
                sim.apply(&v).switched_capacitance
            })
            .sum();
        assert!(total / 50.0 > 0.0);
    }
}
