//! Gate-level structural models of the adders compared in §3.4 of the paper.
//!
//! The paper's motivation rests on circuit-level facts: a redundant binary
//! adder has a **constant-depth** critical path (the paper counts seven
//! transistors with fan-out ≤ 4), while a 2's-complement carry-lookahead
//! adder's critical path grows logarithmically with operand width, and the
//! redundant→2's-complement converter is a full carry-propagating subtract.
//!
//! This crate rebuilds those circuits as explicit gate netlists so the
//! claims can be *measured* rather than assumed:
//!
//! * [`netlist`] — a tiny structural netlist with functional simulation and
//!   critical-path analysis under unit-gate or fan-out-aware delay models.
//! * [`adders`] — netlist builders: ripple-carry, parallel-prefix
//!   carry-lookahead (Brent–Kung), carry-select, the redundant binary
//!   adder (one constant-depth slice per digit), and the redundant→TC
//!   converter.
//! * [`report`] — the §3.4 comparison table: critical-path depth versus
//!   operand width and the RB : CLA : converter ratios.
//!
//! Every builder is functionally verified against plain machine arithmetic
//! (and, for the redundant adder, against `redbin-arith`'s bit-parallel
//! implementation) in the test suite.
//!
//! # Example
//!
//! ```
//! use redbin_gates::adders;
//! use redbin_gates::netlist::DelayModel;
//!
//! let rb = adders::rb_adder(64);
//! let cla = adders::carry_lookahead(64);
//! let rb_depth = rb.netlist().critical_path(DelayModel::UnitGate);
//! let cla_depth = cla.netlist().critical_path(DelayModel::UnitGate);
//! assert!(cla_depth >= 2.0 * rb_depth, "CLA must be much deeper at 64 bits");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adders;
pub mod correction;
pub mod netlist;
pub mod report;
pub mod staggered;

pub use netlist::{DelayModel, Netlist, NodeId, NodeKind};
