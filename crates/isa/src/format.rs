//! The paper's Table 1: instruction classification by input and output
//! data format.
//!
//! On a machine with redundant binary adders, values circulate in two
//! formats. Operations that are (or reduce to) additions can consume either
//! format and produce redundant results; bitwise/byte operations need the
//! unique 2's-complement representation; loads always produce 2's
//! complement (memory stores data in 2's complement), and store *data*
//! must be 2's complement for the same reason.

use crate::opcode::Opcode;

/// What format an instruction requires of one of its source operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputReq {
    /// Either format is acceptable (the paper's "RB" input class: redundant
    /// binary *or* 2's complement).
    Any,
    /// The operand must be in 2's complement; a redundant producer must be
    /// format-converted first.
    TcOnly,
}

/// The input requirement for source operand `idx`, where `idx` indexes the
/// canonical [`Inst::sources`](crate::inst::Inst::sources) order.
///
/// Notably: store instructions accept a redundant **address** (via the
/// modified SAM decoder) but demand 2's-complement **data** (`idx == 1`).
pub fn input_req(op: Opcode, idx: usize) -> InputReq {
    use Opcode::*;
    match op {
        // Redundant-capable consumers (Table 1 "RB" input class).
        Addq | Subq | Addl | Subl | Lda | Ldah | S4addq | S8addq | S4subq | S8subq | Mulq
        | Mull | Sll | Cmpeq | Cmplt | Cmple | Cmpult | Cmpule | Cmoveq | Cmovne | Cmovlt
        | Cmovge | Cmovle | Cmovgt | Cmovlbs | Cmovlbc | Beq | Bne | Blt | Bge | Ble | Bgt
        | Blbs | Blbc => InputReq::Any,
        // Loads: the base register may be redundant (modified SAM).
        Ldq | Ldl | Ldbu => InputReq::Any,
        // Stores: redundant base, 2's-complement data.
        Stq | Stl | Stb => {
            if idx == 0 {
                InputReq::Any
            } else {
                InputReq::TcOnly
            }
        }
        // Everything else needs unique representations.
        _ => InputReq::TcOnly,
    }
}

/// The rows of Table 1, for reproducing its dynamic-fraction column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Table1Row {
    /// ADD, SUB, MUL, LDA, LDAH, CMOVLBx, SxADD, SxSUB, SLL — RB→RB.
    ArithRbRb,
    /// CMOVLT/GE/LE/GT — RB→RB, sign-test logic.
    CmovSign,
    /// CMOVEQ/NE — RB→RB, subtraction-style test.
    CmovEq,
    /// Loads and stores — RB→TC.
    MemAccess,
    /// CMPEQ — RB→TC, subtraction-style test.
    CmpEq,
    /// CMPLT/CMPLE/CMPULT/CMPULE — RB→TC, sign-test logic.
    CmpIneq,
    /// Conditional branches — RB input, no output.
    CondBranch,
    /// Everything else — TC→TC.
    Other,
}

impl Table1Row {
    /// Every row in the paper's order.
    pub fn all() -> &'static [Table1Row] {
        use Table1Row::*;
        &[
            ArithRbRb, CmovSign, CmovEq, MemAccess, CmpEq, CmpIneq, CondBranch, Other,
        ]
    }

    /// The paper's reported dynamic fraction (% of the instruction stream)
    /// for this row, for side-by-side comparison.
    pub fn paper_fraction(self) -> f64 {
        match self {
            Table1Row::ArithRbRb => 18.0,
            Table1Row::CmovSign => 0.4,
            Table1Row::CmovEq => 0.5,
            Table1Row::MemAccess => 36.6,
            Table1Row::CmpEq => 0.5,
            Table1Row::CmpIneq => 3.9,
            Table1Row::CondBranch => 14.4,
            Table1Row::Other => 25.7,
        }
    }

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            Table1Row::ArithRbRb => "ADD,SUB,MUL,LDA,LDAH,CMOVLBx,SxADD,SxSUB,SLL",
            Table1Row::CmovSign => "CMOVLT,CMOVGE,CMOVLE,CMOVGT",
            Table1Row::CmovEq => "CMOVEQ,CMOVNE",
            Table1Row::MemAccess => "Memory Access",
            Table1Row::CmpEq => "CMPEQ",
            Table1Row::CmpIneq => "CMPLT,CMPLE,CMPULT,CMPULE",
            Table1Row::CondBranch => "conditional branches",
            Table1Row::Other => "Other",
        }
    }
}

/// Classifies an opcode into its Table 1 row.
pub fn table1_row(op: Opcode) -> Table1Row {
    use Opcode::*;
    match op {
        Addq | Subq | Addl | Subl | Mulq | Mull | Lda | Ldah | Cmovlbs | Cmovlbc | S4addq
        | S8addq | S4subq | S8subq | Sll => Table1Row::ArithRbRb,
        Cmovlt | Cmovge | Cmovle | Cmovgt => Table1Row::CmovSign,
        Cmoveq | Cmovne => Table1Row::CmovEq,
        Ldq | Ldl | Ldbu | Stq | Stl | Stb => Table1Row::MemAccess,
        Cmpeq => Table1Row::CmpEq,
        Cmplt | Cmple | Cmpult | Cmpule => Table1Row::CmpIneq,
        Beq | Bne | Blt | Bge | Ble | Bgt | Blbs | Blbc => Table1Row::CondBranch,
        _ => Table1Row::Other,
    }
}

/// A dynamic-instruction histogram over Table 1 rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table1Counts {
    /// Indexed by `Table1Row as usize`.
    counts: [u64; 8],
    total: u64,
}

impl Table1Counts {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one dynamic instruction.
    pub fn record(&mut self, op: Opcode) {
        self.counts[table1_row(op) as usize] += 1;
        self.total += 1;
    }

    /// Total instructions recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The measured fraction (%) for a row.
    pub fn fraction(&self, row: Table1Row) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        100.0 * self.counts[row as usize] as f64 / self.total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Table1Counts) {
        for i in 0..8 {
            self.counts[i] += other.counts[i];
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_matches_paper_examples() {
        assert_eq!(table1_row(Opcode::Addq), Table1Row::ArithRbRb);
        assert_eq!(table1_row(Opcode::Sll), Table1Row::ArithRbRb);
        assert_eq!(table1_row(Opcode::Cmovgt), Table1Row::CmovSign);
        assert_eq!(table1_row(Opcode::Cmovne), Table1Row::CmovEq);
        assert_eq!(table1_row(Opcode::Stq), Table1Row::MemAccess);
        assert_eq!(table1_row(Opcode::Cmpeq), Table1Row::CmpEq);
        assert_eq!(table1_row(Opcode::Cmpule), Table1Row::CmpIneq);
        assert_eq!(table1_row(Opcode::Blbs), Table1Row::CondBranch);
        assert_eq!(table1_row(Opcode::Xor), Table1Row::Other);
        assert_eq!(table1_row(Opcode::Sra), Table1Row::Other);
    }

    #[test]
    fn store_data_needs_tc_but_address_does_not() {
        assert_eq!(input_req(Opcode::Stq, 0), InputReq::Any);
        assert_eq!(input_req(Opcode::Stq, 1), InputReq::TcOnly);
        assert_eq!(input_req(Opcode::Ldq, 0), InputReq::Any);
    }

    #[test]
    fn tc_only_consumers() {
        for op in [
            Opcode::And,
            Opcode::Srl,
            Opcode::Extbl,
            Opcode::Ctpop,
            Opcode::Fadd,
        ] {
            assert_eq!(input_req(op, 0), InputReq::TcOnly, "{op}");
        }
    }

    #[test]
    fn counts_accumulate() {
        let mut c = Table1Counts::new();
        for _ in 0..18 {
            c.record(Opcode::Addq);
        }
        for _ in 0..37 {
            c.record(Opcode::Ldq);
        }
        for _ in 0..45 {
            c.record(Opcode::And);
        }
        assert_eq!(c.total(), 100);
        assert!((c.fraction(Table1Row::ArithRbRb) - 18.0).abs() < 1e-9);
        assert!((c.fraction(Table1Row::MemAccess) - 37.0).abs() < 1e-9);
        let mut d = Table1Counts::new();
        d.record(Opcode::Beq);
        c.merge(&d);
        assert_eq!(c.total(), 101);
    }

    #[test]
    fn paper_fractions_sum_to_100() {
        let sum: f64 = Table1Row::all().iter().map(|r| r.paper_fraction()).sum();
        assert!((sum - 100.0).abs() < 0.11, "sum was {sum}");
    }
}
