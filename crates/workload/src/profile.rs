//! Workload characterization: static and dynamic profiles of a program,
//! used to document how closely each proxy matches its SPEC namesake.

use std::fmt;

use redbin_isa::class::{latency_class, LatencyClass};
use redbin_isa::format::{Table1Counts, Table1Row};
use redbin_isa::{Emulator, Opcode, Program, StepError};

/// A dynamic profile of one program execution.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Program name.
    pub name: String,
    /// Static instruction count.
    pub static_insts: usize,
    /// Dynamic (retired) instruction count.
    pub dynamic_insts: u64,
    /// Dynamic counts per latency class, indexed by `LatencyClass::all()`.
    pub class_counts: Vec<u64>,
    /// Table 1 histogram.
    pub table1: Table1Counts,
    /// Conditional branches executed and taken.
    pub branches: u64,
    /// Taken conditional branches.
    pub taken: u64,
    /// Loads / stores executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Distinct 64-byte data lines touched (working-set proxy).
    pub data_lines: u64,
    /// Average dynamic basic-block length (instructions per control
    /// transfer).
    pub avg_block: f64,
}

impl Profile {
    /// Profiles a program by running it to completion on the functional
    /// emulator.
    ///
    /// # Errors
    ///
    /// Propagates emulator faults; `max_steps` bounds runaway programs.
    pub fn measure(program: &Program, max_steps: u64) -> Result<Profile, StepError> {
        let mut emu = Emulator::new(program);
        let mut p = Profile {
            name: program.name.clone(),
            static_insts: program.len(),
            class_counts: vec![0; LatencyClass::all().len()],
            ..Default::default()
        };
        let mut lines = std::collections::HashSet::new();
        let mut control = 0u64;
        for _ in 0..max_steps {
            let r = emu.step()?;
            if r.inst.op == Opcode::Halt {
                break;
            }
            p.dynamic_insts += 1;
            p.table1.record(r.inst.op);
            let class = latency_class(r.inst.op);
            p.class_counts[class.index()] += 1;
            if r.inst.op.is_conditional_branch() {
                p.branches += 1;
                if r.taken == Some(true) {
                    p.taken += 1;
                }
            }
            if r.inst.op.is_control() {
                control += 1;
            }
            if r.inst.op.is_load() {
                p.loads += 1;
            }
            if r.inst.op.is_store() {
                p.stores += 1;
            }
            if let Some(ea) = r.ea {
                lines.insert(ea >> 6);
            }
            if emu.is_halted() {
                break;
            }
        }
        p.data_lines = lines.len() as u64;
        p.avg_block = if control == 0 {
            p.dynamic_insts as f64
        } else {
            p.dynamic_insts as f64 / control as f64
        };
        Ok(p)
    }

    /// Fraction (0–1) of dynamic instructions in a latency class.
    pub fn class_fraction(&self, class: LatencyClass) -> f64 {
        if self.dynamic_insts == 0 {
            return 0.0;
        }
        self.class_counts[class.index()] as f64 / self.dynamic_insts as f64
    }

    /// Fraction of conditional branches taken.
    pub fn taken_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.taken as f64 / self.branches as f64
        }
    }

    /// Approximate data working-set size in bytes (touched 64-byte lines).
    pub fn working_set_bytes(&self) -> u64 {
        self.data_lines * 64
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} static, {} dynamic, block={:.1}, WS={}KB, br-taken={:.0}%",
            self.name,
            self.static_insts,
            self.dynamic_insts,
            self.avg_block,
            self.working_set_bytes() / 1024,
            self.taken_ratio() * 100.0
        )?;
        writeln!(
            f,
            "  mem {:.1}%  arith {:.1}%  logical {:.1}%  shift {:.1}%  cmp/cmov {:.1}%  byte {:.1}%  mul {:.1}%  fp {:.1}%  branch {:.1}%",
            self.class_fraction(LatencyClass::Mem) * 100.0,
            self.class_fraction(LatencyClass::IntArith) * 100.0,
            self.class_fraction(LatencyClass::IntLogical) * 100.0,
            (self.class_fraction(LatencyClass::ShiftLeft)
                + self.class_fraction(LatencyClass::ShiftRight))
                * 100.0,
            self.class_fraction(LatencyClass::IntCompare) * 100.0,
            self.class_fraction(LatencyClass::ByteManip) * 100.0,
            self.class_fraction(LatencyClass::IntMul) * 100.0,
            (self.class_fraction(LatencyClass::FpArith)
                + self.class_fraction(LatencyClass::FpDiv))
                * 100.0,
            self.class_fraction(LatencyClass::Branch) * 100.0,
        )?;
        writeln!(
            f,
            "  Table 1: RB-producing {:.1}%, TC-only inputs (Other) {:.1}%",
            self.table1.fraction(Table1Row::ArithRbRb)
                + self.table1.fraction(Table1Row::CmovSign)
                + self.table1.fraction(Table1Row::CmovEq),
            self.table1.fraction(Table1Row::Other)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{Benchmark, Scale};

    #[test]
    fn profile_measures_a_kernel() {
        let program = Benchmark::Compress95.program(Scale::Test);
        let p = Profile::measure(&program, 10_000_000).expect("runs");
        assert!(p.dynamic_insts > 1000);
        assert!(
            p.class_fraction(LatencyClass::Mem) > 0.1,
            "compress loads/stores"
        );
        assert!(p.avg_block > 2.0 && p.avg_block < 20.0);
        assert!(p.working_set_bytes() > 2_000);
        let total: f64 = LatencyClass::all()
            .iter()
            .map(|c| p.class_fraction(*c))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "class fractions sum to 1");
    }

    #[test]
    fn mcf_has_the_biggest_working_set() {
        let mcf = Profile::measure(&Benchmark::Mcf.program(Scale::Test), 10_000_000).unwrap();
        let go = Profile::measure(&Benchmark::Go.program(Scale::Test), 10_000_000).unwrap();
        assert!(mcf.working_set_bytes() > go.working_set_bytes() * 4);
    }

    #[test]
    fn display_renders() {
        let p = Profile::measure(&Benchmark::Go.program(Scale::Test), 10_000_000).unwrap();
        let s = p.to_string();
        assert!(s.contains("go"));
        assert!(s.contains("mem"));
    }
}
