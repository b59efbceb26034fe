//! The front-end branch predictor: a hybrid gshare/PAs direction predictor
//! (Table 2: "48KB hybrid gshare/PAs"), a 4096-entry BTB, and a return
//! address stack.

use redbin_isa::Opcode;

const GSHARE_BITS: usize = 16; // 64K 2-bit counters = 16 KB
const LOCAL_HIST_ENTRIES: usize = 4096; // 4K × 12-bit local histories = 6 KB
const LOCAL_HIST_BITS: usize = 12;
const LOCAL_PHT_BITS: usize = 14; // 16K 2-bit counters = 4 KB
const CHOOSER_BITS: usize = 16; // 64K 2-bit counters = 16 KB
const BTB_ENTRIES: usize = 4096;
const BTB_WAYS: usize = 4;
const RAS_DEPTH: usize = 32;

#[inline]
fn counter_up(c: &mut u8) {
    *c = (*c + 1).min(3);
}

#[inline]
fn counter_down(c: &mut u8) {
    *c = c.saturating_sub(1);
}

/// The direction + target prediction for one control instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted taken?
    pub taken: bool,
    /// Predicted target (instruction index), if one was available from the
    /// BTB / RAS / static displacement.
    pub target: Option<usize>,
}

/// The hybrid gshare/PAs predictor with BTB and return-address stack.
///
/// Sized per Table 2 (≈48 KB of predictor state, 4096-entry BTB). Updates
/// happen at prediction time with the oracle outcome, the standard
/// approximation for oracle-driven front ends.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    gshare: Vec<u8>,
    ghist: u64,
    local_hist: Vec<u16>,
    local_pht: Vec<u8>,
    chooser: Vec<u8>,
    btb: Vec<(u64, usize)>, // (tag, target); direct-mapped-within-set, 4 ways
    ras: Vec<usize>,
}

impl Default for BranchPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor {
    /// Creates a predictor with all counters weakly not-taken.
    pub fn new() -> Self {
        BranchPredictor {
            gshare: vec![1; 1 << GSHARE_BITS],
            ghist: 0,
            local_hist: vec![0; LOCAL_HIST_ENTRIES],
            local_pht: vec![1; 1 << LOCAL_PHT_BITS],
            chooser: vec![2; 1 << CHOOSER_BITS],
            btb: vec![(u64::MAX, 0); BTB_ENTRIES],
            ras: Vec::with_capacity(RAS_DEPTH),
        }
    }

    fn gshare_index(&self, pc: usize) -> usize {
        ((pc as u64) ^ self.ghist) as usize & ((1 << GSHARE_BITS) - 1)
    }

    fn local_index(&self, pc: usize) -> usize {
        pc & (LOCAL_HIST_ENTRIES - 1)
    }

    fn pht_index(&self, pc: usize) -> usize {
        let hist = self.local_hist[self.local_index(pc)] as usize;
        (hist ^ (pc << 2)) & ((1 << LOCAL_PHT_BITS) - 1)
    }

    fn chooser_index(&self, pc: usize) -> usize {
        pc & ((1 << CHOOSER_BITS) - 1)
    }

    fn btb_set(&self, pc: usize) -> usize {
        (pc % (BTB_ENTRIES / BTB_WAYS)) * BTB_WAYS
    }

    fn btb_lookup(&self, pc: usize) -> Option<usize> {
        let s = self.btb_set(pc);
        self.btb[s..s + BTB_WAYS]
            .iter()
            .find(|(tag, _)| *tag == pc as u64)
            .map(|(_, t)| *t)
    }

    fn btb_insert(&mut self, pc: usize, target: usize) {
        let s = self.btb_set(pc);
        // Hit → update in place; miss → replace a pseudo-random way.
        for w in 0..BTB_WAYS {
            if self.btb[s + w].0 == pc as u64 {
                self.btb[s + w].1 = target;
                return;
            }
        }
        let victim = s + (pc ^ target) % BTB_WAYS;
        self.btb[victim] = (pc as u64, target);
    }

    /// Predicts a control instruction at `pc`, then updates predictor state
    /// with the actual outcome (oracle-driven update).
    ///
    /// `actual_taken` / `actual_target` come from the architectural oracle;
    /// the *returned* prediction is what the front end believed before
    /// updating.
    pub fn predict_and_update(
        &mut self,
        pc: usize,
        op: Opcode,
        actual_taken: bool,
        actual_target: usize,
        static_target: Option<usize>,
    ) -> Prediction {
        let pred = if op.is_conditional_branch() {
            let gi = self.gshare_index(pc);
            let pi = self.pht_index(pc);
            let ci = self.chooser_index(pc);
            let g_taken = self.gshare[gi] >= 2;
            let l_taken = self.local_pht[pi] >= 2;
            let use_local = self.chooser[ci] >= 2;
            let taken = if use_local { l_taken } else { g_taken };
            // Update all components with the outcome.
            if actual_taken {
                counter_up(&mut self.gshare[gi]);
                counter_up(&mut self.local_pht[pi]);
            } else {
                counter_down(&mut self.gshare[gi]);
                counter_down(&mut self.local_pht[pi]);
            }
            if g_taken != l_taken {
                if l_taken == actual_taken {
                    counter_up(&mut self.chooser[ci]);
                } else {
                    counter_down(&mut self.chooser[ci]);
                }
            }
            let li = self.local_index(pc);
            self.local_hist[li] =
                ((self.local_hist[li] << 1) | actual_taken as u16) & ((1 << LOCAL_HIST_BITS) - 1);
            self.ghist = ((self.ghist << 1) | actual_taken as u64) & ((1 << GSHARE_BITS) - 1);
            // A taken-predicted conditional needs a target: static
            // displacement targets are available at decode; treat them as
            // correctly provided (BTB assists earlier stages only).
            Prediction {
                taken,
                target: static_target,
            }
        } else {
            // Unconditional transfers: always taken; targets differ.
            let target = match op {
                Opcode::Br | Opcode::Bsr => static_target,
                Opcode::Ret => self.ras.last().copied(),
                Opcode::Jmp => self.btb_lookup(pc),
                _ => static_target,
            };
            Prediction {
                taken: true,
                target,
            }
        };

        // Maintain RAS and BTB with actual outcomes.
        if op.is_call() {
            if self.ras.len() == RAS_DEPTH {
                self.ras.remove(0);
            }
            self.ras.push(pc + 1);
        }
        if op.is_return() {
            self.ras.pop();
        }
        if actual_taken {
            self.btb_insert(pc, actual_target);
        }
        pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_an_always_taken_branch() {
        let mut p = BranchPredictor::new();
        let mut wrong = 0;
        for _ in 0..100 {
            let pred = p.predict_and_update(10, Opcode::Bne, true, 5, Some(5));
            if !pred.taken {
                wrong += 1;
            }
        }
        // The local-history side needs ~12 iterations to see every new
        // history pattern once; after warmup it must be near-perfect.
        assert!(wrong <= 20, "should converge, was wrong {wrong} times");
    }

    #[test]
    fn learns_an_alternating_branch_via_local_history() {
        let mut p = BranchPredictor::new();
        let mut wrong = 0;
        for i in 0..400u32 {
            let t = i % 2 == 0;
            let pred = p.predict_and_update(77, Opcode::Beq, t, 3, Some(3));
            if i > 100 && pred.taken != t {
                wrong += 1;
            }
        }
        assert!(
            wrong < 30,
            "local history should capture period-2 patterns; wrong {wrong}"
        );
    }

    #[test]
    fn ras_predicts_returns() {
        let mut p = BranchPredictor::new();
        // call from 10 → return should predict 11.
        p.predict_and_update(10, Opcode::Bsr, true, 50, Some(50));
        let pred = p.predict_and_update(55, Opcode::Ret, true, 11, None);
        assert_eq!(pred.target, Some(11));
    }

    #[test]
    fn btb_learns_indirect_targets() {
        let mut p = BranchPredictor::new();
        let first = p.predict_and_update(20, Opcode::Jmp, true, 99, None);
        assert_eq!(first.target, None, "cold BTB");
        let second = p.predict_and_update(20, Opcode::Jmp, true, 99, None);
        assert_eq!(second.target, Some(99));
    }

    #[test]
    fn unconditional_br_uses_static_target() {
        let mut p = BranchPredictor::new();
        let pred = p.predict_and_update(5, Opcode::Br, true, 42, Some(42));
        assert!(pred.taken);
        assert_eq!(pred.target, Some(42));
    }
}
