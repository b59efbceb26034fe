//! Proxy kernels for the SPECint95 benchmarks the paper evaluates:
//! compress, gcc, go, ijpeg, li, m88ksim, perl, vortex.

use redbin_isa::{Opcode, Program, Reg};
use redbin_testkit::Rng;

use crate::asm::Asm;
use crate::kernels::{below, permutation_cycle, text_like_bytes};

const SRC: u64 = 0x10_0000;
const TAB: u64 = 0x20_0000;
const AUX: u64 = 0x40_0000;

fn r(n: u8) -> Reg {
    Reg(n)
}

/// `compress`: an LZW-flavoured loop — byte stream in, hash-table probes,
/// code insertion on miss. Dominated by dependent loads and short branchy
/// blocks over a table larger than the L1 data cache.
pub fn compress(units: u64) -> Program {
    let len = units.max(16);
    let mut a = Asm::new("compress");
    a.data_bytes(SRC, text_like_bytes(len as usize, 45, 0xC0FFEE));
    a.scratch(TAB, 16 * 1024 * 8); // the 16K-entry hash table
    a.init_reg(r(1), SRC);
    a.init_reg(r(2), SRC + len);
    a.init_reg(r(3), TAB);
    a.li(r(4), 256); // next code
    a.li(r(5), 0); // prev code

    a.label("loop");
    a.ldbu(r(6), r(1), 0);
    a.op(Opcode::Sll, r(5), 6, r(7));
    a.op(Opcode::Xor, r(7), r(6), r(7));
    a.op(Opcode::And, r(7), 0x3fff, r(7)); // 16K-entry table
    a.s8addq(r(7), r(3), r(8));
    a.ldq(r(9), r(8), 0);
    a.op(Opcode::Sll, r(5), 8, r(10));
    a.op(Opcode::Xor, r(10), r(6), r(10)); // key = prev<<8 ^ byte
    a.op(Opcode::Cmpeq, r(9), r(10), r(11));
    a.bne(r(11), "hit");
    // miss: install key, allocate a new code, restart the phrase.
    a.stq(r(10), r(8), 0);
    a.addq_imm(r(4), 1, r(4));
    a.mov(r(6), r(5));
    a.br("next");
    a.label("hit");
    a.op(Opcode::And, r(10), 0xfff, r(5)); // continue the phrase
    a.label("next");
    a.addq_imm(r(1), 1, r(1));
    a.op(Opcode::Cmpult, r(1), r(2), r(12));
    a.bne(r(12), "loop");
    a.halt();
    a.assemble()
}

/// Shared body for the `gcc` proxies: an IR walk over tagged nodes with a
/// dispatch tree — short blocks, many data-dependent branches, pointer
/// dereferences into a table that misses the L1.
pub fn gcc_like(name: &str, units: u64, nodes: u64, seed: u64) -> Program {
    let nodes = nodes.max(64);
    let mut rng = Rng::new(seed);
    // Node: [type, val, child-index, pad] × 8 bytes. Types run in
    // correlated phases (65% repeat), like the IR of real functions.
    let mut image = Vec::with_capacity((nodes * 32) as usize);
    let mut prev_ty = 0u64;
    for _ in 0..nodes {
        let ty = if below(&mut rng, 100) < 65 {
            prev_ty
        } else {
            below(&mut rng, 5)
        };
        prev_ty = ty;
        let val = rng.next_u64() & 0xffff;
        let child = below(&mut rng, nodes);
        image.extend_from_slice(&ty.to_le_bytes());
        image.extend_from_slice(&val.to_le_bytes());
        image.extend_from_slice(&child.to_le_bytes());
        image.extend_from_slice(&0u64.to_le_bytes());
    }
    let mut a = Asm::new(name);
    a.data_bytes(TAB, image);
    a.init_reg(r(1), TAB);
    a.li(r(2), 0); // node index
    a.li(r(3), units.max(1) as i64); // work counter
    a.li(r(4), 0); // accumulator
    a.li(r(5), nodes as i64);

    a.label("walk");
    a.op(Opcode::Sll, r(2), 5, r(6)); // ×32
    a.addq(r(1), r(6), r(6)); // node address
    a.ldq(r(7), r(6), 0); // type
    a.ldq(r(8), r(6), 8); // val
                          // Dispatch tree on type 0..4.
    a.op(Opcode::Cmpeq, r(7), 0, r(9));
    a.bne(r(9), "t0");
    a.op(Opcode::Cmpeq, r(7), 1, r(9));
    a.bne(r(9), "t1");
    a.op(Opcode::Cmpeq, r(7), 2, r(9));
    a.bne(r(9), "t2");
    a.op(Opcode::Cmpeq, r(7), 3, r(9));
    a.bne(r(9), "t3");
    // t4: follow the child and fold its value in.
    a.ldq(r(10), r(6), 16);
    a.op(Opcode::Sll, r(10), 5, r(10));
    a.addq(r(1), r(10), r(10));
    a.ldq(r(11), r(10), 8);
    a.addq(r(4), r(11), r(4));
    a.br("cont");
    a.label("t0"); // constant fold
    a.addq(r(4), r(8), r(4));
    a.br("cont");
    a.label("t1"); // negate-ish
    a.subq(r(4), r(8), r(4));
    a.br("cont");
    a.label("t2"); // scale
    a.op(Opcode::S4addq, r(8), r(4), r(4));
    a.br("cont");
    a.label("t3"); // mask + merge, and memo the result into the node
    a.op(Opcode::And, r(8), 0xff, r(12));
    a.op(Opcode::Xor, r(4), r(12), r(4));
    a.stq(r(4), r(6), 24);
    a.label("cont");
    a.addq_imm(r(2), 1, r(2));
    a.op(Opcode::Cmpult, r(2), r(5), r(13));
    a.bne(r(13), "nowrap");
    a.li(r(2), 0);
    a.label("nowrap");
    a.subq_imm(r(3), 1, r(3));
    a.bne(r(3), "walk");
    a.halt();
    a.assemble()
}

/// `gcc` (SPECint95 sizing).
pub fn gcc95(units: u64) -> Program {
    gcc_like("gcc95", units, 8192, 0x0006_CC95)
}

/// `go`: board scanning with neighbour comparisons — very branchy with
/// poorly predictable outcomes, small working set.
pub fn go(units: u64) -> Program {
    let mut rng = Rng::new(0x60_60);
    let board: Vec<u8> = (0..1024).map(|_| below(&mut rng, 3) as u8).collect();
    let mut a = Asm::new("go");
    a.data_bytes(SRC, board);
    a.init_reg(r(1), SRC);
    a.li(r(2), 33); // index (skip the border)
    a.li(r(4), units.max(1) as i64);
    a.li(r(5), 0); // score

    a.label("scan");
    a.addq(r(1), r(2), r(6));
    a.ldbu(r(7), r(6), 0);
    a.beq(r(7), "skip");
    a.ldbu(r(8), r(6), 1);
    a.ldbu(r(9), r(6), -1);
    a.ldbu(r(10), r(6), 32);
    a.ldbu(r(11), r(6), -32);
    a.op(Opcode::Cmpeq, r(8), r(7), r(12));
    a.addq(r(5), r(12), r(5));
    a.op(Opcode::Cmpeq, r(9), r(7), r(12));
    a.addq(r(5), r(12), r(5));
    a.op(Opcode::Cmpeq, r(10), r(7), r(13));
    a.beq(r(13), "no_s");
    a.addq_imm(r(5), 2, r(5));
    a.label("no_s");
    a.op(Opcode::Cmpeq, r(11), r(7), r(13));
    a.beq(r(13), "no_n");
    a.subq_imm(r(5), 1, r(5));
    a.label("no_n");
    a.label("skip");
    a.addq_imm(r(2), 1, r(2));
    a.op(Opcode::Cmpult, r(2), 990, r(14));
    a.bne(r(14), "no_wrap");
    a.li(r(2), 33);
    a.label("no_wrap");
    a.subq_imm(r(4), 1, r(4));
    a.bne(r(4), "scan");
    a.halt();
    a.assemble()
}

/// `ijpeg`: an integer 8-point butterfly over coefficient blocks — dense
/// arithmetic with multiplies, high instruction-level parallelism, few
/// branches.
pub fn ijpeg(units: u64) -> Program {
    let blocks = 512u64;
    let mut rng = Rng::new(0x1337);
    let coeffs: Vec<u64> = (0..blocks * 8).map(|_| below(&mut rng, 1 << 12)).collect();
    let mut a = Asm::new("ijpeg");
    a.data_u64(SRC, &coeffs);
    a.init_reg(r(1), SRC);
    a.li(r(2), 0); // block index
    a.li(r(3), units.max(1) as i64);
    a.li(r(25), blocks as i64);

    a.label("block");
    a.op(Opcode::Sll, r(2), 6, r(4)); // ×64 bytes
    a.addq(r(1), r(4), r(4));
    for i in 0..8 {
        a.ldq(r(5 + i), r(4), (i as i64) * 8); // r5..r12 = coefficients
    }
    // Butterfly stage 1 (independent adds — wide ILP).
    a.addq(r(5), r(12), r(13));
    a.subq(r(5), r(12), r(14));
    a.addq(r(6), r(11), r(15));
    a.subq(r(6), r(11), r(16));
    a.addq(r(7), r(10), r(17));
    a.subq(r(7), r(10), r(18));
    a.addq(r(8), r(9), r(19));
    a.subq(r(8), r(9), r(20));
    // Stage 2 with "rotation" multiplies.
    a.op(Opcode::Mulq, r(14), 181, r(14));
    a.op(Opcode::Mulq, r(16), 59, r(16));
    a.addq(r(13), r(19), r(21));
    a.subq(r(13), r(19), r(22));
    a.addq(r(15), r(17), r(23));
    a.op(Opcode::Sra, r(14), 8, r(14));
    a.op(Opcode::Sra, r(16), 8, r(16));
    a.addq(r(18), r(20), r(24));
    // Write back.
    a.stq(r(21), r(4), 0);
    a.stq(r(23), r(4), 8);
    a.stq(r(14), r(4), 16);
    a.stq(r(24), r(4), 24);
    a.stq(r(22), r(4), 32);
    a.stq(r(16), r(4), 40);
    // Next block.
    a.addq_imm(r(2), 1, r(2));
    a.op(Opcode::Cmpult, r(2), r(25), r(13));
    a.bne(r(13), "no_wrap");
    a.li(r(2), 0);
    a.label("no_wrap");
    a.subq_imm(r(3), 1, r(3));
    a.bne(r(3), "block");
    a.halt();
    a.assemble()
}

/// `li`: cons-cell list traversal with a bump allocator — dependent load
/// chains (car/cdr), call/return pairs, small structures.
pub fn li(units: u64) -> Program {
    let cells = 2048usize;
    let next = permutation_cycle(cells, 0x11);
    // Cell: [car, cdr-address].
    let mut image = Vec::with_capacity(cells * 16);
    for (i, nx) in next.iter().enumerate() {
        image.extend_from_slice(&((i as u64) & 0xff).to_le_bytes());
        image.extend_from_slice(&(TAB + nx * 16).to_le_bytes());
    }
    let mut a = Asm::new("li");
    a.data_bytes(TAB, image);
    a.scratch(AUX, 16 * units.max(1)); // cons arena: one 16-byte cell per trip
    a.init_reg(r(1), TAB); // list head
    a.init_reg(r(20), AUX); // bump allocator
    a.li(r(3), units.max(1) as i64);
    a.li(r(4), 0); // sum

    a.label("outer");
    // sum_list: chase 64 cells from the head.
    a.mov(r(1), r(5));
    a.li(r(6), 64);
    a.bsr("sum_list");
    // cons a new cell onto a side list (bump allocation, two stores).
    a.stq(r(4), r(20), 0);
    a.stq(r(1), r(20), 8);
    a.addq_imm(r(20), 16, r(20));
    // Rotate the head pointer itself (follow one cdr).
    a.ldq(r(1), r(1), 8);
    a.subq_imm(r(3), 1, r(3));
    a.bne(r(3), "outer");
    a.halt();

    a.label("sum_list"); // (r5 = cell, r6 = count) -> r4 += cars
    a.label("sl_loop");
    a.ldq(r(7), r(5), 0);
    a.ldq(r(5), r(5), 8);
    a.addq(r(4), r(7), r(4));
    a.subq_imm(r(6), 1, r(6));
    a.bne(r(6), "sl_loop");
    a.ret();
    a.assemble()
}

/// `m88ksim`: a CPU-simulator dispatch loop — fetch a packed instruction
/// word, field-extract, dispatch through a compare tree, update a small
/// register array. Indirect-ish control through a predictable dispatcher.
pub fn m88ksim(units: u64) -> Program {
    let n = 4096u64;
    let mut rng = Rng::new(0x88);
    // Opcodes are Markov-correlated (70% repeat the previous one): real
    // instruction streams run in phases, which is what makes the dispatch
    // branches predictable.
    let mut prev_op = 0u64;
    let imem: Vec<u64> = (0..n)
        .map(|_| {
            let op = if below(&mut rng, 10) < 7 {
                prev_op
            } else {
                below(&mut rng, 5)
            };
            prev_op = op;
            let rs1 = below(&mut rng, 16);
            let rs2 = below(&mut rng, 16);
            let rd = below(&mut rng, 16);
            let imm = below(&mut rng, 256);
            op | (rs1 << 3) | (rs2 << 8) | (rd << 13) | (imm << 18)
        })
        .collect();
    let mut a = Asm::new("m88ksim");
    a.data_u64(SRC, &imem);
    // Simulated register file: 16 × 8B.
    a.data_u64(TAB, &(0..16).map(|i| i * 3).collect::<Vec<u64>>());
    a.init_reg(r(1), SRC);
    a.init_reg(r(2), TAB);
    a.li(r(3), 0); // simulated pc
    a.li(r(4), units.max(1) as i64);

    a.label("fetch");
    a.s8addq(r(3), r(1), r(5));
    a.ldq(r(6), r(5), 0); // packed instruction
    a.op(Opcode::And, r(6), 7, r(7)); // opcode
    a.op(Opcode::Srl, r(6), 3, r(8));
    a.op(Opcode::And, r(8), 31, r(8)); // rs1
    a.op(Opcode::Srl, r(6), 8, r(9));
    a.op(Opcode::And, r(9), 31, r(9)); // rs2
    a.op(Opcode::Srl, r(6), 13, r(10));
    a.op(Opcode::And, r(10), 15, r(10)); // rd
    a.op(Opcode::Srl, r(6), 18, r(11)); // imm
                                        // Read simulated sources.
    a.op(Opcode::And, r(8), 15, r(8));
    a.s8addq(r(8), r(2), r(12));
    a.ldq(r(13), r(12), 0);
    a.op(Opcode::And, r(9), 15, r(9));
    a.s8addq(r(9), r(2), r(12));
    a.ldq(r(14), r(12), 0);
    a.s8addq(r(10), r(2), r(15)); // dest slot address
                                  // Dispatch.
    a.op(Opcode::Cmpeq, r(7), 0, r(16));
    a.bne(r(16), "h_add");
    a.op(Opcode::Cmpeq, r(7), 1, r(16));
    a.bne(r(16), "h_sub");
    a.op(Opcode::Cmpeq, r(7), 2, r(16));
    a.bne(r(16), "h_logic");
    a.op(Opcode::Cmpeq, r(7), 3, r(16));
    a.bne(r(16), "h_shift");
    // h_imm: rd = rs1 + imm
    a.addq(r(13), r(11), r(17));
    a.stq(r(17), r(15), 0);
    a.br("advance");
    a.label("h_add");
    a.addq(r(13), r(14), r(17));
    a.stq(r(17), r(15), 0);
    a.br("advance");
    a.label("h_sub");
    a.subq(r(13), r(14), r(17));
    a.stq(r(17), r(15), 0);
    a.br("advance");
    a.label("h_logic");
    a.op(Opcode::Xor, r(13), r(14), r(17));
    a.stq(r(17), r(15), 0);
    a.br("advance");
    a.label("h_shift");
    a.op(Opcode::And, r(14), 63, r(18));
    a.op(Opcode::Sll, r(13), r(18), r(17));
    a.stq(r(17), r(15), 0);
    a.label("advance");
    a.addq_imm(r(3), 1, r(3));
    a.op(Opcode::And, r(3), (n - 1) as i64, r(3)); // wrap simulated pc
    a.subq_imm(r(4), 1, r(4));
    a.bne(r(4), "fetch");
    a.halt();
    a.assemble()
}

/// `perl`: word hashing and table probing — byte extraction, a
/// multiply-based hash, open-addressing probes with compare loops.
pub fn perl(units: u64) -> Program {
    perl_like("perl", units, 0x13F, 4096)
}

/// Shared body for `perl` / `perlbmk`.
pub fn perl_like(name: &str, units: u64, seed: u64, table: u64) -> Program {
    let words = 1024u64;
    let mut rng = Rng::new(seed);
    let stream: Vec<u64> = (0..words)
        .map(|_| {
            // Draw from a smallish vocabulary so probes hit and miss.
            let vocab = below(&mut rng, 300);
            vocab.wrapping_mul(0x9E3779B97F4A7C15) | 1
        })
        .collect();
    let mut a = Asm::new(name);
    a.data_u64(SRC, &stream);
    a.scratch(TAB, table * 8);
    a.init_reg(r(1), SRC);
    a.init_reg(r(2), TAB);
    a.li(r(3), 0); // word index
    a.li(r(4), units.max(1) as i64);
    a.li(r(5), 0); // hit counter
    let mask = (table - 1) as i64;

    a.label("word");
    a.s8addq(r(3), r(1), r(6));
    a.ldq(r(7), r(6), 0); // the word
                          // Hash its bytes: h = h*33 ^ byte, 8 iterations.
    a.li(r(8), 5381);
    a.li(r(9), 0); // byte index
    a.label("hash");
    a.op(Opcode::Extbl, r(7), r(9), r(10));
    // h = h·33 ^ c computed as (h<<5) + h, the classic shift-add idiom.
    a.op(Opcode::Sll, r(8), 5, r(17));
    a.addq(r(8), r(17), r(8));
    a.op(Opcode::Xor, r(8), r(10), r(8));
    a.addq_imm(r(9), 1, r(9));
    a.op(Opcode::Cmpult, r(9), 8, r(11));
    a.bne(r(11), "hash");
    // Probe (linear, max 3).
    a.op(Opcode::And, r(8), mask, r(12));
    a.li(r(13), 3);
    a.label("probe");
    a.s8addq(r(12), r(2), r(14));
    a.ldq(r(15), r(14), 0);
    a.op(Opcode::Cmpeq, r(15), r(7), r(16));
    a.bne(r(16), "hit");
    a.beq(r(15), "empty");
    a.addq_imm(r(12), 1, r(12));
    a.op(Opcode::And, r(12), mask, r(12));
    a.subq_imm(r(13), 1, r(13));
    a.bne(r(13), "probe");
    a.br("next"); // probe budget exhausted
    a.label("empty");
    a.stq(r(7), r(14), 0); // insert
    a.br("next");
    a.label("hit");
    a.addq_imm(r(5), 1, r(5));
    a.label("next");
    a.addq_imm(r(3), 1, r(3));
    a.op(Opcode::And, r(3), (words - 1) as i64, r(3));
    a.subq_imm(r(4), 1, r(4));
    a.bne(r(4), "word");
    a.halt();
    a.assemble()
}

/// `vortex`: an object-store workout — fixed-size records, field reads and
/// validations via subroutines, periodic record copies.
pub fn vortex(units: u64) -> Program {
    vortex_like("vortex", units, 4096, 0x50)
}

/// Shared body for `vortex` / `vortex2k`.
pub fn vortex_like(name: &str, units: u64, records: u64, seed: u64) -> Program {
    let mut rng = Rng::new(seed);
    // Record: 64 bytes = 8 quadwords: [id, kind, status, a, b, c, d, link].
    let mut image = Vec::with_capacity((records * 64) as usize);
    for i in 0..records {
        for f in 0..8u64 {
            let v = match f {
                0 => i,
                1 => below(&mut rng, 4),
                7 => below(&mut rng, records),
                _ => rng.next_u64() & 0xffff,
            };
            image.extend_from_slice(&v.to_le_bytes());
        }
    }
    let mut a = Asm::new(name);
    a.data_bytes(TAB, image);
    a.scratch(AUX, 64); // the record copy buffer
    a.init_reg(r(1), TAB);
    a.init_reg(r(20), AUX); // copy buffer
    a.li(r(3), units.max(1) as i64);
    a.li(r(4), 0x9E37); // lcg state
    a.li(r(5), 0); // validated counter

    a.label("txn");
    // idx drawn from an additive Weyl generator (records is a power of two).
    a.addq_imm(r(4), 0x9E3779B97F4A7C15u64 as i64, r(4));
    a.op(Opcode::Srl, r(4), 16, r(6));
    a.op(Opcode::And, r(6), (records - 1) as i64, r(6));
    a.op(Opcode::Sll, r(6), 6, r(6));
    a.addq(r(1), r(6), r(7)); // record address
    a.bsr("validate");
    // Every 4th transaction, copy the record out (unrolled memcpy).
    a.op(Opcode::And, r(3), 3, r(8));
    a.bne(r(8), "skip_copy");
    for f in 0..8 {
        a.ldq(r(9), r(7), f * 8);
        a.stq(r(9), r(20), f * 8);
    }
    a.label("skip_copy");
    a.subq_imm(r(3), 1, r(3));
    a.bne(r(3), "txn");
    a.halt();

    // validate(r7 = record) — check fields, bump status, count kinds.
    a.label("validate");
    a.ldq(r(10), r(7), 8); // kind
    a.ldq(r(11), r(7), 16); // status
    a.ldq(r(12), r(7), 24); // a
    a.op(Opcode::Cmpult, r(10), 4, r(13));
    a.beq(r(13), "bad");
    a.addq_imm(r(11), 1, r(11));
    a.stq(r(11), r(7), 16);
    a.op(Opcode::Cmpult, r(12), 0x8000, r(13));
    a.addq(r(5), r(13), r(5));
    a.label("bad");
    a.ret();
    a.assemble()
}
