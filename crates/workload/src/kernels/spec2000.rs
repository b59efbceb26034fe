//! Proxy kernels for the SPECint2000 benchmarks the paper evaluates:
//! bzip2, crafty, eon, gap, gcc, gzip, mcf, parser, perlbmk, twolf,
//! vortex, vpr.

use redbin_isa::{Opcode, Program, Reg};
use redbin_testkit::Rng;

use crate::asm::Asm;
use crate::kernels::spec95::{gcc_like, perl_like, vortex_like};
use crate::kernels::{below, permutation_cycle, text_like_bytes};

const SRC: u64 = 0x10_0000;
const TAB: u64 = 0x80_0000;
const AUX: u64 = 0x200_0000;

fn r(n: u8) -> Reg {
    Reg(n)
}

/// `bzip2`: a shell sort over a block of values — data-dependent compare
/// branches and strided memory traffic, like the BWT sorting phase.
///
/// `units` sets the number of elements sorted (clamped to at least 32).
pub fn bzip2(units: u64) -> Program {
    // Eight shell-sort passes cost ~16 dynamic instructions per element
    // each, so derive the element count from the unit budget.
    let n = (units.max(4096) / 128).max(32);
    let mut rng = Rng::new(0xB21);
    let data: Vec<u64> = (0..n).map(|_| below(&mut rng, 1 << 24)).collect();
    let gaps: [u64; 8] = [701, 301, 132, 57, 23, 10, 4, 1];
    let mut a = Asm::new("bzip2");
    a.data_u64(SRC, &data);
    a.data_u64(TAB, &gaps);
    a.init_reg(r(1), SRC);
    a.init_reg(r(2), TAB); // gap table
    a.li(r(3), 0); // gap index
    a.li(r(25), n as i64);

    a.label("gap_loop");
    a.s8addq(r(3), r(2), r(4));
    a.ldq(r(5), r(4), 0); // gap
    a.op(Opcode::Cmpult, r(5), r(25), r(6));
    a.beq(r(6), "next_gap"); // skip gaps >= n
    a.mov(r(5), r(7)); // i = gap
    a.label("i_loop");
    a.s8addq(r(7), r(1), r(8));
    a.ldq(r(9), r(8), 0); // key = a[i]
    a.mov(r(7), r(10)); // j = i
    a.label("j_loop");
    a.op(Opcode::Cmpult, r(10), r(5), r(11));
    a.bne(r(11), "insert"); // j < gap → stop
    a.subq(r(10), r(5), r(12)); // j - gap
    a.s8addq(r(12), r(1), r(13));
    a.ldq(r(14), r(13), 0); // a[j-gap]
    a.op(Opcode::Cmpule, r(14), r(9), r(11));
    a.bne(r(11), "insert"); // a[j-gap] <= key → stop
    a.s8addq(r(10), r(1), r(15));
    a.stq(r(14), r(15), 0); // a[j] = a[j-gap]
    a.mov(r(12), r(10)); // j -= gap
    a.br("j_loop");
    a.label("insert");
    a.s8addq(r(10), r(1), r(15));
    a.stq(r(9), r(15), 0);
    a.addq_imm(r(7), 1, r(7));
    a.op(Opcode::Cmpult, r(7), r(25), r(11));
    a.bne(r(11), "i_loop");
    a.label("next_gap");
    a.addq_imm(r(3), 1, r(3));
    a.op(Opcode::Cmpult, r(3), 8, r(11));
    a.bne(r(11), "gap_loop");
    a.halt();
    a.assemble()
}

/// `crafty`: bitboard manipulation — wide 64-bit logical operations,
/// shifts, population/leading-zero counts, and low-bit tests. Exercises the
/// machine's TC-only (logical) side, where redundant adders cannot help.
pub fn crafty(units: u64) -> Program {
    let boards = 128u64;
    let mut rng = Rng::new(0xCAF7);
    let b1: Vec<u64> = (0..boards).map(|_| rng.next_u64()).collect();
    let b2: Vec<u64> = (0..boards).map(|_| rng.next_u64()).collect();
    let mut a = Asm::new("crafty");
    a.data_u64(SRC, &b1);
    a.data_u64(TAB, &b2);
    a.init_reg(r(1), SRC);
    a.init_reg(r(2), TAB);
    a.li(r(3), units.max(1) as i64);
    a.li(r(4), 0x2545F49); // lcg
    a.li(r(5), 0); // material score

    a.label("eval");
    // Additive Weyl index generator: an add-latency-critical recurrence,
    // like the index arithmetic of the real benchmark.
    a.addq_imm(r(4), 0x9E3779B97F4A7C15u64 as i64, r(4));
    a.op(Opcode::Srl, r(4), 33, r(6));
    a.op(Opcode::And, r(6), (boards - 1) as i64, r(6));
    a.s8addq(r(6), r(1), r(7));
    a.ldq(r(8), r(7), 0); // our pieces
    a.s8addq(r(6), r(2), r(9));
    a.ldq(r(10), r(9), 0); // their pieces
                           // Attack-set algebra.
    a.op(Opcode::Sll, r(8), 8, r(11)); // pawn pushes
    a.op(Opcode::Bic, r(11), r(10), r(11)); // not blocked
    a.op(Opcode::Srl, r(8), 7, r(12)); // captures left
    a.op(Opcode::And, r(12), r(10), r(12));
    a.op(Opcode::Srl, r(8), 9, r(13)); // captures right
    a.op(Opcode::And, r(13), r(10), r(13));
    a.op(Opcode::Bis, r(12), r(13), r(14)); // all captures
    a.op(Opcode::Bis, r(14), r(11), r(15)); // all moves
    a.op(Opcode::Ctpop, r(15), 0, r(16)); // mobility
    a.addq(r(5), r(16), r(5));
    a.op(Opcode::Ctlz, r(14), 0, r(17)); // first capture square
    a.op(Opcode::And, r(17), 63, r(17));
    // Conditionally update the board when a capture exists.
    a.beq(r(14), "no_cap");
    a.op(Opcode::Bic, r(10), r(14), r(10));
    a.stq(r(10), r(9), 0);
    a.label("no_cap");
    // Parity branch on the score (hard to predict).
    a.blbc(r(5), "even");
    a.addq_imm(r(5), 3, r(5));
    a.label("even");
    a.subq_imm(r(3), 1, r(3));
    a.bne(r(3), "eval");
    a.halt();
    a.assemble()
}

/// `eon`: floating-point ray math — dot products and a normalization
/// divide, mixed with integer index arithmetic. Long FP latencies expose
/// the paper's point that throughput-bound code gains little from fast
/// adders.
pub fn eon(units: u64) -> Program {
    let n = 256u64;
    let mut rng = Rng::new(0xE0);
    let floats: Vec<u64> = (0..n * 3)
        .map(|_| (1.0 + (below(&mut rng, 1000) as f64) / 500.0).to_bits())
        .collect();
    let mut a = Asm::new("eon");
    a.data_u64(SRC, &floats);
    a.init_reg(r(1), SRC);
    a.li(r(2), 0); // byte offset of the current ray
    a.li(r(3), units.max(1) as i64);
    a.li(r(4), 1.0f64.to_bits() as i64); // accumulator (f64 bits)
    a.li(r(25), ((n - 2) * 24) as i64);

    a.label("ray");
    a.addq(r(1), r(2), r(5));
    a.ldq(r(6), r(5), 0); // x
    a.ldq(r(7), r(5), 8); // y
    a.ldq(r(8), r(5), 16); // z
    a.ldq(r(9), r(5), 24); // x'
    a.ldq(r(10), r(5), 32); // y'
    a.ldq(r(11), r(5), 40); // z'
                            // Two independent dot products for ILP.
    a.op(Opcode::Fmul, r(6), r(9), r(12));
    a.op(Opcode::Fmul, r(7), r(10), r(13));
    a.op(Opcode::Fmul, r(8), r(11), r(14));
    a.op(Opcode::Fmul, r(6), r(6), r(15));
    a.op(Opcode::Fmul, r(7), r(7), r(16));
    a.op(Opcode::Fadd, r(12), r(13), r(17));
    a.op(Opcode::Fadd, r(15), r(16), r(18));
    a.op(Opcode::Fadd, r(17), r(14), r(17));
    // Every 8th ray: normalize (divide).
    a.op(Opcode::And, r(3), 7, r(19));
    a.bne(r(19), "no_div");
    a.op(Opcode::Fdiv, r(17), r(18), r(17));
    a.label("no_div");
    a.op(Opcode::Fadd, r(4), r(17), r(4));
    a.addq_imm(r(2), 24, r(2));
    a.op(Opcode::Cmpult, r(2), r(25), r(20));
    a.bne(r(20), "no_wrap");
    a.li(r(2), 0);
    a.label("no_wrap");
    a.subq_imm(r(3), 1, r(3));
    a.bne(r(3), "ray");
    a.halt();
    a.assemble()
}

/// `gap`: multi-precision (bignum) arithmetic — carry chains built from
/// `addq`/`cmpult` pairs, exactly the dependent-add chains redundant
/// binary execution accelerates.
pub fn gap(units: u64) -> Program {
    let numbers = 256u64;
    let limbs = 8u64;
    let mut rng = Rng::new(0x6A9);
    let a_img: Vec<u64> = (0..numbers * limbs).map(|_| rng.next_u64()).collect();
    let b_img: Vec<u64> = (0..numbers * limbs).map(|_| rng.next_u64()).collect();
    let mut a = Asm::new("gap");
    a.data_u64(SRC, &a_img);
    a.data_u64(TAB, &b_img);
    a.scratch(AUX, numbers * limbs * 8); // the result area
    a.init_reg(r(1), SRC);
    a.init_reg(r(2), TAB);
    a.init_reg(r(3), AUX); // result area
    a.li(r(4), 0); // number index
    a.li(r(5), units.max(1) as i64);
    a.li(r(25), numbers as i64);

    a.label("bignum");
    a.op(Opcode::Sll, r(4), 6, r(6)); // ×limbs×8
    a.addq(r(1), r(6), r(7)); // &A[i]
    a.addq(r(2), r(6), r(8)); // &B[i]
    a.addq(r(3), r(6), r(9)); // &C[i]
    a.li(r(10), 0); // carry
    for l in 0..limbs as i64 {
        a.ldq(r(11), r(7), l * 8);
        a.ldq(r(12), r(8), l * 8);
        a.addq(r(11), r(12), r(13)); // partial sum
        a.op(Opcode::Cmpult, r(13), r(11), r(14)); // carry out of a+b
        a.addq(r(13), r(10), r(13)); // add carry in
        a.op(Opcode::Cmpult, r(13), r(10), r(15)); // carry out of +carry
        a.op(Opcode::Bis, r(14), r(15), r(10)); // next carry
        a.stq(r(13), r(9), l * 8);
    }
    // Fold a multiply in every 4th number (partial product).
    a.op(Opcode::And, r(5), 3, r(16));
    a.bne(r(16), "no_mul");
    a.ldq(r(11), r(7), 0);
    a.ldq(r(12), r(8), 0);
    a.op(Opcode::Mulq, r(11), r(12), r(17));
    a.stq(r(17), r(9), 0);
    a.label("no_mul");
    a.addq_imm(r(4), 1, r(4));
    a.op(Opcode::Cmpult, r(4), r(25), r(18));
    a.bne(r(18), "no_wrap");
    a.li(r(4), 0);
    a.label("no_wrap");
    a.subq_imm(r(5), 1, r(5));
    a.bne(r(5), "bignum");
    a.halt();
    a.assemble()
}

/// `gcc` (SPECint2000 sizing): a larger node table and a longer walk than
/// the 95 variant.
pub fn gcc00(units: u64) -> Program {
    gcc_like("gcc00", units, 32768, 0x06CC_2000)
}

/// `gzip`: LZ77 match finding — hash-head chains and byte-by-byte match
/// loops whose trip counts depend on the data.
pub fn gzip(units: u64) -> Program {
    let len = units.max(64);
    let mut a = Asm::new("gzip");
    a.data_bytes(SRC, text_like_bytes(len as usize + 64, 60, 0x6219));
    a.scratch(TAB, 8192 * 8); // the hash-head table
    a.init_reg(r(1), SRC); // window base
    a.init_reg(r(2), TAB); // head table (8K entries)
    a.li(r(3), 0); // position
    a.li(r(4), len as i64); // end position
    a.li(r(5), 0); // emitted tokens

    a.label("pos");
    a.addq(r(1), r(3), r(6)); // current pointer
    a.ldbu(r(7), r(6), 0);
    a.ldbu(r(8), r(6), 1);
    a.ldbu(r(9), r(6), 2);
    // hash = (b0<<10 ^ b1<<5 ^ b2) & 8191
    a.op(Opcode::Sll, r(7), 10, r(10));
    a.op(Opcode::Sll, r(8), 5, r(11));
    a.op(Opcode::Xor, r(10), r(11), r(10));
    a.op(Opcode::Xor, r(10), r(9), r(10));
    a.op(Opcode::And, r(10), 8191, r(10));
    a.s8addq(r(10), r(2), r(12));
    a.ldq(r(13), r(12), 0); // candidate position + 1 (0 = none)
    a.stq(r(3), r(12), 0); // update head (stores pos; pos 0 doubles as none — fine for a proxy)
    a.beq(r(13), "literal");
    // Compare up to 8 bytes at the candidate.
    a.addq(r(1), r(13), r(14)); // candidate pointer
    a.li(r(15), 0); // match length
    a.label("match");
    a.addq(r(6), r(15), r(16));
    a.ldbu(r(17), r(16), 0);
    a.addq(r(14), r(15), r(16));
    a.ldbu(r(18), r(16), 0);
    a.op(Opcode::Cmpeq, r(17), r(18), r(19));
    a.beq(r(19), "match_end");
    a.addq_imm(r(15), 1, r(15));
    a.op(Opcode::Cmpult, r(15), 8, r(19));
    a.bne(r(19), "match");
    a.label("match_end");
    a.op(Opcode::Cmpult, r(15), 3, r(19));
    a.bne(r(19), "literal");
    // Emit a match: skip ahead by its length.
    a.addq(r(3), r(15), r(3));
    a.addq_imm(r(5), 1, r(5));
    a.br("cont");
    a.label("literal");
    a.addq_imm(r(3), 1, r(3));
    a.addq_imm(r(5), 1, r(5));
    a.label("cont");
    a.op(Opcode::Cmpult, r(3), r(4), r(20));
    a.bne(r(20), "pos");
    a.halt();
    a.assemble()
}

/// `mcf`: network-simplex arc scanning — a pointer chase over a working
/// set far larger than the L2 cache, with occasional cost branches. The
/// lowest-IPC, most memory-bound proxy, as in the paper.
pub fn mcf(units: u64) -> Program {
    // 4K nodes × 64 B = 256 KB: the first lap over the arc list misses to
    // memory, later laps hit the L2 — every hop still pays a many-cycle
    // dependent-load latency, keeping this by far the lowest-IPC proxy.
    let nodes = 4096usize;
    let next = permutation_cycle(nodes, 0x3CF);
    let mut rng = Rng::new(0x3CF2);
    let mut image = Vec::with_capacity(nodes * 64);
    for nx in next.iter().take(nodes) {
        image.extend_from_slice(&(TAB + nx * 64).to_le_bytes()); // next ptr
                                                                 // Most reduced costs are positive; ~12% are negative candidates.
        let cost = below(&mut rng, 1000) as i64 - 120;
        image.extend_from_slice(&(cost as u64).to_le_bytes()); // cost
        image.extend_from_slice(&below(&mut rng, 100).to_le_bytes()); // flow
        for _ in 0..5 {
            image.extend_from_slice(&0u64.to_le_bytes()); // pad to 64 B
        }
    }
    let mut a = Asm::new("mcf");
    a.data_bytes(TAB, image);
    a.init_reg(r(1), TAB); // current node
    a.li(r(2), units.max(1) as i64);
    a.li(r(3), 0); // total cost
    a.li(r(4), 0); // negative-cost arcs

    a.label("arc");
    a.ldq(r(5), r(1), 8); // cost
    a.ldq(r(6), r(1), 16); // flow
    a.addq(r(3), r(5), r(3));
    a.bge(r(5), "nonneg");
    a.addq_imm(r(4), 1, r(4));
    a.stq(r(6), r(1), 24); // record candidate flow
    a.label("nonneg");
    a.ldq(r(1), r(1), 0); // chase
    a.subq_imm(r(2), 1, r(2));
    a.bne(r(2), "arc");
    a.halt();
    a.assemble()
}

/// `parser`: dictionary lookup via binary search — log-depth loops of
/// hard-to-predict compare branches.
pub fn parser(units: u64) -> Program {
    let dict = 8192u64;
    let mut rng = Rng::new(0x9A45);
    let mut keys: Vec<u64> = (0..dict).map(|_| rng.next_u64() >> 16).collect();
    keys.sort_unstable();
    let mut a = Asm::new("parser");
    a.data_u64(SRC, &keys);
    a.init_reg(r(1), SRC);
    a.li(r(2), units.max(1) as i64);
    a.li(r(3), 0x1234_5678); // lcg
    a.li(r(4), 0); // found counter
    a.li(r(25), dict as i64);

    a.label("lookup");
    // Draw a probe key; half the time take one straight from the
    // dictionary so searches hit.
    a.addq_imm(r(3), 0x9E3779B97F4A7C15u64 as i64, r(3));
    a.op(Opcode::Srl, r(3), 20, r(5));
    a.blbc(r(3), "probe_random");
    a.op(Opcode::And, r(5), (dict - 1) as i64, r(6));
    a.s8addq(r(6), r(1), r(7));
    a.ldq(r(5), r(7), 0);
    a.br("search");
    a.label("probe_random");
    a.op(Opcode::Srl, r(5), 3, r(5)); // random (usually missing) key
    a.label("search");
    a.li(r(8), 0); // lo
    a.mov(r(25), r(9)); // hi
    a.label("bs_loop");
    a.subq(r(9), r(8), r(10));
    a.op(Opcode::Cmpule, r(10), 1, r(11));
    a.bne(r(11), "bs_done");
    a.addq(r(8), r(9), r(12));
    a.op(Opcode::Srl, r(12), 1, r(12)); // mid
    a.s8addq(r(12), r(1), r(13));
    a.ldq(r(14), r(13), 0);
    a.op(Opcode::Cmpule, r(14), r(5), r(15));
    a.beq(r(15), "go_left");
    a.mov(r(12), r(8)); // lo = mid
    a.br("bs_loop");
    a.label("go_left");
    a.mov(r(12), r(9)); // hi = mid
    a.br("bs_loop");
    a.label("bs_done");
    a.s8addq(r(8), r(1), r(13));
    a.ldq(r(14), r(13), 0);
    a.op(Opcode::Cmpeq, r(14), r(5), r(15));
    a.addq(r(4), r(15), r(4));
    a.subq_imm(r(2), 1, r(2));
    a.bne(r(2), "lookup");
    a.halt();
    a.assemble()
}

/// `perlbmk`: the `perl` hashing body with a larger table.
pub fn perlbmk(units: u64) -> Program {
    perl_like("perlbmk", units, 0x9E81, 16384)
}

/// `twolf`: simulated-annealing swap evaluation — random cell pairs,
/// absolute-difference cost via conditional moves, ~50/50 accept branches
/// that defeat the predictor.
pub fn twolf(units: u64) -> Program {
    let cells = 4096u64;
    let mut rng = Rng::new(0x2C01F);
    // Cell: [x, y, cost, pad] quadwords.
    let mut image = Vec::with_capacity((cells * 32) as usize);
    for _ in 0..cells {
        image.extend_from_slice(&below(&mut rng, 1000).to_le_bytes());
        image.extend_from_slice(&below(&mut rng, 1000).to_le_bytes());
        image.extend_from_slice(&below(&mut rng, 2000).to_le_bytes());
        image.extend_from_slice(&0u64.to_le_bytes());
    }
    let mut a = Asm::new("twolf");
    a.data_bytes(TAB, image);
    a.init_reg(r(1), TAB);
    a.li(r(2), units.max(1) as i64);
    a.li(r(3), 0xACE1); // lcg
    a.li(r(4), 0); // accepted swaps

    a.label("swap");
    a.addq_imm(r(3), 0x9E3779B97F4A7C15u64 as i64, r(3));
    a.op(Opcode::Srl, r(3), 16, r(5));
    a.op(Opcode::And, r(5), (cells - 1) as i64, r(5)); // cell a
    a.op(Opcode::Srl, r(3), 40, r(6));
    a.op(Opcode::And, r(6), (cells - 1) as i64, r(6)); // cell b
    a.op(Opcode::Sll, r(5), 5, r(7));
    a.addq(r(1), r(7), r(7));
    a.op(Opcode::Sll, r(6), 5, r(8));
    a.addq(r(1), r(8), r(8));
    a.ldq(r(9), r(7), 0); // xa
    a.ldq(r(10), r(7), 8); // ya
    a.ldq(r(11), r(8), 0); // xb
    a.ldq(r(12), r(8), 8); // yb
                           // |xa-xb| + |ya-yb| via cmov-based abs.
    a.subq(r(9), r(11), r(13));
    a.subq(r(31), r(13), r(14));
    a.op(Opcode::Cmovlt, r(13), r(14), r(13));
    a.subq(r(10), r(12), r(15));
    a.subq(r(31), r(15), r(16));
    a.op(Opcode::Cmovlt, r(15), r(16), r(15));
    a.addq(r(13), r(15), r(17)); // new cost
    a.ldq(r(18), r(7), 16); // old cost
    a.op(Opcode::Cmpult, r(17), r(18), r(19));
    a.beq(r(19), "reject");
    // Accept: swap coordinates and record the cost.
    a.stq(r(11), r(7), 0);
    a.stq(r(9), r(8), 0);
    a.stq(r(17), r(7), 16);
    a.addq_imm(r(4), 1, r(4));
    a.label("reject");
    a.subq_imm(r(2), 1, r(2));
    a.bne(r(2), "swap");
    a.halt();
    a.assemble()
}

/// `vortex` (SPECint2000 sizing): a larger object store than the 95 run.
pub fn vortex2k(units: u64) -> Program {
    vortex_like("vortex2k", units, 16384, 0x0020_0050)
}

/// `vpr`: maze-router cost propagation — a walker that always moves to the
/// cheapest of four neighbouring grid cells (compare + conditional-move
/// min reduction) and relaxes costs as it goes.
pub fn vpr(units: u64) -> Program {
    let dim = 128u64; // 128×128 grid of quadword costs
    let mut rng = Rng::new(0x7492);
    let grid: Vec<u64> = (0..dim * dim)
        .map(|_| below(&mut rng, 10_000) + 1)
        .collect();
    let mut a = Asm::new("vpr");
    a.data_u64(TAB, &grid);
    a.init_reg(r(1), TAB);
    a.init_reg(r(12), 0); // the cmov min chain reads r12 before first write
    a.li(r(2), units.max(1) as i64);
    a.li(r(3), (dim + 1) as i64); // position index (off the border)
    a.li(r(4), 0); // path cost
    a.li(r(20), 0x51CA); // lcg for jitter

    a.label("step");
    a.s8addq(r(3), r(1), r(5)); // &grid[pos]
    a.ldq(r(6), r(5), 8); // east
    a.ldq(r(7), r(5), -8); // west
    a.ldq(r(8), r(5), (dim as i64) * 8); // south
    a.ldq(r(9), r(5), -(dim as i64) * 8); // north
                                          // min4 with compare+cmov; track the displacement of the minimum.
    a.li(r(10), 1); // disp for east
    a.op(Opcode::Cmpult, r(7), r(6), r(11));
    a.op(Opcode::Cmoveq, r(11), r(6), r(12)); // r12 = min(e, w) value
    a.op(Opcode::Cmovne, r(11), r(7), r(12));
    a.li(r(13), -1);
    a.op(Opcode::Cmovne, r(11), r(13), r(10));
    a.op(Opcode::Cmpult, r(8), r(12), r(11));
    a.op(Opcode::Cmovne, r(11), r(8), r(12));
    a.li(r(13), dim as i64);
    a.op(Opcode::Cmovne, r(11), r(13), r(10));
    a.op(Opcode::Cmpult, r(9), r(12), r(11));
    a.op(Opcode::Cmovne, r(11), r(9), r(12));
    a.li(r(13), -(dim as i64));
    a.op(Opcode::Cmovne, r(11), r(13), r(10));
    // Relax the current cell and move.
    a.addq(r(4), r(12), r(4));
    a.addq_imm(r(12), 1, r(14));
    a.stq(r(14), r(5), 0);
    a.addq(r(3), r(10), r(3));
    // Keep the walker inside the grid: if it leaves the safe interior,
    // re-seed the position pseudo-randomly.
    a.op(Opcode::Cmpult, r(3), ((dim * dim) - dim - 1) as i64, r(15));
    a.op(Opcode::Cmpult, r(3), (dim + 1) as i64, r(16)); // below the interior?
    a.op(Opcode::Bic, r(15), r(16), r(15));
    a.bne(r(15), "in_bounds");
    a.addq_imm(r(20), 0x9E3779B97F4A7C15u64 as i64, r(20));
    a.op(Opcode::Srl, r(20), 20, r(3));
    a.op(Opcode::And, r(3), ((dim * dim) / 2 - 1) as i64, r(3));
    a.addq_imm(r(3), (dim + 1) as i64, r(3));
    a.label("in_bounds");
    a.subq_imm(r(2), 1, r(2));
    a.bne(r(2), "step");
    a.halt();
    a.assemble()
}
