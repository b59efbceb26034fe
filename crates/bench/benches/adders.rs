//! Microbenchmarks for the arithmetic substrate: software redundant binary
//! addition vs native 2's complement, conversions, SAM decoding, and
//! gate-level netlist evaluation.
//!
//! Uses the in-repo `redbin-testkit` timer (the workspace builds offline,
//! so there is no criterion). Run with `cargo bench -p redbin-bench`.

use redbin::arith::ops;
use redbin::arith::radix4::R4Number;
use redbin::arith::sam::{ModifiedSamDecoder, SamDecoder};
use redbin::arith::{RbAdder, RbNumber};
use redbin::gates::adders;
use redbin_testkit::bench::{bb, Bench};

fn bench_adders(h: &Bench) {
    let adder = RbAdder::new();
    let a = RbNumber::from_i64(0x0123_4567_89ab_cdef);
    let b = RbNumber::from_i64(-0x0fed_cba9_8765_4321);

    h.run("rb_add_single", || adder.add(bb(a), bb(b)));

    h.run("native_add_single", || {
        bb(0x0123_4567_89ab_cdefi64).wrapping_add(bb(-0x0fed_cba9_8765_4321))
    });

    h.run("rb_add_chain_64", || {
        let mut acc = RbNumber::ZERO;
        for i in 0..64i64 {
            acc = adder.add(acc, RbNumber::from_i64(bb(i * 977))).sum;
        }
        acc
    });

    let chained = adder.add(a, b).sum;
    h.run("rb_to_tc_conversion", || bb(chained).to_i64());

    h.run("rb_shift_left", || ops::shl_digits(bb(a), bb(13)));

    let r4a = R4Number::from_i64(0x0123_4567_89ab_cdef);
    let r4b = R4Number::from_i64(-0x0fed_cba9_8765_4321);
    h.run("radix4_add_single", || bb(r4a).add(bb(r4b)));
}

fn bench_sam(h: &Bench) {
    let dec = SamDecoder::new(6, 12);
    h.run("sam_decode_row", || dec.decode(bb(0xdead_b000), bb(0x40)));
    let mdec = ModifiedSamDecoder::new(6, 12);
    let adder = RbAdder::new();
    let base = adder
        .add(RbNumber::from_i64(0x1000_0000), RbNumber::from_i64(0xcafe))
        .sum;
    h.run("modified_sam_decode_row", || {
        mdec.decode(bb(base), bb(0x40))
    });
}

fn bench_gate_netlists(h: &Bench) {
    let rb = adders::rb_adder(64);
    let cla = adders::carry_lookahead(64);
    let a = RbNumber::from_i64(123456789);
    let b = RbNumber::from_i64(-987654321);
    h.run("netlist_rb_adder_eval", || rb.add(bb(a), bb(b)));
    h.run("netlist_cla_eval", || cla.add(bb(123456789), bb(987654321)));
}

fn main() {
    let h = Bench::quick();
    bench_adders(&h);
    bench_sam(&h);
    bench_gate_netlists(&h);
}
