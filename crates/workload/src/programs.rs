//! The whole-program suite: real algorithms written in assembly text.
//!
//! Where the [`suite`](crate::suite) benchmarks are statistical proxies
//! (instruction mixes tuned to match SPEC profiles), these are complete
//! programs with genuine data-dependent behavior: recursion, stencils,
//! strided marking loops, and a byte-oriented format decoder. Each is an
//! `.s` file under `crates/workload/programs/`, assembled by
//! [`text`], and paired with a Rust reference implementation
//! that predicts the program's final checksum (left in `r9` — see
//! [`CHECKSUM_REG`]) bit-for-bit. The differential test harness runs the
//! emulator, the redundant-datapath check and the simulator over every
//! program and compares the architectural results against these references.
//!
//! All randomness comes from the shared MMIX LCG in `programs/fill.s`,
//! mirrored exactly by `lcg`-based reference code here, so assembly and
//! Rust agree without any communication beyond the initial register image.

use redbin_isa::Program;

use crate::suite::Scale;
use crate::text;

/// The register each suite program leaves its final checksum in.
pub const CHECKSUM_REG: u8 = 9;

/// Knuth's MMIX LCG multiplier (see `programs/fill.s`).
const LCG_MUL: u64 = 6364136223846793005;
/// Knuth's MMIX LCG increment.
const LCG_INC: u64 = 1442695040888963407;
/// The FNV-1a 64-bit prime every checksum folds with.
const FNV_PRIME: u64 = 0x100000001b3;

/// Advances the LCG state and returns the 31-bit value `lcg_next` yields.
fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_INC);
    *x >> 33
}

/// One FNV-style fold step: `h = (h ^ v) * prime`.
fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Resolves the `.include` directives the suite programs use.
fn lib_source(path: &str) -> Result<String, String> {
    match path {
        "fill.s" => Ok(include_str!("../programs/fill.s").to_string()),
        other => Err(format!("unknown library file `{other}`")),
    }
}

/// A whole program in the assembly-text suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WholeProgram {
    /// Recursive quicksort over random quadwords (call/return chains).
    Quicksort,
    /// Dense n×n integer matrix multiply (multiply-accumulate streams).
    Matmul,
    /// 3×3 box blur over a byte image (9-load stencil).
    BoxBlur,
    /// Sieve of Eratosthenes (strided stores, long scan loops).
    Sieve,
    /// QOI-style image decoder (branchy byte parsing, table lookups).
    QoiDecode,
}

impl WholeProgram {
    /// Every suite program, in canonical order.
    pub fn all() -> &'static [WholeProgram] {
        use WholeProgram::*;
        &[Quicksort, Matmul, BoxBlur, Sieve, QoiDecode]
    }

    /// The program's short name (also its source file stem).
    pub fn name(self) -> &'static str {
        match self {
            WholeProgram::Quicksort => "quicksort",
            WholeProgram::Matmul => "matmul",
            WholeProgram::BoxBlur => "box_blur",
            WholeProgram::Sieve => "sieve",
            WholeProgram::QoiDecode => "qoi_decode",
        }
    }

    /// Looks a program up by [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<WholeProgram> {
        WholeProgram::all()
            .iter()
            .copied()
            .find(|p| p.name() == name)
    }

    /// The assembly source text.
    pub fn source(self) -> &'static str {
        match self {
            WholeProgram::Quicksort => include_str!("../programs/quicksort.s"),
            WholeProgram::Matmul => include_str!("../programs/matmul.s"),
            WholeProgram::BoxBlur => include_str!("../programs/box_blur.s"),
            WholeProgram::Sieve => include_str!("../programs/sieve.s"),
            WholeProgram::QoiDecode => include_str!("../programs/qoi_decode.s"),
        }
    }

    /// The problem size at each scale (the `.s` defaults are `Test`).
    fn size(self, scale: Scale) -> (u64, u64) {
        match (self, scale) {
            (WholeProgram::Quicksort, Scale::Test) => (96, 0),
            (WholeProgram::Quicksort, Scale::Small) => (768, 0),
            (WholeProgram::Quicksort, Scale::Full) => (4000, 0),
            (WholeProgram::Matmul, Scale::Test) => (10, 0),
            (WholeProgram::Matmul, Scale::Small) => (20, 0),
            (WholeProgram::Matmul, Scale::Full) => (40, 0),
            (WholeProgram::BoxBlur, Scale::Test) => (24, 16),
            (WholeProgram::BoxBlur, Scale::Small) => (48, 32),
            (WholeProgram::BoxBlur, Scale::Full) => (120, 80),
            (WholeProgram::Sieve, Scale::Test) => (2000, 0),
            (WholeProgram::Sieve, Scale::Small) => (16000, 0),
            (WholeProgram::Sieve, Scale::Full) => (100_000, 0),
            (WholeProgram::QoiDecode, Scale::Test) => (24, 8),
            (WholeProgram::QoiDecode, Scale::Small) => (32, 24),
            (WholeProgram::QoiDecode, Scale::Full) => (64, 48),
        }
    }

    /// Assembles the program at `scale`, overriding the source defaults
    /// with the scale's problem size (later `init_regs` entries win).
    ///
    /// # Panics
    ///
    /// If a shipped `.s` file fails to assemble — a build defect, caught
    /// by this module's tests.
    pub fn program(self, scale: Scale) -> Program {
        self.program_with_listing(scale).0
    }

    /// Like [`program`](Self::program), but also returns the assembler
    /// [`Listing`](text::Listing) mapping each instruction back to its
    /// source position (used by the `redbin-analyze programs` lints).
    ///
    /// # Panics
    ///
    /// As [`program`](Self::program).
    pub fn program_with_listing(self, scale: Scale) -> (Program, text::Listing) {
        // The `.s` sources are compiled into the binary; a file that no
        // longer assembles is a build defect this module's tests catch,
        // not a runtime condition (server-supplied text goes through the
        // fallible `text::parse` instead).
        #[allow(clippy::panic)]
        let (prog, listing) = text::parse_with_listing(self.source(), &lib_source)
            .unwrap_or_else(|e| panic!("{}.s does not assemble: {e}", self.name()));
        let (a, b) = self.size(scale);
        let mut prog = prog.with_name(format!("{}-{}", self.name(), scale.name()));
        match self {
            WholeProgram::BoxBlur => {
                prog = prog.with_reg(16, a).with_reg(17, b);
            }
            WholeProgram::QoiDecode => {
                let npix = (a * b) as usize;
                let stream = qoi_encode(&qoi_image(npix));
                prog = prog.with_reg(16, npix as u64).with_data(0x20000, stream);
            }
            _ => {
                prog = prog.with_reg(16, a);
            }
        }
        (prog, listing)
    }

    /// The checksum the program must leave in `r9`, computed by a Rust
    /// reference implementation of the same algorithm over the same
    /// LCG-generated input.
    pub fn expected_checksum(self, scale: Scale) -> u64 {
        let (a, b) = self.size(scale);
        match self {
            WholeProgram::Quicksort => ref_quicksort(a as usize),
            WholeProgram::Matmul => ref_matmul(a as usize),
            WholeProgram::BoxBlur => ref_box_blur(a as usize, b as usize),
            WholeProgram::Sieve => ref_sieve(a as usize),
            WholeProgram::QoiDecode => ref_qoi(a as usize * b as usize),
        }
    }
}

// ---- reference implementations --------------------------------------------
// Each mirrors its .s file operation for operation; any drift shows up as
// a checksum mismatch in the differential tests.

fn ref_quicksort(n: usize) -> u64 {
    let mut x = 0x12345u64;
    let mut a: Vec<u64> = (0..n).map(|_| lcg(&mut x)).collect();
    a.sort_unstable();
    let mut h = 0u64;
    for (i, &v) in a.iter().enumerate() {
        h = fold(h, v.wrapping_mul(i as u64 + 1));
        // The assembly adds 1 per inversion; a sorted array has none.
    }
    h
}

fn ref_matmul(n: usize) -> u64 {
    let mut x = 0xBEEFu64;
    let a: Vec<u64> = (0..n * n).map(|_| lcg(&mut x) >> 16).collect();
    let b: Vec<u64> = (0..n * n).map(|_| lcg(&mut x) >> 16).collect();
    let mut h = 0u64;
    let mut c = vec![0u64; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0u64;
            for k in 0..n {
                acc = acc.wrapping_add(a[i * n + k].wrapping_mul(b[k * n + j]));
            }
            c[i * n + j] = acc;
        }
    }
    for (i, &v) in c.iter().enumerate() {
        h = fold(h, v).wrapping_add(i as u64);
    }
    h
}

fn ref_box_blur(w: usize, h: usize) -> u64 {
    let mut x = 0x5EEDu64;
    let src: Vec<u8> = (0..w * h).map(|_| (lcg(&mut x) & 0xff) as u8).collect();
    let mut dst = src.clone();
    for y in 1..h - 1 {
        for xx in 1..w - 1 {
            let idx = y * w + xx;
            let mut sum = 0u64;
            for dy in [-1i64, 0, 1] {
                for dx in [-1i64, 0, 1] {
                    let at = (idx as i64 + dy * w as i64 + dx) as usize;
                    sum += u64::from(src[at]);
                }
            }
            // The ISA has no divide; both sides use (sum * 7282) >> 16.
            dst[idx] = ((sum * 7282) >> 16) as u8;
        }
    }
    let mut hash = 0u64;
    for &bb in &dst {
        hash = fold(hash, u64::from(bb));
    }
    hash
}

fn ref_sieve(n: usize) -> u64 {
    let mut composite = vec![false; n.max(2)];
    let mut p = 2usize;
    while p * p < n {
        if !composite[p] {
            let mut m = p * p;
            while m < n {
                composite[m] = true;
                m += p;
            }
        }
        p += 1;
    }
    let mut sum = 0u64;
    let mut count = 0u64;
    for (v, &is_composite) in composite.iter().enumerate().skip(2) {
        if !is_composite {
            sum = sum.wrapping_add(v as u64);
            count += 1;
        }
    }
    sum ^ (count << 48)
}

fn ref_qoi(npix: usize) -> u64 {
    // The decoder must reproduce the original image exactly, so the
    // expected checksum is the fold over the image itself.
    let mut h = 0u64;
    for px in qoi_image(npix) {
        for b in px {
            h = fold(h, u64::from(b));
        }
    }
    h
}

// ---- QOI-style encoder ------------------------------------------------------

/// The QOI index hash: `(3r + 5g + 7b + 11a) mod 64`.
fn qoi_hash(p: [u8; 4]) -> usize {
    (p[0] as usize * 3 + p[1] as usize * 5 + p[2] as usize * 7 + p[3] as usize * 11) % 64
}

/// Generates the input image: a pixel walk biased so every chunk kind
/// (RUN, INDEX, DIFF, LUMA, RGB, RGBA) appears in the encoded stream.
fn qoi_image(npix: usize) -> Vec<[u8; 4]> {
    let mut x = 0x901Du64;
    let mut px = [0u8, 0, 0, 255];
    let mut out = Vec::with_capacity(npix);
    for _ in 0..npix {
        let v = lcg(&mut x);
        match v % 10 {
            0..=2 => {} // repeat the previous pixel: encodes as a RUN
            3..=5 => {
                // Tiny per-channel wiggle: encodes as DIFF.
                px[0] = px[0].wrapping_add(((v >> 8) % 4) as u8).wrapping_sub(2);
                px[1] = px[1].wrapping_add(((v >> 10) % 4) as u8).wrapping_sub(2);
                px[2] = px[2].wrapping_add(((v >> 12) % 4) as u8).wrapping_sub(2);
            }
            6..=7 => {
                // Green-led drift: encodes as LUMA.
                let dg = ((v >> 8) % 64) as u8;
                px[1] = px[1].wrapping_add(dg).wrapping_sub(32);
                px[0] = px[0]
                    .wrapping_add(dg)
                    .wrapping_sub(32)
                    .wrapping_add(((v >> 14) % 16) as u8)
                    .wrapping_sub(8);
                px[2] = px[2]
                    .wrapping_add(dg)
                    .wrapping_sub(32)
                    .wrapping_add(((v >> 18) % 16) as u8)
                    .wrapping_sub(8);
            }
            8 => {
                // Quantized color jump: RGB chunks, with INDEX hits on
                // revisits (only 512 distinct colors).
                px[0] = (v >> 8) as u8 & 0xe0;
                px[1] = (v >> 16) as u8 & 0xe0;
                px[2] = (v >> 24) as u8 & 0xe0;
            }
            _ => {
                // Alpha change: forces an RGBA chunk.
                px[3] = (v >> 8) as u8 | 1;
            }
        }
        out.push(px);
    }
    out
}

/// Encodes pixels with the QOI chunk repertoire (no header/trailer; the
/// decoder is told the pixel count in a register).
fn qoi_encode(pixels: &[[u8; 4]]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut index = [[0u8; 4]; 64];
    let mut prev = [0u8, 0, 0, 255];
    let mut run = 0u8;
    for &px in pixels {
        if px == prev {
            run += 1;
            if run == 62 {
                out.push(0xc0 | (run - 1));
                run = 0;
            }
            continue;
        }
        if run > 0 {
            out.push(0xc0 | (run - 1));
            run = 0;
        }
        let h = qoi_hash(px);
        if index[h] == px {
            out.push(h as u8); // INDEX: tag 0b00
        } else {
            index[h] = px;
            if px[3] == prev[3] {
                let dr = px[0].wrapping_sub(prev[0]) as i8;
                let dg = px[1].wrapping_sub(prev[1]) as i8;
                let db = px[2].wrapping_sub(prev[2]) as i8;
                let dr_dg = dr.wrapping_sub(dg);
                let db_dg = db.wrapping_sub(dg);
                let small = |d: i8| (-2..=1).contains(&d);
                if small(dr) && small(dg) && small(db) {
                    out.push(
                        0x40 | (((dr + 2) as u8) << 4) | (((dg + 2) as u8) << 2) | (db + 2) as u8,
                    );
                } else if (-32..=31).contains(&dg)
                    && (-8..=7).contains(&dr_dg)
                    && (-8..=7).contains(&db_dg)
                {
                    out.push(0x80 | (dg + 32) as u8);
                    out.push((((dr_dg + 8) as u8) << 4) | (db_dg + 8) as u8);
                } else {
                    out.push(0xfe);
                    out.extend_from_slice(&px[..3]);
                }
            } else {
                out.push(0xff);
                out.extend_from_slice(&px);
            }
        }
        prev = px;
    }
    if run > 0 {
        out.push(0xc0 | (run - 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use redbin_isa::{Emulator, Reg};

    fn run_checksum(p: &Program) -> u64 {
        let mut e = Emulator::new(p);
        e.run(200_000_000).expect("program halts");
        e.reg(Reg(CHECKSUM_REG))
    }

    #[test]
    fn every_program_matches_its_reference_at_test_scale() {
        for &wp in WholeProgram::all() {
            let got = run_checksum(&wp.program(Scale::Test));
            let want = wp.expected_checksum(Scale::Test);
            assert_eq!(got, want, "{} checksum mismatch", wp.name());
            assert_ne!(want, 0, "{} checksum is degenerate", wp.name());
        }
    }

    #[test]
    fn every_program_matches_its_reference_at_all_scales() {
        for &wp in WholeProgram::all() {
            for scale in [Scale::Small, Scale::Full] {
                let got = run_checksum(&wp.program(scale));
                assert_eq!(
                    got,
                    wp.expected_checksum(scale),
                    "{} checksum mismatch at {scale:?}",
                    wp.name()
                );
            }
        }
    }

    #[test]
    fn scales_produce_distinct_work() {
        for &wp in WholeProgram::all() {
            let t = wp.expected_checksum(Scale::Test);
            let s = wp.expected_checksum(Scale::Small);
            let f = wp.expected_checksum(Scale::Full);
            assert!(t != s && s != f, "{} scales degenerate", wp.name());
        }
    }

    #[test]
    fn qoi_stream_exercises_every_chunk_kind() {
        let (w, h) = WholeProgram::QoiDecode.size(Scale::Test);
        let stream = qoi_encode(&qoi_image((w * h) as usize));
        let mut tags = [false; 6]; // index, diff, luma, run, rgb, rgba
        let mut i = 0;
        while i < stream.len() {
            let b = stream[i];
            let (tag, skip) = match b {
                0xfe => (4, 3),
                0xff => (5, 4),
                _ => match b >> 6 {
                    0 => (0, 0),
                    1 => (1, 0),
                    2 => (2, 1),
                    _ => (3, 0),
                },
            };
            tags[tag] = true;
            i += 1 + skip;
        }
        assert_eq!(tags, [true; 6], "stream missing a chunk kind: {tags:?}");
    }

    #[test]
    fn names_round_trip() {
        for &wp in WholeProgram::all() {
            assert_eq!(WholeProgram::from_name(wp.name()), Some(wp));
        }
        assert_eq!(WholeProgram::from_name("nope"), None);
    }
}
