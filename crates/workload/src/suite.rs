//! The benchmark suites: twenty proxies for SPECint95 and SPECint2000.

use core::fmt;

use redbin_isa::Program;

use crate::kernels::{spec2000, spec95};

/// Which SPEC generation a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// The eight SPECint95 proxies.
    Spec95,
    /// The twelve SPECint2000 proxies.
    Spec2000,
}

impl Suite {
    /// The benchmarks in this suite, in reporting order.
    pub fn benchmarks(self) -> &'static [Benchmark] {
        use Benchmark::*;
        match self {
            Suite::Spec95 => &[Compress95, Gcc95, Go, Ijpeg, Li, M88ksim, Perl, Vortex95],
            Suite::Spec2000 => &[
                Bzip2, Crafty, Eon, Gap, Gcc00, Gzip, Mcf, Parser, Perlbmk, Twolf, Vortex2k, Vpr,
            ],
        }
    }

    /// The display name the figures use.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Spec95 => "SPECint95",
            Suite::Spec2000 => "SPECint2000",
        }
    }

    /// Both suites.
    pub fn all() -> &'static [Suite] {
        &[Suite::Spec95, Suite::Spec2000]
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How much work a benchmark instance does.
///
/// The paper runs SPEC to completion with reduced inputs; these scales are
/// the analogous knob. `Full` is what the figure-reproduction binaries use;
/// `Test` keeps unit tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scale {
    /// A few thousand dynamic instructions — for unit tests.
    Test,
    /// Tens of thousands — for integration tests and quick looks.
    Small,
    /// A few hundred thousand — the experiment size.
    Full,
}

impl Scale {
    /// The lowercase name used on the command line, on the wire and in
    /// JSON documents: `test`, `small` or `full`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    /// Parses a [`Scale::name`].
    ///
    /// # Errors
    ///
    /// Names the accepted values on anything else (names are
    /// case-sensitive).
    pub fn from_name(name: &str) -> Result<Scale, String> {
        [Scale::Test, Scale::Small, Scale::Full]
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| format!("unknown scale `{name}` (expected test|small|full)"))
    }

    /// The canonical one-byte tag folded into configuration hashes.
    pub fn canonical_tag(self) -> u8 {
        match self {
            Scale::Test => 0,
            Scale::Small => 1,
            Scale::Full => 2,
        }
    }

    fn factor(self) -> u64 {
        match self {
            Scale::Test => 1,
            Scale::Small => 8,
            Scale::Full => 50,
        }
    }
}

/// One of the twenty benchmark proxies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // names mirror the SPEC benchmarks
pub enum Benchmark {
    // SPECint95
    Compress95,
    Gcc95,
    Go,
    Ijpeg,
    Li,
    M88ksim,
    Perl,
    Vortex95,
    // SPECint2000
    Bzip2,
    Crafty,
    Eon,
    Gap,
    Gcc00,
    Gzip,
    Mcf,
    Parser,
    Perlbmk,
    Twolf,
    Vortex2k,
    Vpr,
}

impl Benchmark {
    /// The suite the benchmark belongs to.
    pub fn suite(self) -> Suite {
        use Benchmark::*;
        match self {
            Compress95 | Gcc95 | Go | Ijpeg | Li | M88ksim | Perl | Vortex95 => Suite::Spec95,
            _ => Suite::Spec2000,
        }
    }

    /// The short name used on figure axes.
    pub fn name(self) -> &'static str {
        use Benchmark::*;
        match self {
            Compress95 => "compress",
            Gcc95 => "gcc",
            Go => "go",
            Ijpeg => "ijpeg",
            Li => "li",
            M88ksim => "m88ksim",
            Perl => "perl",
            Vortex95 => "vortex",
            Bzip2 => "bzip2",
            Crafty => "crafty",
            Eon => "eon",
            Gap => "gap",
            Gcc00 => "gcc",
            Gzip => "gzip",
            Mcf => "mcf",
            Parser => "parser",
            Perlbmk => "perlbmk",
            Twolf => "twolf",
            Vortex2k => "vortex",
            Vpr => "vpr",
        }
    }

    /// All twenty benchmarks, SPECint95 first.
    pub fn all() -> Vec<Benchmark> {
        let mut v = Suite::Spec95.benchmarks().to_vec();
        v.extend_from_slice(Suite::Spec2000.benchmarks());
        v
    }

    /// Base unit budget at `Scale::Test`, tuned per kernel so every
    /// benchmark retires a few thousand dynamic instructions per factor.
    fn base_units(self) -> u64 {
        use Benchmark::*;
        match self {
            // ~instructions-per-unit varies by kernel; these bases level
            // the dynamic length to roughly 5–8k at Test scale.
            Compress95 => 500,
            Gcc95 => 450,
            Go => 550,
            Ijpeg => 130,
            Li => 25,
            M88ksim => 200,
            Perl => 130,
            Vortex95 => 300,
            Bzip2 => 6000,
            Crafty => 280,
            Eon => 280,
            Gap => 75,
            Gcc00 => 450,
            Gzip => 420,
            Mcf => 900,
            Parser => 60,
            Perlbmk => 130,
            Twolf => 250,
            Vortex2k => 300,
            Vpr => 180,
        }
    }

    /// Builds the benchmark program at the given scale.
    pub fn program(self, scale: Scale) -> Program {
        use Benchmark::*;
        let units = self.base_units() * scale.factor();
        match self {
            Compress95 => spec95::compress(units),
            Gcc95 => spec95::gcc95(units),
            Go => spec95::go(units),
            Ijpeg => spec95::ijpeg(units),
            Li => spec95::li(units),
            M88ksim => spec95::m88ksim(units),
            Perl => spec95::perl(units),
            Vortex95 => spec95::vortex(units),
            Bzip2 => spec2000::bzip2(units),
            Crafty => spec2000::crafty(units),
            Eon => spec2000::eon(units),
            Gap => spec2000::gap(units),
            Gcc00 => spec2000::gcc00(units),
            Gzip => spec2000::gzip(units),
            Mcf => spec2000::mcf(units),
            Parser => spec2000::parser(units),
            Perlbmk => spec2000::perlbmk(units),
            Twolf => spec2000::twolf(units),
            Vortex2k => spec2000::vortex2k(units),
            Vpr => spec2000::vpr(units),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redbin_isa::Emulator;

    #[test]
    fn suites_have_paper_counts() {
        assert_eq!(Suite::Spec95.benchmarks().len(), 8);
        assert_eq!(Suite::Spec2000.benchmarks().len(), 12);
        assert_eq!(Benchmark::all().len(), 20);
    }

    #[test]
    fn every_benchmark_halts_at_test_scale() {
        for b in Benchmark::all() {
            let prog = b.program(Scale::Test);
            let mut emu = Emulator::new(&prog);
            let retired = emu
                .run(20_000_000)
                .unwrap_or_else(|e| panic!("{b:?} failed: {e}"));
            assert!(retired > 1_000, "{b:?} retired only {retired} instructions");
        }
    }

    #[test]
    fn scales_are_monotonic() {
        let small = {
            let mut e = Emulator::new(&Benchmark::Go.program(Scale::Test));
            e.run(50_000_000).unwrap()
        };
        let full = {
            let mut e = Emulator::new(&Benchmark::Go.program(Scale::Full));
            e.run(50_000_000).unwrap()
        };
        assert!(full > 10 * small);
    }

    #[test]
    fn scale_names_round_trip() {
        for s in [Scale::Test, Scale::Small, Scale::Full] {
            assert_eq!(Scale::from_name(s.name()), Ok(s));
        }
        assert_eq!(
            Scale::from_name("FULL"),
            Err("unknown scale `FULL` (expected test|small|full)".to_string())
        );
    }

    #[test]
    fn benchmarks_belong_to_their_suite() {
        for s in Suite::all() {
            for b in s.benchmarks() {
                assert_eq!(b.suite(), *s);
            }
        }
    }
}
