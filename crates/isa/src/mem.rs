//! A sparse, paged byte-addressable memory.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// A multiplicative hasher for page numbers. Page maps are hit on every
/// emulated load and store, and the keys are already well-distributed
/// integers — SipHash (the `HashMap` default, DoS-resistant) is wasted
/// effort there and showed up in simulator profiles.
#[derive(Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u64 page keys).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        // Fibonacci hashing: one multiply spreads the low page bits
        // across the high bits the map's mask actually uses.
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // HashMap uses the top bits for bucket selection after masking;
        // rotate so sequential pages land in distinct buckets.
        self.0.rotate_left(31)
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>;

/// A sparse 64-bit byte-addressable memory.
///
/// Pages are allocated on first touch and zero-filled, so programs can use
/// any address range without setup. All multi-byte accesses are
/// little-endian and may be unaligned.
///
/// # Example
///
/// ```
/// use redbin_isa::Memory;
///
/// let mut m = Memory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x9_0000_0000), 0, "untouched memory reads zero");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: PageMap,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// The in-page byte range of an access, if it does not straddle a
    /// page boundary — the fast path that costs one map lookup instead of
    /// one per byte.
    #[inline]
    fn in_page(addr: u64, len: usize) -> Option<(u64, usize)> {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        (off + len <= PAGE_SIZE).then_some((addr >> PAGE_SHIFT, off))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = v;
    }

    /// Reads a little-endian u32 (unaligned allowed).
    pub fn read_u32(&self, addr: u64) -> u32 {
        if let Some((page, off)) = Self::in_page(addr, 4) {
            return match self.pages.get(&page) {
                Some(p) => {
                    let mut b = [0u8; 4];
                    b.copy_from_slice(&p[off..off + 4]);
                    u32::from_le_bytes(b)
                }
                None => 0,
            };
        }
        let mut b = [0u8; 4];
        for (i, byte) in b.iter_mut().enumerate() {
            *byte = self.read_u8(addr.wrapping_add(i as u64));
        }
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian u32 (unaligned allowed).
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        if let Some((_, off)) = Self::in_page(addr, 4) {
            self.page_mut(addr)[off..off + 4].copy_from_slice(&v.to_le_bytes());
            return;
        }
        for (i, byte) in v.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *byte);
        }
    }

    /// Reads a little-endian u64 (unaligned allowed).
    pub fn read_u64(&self, addr: u64) -> u64 {
        if let Some((page, off)) = Self::in_page(addr, 8) {
            return match self.pages.get(&page) {
                Some(p) => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&p[off..off + 8]);
                    u64::from_le_bytes(b)
                }
                None => 0,
            };
        }
        let mut b = [0u8; 8];
        for (i, byte) in b.iter_mut().enumerate() {
            *byte = self.read_u8(addr.wrapping_add(i as u64));
        }
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64 (unaligned allowed).
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        if let Some((_, off)) = Self::in_page(addr, 8) {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&v.to_le_bytes());
            return;
        }
        for (i, byte) in v.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *byte);
        }
    }

    /// Copies a byte slice into memory starting at `addr`, one in-page
    /// chunk (one map probe) at a time. Like [`write_u8`](Self::write_u8),
    /// a write running past `u64::MAX` wraps around to address 0.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let (chunk, rest) = bytes.split_at(bytes.len().min(PAGE_SIZE - off));
            self.page_mut(addr)[off..off + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            bytes = rest;
        }
    }

    /// The number of pages currently allocated (a footprint diagnostic).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// A deterministic FNV-1a fingerprint of the memory contents.
    ///
    /// Pages are folded in ascending page-number order and all-zero pages
    /// are skipped, so the digest depends only on the bytes a program could
    /// observe: writing zeros to untouched memory, or touching a page
    /// without modifying it, leaves the digest unchanged. Used by the
    /// differential test oracle to compare final memory images without
    /// materializing them.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        let mut h = OFFSET;
        let fold = |h: &mut u64, byte: u8| {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(PRIME);
        };
        for page in keys {
            let Some(bytes) = self.pages.get(&page) else {
                continue;
            };
            if bytes.iter().all(|&b| b == 0) {
                continue;
            }
            for b in page.to_le_bytes() {
                fold(&mut h, b);
            }
            for &b in bytes.iter() {
                fold(&mut h, b);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
    }

    #[test]
    fn round_trips() {
        let mut m = Memory::new();
        m.write_u64(8, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(8), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u32(8), 0x89ab_cdef);
        assert_eq!(m.read_u8(8), 0xef);
        m.write_u32(100, 0xcafe_f00d);
        assert_eq!(m.read_u32(100), 0xcafe_f00d);
    }

    #[test]
    fn unaligned_and_page_crossing() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 3; // straddles a page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert!(m.resident_pages() >= 2);
    }

    #[test]
    fn write_bytes_bulk() {
        let mut m = Memory::new();
        m.write_bytes(0x2000, b"hello");
        assert_eq!(m.read_u8(0x2004), b'o');
    }

    /// The byte-at-a-time reference `write_bytes` must agree with.
    fn write_bytes_reference(m: &mut Memory, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            m.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    #[test]
    fn write_bytes_matches_the_byte_at_a_time_reference() {
        let page = PAGE_SIZE as u64;
        redbin_testkit::cases(200, 0x9A6E_C0B1, |rng| {
            // Starts near page boundaries, mid-page, and near the top of
            // the address space (so some writes wrap past u64::MAX).
            let start = match rng.range_u64(0, 3) {
                0 => rng.range_u64(1, 4) * page - rng.range_u64(0, 16),
                1 => rng.range_u64(0, 1 << 20),
                _ => u64::MAX - rng.range_u64(0, 3 * page),
            };
            let len = match rng.range_u64(0, 2) {
                0 => rng.range_usize(0, 16),
                _ => rng.range_usize(0, 3 * PAGE_SIZE),
            };
            let bytes = rng.vec(len, |r| r.next_u32() as u8);
            let (mut fast, mut slow) = (Memory::new(), Memory::new());
            // Pre-existing contents must survive around the written range.
            for m in [&mut fast, &mut slow] {
                m.write_u64(start.wrapping_sub(4), 0x0102_0304_0506_0708);
                m.write_u64(start.wrapping_add(len as u64), 0x1112_1314_1516_1718);
            }
            fast.write_bytes(start, &bytes);
            write_bytes_reference(&mut slow, start, &bytes);
            assert_eq!(fast.digest(), slow.digest(), "start {start:#x} len {len}");
            assert_eq!(fast.resident_pages(), slow.resident_pages());
            for (i, b) in bytes.iter().enumerate() {
                assert_eq!(fast.read_u8(start.wrapping_add(i as u64)), *b);
            }
        });
    }

    #[test]
    fn write_bytes_edge_cases() {
        let mut m = Memory::new();
        m.write_bytes(0x3000, &[]);
        assert_eq!(m.resident_pages(), 0, "an empty write touches nothing");
        // Straddles a page boundary.
        m.write_bytes(0x3ffe, &[1, 2, 3, 4]);
        assert_eq!(m.read_u32(0x3ffe), 0x0403_0201);
        assert_eq!(m.resident_pages(), 2);
        // Wraps past the top of the address space into page 0.
        let mut w = Memory::new();
        w.write_bytes(u64::MAX - 1, &[0xaa, 0xbb, 0xcc, 0xdd]);
        assert_eq!(w.read_u8(u64::MAX - 1), 0xaa);
        assert_eq!(w.read_u8(u64::MAX), 0xbb);
        assert_eq!(w.read_u8(0), 0xcc);
        assert_eq!(w.read_u8(1), 0xdd);
    }

    #[test]
    fn digest_ignores_zero_pages_and_touch_order() {
        let empty = Memory::new().digest();
        let mut touched = Memory::new();
        touched.write_u64(0x5000, 0); // allocates a page, stays all-zero
        assert_eq!(touched.digest(), empty, "zero writes are unobservable");

        let mut a = Memory::new();
        a.write_u64(0x1000, 7);
        a.write_u64(0x9000, 9);
        let mut b = Memory::new();
        b.write_u64(0x9000, 9);
        b.write_u64(0x1000, 7);
        assert_eq!(a.digest(), b.digest(), "digest is order-independent");
        assert_ne!(a.digest(), empty);

        b.write_u8(0x1003, 1);
        assert_ne!(a.digest(), b.digest(), "one byte flips the digest");
    }
}
