//! The memory hierarchy: set-associative caches, a banked L2, and banked
//! main memory with contention (Table 2).

/// The outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line is resident (or in flight): data is available at `ready`
    /// (0 for long-resident lines; the fill-completion cycle for lines
    /// still being filled — the MSHR-merge case).
    Hit {
        /// Cycle the line's data is actually available.
        ready: u64,
    },
    /// The line is absent; it has been allocated and the caller must model
    /// the fill and call [`Cache::set_fill`].
    Miss,
}

/// A set-associative cache with true-LRU replacement. Tags only — data
/// correctness comes from the architectural oracle.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set]` holds up to `ways` `(tag, fill_ready)` pairs,
    /// most-recently-used first.
    tags: Vec<Vec<(u64, u64)>>,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache of `bytes` capacity with `ways` associativity and
    /// `line` bytes per line.
    ///
    /// # Panics
    ///
    /// Panics unless all parameters are powers of two and the geometry is
    /// consistent.
    pub fn new(bytes: usize, ways: usize, line: usize) -> Self {
        assert!(bytes.is_power_of_two() && ways.is_power_of_two() && line.is_power_of_two());
        let sets = bytes / (ways * line);
        assert!(sets >= 1, "cache too small for its geometry");
        Cache {
            sets,
            ways,
            line_shift: line.trailing_zeros(),
            tags: vec![Vec::new(); sets],
            accesses: 0,
            misses: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line as usize) & (self.sets - 1), line)
    }

    /// Accesses `addr`. A hit reports when the line's data is available
    /// (later than now for lines still being filled — requests merge into
    /// the outstanding fill instead of re-fetching). A miss allocates the
    /// line; the caller models the fill and must call
    /// [`set_fill`](Self::set_fill).
    pub fn access(&mut self, addr: u64) -> Lookup {
        self.accesses += 1;
        let (set, tag) = self.set_and_tag(addr);
        let lines = &mut self.tags[set];
        if let Some(pos) = lines.iter().position(|(t, _)| *t == tag) {
            let entry = lines.remove(pos);
            lines.insert(0, entry);
            Lookup::Hit { ready: entry.1 }
        } else {
            self.misses += 1;
            lines.insert(0, (tag, u64::MAX));
            lines.truncate(self.ways);
            Lookup::Miss
        }
    }

    /// Records the fill-completion cycle of a line just allocated by a
    /// missing [`access`](Self::access).
    pub fn set_fill(&mut self, addr: u64, ready: u64) {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(entry) = self.tags[set].iter_mut().find(|(t, _)| *t == tag) {
            entry.1 = ready;
        }
    }

    /// Peeks without updating state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.tags[set].iter().any(|(t, _)| *t == tag)
    }

    /// Accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The line size in bytes.
    pub fn line_bytes(&self) -> usize {
        1 << self.line_shift
    }
}

/// Bank-contention bookkeeping: each bank is busy for a fixed occupancy per
/// access; requests queue on the earliest free slot.
#[derive(Debug, Clone)]
pub struct Banks {
    free_at: Vec<u64>,
    occupancy: u64,
    mask: usize,
    line_shift: u32,
}

impl Banks {
    /// `count` banks (power of two), each busy `occupancy` cycles per
    /// access, selected by line address.
    ///
    /// # Panics
    ///
    /// Panics unless `count` is a power of two.
    pub fn new(count: usize, occupancy: u64, line_shift: u32) -> Self {
        assert!(count.is_power_of_two());
        Banks {
            free_at: vec![0; count],
            occupancy,
            mask: count - 1,
            line_shift,
        }
    }

    /// Schedules an access to `addr` requested at `cycle`; returns the
    /// cycle the bank actually starts serving it.
    pub fn schedule(&mut self, addr: u64, cycle: u64) -> u64 {
        let bank = ((addr >> self.line_shift) as usize) & self.mask;
        let start = cycle.max(self.free_at[bank]);
        self.free_at[bank] = start + self.occupancy;
        start
    }
}

/// The complete hierarchy below the L1s: a shared, banked L2 and banked
/// main memory. L1 instruction and data caches live with their pipelines
/// but miss into this.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    /// L1 data cache (8 KB, 2-way, pipelined 2-cycle per Table 2).
    pub l1d: Cache,
    /// L1 instruction cache (64 KB, 4-way, pipelined 2-cycle).
    pub l1i: Cache,
    l2: Cache,
    l2_latency: u64,
    l2_banks: Banks,
    mem_latency: u64,
    mem_banks: Banks,
    l1d_latency: u64,
    l1i_latency: u64,
    l2_hits: u64,
    l2_misses_counted: u64,
}

/// Where a request was finally served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// L1 hit.
    L1,
    /// L2 hit.
    L2,
    /// Main memory.
    Memory,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from the machine-config tuples.
    pub fn new(
        icache: (usize, usize, usize, u64),
        dcache: (usize, usize, usize, u64),
        l2: (usize, usize, usize, u64, usize, u64),
        memory: (u64, usize, u64),
    ) -> Self {
        let line_shift = (l2.2 as u64).trailing_zeros();
        MemoryHierarchy {
            l1d: Cache::new(dcache.0, dcache.1, dcache.2),
            l1i: Cache::new(icache.0, icache.1, icache.2),
            l2: Cache::new(l2.0, l2.1, l2.2),
            l2_latency: l2.3,
            l2_banks: Banks::new(l2.4, l2.5, line_shift),
            mem_latency: memory.0,
            mem_banks: Banks::new(memory.1, memory.2, line_shift),
            l1d_latency: dcache.3,
            l1i_latency: icache.3,
            l2_hits: 0,
            l2_misses_counted: 0,
        }
    }

    /// A data-side access issued at `cycle`; returns `(data_ready_cycle,
    /// served_by)`. The L1 pipeline cost is included; requests to a line
    /// whose fill is still in flight merge into it.
    pub fn access_data(&mut self, addr: u64, cycle: u64) -> (u64, ServedBy) {
        match self.l1d.access(addr) {
            Lookup::Hit { ready } => ((cycle + self.l1d_latency).max(ready), ServedBy::L1),
            Lookup::Miss => {
                let (done, served) = self.below_l1(addr, cycle + self.l1d_latency);
                self.l1d.set_fill(addr, done);
                (done, served)
            }
        }
    }

    /// An instruction-side access issued at `cycle`; returns the cycle the
    /// line is available (equals `cycle` + pipeline latency on a hit, which
    /// the pipelined front end absorbs) and where it was served from.
    pub fn access_inst(&mut self, addr: u64, cycle: u64) -> (u64, ServedBy) {
        match self.l1i.access(addr) {
            Lookup::Hit { ready } => ((cycle + self.l1i_latency).max(ready), ServedBy::L1),
            Lookup::Miss => {
                let (done, served) = self.below_l1(addr, cycle + self.l1i_latency);
                self.l1i.set_fill(addr, done);
                (done, served)
            }
        }
    }

    /// A store commit touches the L1D (allocate-on-write, no stall modeled:
    /// write buffers absorb it; the line state still changes).
    pub fn commit_store(&mut self, addr: u64, cycle: u64) {
        if let Lookup::Miss = self.l1d.access(addr) {
            // Fill through the hierarchy, paying bank occupancy so stores
            // still create contention, but without stalling retirement.
            let (done, _) = self.below_l1(addr, cycle);
            self.l1d.set_fill(addr, done);
        }
    }

    fn below_l1(&mut self, addr: u64, cycle: u64) -> (u64, ServedBy) {
        let start = self.l2_banks.schedule(addr, cycle);
        match self.l2.access(addr) {
            Lookup::Hit { ready } => {
                self.l2_hits += 1;
                ((start + self.l2_latency).max(ready), ServedBy::L2)
            }
            Lookup::Miss => {
                self.l2_misses_counted += 1;
                let mstart = self.mem_banks.schedule(addr, start + self.l2_latency);
                let done = mstart + self.mem_latency;
                self.l2.set_fill(addr, done);
                (done, ServedBy::Memory)
            }
        }
    }

    /// (L2 hits, L2 misses) so far.
    pub fn l2_counts(&self) -> (u64, u64) {
        (self.l2_hits, self.l2_misses_counted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_hit(l: Lookup) -> bool {
        matches!(l, Lookup::Hit { .. })
    }

    #[test]
    fn lru_within_a_set() {
        let mut c = Cache::new(256, 2, 64); // 2 sets × 2 ways
                                            // Three lines mapping to set 0: 0, 256, 512 (line 0, 4, 8 → set 0).
        assert!(!is_hit(c.access(0)));
        c.set_fill(0, 0);
        assert!(!is_hit(c.access(256)));
        c.set_fill(256, 0);
        assert!(is_hit(c.access(0))); // still resident
        assert!(!is_hit(c.access(512))); // evicts 256 (LRU)
        c.set_fill(512, 0);
        assert!(is_hit(c.access(0)));
        assert!(!is_hit(c.access(256))); // was evicted
        assert_eq!(c.accesses(), 6);
        assert_eq!(c.misses(), 4);
    }

    #[test]
    fn in_flight_lines_merge_into_the_fill() {
        let mut c = Cache::new(256, 2, 64);
        assert_eq!(c.access(0), Lookup::Miss);
        c.set_fill(0, 150);
        // A second access before the fill completes hits, but data only
        // arrives with the fill.
        assert_eq!(c.access(0), Lookup::Hit { ready: 150 });
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = Cache::new(256, 2, 64);
        c.access(0);
        c.set_fill(0, 0);
        let a = c.accesses();
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert_eq!(c.accesses(), a);
    }

    #[test]
    fn banks_serialize_conflicting_accesses() {
        let mut b = Banks::new(2, 4, 6);
        let s1 = b.schedule(0, 10); // bank 0
        let s2 = b.schedule(128, 10); // bank 0 again (line 2, even)
        let s3 = b.schedule(64, 10); // bank 1
        assert_eq!(s1, 10);
        assert_eq!(s2, 14, "second access waits for occupancy");
        assert_eq!(s3, 10, "different bank, no wait");
    }

    #[test]
    fn hierarchy_latencies_stack() {
        let mut h = MemoryHierarchy::new(
            (64 * 1024, 4, 64, 2),
            (8 * 1024, 2, 64, 2),
            (1024 * 1024, 8, 64, 8, 2, 2),
            (100, 32, 4),
        );
        // Cold: L1 miss, L2 miss → memory. 0 + 2 (L1) + 8 (L2) + 100.
        let (t, served) = h.access_data(0x5000, 0);
        assert_eq!(served, ServedBy::Memory);
        assert_eq!(t, 110);
        // Warm L1.
        let (t, served) = h.access_data(0x5000, 200);
        assert_eq!(served, ServedBy::L1);
        assert_eq!(t, 202);
        // A different line in the same L1 set region: L2 now holds it after
        // we touch it twice (first goes to memory, then L1 eviction leaves
        // L2 warm).
        let (_, s1) = h.access_data(0x4_0000, 300);
        assert_eq!(s1, ServedBy::Memory);
    }

    #[test]
    fn l2_hits_after_l1_eviction() {
        let mut h = MemoryHierarchy::new(
            (64 * 1024, 4, 64, 2),
            (8 * 1024, 2, 64, 2),
            (1024 * 1024, 8, 64, 8, 2, 2),
            (100, 32, 4),
        );
        // Fill one L1D set (2 ways) plus one more conflicting line.
        // 8KB 2-way 64B lines → 64 sets → set stride 4096.
        let a = 0x0;
        let b = 0x1000;
        let c = 0x2000;
        h.access_data(a, 0);
        h.access_data(b, 200);
        h.access_data(c, 400); // evicts `a` from L1; L2 still has it
        let (t, served) = h.access_data(a, 600);
        assert_eq!(served, ServedBy::L2);
        assert!(t >= 600 + 2 + 8);
    }

    #[test]
    fn store_commit_warms_the_cache() {
        let mut h = MemoryHierarchy::new(
            (64 * 1024, 4, 64, 2),
            (8 * 1024, 2, 64, 2),
            (1024 * 1024, 8, 64, 8, 2, 2),
            (100, 32, 4),
        );
        h.commit_store(0x9000, 0);
        let (_, served) = h.access_data(0x9000, 10);
        assert_eq!(served, ServedBy::L1);
    }
}
