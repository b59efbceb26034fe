//! The store queue: conservative memory disambiguation with
//! store-to-load forwarding.
//!
//! Loads may not execute until every older store's address is known
//! (conservative disambiguation, typical of the paper's era). A load whose
//! bytes are fully covered by the youngest older matching store forwards
//! from the queue; a partial overlap forces the load to wait until that
//! store leaves the queue.

use std::collections::VecDeque;

/// One in-flight store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreEntry {
    /// The store's dynamic sequence number.
    pub seq: u64,
    /// Address and size in bytes, once address generation has executed.
    pub addr: Option<(u64, u8)>,
    /// The cycle the address is known (end of address generation).
    pub addr_time: u64,
    /// The cycle the (2's complement) store data is available, if known.
    pub data_time: Option<u64>,
}

/// What a load may do this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadDecision {
    /// All older stores disambiguated; access the cache.
    Cache,
    /// Fully covered by an older store with data ready at the given cycle:
    /// forward from the queue.
    Forward(u64),
    /// Blocked: an older store's address or conflicting data is not ready.
    Blocked,
}

/// The store queue.
#[derive(Debug, Clone, Default)]
pub struct StoreQueue {
    entries: VecDeque<StoreEntry>,
    forwards: u64,
    blocks: u64,
}

impl StoreQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates an entry at dispatch (program order).
    pub fn dispatch(&mut self, seq: u64) {
        debug_assert!(self.entries.back().is_none_or(|e| e.seq < seq));
        self.entries.push_back(StoreEntry {
            seq,
            addr: None,
            addr_time: u64::MAX,
            data_time: None,
        });
    }

    /// Records address generation for a store.
    pub fn set_address(&mut self, seq: u64, addr: u64, size: u8, time: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.addr = Some((addr, size));
            e.addr_time = time;
        }
    }

    /// Records when the store's data is available in 2's complement.
    pub fn set_data_time(&mut self, seq: u64, time: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.data_time = Some(time);
        }
    }

    /// The completion cycle of a store (address and data both ready), if
    /// both are known.
    pub fn completion(&self, seq: u64) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.seq == seq)
            .and_then(|e| e.data_time.map(|d| d.max(e.addr_time)))
    }

    /// Removes a retiring store.
    pub fn retire(&mut self, seq: u64) {
        if let Some(pos) = self.entries.iter().position(|e| e.seq == seq) {
            self.entries.remove(pos);
        }
    }

    /// Decides whether a load (sequence `seq`, executing at cycle `e`,
    /// accessing `addr`/`size`) may proceed.
    ///
    /// Byte ranges are compared modulo 2^64, as the emulator addresses
    /// memory: an access at the top of the address space wraps to 0
    /// instead of overflowing `addr + size`.
    pub fn check_load(&mut self, seq: u64, addr: u64, size: u8, e: u64) -> LoadDecision {
        let size = u64::from(size);
        let mut decision = LoadDecision::Cache;
        for s in self.entries.iter().rev() {
            if s.seq >= seq {
                continue;
            }
            let Some((sa, ss)) = s.addr else {
                self.blocks += 1;
                return LoadDecision::Blocked;
            };
            if s.addr_time > e {
                // Address not yet known at execution time.
                self.blocks += 1;
                return LoadDecision::Blocked;
            }
            let ss = u64::from(ss);
            // Two ranges overlap iff either one starts inside the other.
            if sa.wrapping_sub(addr) >= size && addr.wrapping_sub(sa) >= ss {
                continue; // disjoint
            }
            // Youngest older overlapping store (we iterate youngest-first).
            let d = addr.wrapping_sub(sa);
            if d < ss && d + size <= ss {
                match s.data_time {
                    Some(d) => {
                        self.forwards += 1;
                        decision = LoadDecision::Forward(d.max(e) + 1);
                    }
                    None => {
                        self.blocks += 1;
                        decision = LoadDecision::Blocked;
                    }
                }
            } else {
                // Partial overlap: wait until the store drains.
                self.blocks += 1;
                decision = LoadDecision::Blocked;
            }
            break;
        }
        decision
    }

    /// Entries currently in flight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no stores are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// (forwards, blocked-checks) so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.forwards, self.blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_blocked_by_unknown_store_address() {
        let mut q = StoreQueue::new();
        q.dispatch(5);
        assert_eq!(q.check_load(9, 0x100, 8, 20), LoadDecision::Blocked);
        q.set_address(5, 0x900, 8, 10);
        assert_eq!(q.check_load(9, 0x100, 8, 20), LoadDecision::Cache);
    }

    #[test]
    fn load_forwards_from_covering_store() {
        let mut q = StoreQueue::new();
        q.dispatch(5);
        q.set_address(5, 0x100, 8, 10);
        q.set_data_time(5, 12);
        // Execution at 20: data long ready → forward at 21.
        assert_eq!(q.check_load(9, 0x100, 8, 20), LoadDecision::Forward(21));
        // Execution at 11: data at 12 → forward at 13.
        assert_eq!(q.check_load(9, 0x100, 8, 11), LoadDecision::Forward(13));
    }

    #[test]
    fn partial_overlap_blocks() {
        let mut q = StoreQueue::new();
        q.dispatch(5);
        q.set_address(5, 0x104, 1, 10); // one byte inside the load
        q.set_data_time(5, 10);
        assert_eq!(q.check_load(9, 0x100, 8, 20), LoadDecision::Blocked);
        q.retire(5);
        assert_eq!(q.check_load(9, 0x100, 8, 20), LoadDecision::Cache);
    }

    #[test]
    fn younger_stores_are_ignored() {
        let mut q = StoreQueue::new();
        q.dispatch(50);
        q.set_address(50, 0x100, 8, 10);
        q.set_data_time(50, 10);
        // The load is *older* than the store.
        assert_eq!(q.check_load(9, 0x100, 8, 20), LoadDecision::Cache);
    }

    #[test]
    fn youngest_matching_store_wins() {
        let mut q = StoreQueue::new();
        q.dispatch(5);
        q.set_address(5, 0x100, 8, 10);
        q.set_data_time(5, 10);
        q.dispatch(7);
        q.set_address(7, 0x100, 8, 30);
        q.set_data_time(7, 30);
        // Load at seq 9, exec 40: must see store 7's timing, not store 5's.
        assert_eq!(q.check_load(9, 0x100, 8, 25), LoadDecision::Blocked);
        assert_eq!(q.check_load(9, 0x100, 8, 40), LoadDecision::Forward(41));
    }

    #[test]
    fn completion_combines_addr_and_data() {
        let mut q = StoreQueue::new();
        q.dispatch(3);
        assert_eq!(q.completion(3), None);
        q.set_address(3, 0x10, 8, 15);
        q.set_data_time(3, 22);
        assert_eq!(q.completion(3), Some(22));
    }

    /// A store of `size` bytes at `addr` with address and data known at
    /// cycle 10, older than the loads the tests check (seq 9).
    fn queue_with_store(addr: u64, size: u8) -> StoreQueue {
        let mut q = StoreQueue::new();
        q.dispatch(5);
        q.set_address(5, addr, size, 10);
        q.set_data_time(5, 10);
        q
    }

    #[test]
    fn forwarding_works_at_and_across_the_top_of_the_address_space() {
        // The last quadword below 2^64: the load ends exactly at 2^64.
        let mut q = queue_with_store(u64::MAX - 7, 8);
        assert_eq!(
            q.check_load(9, u64::MAX - 7, 8, 20),
            LoadDecision::Forward(21)
        );
        assert_eq!(
            q.check_load(9, u64::MAX - 3, 4, 20),
            LoadDecision::Forward(21)
        );
        assert_eq!(q.check_load(9, u64::MAX, 1, 20), LoadDecision::Forward(21));
        // A store that wraps past 2^64 covers bytes on both sides of it.
        let mut q = queue_with_store(u64::MAX - 3, 8);
        assert_eq!(
            q.check_load(9, u64::MAX - 1, 4, 20),
            LoadDecision::Forward(21)
        );
        assert_eq!(q.check_load(9, 0, 4, 20), LoadDecision::Forward(21));
        // Bytes just outside either end are disjoint from it.
        assert_eq!(q.check_load(9, 4, 4, 20), LoadDecision::Cache);
        assert_eq!(q.check_load(9, u64::MAX - 7, 4, 20), LoadDecision::Cache);
    }

    #[test]
    fn partial_overlap_blocks_at_and_across_the_top_of_the_address_space() {
        // A longword store at the very top; a quadword load ending at 2^64
        // reads it plus four bytes below it.
        let mut q = queue_with_store(u64::MAX - 3, 4);
        assert_eq!(q.check_load(9, u64::MAX - 7, 8, 20), LoadDecision::Blocked);
        // A load that wraps past 2^64 and a store on the far side of 0.
        let mut q = queue_with_store(2, 4);
        assert_eq!(q.check_load(9, u64::MAX - 3, 8, 20), LoadDecision::Blocked);
        // A store that wraps and a load that only starts inside it.
        let mut q = queue_with_store(u64::MAX - 1, 4);
        assert_eq!(q.check_load(9, 1, 4, 20), LoadDecision::Blocked);
        assert_eq!(q.check_load(9, 2, 4, 20), LoadDecision::Cache);
        let (forwards, blocks) = q.counters();
        assert_eq!((forwards, blocks), (0, 1));
    }

    #[test]
    fn store_data_not_ready_blocks_covered_load() {
        let mut q = StoreQueue::new();
        q.dispatch(5);
        q.set_address(5, 0x100, 8, 10);
        assert_eq!(q.check_load(9, 0x100, 8, 20), LoadDecision::Blocked);
    }
}
