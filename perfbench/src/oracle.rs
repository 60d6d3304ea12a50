//! A fully associative LRU cache written apart from `wsf-cache`, used as
//! the independent reference the simulator's sequential miss counts and
//! miss-ratio curves are checked against: a block → slot map plus a
//! doubly linked recency list over a slot arena.

use std::collections::HashMap;

const NIL: u32 = u32::MAX;

pub struct LruOracle {
    capacity: usize,
    slot_of: HashMap<u32, u32>,
    block: Vec<u32>,
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot.
    tail: u32,
    misses: u64,
}

impl LruOracle {
    pub fn new(capacity: usize) -> LruOracle {
        assert!(capacity > 0, "capacity must be positive");
        LruOracle {
            capacity,
            slot_of: HashMap::new(),
            block: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
            misses: 0,
        }
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn unlink(&mut self, s: u32) {
        let (p, n) = (self.prev[s as usize], self.next[s as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    fn push_front(&mut self, s: u32) {
        self.prev[s as usize] = NIL;
        self.next[s as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = s;
        }
        self.head = s;
        if self.tail == NIL {
            self.tail = s;
        }
    }

    /// Accesses `block`; returns whether it hit.
    pub fn access(&mut self, block: u32) -> bool {
        if let Some(&s) = self.slot_of.get(&block) {
            if self.head != s {
                self.unlink(s);
                self.push_front(s);
            }
            return true;
        }
        self.misses += 1;
        let s = if self.block.len() < self.capacity {
            self.block.push(block);
            self.prev.push(NIL);
            self.next.push(NIL);
            (self.block.len() - 1) as u32
        } else {
            let victim = self.tail;
            self.unlink(victim);
            self.slot_of.remove(&self.block[victim as usize]);
            self.block[victim as usize] = block;
            victim
        };
        self.slot_of.insert(block, s);
        self.push_front(s);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive LRU: a move-to-front stack searched linearly.
    fn mtf_misses(trace: &[u32], capacity: usize) -> u64 {
        let mut stack: Vec<u32> = Vec::new();
        let mut misses = 0;
        for &b in trace {
            match stack.iter().position(|&x| x == b) {
                Some(i) if i < capacity => {
                    stack.remove(i);
                }
                Some(i) => {
                    stack.remove(i);
                    misses += 1;
                }
                None => misses += 1,
            }
            stack.insert(0, b);
        }
        misses
    }

    #[test]
    fn oracle_matches_move_to_front_stack_on_random_traces() {
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let universe = 1 + (next() % 64) as u32;
            let len = (next() % 400) as usize;
            let trace: Vec<u32> = (0..len)
                .map(|_| (next() % universe as u64) as u32)
                .collect();
            for capacity in [1usize, 2, 3, 7, 16, 64] {
                let mut o = LruOracle::new(capacity);
                for &b in &trace {
                    o.access(b);
                }
                assert_eq!(
                    o.misses(),
                    mtf_misses(&trace, capacity),
                    "round {round}, capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn hit_and_eviction_order() {
        let mut o = LruOracle::new(2);
        assert!(!o.access(1));
        assert!(!o.access(2));
        assert!(o.access(1)); // 2 is now least recent
        assert!(!o.access(3)); // evicts 2
        assert!(o.access(1));
        assert!(!o.access(2));
        assert_eq!(o.misses(), 4);
    }
}
