//! Deficit-round-robin scheduling over per-tenant queues.
//!
//! Weighted-fair admission is what keeps one hot tenant from starving its
//! neighbors: every tenant has its own bounded FIFO, and the dispatcher
//! pops work through a deficit-round-robin scan — each visit to a
//! backlogged tenant grants it `weight` credits, each popped request
//! spends one, and the cursor only advances when the credits run out (or
//! the queue empties, which also forfeits leftover credit). Over any
//! window in which two tenants stay backlogged, tenant `i` therefore
//! receives `weight_i / Σweights` of the pops, give or take one quantum —
//! the property the proptest suite pins down.
//!
//! The scheduler is a pure single-threaded state machine (callers wrap it
//! in a mutex), which is exactly what makes the fairness bound property-
//! testable without any thread interleaving noise.

use std::collections::VecDeque;

/// One tenant's queue + DRR bookkeeping.
#[derive(Debug)]
struct TenantState<T> {
    weight: u64,
    deficit: u64,
    queue: VecDeque<T>,
}

/// Per-tenant bounded queues drained in deficit-round-robin order.
#[derive(Debug)]
pub struct TenantQueues<T> {
    tenants: Vec<TenantState<T>>,
    capacity: usize,
    cursor: usize,
}

impl<T> TenantQueues<T> {
    /// Build queues for `tenants` (`(name, weight)`; weights are clamped
    /// to ≥1), each bounded at `capacity` items.
    pub fn new(tenants: &[(String, u64)], capacity: usize) -> TenantQueues<T> {
        assert!(!tenants.is_empty(), "need at least one tenant");
        assert!(capacity > 0, "tenant queues need capacity");
        TenantQueues {
            tenants: tenants
                .iter()
                .map(|(_, weight)| TenantState {
                    weight: (*weight).max(1),
                    deficit: 0,
                    queue: VecDeque::new(),
                })
                .collect(),
            capacity,
            cursor: 0,
        }
    }

    /// Enqueue for tenant `index`; a full tenant queue returns the item
    /// back (the caller sheds with a typed `Overloaded`).
    pub fn push(&mut self, index: usize, item: T) -> Result<(), T> {
        let tenant = &mut self.tenants[index];
        if tenant.queue.len() >= self.capacity {
            return Err(item);
        }
        tenant.queue.push_back(item);
        Ok(())
    }

    /// Pop the next item in DRR order, or `None` when every queue is
    /// empty.
    pub fn pop(&mut self) -> Option<T> {
        let n = self.tenants.len();
        // Two sweeps bound the scan: the first may only grant quanta, the
        // second is guaranteed to pop from the first backlogged tenant.
        for _ in 0..(2 * n) {
            let cursor = self.cursor;
            let tenant = &mut self.tenants[cursor];
            if tenant.queue.is_empty() {
                // Idle tenants forfeit leftover credit — DRR's guard
                // against a tenant banking unbounded deficit while idle.
                tenant.deficit = 0;
                self.cursor = (cursor + 1) % n;
                continue;
            }
            if tenant.deficit == 0 {
                tenant.deficit = tenant.weight;
            }
            let item = tenant.queue.pop_front();
            tenant.deficit -= 1;
            if tenant.deficit == 0 || tenant.queue.is_empty() {
                tenant.deficit = if tenant.queue.is_empty() { 0 } else { tenant.deficit };
                if tenant.deficit == 0 {
                    self.cursor = (cursor + 1) % n;
                }
            }
            return item;
        }
        None
    }

    /// Total queued items across tenants.
    pub fn len(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }

    /// True when no tenant has queued items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued items for tenant `index`.
    pub fn depth(&self, index: usize) -> usize {
        self.tenants[index].queue.len()
    }

    /// Take every queued item, in DRR order (the router's shutdown sweep
    /// resolves whatever raced the shutdown flag into a queue).
    pub fn drain_all(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(item) = self.pop() {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues(weights: &[(&str, u64)]) -> TenantQueues<u64> {
        let tenants: Vec<(String, u64)> =
            weights.iter().map(|(n, w)| (n.to_string(), *w)).collect();
        TenantQueues::new(&tenants, 10_000)
    }

    #[test]
    fn equal_weights_alternate_under_backlog() {
        let mut q = queues(&[("a", 1), ("b", 1)]);
        for i in 0..10 {
            q.push(0, i).unwrap_or_else(|_| panic!("capacity"));
            q.push(1, 100 + i).unwrap_or_else(|_| panic!("capacity"));
        }
        let order: Vec<u64> = (0..20).filter_map(|_| q.pop()).collect();
        let a_in_first_half = order[..10].iter().filter(|&&v| v < 100).count();
        assert_eq!(a_in_first_half, 5, "equal weights must interleave evenly: {order:?}");
    }

    #[test]
    fn weights_skew_service_proportionally() {
        let mut q = queues(&[("hot", 3), ("cold", 1)]);
        for i in 0..120 {
            q.push(0, i).unwrap_or_else(|_| panic!("capacity"));
        }
        for i in 0..40 {
            q.push(1, 1000 + i).unwrap_or_else(|_| panic!("capacity"));
        }
        let first = (0..40).filter_map(|_| q.pop()).collect::<Vec<_>>();
        let hot = first.iter().filter(|&&v| v < 1000).count();
        // 3:1 weights → 30 of the first 40 pops, ± one quantum.
        assert!((27..=33).contains(&hot), "hot got {hot}/40: {first:?}");
    }

    #[test]
    fn idle_tenants_forfeit_deficit() {
        let mut q = queues(&[("a", 8), ("b", 1)]);
        q.push(0, 1).unwrap_or_else(|_| panic!("capacity"));
        assert_eq!(q.pop(), Some(1));
        // Tenant a went idle mid-quantum; when both become backlogged the
        // banked credit must be gone (a restarts at its weight, not at
        // weight + leftovers).
        for i in 0..16 {
            q.push(0, 10 + i).unwrap_or_else(|_| panic!("capacity"));
            q.push(1, 100 + i).unwrap_or_else(|_| panic!("capacity"));
        }
        let first18: Vec<u64> = (0..18).filter_map(|_| q.pop()).collect();
        let b_served = first18.iter().filter(|&&v| v >= 100).count();
        assert!(b_served >= 2, "b must be served within two quanta of a: {first18:?}");
    }

    #[test]
    fn full_tenant_queue_rejects() {
        let mut q: TenantQueues<u64> = TenantQueues::new(&[("a".to_string(), 1)], 2);
        assert!(q.push(0, 1).is_ok());
        assert!(q.push(0, 2).is_ok());
        assert_eq!(q.push(0, 3), Err(3));
        assert_eq!(q.depth(0), 2);
    }

    #[test]
    fn drain_preserves_everything_exactly_once() {
        let mut q = queues(&[("a", 2), ("b", 1)]);
        for i in 0..7 {
            q.push((i % 2) as usize, i).unwrap_or_else(|_| panic!("capacity"));
        }
        let mut drained = q.drain_all();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(q.is_empty());
    }
}
