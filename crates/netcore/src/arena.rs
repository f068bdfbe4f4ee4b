//! Pooled FIFOs: many queues threaded through one node vector.
//!
//! The flat networks provision a queue per site pair, so a side-16 grid
//! needs tens of thousands of them. Built as separate `VecDeque`s, each
//! is its own heap object, and every packet chases a pointer into
//! scattered memory. A [`QueueArena`] keeps one 12-byte record per queue
//! and links every queued item through a single pooled node vector; freed
//! nodes go on a free list and are reused, so the pool grows only to the
//! peak number of items queued at once.

/// End-of-list marker for node links.
const NIL: u32 = u32::MAX;

/// Where one FIFO's items live in a [`NodePool`]: first and last node and
/// the item count. `head` and `tail` are meaningless while `len` is zero.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueRec {
    head: u32,
    tail: u32,
    len: u32,
}

impl QueueRec {
    pub(crate) const EMPTY: QueueRec = QueueRec {
        head: NIL,
        tail: NIL,
        len: 0,
    };

    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }
}

/// The shared node storage behind any number of [`QueueRec`]s: each node
/// is an item and the index of the next node in its queue (or in the free
/// list, once released).
#[derive(Debug, Clone)]
pub(crate) struct NodePool<T> {
    nodes: Vec<(T, u32)>,
    /// Head of the free-node list.
    free: u32,
}

impl<T: Copy> NodePool<T> {
    pub(crate) fn new() -> NodePool<T> {
        NodePool {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Nodes ever allocated: the peak number of items queued at once.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn push_back(&mut self, q: &mut QueueRec, item: T) {
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("queue arena overflow");
            self.nodes.push((item, NIL));
            idx
        } else {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.1;
            *node = (item, NIL);
            idx
        };
        if q.len == 0 {
            q.head = idx;
        } else {
            self.nodes[q.tail as usize].1 = idx;
        }
        q.tail = idx;
        q.len += 1;
    }

    pub(crate) fn pop_front(&mut self, q: &mut QueueRec) -> Option<T> {
        if q.len == 0 {
            return None;
        }
        let idx = q.head;
        let node = &mut self.nodes[idx as usize];
        let item = node.0;
        q.head = node.1;
        q.len -= 1;
        node.1 = self.free;
        self.free = idx;
        Some(item)
    }

    pub(crate) fn front(&self, q: &QueueRec) -> Option<&T> {
        (q.len > 0).then(|| &self.nodes[q.head as usize].0)
    }

    pub(crate) fn front_mut(&mut self, q: &QueueRec) -> Option<&mut T> {
        (q.len > 0).then(|| &mut self.nodes[q.head as usize].0)
    }
}

/// Many FIFOs sharing one pooled node vector.
///
/// Queues are addressed by index `0..queues` and are unbounded; callers
/// that model a finite buffer compare [`len`](Self::len) to it. Items must be `Copy`: the
/// networks queue slab references, circuit ids and small records.
///
/// # Example
///
/// ```
/// use netcore::QueueArena;
///
/// let mut q: QueueArena<u32> = QueueArena::new(3);
/// q.push_back(2, 10);
/// q.push_back(0, 20);
/// q.push_back(2, 11);
/// assert_eq!(q.len(2), 2);
/// assert_eq!(q.pop_front(2), Some(10));
/// assert_eq!(q.drain(2).collect::<Vec<_>>(), vec![11]);
/// assert!(q.is_empty(2));
/// assert_eq!(q.front(0), Some(&20));
/// ```
#[derive(Debug, Clone)]
pub struct QueueArena<T> {
    queues: Vec<QueueRec>,
    pool: NodePool<T>,
}

impl<T: Copy> QueueArena<T> {
    /// Creates `queues` empty FIFOs. Only the per-queue records are
    /// allocated; nodes are added as items arrive.
    pub fn new(queues: usize) -> QueueArena<T> {
        QueueArena {
            queues: vec![QueueRec::EMPTY; queues],
            pool: NodePool::new(),
        }
    }

    /// Appends `item` to queue `q`.
    pub fn push_back(&mut self, q: usize, item: T) {
        self.pool.push_back(&mut self.queues[q], item);
    }

    /// Removes and returns the head of queue `q`.
    pub fn pop_front(&mut self, q: usize) -> Option<T> {
        self.pool.pop_front(&mut self.queues[q])
    }

    /// The head of queue `q`.
    pub fn front(&self, q: usize) -> Option<&T> {
        self.pool.front(&self.queues[q])
    }

    /// The head of queue `q`, mutably.
    pub fn front_mut(&mut self, q: usize) -> Option<&mut T> {
        self.pool.front_mut(&self.queues[q])
    }

    /// Items in queue `q`.
    pub fn len(&self, q: usize) -> usize {
        self.queues[q].len()
    }

    /// True when queue `q` holds nothing.
    pub fn is_empty(&self, q: usize) -> bool {
        self.queues[q].len == 0
    }

    /// Removes every item of queue `q`, head first. Items the iterator
    /// has not yielded when it is dropped are removed too.
    pub fn drain(&mut self, q: usize) -> Drain<'_, T> {
        Drain {
            pool: &mut self.pool,
            queue: &mut self.queues[q],
        }
    }

    /// Nodes in the shared pool: the peak number of items that were
    /// queued at once, across all queues.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }
}

/// The draining iterator of [`QueueArena::drain`].
pub struct Drain<'a, T: Copy> {
    pool: &'a mut NodePool<T>,
    queue: &'a mut QueueRec,
}

impl<T: Copy> Iterator for Drain<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.pool.pop_front(self.queue)
    }
}

impl<T: Copy> Drop for Drain<'_, T> {
    fn drop(&mut self) {
        while self.pool.pop_front(self.queue).is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queues_are_independent_fifos() {
        let mut a: QueueArena<usize> = QueueArena::new(4);
        for i in 0..6 {
            a.push_back(i % 2, i);
        }
        assert_eq!(a.len(0), 3);
        assert_eq!(a.len(1), 3);
        assert!(a.is_empty(2));
        assert_eq!(a.pop_front(0), Some(0));
        assert_eq!(a.pop_front(1), Some(1));
        assert_eq!(a.pop_front(0), Some(2));
        assert_eq!(a.pop_front(0), Some(4));
        assert_eq!(a.pop_front(0), None);
        assert_eq!(a.front(1), Some(&3));
    }

    #[test]
    fn front_mut_edits_the_head_in_place() {
        let mut a: QueueArena<(u32, u32)> = QueueArena::new(1);
        a.push_back(0, (1, 0));
        a.push_back(0, (2, 0));
        a.front_mut(0).expect("non-empty").1 = 7;
        assert_eq!(a.pop_front(0), Some((1, 7)));
        assert_eq!(a.pop_front(0), Some((2, 0)));
        assert!(a.front_mut(0).is_none());
    }

    #[test]
    fn freed_nodes_are_reused() {
        let mut a: QueueArena<u32> = QueueArena::new(8);
        for round in 0..100 {
            for q in 0..8 {
                a.push_back(q, round);
            }
            for q in 0..8 {
                assert_eq!(a.pop_front(q), Some(round));
            }
        }
        assert_eq!(a.pool_len(), 8, "the pool grows only to the peak");
    }

    #[test]
    fn a_dropped_drain_empties_the_queue() {
        let mut a: QueueArena<u32> = QueueArena::new(2);
        for i in 0..5 {
            a.push_back(1, i);
        }
        a.push_back(0, 9);
        assert_eq!(a.drain(1).next(), Some(0));
        assert!(a.is_empty(1));
        assert_eq!(a.pop_front(0), Some(9));
        // All six nodes are free again and get reused.
        for i in 0..6 {
            a.push_back(0, i);
        }
        assert_eq!(a.pool_len(), 6);
    }
}
