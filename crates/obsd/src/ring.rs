//! The bounded history ring behind the timeline frames, the SLO engine's
//! per-second event counts and the drift monitor's error window.

/// Fixed-capacity, single-writer overwrite ring of `Copy` values. All
/// memory is allocated in [`Ring::new`]; `push` never allocates and hands
/// back the value it evicts once the ring is full.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    buf: Box<[T]>,
    head: usize,
    len: usize,
}

impl<T: Copy + Default> Ring<T> {
    /// A ring retaining the most recent `capacity` values (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Ring {
            buf: vec![T::default(); capacity.max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Values currently retained.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends `v`, returning the oldest value when it had to make room.
    pub(crate) fn push(&mut self, v: T) -> Option<T> {
        let cap = self.buf.len();
        if self.len < cap {
            self.buf[(self.head + self.len) % cap] = v;
            self.len += 1;
            None
        } else {
            let evicted = self.buf[self.head];
            self.buf[self.head] = v;
            self.head = (self.head + 1) % cap;
            Some(evicted)
        }
    }

    /// Values oldest-first; `.rev()` walks newest-first.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        let cap = self.buf.len();
        (0..self.len).map(move |k| &self.buf[(self.head + k) % cap])
    }
}

#[cfg(test)]
mod tests {
    use super::Ring;

    #[test]
    fn push_evicts_the_oldest_once_full() {
        let mut ring = Ring::new(3);
        assert_eq!(ring.push(1), None);
        assert_eq!(ring.push(2), None);
        assert_eq!(ring.push(3), None);
        assert_eq!(ring.push(4), Some(1));
        assert_eq!(ring.push(5), Some(2));
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [3, 4, 5]);
        assert_eq!(ring.iter().rev().copied().collect::<Vec<_>>(), [5, 4, 3]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = Ring::new(0);
        assert_eq!(ring.push(7u8), None);
        assert_eq!(ring.push(8), Some(7));
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [8]);
    }
}
