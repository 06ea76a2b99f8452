//! A short list stored inline.
//!
//! The hot paths carry many lists that are almost always tiny — the parts
//! of a frame, the segment keys a frame carries, the sends one completion
//! finishes, the received pieces of a chunked segment. [`SmallList`]
//! keeps the first `N` elements in the value itself and only the rest in
//! a `Vec`, so the common case costs no heap allocation. Safe code only:
//! unused inline slots hold `T::default()`.

/// Borrowing iterator over a [`SmallList`].
pub type Iter<'a, T> = std::iter::Chain<std::slice::Iter<'a, T>, std::slice::Iter<'a, T>>;

/// Up to `N` elements inline, the rest in a spill `Vec`.
#[derive(Clone)]
pub struct SmallList<T, const N: usize> {
    inline: [T; N],
    len: usize,
    spill: Vec<T>,
}

impl<T: Default, const N: usize> Default for SmallList<T, N> {
    fn default() -> Self {
        SmallList {
            inline: std::array::from_fn(|_| T::default()),
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl<T: Default, const N: usize> SmallList<T, N> {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// A list holding just `item`.
    pub fn one(item: T) -> Self {
        let mut list = Self::new();
        list.push(item);
        list
    }

    /// Append an element.
    pub fn push(&mut self, item: T) {
        if self.len < N {
            self.inline[self.len] = item;
        } else {
            self.spill.push(item);
        }
        self.len += 1;
    }

    /// Insert `item` before position `at` (`at <= len`), shifting the
    /// rest up by one.
    pub fn insert(&mut self, at: usize, item: T) {
        assert!(at <= self.len, "insert position out of range");
        self.push(T::default());
        for i in (at..self.len - 1).rev() {
            self[i + 1] = std::mem::take(&mut self[i]);
        }
        self[at] = item;
    }

    /// Empty the list and keep its spill's capacity: a list that is
    /// filled again as far costs no allocation.
    pub fn clear(&mut self) {
        for slot in &mut self.inline[..self.len.min(N)] {
            *slot = T::default();
        }
        self.spill.clear();
        self.len = 0;
    }

    /// Remove and return the element at `at`, shifting the rest down.
    pub fn remove(&mut self, at: usize) -> T {
        let item = std::mem::take(&mut self[at]);
        for i in at + 1..self.len {
            self[i - 1] = std::mem::take(&mut self[i]);
        }
        if self.len > N {
            self.spill.pop();
        }
        self.len -= 1;
        item
    }
}

impl<T, const N: usize> SmallList<T, N> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the list holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements the list holds without allocating again.
    pub fn capacity(&self) -> usize {
        N + self.spill.capacity()
    }

    /// The `i`-th element.
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            None
        } else if i < N {
            Some(&self.inline[i])
        } else {
            self.spill.get(i - N)
        }
    }

    /// The `i`-th element, mutably.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            None
        } else if i < N {
            Some(&mut self.inline[i])
        } else {
            self.spill.get_mut(i - N)
        }
    }

    /// Iterate in order.
    pub fn iter(&self) -> Iter<'_, T> {
        self.inline[..self.len.min(N)].iter().chain(&self.spill)
    }

    /// Iterate in order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.inline[..self.len.min(N)]
            .iter_mut()
            .chain(&mut self.spill)
    }
}

impl<T, const N: usize> std::ops::Index<usize> for SmallList<T, N> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        assert!(
            i < self.len,
            "index {i} out of range for length {}",
            self.len
        );
        if i < N {
            &self.inline[i]
        } else {
            &self.spill[i - N]
        }
    }
}

impl<T, const N: usize> std::ops::IndexMut<usize> for SmallList<T, N> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        assert!(
            i < self.len,
            "index {i} out of range for length {}",
            self.len
        );
        if i < N {
            &mut self.inline[i]
        } else {
            &mut self.spill[i - N]
        }
    }
}

impl<T, const N: usize> IntoIterator for SmallList<T, N> {
    type Item = T;
    type IntoIter =
        std::iter::Chain<std::iter::Take<std::array::IntoIter<T, N>>, std::vec::IntoIter<T>>;
    fn into_iter(self) -> Self::IntoIter {
        self.inline.into_iter().take(self.len).chain(self.spill)
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a SmallList<T, N> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T: Default, const N: usize> FromIterator<T> for SmallList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Self::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

impl<T: Default, const N: usize> From<Vec<T>> for SmallList<T, N> {
    fn from(items: Vec<T>) -> Self {
        items.into_iter().collect()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for SmallList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq, const N: usize> Eq for SmallList<T, N> {}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for SmallList<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_spills_past_the_inline_slots_and_keeps_order() {
        let mut l: SmallList<u32, 2> = SmallList::new();
        assert!(l.is_empty());
        for i in 0..5 {
            l.push(i);
        }
        assert_eq!(l.len(), 5);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(l[1], 1);
        assert_eq!(l[4], 4);
        assert_eq!(l.get(5), None);
        assert_eq!(l.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn insert_shifts_across_the_inline_boundary() {
        let mut l: SmallList<u32, 2> = vec![10, 20, 30].into();
        l.insert(0, 5);
        l.insert(2, 15);
        l.insert(5, 40);
        assert_eq!(
            l.iter().copied().collect::<Vec<_>>(),
            vec![5, 10, 15, 20, 30, 40]
        );
    }

    #[test]
    fn remove_shifts_down_across_the_inline_boundary() {
        let mut l: SmallList<u32, 2> = vec![1, 2, 3, 4].into();
        assert_eq!(l.remove(1), 2);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![1, 3, 4]);
        assert_eq!(l.remove(2), 4);
        assert_eq!(l.remove(0), 1);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![3]);
        l.push(9);
        l.push(10);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![3, 9, 10]);
    }

    #[test]
    fn clear_keeps_the_spill_for_the_next_fill() {
        let mut l: SmallList<u32, 2> = (0..20).collect();
        let capacity = l.capacity();
        assert!(capacity >= 20);
        l.clear();
        assert!(l.is_empty() && l.get(0).is_none());
        assert_eq!(l.capacity(), capacity);
        for i in 7..10 {
            l.push(i);
        }
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    #[test]
    fn equality_ignores_where_elements_live() {
        let a: SmallList<u8, 1> = vec![1, 2, 3].into();
        let b: SmallList<u8, 1> = [1u8, 2, 3].into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, SmallList::one(1));
        assert_eq!(format!("{a:?}"), "[1, 2, 3]");
    }
}
