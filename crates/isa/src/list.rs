//! [`InlineList`]: a fixed-capacity list stored inline, for the small
//! per-instruction operand sets the simulator walks every cycle.
//!
//! An instruction reads at most [`MAX_SRC_OPERANDS`] data sources plus a
//! memory base register, and at most one guard plus its predicate sources,
//! so its operand sets fit a four-entry inline array. Returning them as
//! [`RegList`] / [`PredList`] instead of a `Vec` keeps the scoreboard's
//! per-warp, per-cycle hazard check free of heap allocation.

use crate::reg::{Pred, Reg};
use crate::MAX_SRC_OPERANDS;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Capacity of an instruction's operand lists: three data sources plus
/// the memory base (registers), or the guard plus three sources
/// (predicates).
pub const OPERAND_LIST_CAP: usize = MAX_SRC_OPERANDS + 1;

/// Registers an instruction reads (see [`Instruction::src_regs`]).
///
/// [`Instruction::src_regs`]: crate::Instruction::src_regs
pub type RegList = InlineList<Reg, OPERAND_LIST_CAP>;

/// Predicates an instruction reads (see [`Instruction::src_preds`]).
///
/// [`Instruction::src_preds`]: crate::Instruction::src_preds
pub type PredList = InlineList<Pred, OPERAND_LIST_CAP>;

/// Up to `N` values of a `Copy` type, stored inline. Dereferences to a
/// slice, so `iter`, `len`, `contains` and indexing work as on a `Vec`.
#[derive(Clone, Copy)]
pub struct InlineList<T: Copy, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> InlineList<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        InlineList {
            items: [T::default(); N],
            len: 0,
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineList<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> InlineList<T, N> {
    /// Appends `value`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds `N` values.
    pub fn push(&mut self, value: T) {
        assert!(self.len < N, "InlineList capacity {N} exceeded");
        self.items[self.len] = value;
        self.len += 1;
    }

    /// The stored values as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T: Copy, const N: usize> Deref for InlineList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy, const N: usize> DerefMut for InlineList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy, const N: usize> IntoIterator for InlineList<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut l: InlineList<u8, 3> = InlineList::new();
        assert!(l.is_empty());
        l.push(4);
        l.push(7);
        assert_eq!(l.len(), 2);
        assert_eq!(l[..], [4, 7]);
        assert!(l.contains(&7));
        assert_eq!(l.into_iter().collect::<Vec<_>>(), vec![4, 7]);
        assert_eq!(l.into_iter().len(), 2);
        assert_eq!(format!("{l:?}"), "[4, 7]");
    }

    #[test]
    #[should_panic(expected = "capacity 2 exceeded")]
    fn overflow_panics() {
        let mut l: InlineList<u8, 2> = InlineList::new();
        for v in 0..3 {
            l.push(v);
        }
    }
}
