//! Closing the gaps that tombstones leave in a dynamic index's slot space.
//!
//! The dynamic LSH index ([`crate::LshMips`]) never reuses a slot, so deletes
//! accumulate dead slots. Compaction drops them and moves every survivor down to its
//! rank among the survivors, in place: a point's buckets depend on its vector alone,
//! so nothing is hashed again and nothing is copied. The survivors keep their order —
//! the serving layer's ascending external id, which is the order it hands slots out in.

/// Marks a dead slot in [`Renumbering::new_slot`].
const DEAD: u32 = u32::MAX;

/// Where every live slot goes when the dead ones are dropped.
pub(crate) struct Renumbering {
    /// `new_slot[old]` for a live slot, [`DEAD`] for a tombstoned one; ascending
    /// over the live slots.
    pub(crate) new_slot: Vec<u32>,
}

impl Renumbering {
    /// Plans the compaction of the slots `live` marks.
    pub(crate) fn new(live: &[bool]) -> Self {
        let mut new_slot = Vec::with_capacity(live.len());
        let mut next = 0;
        for &live in live {
            new_slot.push(if live { next } else { DEAD });
            next += u32::from(live);
        }
        Self { new_slot }
    }

    /// Compacts a per-slot array where it stands: dead slots' items are dropped and
    /// every live one moves down to its new slot.
    pub(crate) fn apply<T>(&self, items: &mut Vec<T>) {
        debug_assert_eq!(items.len(), self.new_slot.len());
        let mut slots = self.new_slot.iter();
        items.retain(|_| slots.next().is_some_and(|&new| new != DEAD));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survivors_in_key_order_move_down_in_place() {
        let live = [true, false, true, true, false];
        let plan = Renumbering::new(&live);
        assert_eq!(plan.new_slot, [0, DEAD, 1, 2, DEAD]);
        let mut items = vec!['a', 'b', 'c', 'd', 'e'];
        let before = items.as_ptr();
        plan.apply(&mut items);
        assert_eq!(items, ['a', 'c', 'd']);
        assert_eq!(items.as_ptr(), before, "compacted where it stood");
    }
}
