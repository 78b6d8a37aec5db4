//! Closing the gaps that tombstones leave in a dynamic index's slot space.
//!
//! The dynamic LSH index ([`crate::LshMips`]) never reuses a slot, so deletes
//! accumulate dead slots. Compaction drops them and
//! puts the survivors in a caller-chosen order — the serving layer's ascending
//! external id — by renaming slots in place: a point's buckets depend on its vector
//! alone, so nothing is hashed again and nothing is copied.

use crate::error::{CoreError, Result};

/// Marks a dead slot in [`Renumbering::new_slot`].
const DEAD: u32 = u32::MAX;

/// Where every live slot goes when the dead ones are dropped and the survivors are
/// put in ascending order of their key.
pub(crate) struct Renumbering {
    /// `new_slot[old]` for a live slot, [`DEAD`] for a tombstoned one.
    pub(crate) new_slot: Vec<u32>,
    /// Number of live slots.
    live: usize,
    /// The survivors already stand in ascending key order, so each one only moves
    /// down and per-slot arrays can be compacted where they are.
    monotone: bool,
}

impl Renumbering {
    /// Plans the compaction of the slots `live` marks, ordered by `keys[slot]`.
    ///
    /// Rejects a key list of another length than the slot count and equal keys on two
    /// live slots (the order would be ambiguous).
    pub(crate) fn new(live: &[bool], keys: &[u64]) -> Result<Self> {
        if keys.len() != live.len() || live.len() >= DEAD as usize {
            return Err(CoreError::InvalidParameter {
                name: "keys",
                reason: format!("{} keys for {} slots", keys.len(), live.len()),
            });
        }
        let survivors = || (0..live.len()).filter(|&slot| live[slot]);
        let mut new_slot = vec![DEAD; live.len()];
        let monotone = survivors()
            .zip(survivors().skip(1))
            .all(|(a, b)| keys[a] < keys[b]);
        let mut count = 0usize;
        if monotone {
            for slot in survivors() {
                new_slot[slot] = count as u32;
                count += 1;
            }
        } else {
            let mut order: Vec<u32> = survivors().map(|slot| slot as u32).collect();
            order.sort_unstable_by_key(|&slot| keys[slot as usize]);
            if let Some(w) = order
                .windows(2)
                .find(|w| keys[w[0] as usize] == keys[w[1] as usize])
            {
                return Err(CoreError::InvalidParameter {
                    name: "keys",
                    reason: format!(
                        "slots {} and {} share key {}",
                        w[0], w[1], keys[w[0] as usize]
                    ),
                });
            }
            count = order.len();
            for (new, old) in order.into_iter().enumerate() {
                new_slot[old as usize] = new as u32;
            }
        }
        Ok(Self {
            new_slot,
            live: count,
            monotone,
        })
    }

    /// Compacts a per-slot array: dead slots' items are dropped, live ones end up at
    /// their new slot. In place unless the order changes; `hole` then fills the
    /// positions of a fresh array until their item arrives (it never survives).
    pub(crate) fn apply<T>(&self, items: &mut Vec<T>, hole: impl Fn() -> T) {
        debug_assert_eq!(items.len(), self.new_slot.len());
        if self.monotone {
            let mut slots = self.new_slot.iter();
            items.retain(|_| slots.next().is_some_and(|&new| new != DEAD));
            return;
        }
        let mut moved: Vec<T> = (0..self.live).map(|_| hole()).collect();
        for (item, &new) in items.drain(..).zip(&self.new_slot) {
            if new != DEAD {
                moved[new as usize] = item;
            }
        }
        *items = moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survivors_in_key_order_move_down_in_place() {
        let live = [true, false, true, true, false];
        let plan = Renumbering::new(&live, &[10, 11, 12, 13, 14]).unwrap();
        assert_eq!(plan.new_slot, [0, DEAD, 1, 2, DEAD]);
        let mut items = vec!['a', 'b', 'c', 'd', 'e'];
        let before = items.as_ptr();
        plan.apply(&mut items, || '?');
        assert_eq!(items, ['a', 'c', 'd']);
        assert_eq!(items.as_ptr(), before, "compacted where it stood");
    }

    #[test]
    fn out_of_order_keys_permute_and_resort() {
        let live = [true, true, false, true];
        let plan = Renumbering::new(&live, &[30, 10, 0, 20]).unwrap();
        assert_eq!(plan.new_slot, [2, 0, DEAD, 1]);
        let mut items = vec!["thirty", "ten", "dead", "twenty"];
        plan.apply(&mut items, || "");
        assert_eq!(items, ["ten", "twenty", "thirty"]);
    }

    #[test]
    fn ambiguous_or_misshapen_keys_are_rejected() {
        assert!(Renumbering::new(&[true, true], &[1]).is_err());
        // Equal keys only matter on live slots, and only the sort can see them.
        assert!(Renumbering::new(&[true, true, true], &[5, 1, 5]).is_err());
        assert!(Renumbering::new(&[true, false, true], &[5, 5, 6]).is_ok());
        assert!(Renumbering::new(&[true, true], &[5, 5]).is_err());
    }
}
