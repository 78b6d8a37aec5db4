//! The exact-match side table of the Section 4.2 index, keyed by fingerprint.
//!
//! The symmetric LSH gives no guarantee for the pair `q = p`, so the index answers
//! "is the query itself a data vector?" from a table of its own. "Itself" means *same
//! encoding at the configured precision*; the table does not store encodings (192
//! bytes a vector at `d = 48`) but a 64-bit fingerprint of each, and the owner of the
//! vectors confirms a hit by comparing encodings. A [`Diagonal`] therefore maps a
//! fingerprint to the live slots carrying it, in ascending order, and
//! [`Diagonal::lookup`] returns the last of them the caller confirms — which is the
//! last live slot with the query's encoding whether or not two encodings ever share a
//! fingerprint: a collision costs a comparison, never an answer.
//!
//! Nearly every fingerprint belongs to one slot, so that slot is stored inline
//! (16 bytes a table entry, no allocation per point); only fingerprints shared by
//! several live slots — duplicates in the data, or a collision — have a list.

use std::collections::HashMap;

/// Fingerprint → live slots, ascending (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Diagonal {
    /// The highest live slot of every fingerprint present.
    last: HashMap<u64, u32>,
    /// Every live slot, ascending, of the fingerprints that two or more share.
    shared: HashMap<u64, Vec<u32>>,
}

impl Diagonal {
    /// An empty table with room for `slots` distinct fingerprints.
    pub(crate) fn with_capacity(slots: usize) -> Self {
        Self {
            last: HashMap::with_capacity(slots),
            shared: HashMap::new(),
        }
    }

    /// Registers `slot`, which must be above every slot registered so far (slots are
    /// handed out in ascending order and never reused).
    pub(crate) fn insert(&mut self, fingerprint: u64, slot: u32) {
        if let Some(previous) = self.last.insert(fingerprint, slot) {
            debug_assert!(previous < slot, "slots are registered in ascending order");
            self.shared
                .entry(fingerprint)
                .or_insert_with(|| vec![previous])
                .push(slot);
        }
    }

    /// Forgets `slot`; the fingerprint's next-highest slot, if any, answers from now on.
    pub(crate) fn remove(&mut self, fingerprint: u64, slot: u32) {
        match self.shared.get_mut(&fingerprint) {
            Some(slots) => {
                slots.retain(|&s| s != slot);
                let highest = *slots.last().expect("a shared list holds two or more slots");
                if slots.len() == 1 {
                    self.shared.remove(&fingerprint);
                }
                self.last.insert(fingerprint, highest);
            }
            None => {
                if self.last.get(&fingerprint) == Some(&slot) {
                    self.last.remove(&fingerprint);
                }
            }
        }
    }

    /// The highest live slot under `fingerprint` that `confirm` accepts.
    pub(crate) fn lookup(
        &self,
        fingerprint: u64,
        mut confirm: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        match self.shared.get(&fingerprint) {
            Some(slots) => slots.iter().rev().copied().find(|&slot| confirm(slot)),
            None => self
                .last
                .get(&fingerprint)
                .copied()
                .filter(|&slot| confirm(slot)),
        }
    }

    /// Renames every slot `s` to `new_slot[s]` (injective on the registered slots),
    /// keeping every list ascending under the new names.
    pub(crate) fn renumber(&mut self, new_slot: &[u32]) {
        for slot in self.last.values_mut() {
            *slot = new_slot[*slot as usize];
        }
        for (fingerprint, slots) in &mut self.shared {
            for slot in slots.iter_mut() {
                *slot = new_slot[*slot as usize];
            }
            slots.sort_unstable();
            let highest = *slots.last().expect("a shared list holds two or more slots");
            self.last.insert(*fingerprint, highest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The table this one replaced: encoding → live slots in ascending order, the
    /// last one answering.
    type Model = HashMap<Vec<u8>, Vec<usize>>;

    /// A slot array under random insert / delete / compact, mirrored into the model
    /// and into a [`Diagonal`] keyed by `fingerprint`, which the test chooses.
    fn run_against_the_model(seed: u64, fingerprint: fn(&[u8]) -> u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Few distinct encodings, so duplicates (and, under a weak fingerprint,
        // collisions between different encodings) are the common case.
        let encoding = |rng: &mut StdRng| vec![rng.gen_range(0u8..12), rng.gen_range(0u8..3)];
        let mut slots: Vec<(Vec<u8>, bool)> = Vec::new();
        let mut model = Model::new();
        let mut diagonal = Diagonal::with_capacity(8);
        for step in 0..600 {
            match rng.gen_range(0..10) {
                0..=5 => {
                    let e = encoding(&mut rng);
                    model.entry(e.clone()).or_default().push(slots.len());
                    diagonal.insert(fingerprint(&e), slots.len() as u32);
                    slots.push((e, true));
                }
                6..=8 => {
                    let live: Vec<usize> = (0..slots.len()).filter(|&s| slots[s].1).collect();
                    if live.is_empty() {
                        continue;
                    }
                    let s = live[rng.gen_range(0..live.len())];
                    slots[s].1 = false;
                    let list = model.get_mut(&slots[s].0).unwrap();
                    list.retain(|&i| i != s);
                    if list.is_empty() {
                        model.remove(&slots[s].0);
                    }
                    diagonal.remove(fingerprint(&slots[s].0), s as u32);
                }
                _ => {
                    // Compact: survivors renamed by a random permutation, which is the
                    // general case of `Renumbering` (ascending key order or not).
                    let live: Vec<usize> = (0..slots.len()).filter(|&s| slots[s].1).collect();
                    let mut names: Vec<u32> = (0..live.len() as u32).collect();
                    for i in (1..names.len()).rev() {
                        names.swap(i, rng.gen_range(0..=i));
                    }
                    let mut new_slot = vec![u32::MAX; slots.len()];
                    let mut moved = vec![(Vec::new(), false); live.len()];
                    for (&old, &new) in live.iter().zip(&names) {
                        new_slot[old] = new;
                        moved[new as usize] = (slots[old].0.clone(), true);
                    }
                    slots = moved;
                    for list in model.values_mut() {
                        for s in list.iter_mut() {
                            *s = new_slot[*s] as usize;
                        }
                        list.sort_unstable();
                    }
                    diagonal.renumber(&new_slot);
                }
            }
            for _ in 0..4 {
                let query = encoding(&mut rng);
                let expected = model.get(&query).and_then(|list| list.last()).copied();
                let found = diagonal.lookup(fingerprint(&query), |s| slots[s as usize].0 == query);
                assert_eq!(found.map(|s| s as usize), expected, "step {step}");
            }
        }
        assert_eq!(
            diagonal.shared.values().filter(|l| l.len() < 2).count(),
            0,
            "a list of one slot is stored inline"
        );
    }

    #[test]
    fn answers_like_the_encoding_keyed_table_it_replaced() {
        // An injective fingerprint: lists are exactly the model's.
        run_against_the_model(1, |e| u64::from(e[0]) << 8 | u64::from(e[1]));
        run_against_the_model(2, |e| u64::from(e[0]) << 8 | u64::from(e[1]));
    }

    #[test]
    fn a_fingerprint_collision_is_rejected_by_the_encoding_comparison() {
        // Three fingerprints for thirty-six encodings: nearly every list mixes
        // encodings, and only the comparison keeps the answers apart.
        run_against_the_model(3, |e| u64::from(e[0] % 3));
        run_against_the_model(4, |_| 7);
        // The smallest case, spelled out: two different vectors, one fingerprint.
        let mut diagonal = Diagonal::default();
        diagonal.insert(7, 0);
        diagonal.insert(7, 1);
        assert_eq!(
            diagonal.lookup(7, |s| s == 0),
            Some(0),
            "not the newer slot"
        );
        assert_eq!(diagonal.lookup(7, |_| false), None);
        diagonal.remove(7, 0);
        assert_eq!(diagonal.lookup(7, |s| s == 0), None);
        assert_eq!(diagonal.lookup(7, |s| s == 1), Some(1));
    }
}
