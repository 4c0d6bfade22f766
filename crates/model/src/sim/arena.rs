//! Generation-indexed, refcounted payload store.
//!
//! The engine no longer uses it: a delivery run owns its payload
//! outright (see `sim/engine.rs`). The module stays because the
//! repository benchmark's replay times [`PayloadArena::insert`],
//! [`PayloadArena::release`] and [`PayloadArena::discard`] as a
//! per-layer cost; it goes once that replay is retired.
//!
//! # Refcount contract
//!
//! * [`PayloadArena::insert`] stores a payload with an initial
//!   reference count (one per event that will consume it).
//! * [`PayloadArena::release`] consumes one reference and returns the
//!   payload: by **move** when it was the last reference, by clone
//!   otherwise.
//! * [`PayloadArena::discard`] consumes one reference without
//!   materializing the payload.
//! * Freeing a slot bumps its **generation**, so any stale handle —
//!   a double release, a use after the last reference — is detected
//!   and panics instead of silently reading a recycled slot.
//!
//! Slots are recycled through a free list, so steady-state use
//! allocates nothing.

/// Handle to one payload stored in a [`PayloadArena`]: a slot index
/// plus the generation stamp the slot had when the payload was
/// inserted. Copyable and word-sized.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PayloadHandle {
    slot: u32,
    generation: u32,
}

struct ArenaSlot<M> {
    generation: u32,
    refs: u32,
    payload: Option<M>,
}

/// A generation-indexed, refcounted payload store. See the [module
/// docs](self) for the contract.
pub struct PayloadArena<M> {
    slots: Vec<ArenaSlot<M>>,
    free: Vec<u32>,
}

impl<M> Default for PayloadArena<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> PayloadArena<M> {
    /// An empty arena with no slots allocated.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `payload` with `refs` initial references.
    pub fn insert(&mut self, payload: M, refs: u32) -> PayloadHandle {
        debug_assert!(refs > 0, "inserting a payload nobody will consume");
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.payload.is_none() && s.refs == 0);
                s.refs = refs;
                s.payload = Some(payload);
                PayloadHandle {
                    slot,
                    generation: s.generation,
                }
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("arena slots fit u32");
                self.slots.push(ArenaSlot {
                    generation: 0,
                    refs,
                    payload: Some(payload),
                });
                PayloadHandle {
                    slot,
                    generation: 0,
                }
            }
        }
    }

    fn slot_mut(&mut self, h: PayloadHandle) -> &mut ArenaSlot<M> {
        let s = &mut self.slots[h.slot as usize];
        assert_eq!(
            s.generation, h.generation,
            "stale payload handle (double release or use after free)"
        );
        debug_assert!(s.refs > 0 && s.payload.is_some());
        s
    }

    /// Consumes one reference and returns the payload — moved out on
    /// the last reference (`true` in the second slot: the handle is
    /// now dead and the slot freed), cloned otherwise.
    pub fn release(&mut self, h: PayloadHandle) -> (M, bool)
    where
        M: Clone,
    {
        let s = self.slot_mut(h);
        if s.refs == 1 {
            (self.free_slot(h.slot), true)
        } else {
            s.refs -= 1;
            let payload = s
                .payload
                .as_ref()
                .expect("live slot holds a payload")
                .clone();
            (payload, false)
        }
    }

    /// Consumes one reference without materializing the payload.
    /// Returns `true` when it was the last reference (the slot is
    /// freed).
    pub fn discard(&mut self, h: PayloadHandle) -> bool {
        let s = self.slot_mut(h);
        if s.refs == 1 {
            drop(self.free_slot(h.slot));
            true
        } else {
            s.refs -= 1;
            false
        }
    }

    /// Frees a slot whose refcount has reached its final reference:
    /// takes the payload, bumps the generation (staling every
    /// outstanding handle), and recycles the slot index.
    fn free_slot(&mut self, slot: u32) -> M {
        let s = &mut self.slots[slot as usize];
        s.refs = 0;
        s.generation = s.generation.wrapping_add(1);
        let payload = s.payload.take().expect("live slot holds a payload");
        self.free.push(slot);
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_reference_moves_earlier_ones_clone() {
        let mut a: PayloadArena<String> = PayloadArena::new();
        let h = a.insert("payload".to_string(), 3);
        assert_eq!(a.release(h), ("payload".to_string(), false));
        assert_eq!(a.release(h), ("payload".to_string(), false));
        // Last reference: moved out, handle reported dead.
        assert_eq!(a.release(h), ("payload".to_string(), true));
    }

    #[test]
    fn generations_detect_reuse_of_freed_slots() {
        let mut a: PayloadArena<u64> = PayloadArena::new();
        let h1 = a.insert(1, 1);
        assert_eq!(a.release(h1), (1, true));
        // The freed slot is recycled for the next insert, under a new
        // generation; the old handle no longer resolves to it.
        let h2 = a.insert(2, 1);
        assert_ne!(h1, h2);
        assert_eq!(a.release(h2), (2, true));
    }

    #[test]
    #[should_panic(expected = "stale payload handle")]
    fn double_release_panics() {
        let mut a: PayloadArena<u64> = PayloadArena::new();
        let h = a.insert(7, 1);
        assert_eq!(a.release(h), (7, true));
        let _ = a.release(h);
    }

    #[test]
    #[should_panic(expected = "stale payload handle")]
    fn use_after_cancellation_panics() {
        // The crash-mid-broadcast shape: a cancelled broadcast discards
        // every remaining reference; any event that would still consume
        // the payload afterwards is a bug, not a clone.
        let mut a: PayloadArena<u64> = PayloadArena::new();
        let h = a.insert(9, 3);
        assert_eq!(a.release(h), (9, false)); // one delivery happened
        assert!(!a.discard(h));
        assert!(a.discard(h)); // sender crashed: the rest dies
        let _ = a.release(h);
    }

    #[test]
    fn discard_tracks_last_reference() {
        let mut a: PayloadArena<u64> = PayloadArena::new();
        let h = a.insert(5, 3);
        assert!(!a.discard(h));
        assert!(!a.discard(h));
        assert!(a.discard(h));
    }
}
