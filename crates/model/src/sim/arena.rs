//! Generation-indexed, refcounted payload arena for the engine's
//! in-flight broadcast payloads.
//!
//! One [`PayloadArena`] exists per shard; every payload a broadcast
//! puts in flight lives in exactly one arena — the shard that will
//! consume it. Delivery runs and in-flight records hold
//! [`PayloadHandle`]s (a slot index plus a generation stamp) instead
//! of deep payload clones, so the per-event hot structures stay
//! word-sized and payload copies happen only when two live consumers
//! genuinely need the same message at once.
//!
//! # Refcount contract
//!
//! * [`PayloadArena::insert`] / [`PayloadArena::insert_cloned`] store
//!   a payload with an initial reference count (one per event that
//!   will consume it). [`PayloadArena::retain`] adds a reference.
//! * [`PayloadArena::release`] consumes one reference and returns the
//!   payload: by **move** when it was the last reference (the common
//!   case — counted in [`PayloadArena::moves`]), by clone otherwise
//!   (counted in [`PayloadArena::clones`]).
//! * [`PayloadArena::discard`] consumes one reference without
//!   materializing the payload (deliveries to crashed receivers,
//!   acks); [`PayloadArena::discard_all`] drops every remaining
//!   reference at once (a crashed sender's cancelled broadcast).
//! * Freeing a slot bumps its **generation**, so any stale handle —
//!   a double release, a use after `discard_all` — is detected and
//!   panics instead of silently reading a recycled slot.
//!
//! Slots are recycled through a free list, so steady-state
//! broadcasting allocates nothing; [`PayloadArena::bytes_peak`]
//! reports the high-water payload footprint for
//! [`Metrics::arena_bytes_peak`](super::trace::Metrics::arena_bytes_peak).

/// Handle to one payload stored in a [`PayloadArena`]: a slot index
/// plus the generation stamp the slot had when the payload was
/// inserted. Copyable and word-sized — this is what delivery runs and
/// in-flight records carry instead of payload clones.
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
    live: usize,
    live_peak: usize,
    clones: u64,
    moves: u64,
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
            live: 0,
            live_peak: 0,
            clones: 0,
            moves: 0,
        }
    }

    /// Stores `payload` with `refs` initial references.
    pub fn insert(&mut self, payload: M, refs: u32) -> PayloadHandle {
        debug_assert!(refs > 0, "inserting a payload nobody will consume");
        self.live += 1;
        self.live_peak = self.live_peak.max(self.live);
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

    /// Stores a clone of `payload` (counted in [`Self::clones`]) with
    /// `refs` initial references — the cross-shard import path: one
    /// clone per destination shard, however many events consume it.
    pub fn insert_cloned(&mut self, payload: &M, refs: u32) -> PayloadHandle
    where
        M: Clone,
    {
        self.clones += 1;
        self.insert(payload.clone(), refs)
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

    /// Adds one reference to the payload behind `h`.
    pub fn retain(&mut self, h: PayloadHandle) {
        self.slot_mut(h).refs += 1;
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
            self.moves += 1;
            (self.free_slot(h.slot), true)
        } else {
            s.refs -= 1;
            let payload = s
                .payload
                .as_ref()
                .expect("live slot holds a payload")
                .clone();
            self.clones += 1;
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

    /// Drops every remaining reference behind `h` at once — the
    /// crashed-sender cancellation path, where all of a broadcast's
    /// still-pending events die together.
    pub fn discard_all(&mut self, h: PayloadHandle) {
        self.slot_mut(h).refs = 1;
        drop(self.free_slot(h.slot));
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
        self.live -= 1;
        payload
    }

    /// Payloads extracted by last-reference move so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Payload clones so far (shared-reference releases plus
    /// cross-shard imports).
    pub fn clones(&self) -> u64 {
        self.clones
    }

    /// High-water payload footprint: the peak number of live payloads
    /// times the payload size.
    pub fn bytes_peak(&self) -> u64 {
        self.live_peak as u64 * std::mem::size_of::<M>() as u64
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
        assert_eq!((a.clones(), a.moves()), (2, 0));
        // Last reference: moved out, handle reported dead.
        assert_eq!(a.release(h), ("payload".to_string(), true));
        assert_eq!((a.clones(), a.moves()), (2, 1));
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
        // The crash-mid-broadcast shape: a cancelled broadcast drops
        // all remaining references at once; any event that would still
        // consume the payload afterwards is a bug, not a clone.
        let mut a: PayloadArena<u64> = PayloadArena::new();
        let h = a.insert(9, 4);
        assert_eq!(a.release(h), (9, false)); // one delivery happened
        a.discard_all(h); // sender crashed: rest of the broadcast dies
        let _ = a.release(h);
    }

    #[test]
    fn discard_tracks_last_reference_and_retain_extends() {
        let mut a: PayloadArena<u64> = PayloadArena::new();
        let h = a.insert(5, 2);
        a.retain(h);
        assert!(!a.discard(h));
        assert!(!a.discard(h));
        assert!(a.discard(h));
        assert_eq!((a.clones(), a.moves()), (0, 0), "discards never copy");
    }

    #[test]
    fn bytes_peak_tracks_high_water_live_payloads() {
        let mut a: PayloadArena<u64> = PayloadArena::new();
        let hs: Vec<_> = (0..4).map(|i| a.insert(i, 1)).collect();
        for h in hs {
            let _ = a.release(h);
        }
        let h = a.insert(99, 1);
        let _ = a.release(h);
        assert_eq!(a.bytes_peak(), 4 * std::mem::size_of::<u64>() as u64);
    }
}
