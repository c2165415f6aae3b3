//! The per-node object store, with corruption hooks.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

type Objects = BTreeMap<String, Arc<[u8]>>;

/// An in-memory object store standing in for one node's disk.
///
/// All mutation goes through explicit methods so fault injection (bit flips,
/// deletions) is auditable in tests and experiments. Objects are shared
/// immutable buffers, so reads are reference-count bumps.
#[derive(Debug, Default)]
pub struct ReplicaStore {
    objects: RwLock<Objects>,
}

impl ReplicaStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    // Every update is a single map operation that leaves the map valid, so
    // a panicked holder cannot leave it half-written: recover the guard
    // instead of poisoning the store.
    fn read_guard(&self) -> RwLockReadGuard<'_, Objects> {
        self.objects.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_guard(&self) -> RwLockWriteGuard<'_, Objects> {
        self.objects.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes (or overwrites) an object.
    pub fn put(&self, id: impl Into<String>, data: impl Into<Arc<[u8]>>) {
        self.write_guard().insert(id.into(), data.into());
    }

    /// Reads an object, if present.
    pub fn get(&self, id: &str) -> Option<Arc<[u8]>> {
        self.read_guard().get(id).cloned()
    }

    /// Removes an object, returning whether it was present.
    pub fn delete(&self, id: &str) -> bool {
        self.write_guard().remove(id).is_some()
    }

    /// All object ids, sorted.
    pub fn object_ids(&self) -> Vec<String> {
        self.read_guard().keys().cloned().collect()
    }

    /// Flips one bit of the stored object (silent corruption / bit rot).
    ///
    /// Returns `false` if the object does not exist or is empty.
    pub fn flip_bit(&self, id: &str, byte_index: usize, bit: u8) -> bool {
        let mut guard = self.write_guard();
        let Some(data) = guard.get(id) else {
            return false;
        };
        if data.is_empty() {
            return false;
        }
        let mut copy = data.to_vec();
        let idx = byte_index % copy.len();
        copy[idx] ^= 1 << (bit % 8);
        guard.insert(id.to_string(), copy.into());
        true
    }

    /// Drops every object (catastrophic media loss on this node).
    pub fn wipe(&self) {
        self.write_guard().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let s = ReplicaStore::new();
        assert!(s.object_ids().is_empty());
        s.put("a", b"hello".to_vec());
        assert_eq!(s.get("a").unwrap().as_ref(), b"hello");
        assert_eq!(s.object_ids().len(), 1);
        assert!(s.delete("a"));
        assert!(!s.delete("a"));
        assert!(s.get("a").is_none());
    }

    #[test]
    fn object_ids_sorted() {
        let s = ReplicaStore::new();
        s.put("b", b"2".to_vec());
        s.put("a", b"1".to_vec());
        assert_eq!(s.object_ids(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn flip_bit_corrupts_in_place() {
        let s = ReplicaStore::new();
        s.put("a", vec![0u8; 16]);
        assert!(s.flip_bit("a", 3, 2));
        let data = s.get("a").unwrap();
        assert_eq!(data[3], 0b100);
        assert_eq!(data.len(), 16);
        // Flipping the same bit again restores the byte.
        assert!(s.flip_bit("a", 3, 2));
        assert_eq!(s.get("a").unwrap()[3], 0);
    }

    #[test]
    fn flip_bit_handles_missing_and_empty() {
        let s = ReplicaStore::new();
        assert!(!s.flip_bit("missing", 0, 0));
        s.put("empty", Vec::<u8>::new());
        assert!(!s.flip_bit("empty", 0, 0));
    }

    #[test]
    fn flip_bit_wraps_out_of_range_index() {
        let s = ReplicaStore::new();
        s.put("a", vec![0u8; 4]);
        assert!(s.flip_bit("a", 6, 9));
        // Index 6 wraps to 2; bit 9 wraps to 1.
        assert_eq!(s.get("a").unwrap()[2], 0b10);
    }

    #[test]
    fn wipe_clears_everything() {
        let s = ReplicaStore::new();
        s.put("a", b"1".to_vec());
        s.put("b", b"2".to_vec());
        s.wipe();
        assert!(s.object_ids().is_empty());
    }

    #[test]
    fn a_panicked_holder_does_not_poison_the_store() {
        let s = ReplicaStore::new();
        s.put("a", b"1".to_vec());
        let _ = std::panic::catch_unwind(|| {
            let _guard = s.write_guard();
            panic!("holder dies");
        });
        assert!(s.objects.is_poisoned());
        assert_eq!(s.get("a").unwrap().as_ref(), b"1");
        s.put("b", b"2".to_vec());
        assert_eq!(s.object_ids().len(), 2);
    }

    #[test]
    fn overwrite_replaces_content() {
        let s = ReplicaStore::new();
        s.put("a", b"v1".to_vec());
        s.put("a", b"v2".to_vec());
        assert_eq!(s.get("a").unwrap().as_ref(), b"v2");
        assert_eq!(s.object_ids().len(), 1);
    }
}
