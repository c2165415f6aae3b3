//! One replica node: a store plus its operational attributes.

use crate::store::ReplicaStore;
use ltds_core::units::Hours;
use std::sync::Arc;

/// A replica site: one node of the archive.
#[derive(Debug)]
pub struct ArchiveNode {
    /// Human-readable site name (e.g. `"campus-library"`).
    pub name: String,
    /// The node's object store.
    pub store: ReplicaStore,
    /// Whether the node is currently reachable.
    online: bool,
    /// Scrub period for this node.
    pub scrub_period: Hours,
    /// Simulated time of the last completed scrub.
    pub last_scrub: Hours,
}

impl ArchiveNode {
    /// Creates an online node with an empty store.
    pub fn new(name: impl Into<String>, scrub_period: Hours) -> Self {
        assert!(
            scrub_period.is_valid() && scrub_period.get() > 0.0,
            "scrub period must be positive"
        );
        Self {
            name: name.into(),
            store: ReplicaStore::new(),
            online: true,
            scrub_period,
            last_scrub: Hours::ZERO,
        }
    }

    /// Whether the node is reachable.
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Takes the node offline (site outage, organizational failure).
    pub fn take_offline(&mut self) {
        self.online = false;
    }

    /// Brings the node back online. Its store contents are whatever survived.
    pub fn bring_online(&mut self) {
        self.online = true;
    }

    /// Whether a scrub is due at simulated time `now`.
    pub fn scrub_due(&self, now: Hours) -> bool {
        self.online && (now - self.last_scrub) >= self.scrub_period
    }

    /// Records a completed scrub at time `now`.
    pub fn record_scrub(&mut self, now: Hours) {
        self.last_scrub = now;
    }

    /// Reads an object if the node is online.
    pub fn read(&self, id: &str) -> Option<Arc<[u8]>> {
        if self.online {
            self.store.get(id)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_node_is_online_and_empty() {
        let n = ArchiveNode::new("site-a", Hours::from_days(30.0));
        assert!(n.is_online());
        assert!(n.store.object_ids().is_empty());
        assert_eq!(n.name, "site-a");
    }

    #[test]
    fn offline_node_refuses_reads() {
        let mut n = ArchiveNode::new("site-a", Hours::from_days(30.0));
        n.store.put("x", b"data".to_vec());
        assert!(n.read("x").is_some());
        n.take_offline();
        assert!(!n.is_online());
        assert!(n.read("x").is_none());
        n.bring_online();
        assert!(n.read("x").is_some());
    }

    #[test]
    fn scrub_scheduling() {
        let mut n = ArchiveNode::new("site-a", Hours::new(100.0));
        assert!(!n.scrub_due(Hours::new(50.0)));
        assert!(n.scrub_due(Hours::new(100.0)));
        n.record_scrub(Hours::new(100.0));
        assert!(!n.scrub_due(Hours::new(150.0)));
        assert!(n.scrub_due(Hours::new(200.0)));
        // Offline nodes are never due for scrubbing.
        n.take_offline();
        assert!(!n.scrub_due(Hours::new(1000.0)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scrub_period_rejected() {
        let _ = ArchiveNode::new("bad", Hours::ZERO);
    }
}
