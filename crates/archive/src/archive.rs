//! The archive itself: ingest, verified reads, scrubbing and peer repair.

use crate::node::ArchiveNode;
use ltds_core::units::Hours;
use ltds_scrub::audit::{AuditOutcome, ChecksumAuditor};
use ltds_scrub::voting::{VoteOutcome, VotingAuditor};
use std::fmt;

/// How the archive repairs a replica found damaged during a scrub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairMode {
    /// Copy from any peer whose content matches the registered checksum
    /// (requires the ingest-time digest store to survive).
    ChecksumVerifiedPeer,
    /// LOCKSS-style: take the majority content across replicas, with no
    /// reliance on a digest store.
    MajorityVote,
    /// Detect but never repair — the §6.3 anti-pattern, kept for experiments.
    DetectOnly,
}

/// Static configuration of an archive deployment.
#[derive(Debug, Clone)]
pub struct ArchiveConfig {
    /// Names of the replica nodes (one node per name).
    pub node_names: Vec<String>,
    /// Scrub period applied to every node.
    pub scrub_period: Hours,
    /// Repair mode.
    pub repair_mode: RepairMode,
}

impl ArchiveConfig {
    /// A three-node deployment scrubbed three times a year — the paper's
    /// recommended shape at small scale.
    pub fn default_three_node() -> Self {
        Self {
            node_names: vec!["site-a".into(), "site-b".into(), "site-c".into()],
            scrub_period: Hours::new(2920.0),
            repair_mode: RepairMode::ChecksumVerifiedPeer,
        }
    }
}

/// Errors surfaced by archive operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    /// The object was never ingested.
    UnknownObject(String),
    /// No replica could produce a copy matching the registered digest.
    Unrecoverable(String),
    /// The archive was configured with no nodes.
    NoNodes,
    /// An object id or payload was invalid (empty id).
    InvalidInput(String),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::UnknownObject(id) => write!(f, "unknown object: {id}"),
            ArchiveError::Unrecoverable(id) => {
                write!(f, "no intact replica remains for object: {id}")
            }
            ArchiveError::NoNodes => write!(f, "archive has no replica nodes"),
            ArchiveError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

/// Operational counters maintained by the archive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Objects ingested.
    pub ingested: u64,
    /// Verified reads served.
    pub reads: u64,
    /// Scrub passes completed (per node).
    pub scrub_passes: u64,
    /// Latent faults (corrupt or missing replicas) detected by scrubbing.
    pub latent_faults_detected: u64,
    /// Replica repairs completed.
    pub repairs: u64,
    /// Repairs that could not be completed (no intact source).
    pub unrecoverable: u64,
}

/// A replicated archival store with scrubbing and automated repair.
#[derive(Debug)]
pub struct Archive {
    nodes: Vec<ArchiveNode>,
    auditor: ChecksumAuditor,
    voter: VotingAuditor,
    repair_mode: RepairMode,
    clock: Hours,
    stats: ArchiveStats,
    /// Ids of every object ever ingested, in ingest order. This is the
    /// authoritative catalogue: an object missing from every node must still
    /// be audited (and reported lost).
    registry: Vec<String>,
}

impl Archive {
    /// Builds an archive from a configuration.
    pub fn new(config: ArchiveConfig) -> Self {
        let nodes = config
            .node_names
            .iter()
            .map(|n| ArchiveNode::new(n.clone(), config.scrub_period))
            .collect();
        Self {
            nodes,
            auditor: ChecksumAuditor::new(),
            voter: VotingAuditor::new(),
            repair_mode: config.repair_mode,
            clock: Hours::ZERO,
            stats: ArchiveStats::default(),
            registry: Vec::new(),
        }
    }

    /// Operational counters.
    pub fn stats(&self) -> ArchiveStats {
        self.stats
    }

    /// Number of replica nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to the nodes (for inspection and fault injection).
    pub fn nodes(&self) -> &[ArchiveNode] {
        &self.nodes
    }

    /// Mutable access to the nodes (for fault injection).
    pub fn nodes_mut(&mut self) -> &mut Vec<ArchiveNode> {
        &mut self.nodes
    }

    /// Ingests an object: registers its digest and writes it to every node.
    pub fn ingest(&mut self, id: &str, data: Vec<u8>) -> Result<(), ArchiveError> {
        if self.nodes.is_empty() {
            return Err(ArchiveError::NoNodes);
        }
        if id.is_empty() {
            return Err(ArchiveError::InvalidInput("object id must not be empty".into()));
        }
        if self.auditor.expected_digest(id).is_none() {
            self.registry.push(id.to_string());
        }
        self.auditor.register(id, &data);
        for node in &self.nodes {
            node.store.put(id, data.clone());
        }
        self.stats.ingested += 1;
        Ok(())
    }

    /// Reads an object, verifying it against the registered digest; falls
    /// back across replicas until a verified copy is found. A verified read
    /// that encounters damaged replicas opportunistically repairs them
    /// (detection on access).
    pub fn read_verified(&mut self, id: &str) -> Result<Vec<u8>, ArchiveError> {
        if self.auditor.expected_digest(id).is_none() {
            return Err(ArchiveError::UnknownObject(id.to_string()));
        }
        let mut good: Option<Vec<u8>> = None;
        let mut damaged: Vec<usize> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let content = node.read(id).map(|b| b.to_vec());
            match self.auditor.audit(id, content.as_deref()) {
                AuditOutcome::Clean => {
                    if good.is_none() {
                        good = content;
                    }
                }
                _ => damaged.push(i),
            }
        }
        match good {
            Some(bytes) => {
                self.stats.reads += 1;
                // Access-triggered repair of any damaged replicas found.
                if self.repair_mode != RepairMode::DetectOnly {
                    for i in damaged {
                        if self.nodes[i].is_online() {
                            self.nodes[i].store.put(id, bytes.clone());
                            self.stats.repairs += 1;
                        }
                    }
                }
                Ok(bytes)
            }
            None => Err(ArchiveError::Unrecoverable(id.to_string())),
        }
    }

    /// Advances the virtual clock, running any scrubs that come due.
    pub fn advance(&mut self, delta: Hours) {
        assert!(delta.is_valid() && delta.is_finite(), "time advance must be finite");
        self.clock = self.clock + delta;
        let now = self.clock;
        for i in 0..self.nodes.len() {
            if self.nodes[i].scrub_due(now) {
                self.scrub_node(i);
                self.nodes[i].record_scrub(now);
            }
        }
    }

    /// Scrubs one node: audits every registered object on it and repairs the
    /// damaged ones according to the repair mode. Returns the number of
    /// problems found.
    pub fn scrub_node(&mut self, node_index: usize) -> usize {
        assert!(node_index < self.nodes.len(), "node index out of range");
        if !self.nodes[node_index].is_online() {
            return 0;
        }
        let ids = self.auditor_object_ids();
        let mut problems = 0;
        for id in &ids {
            let content = self.nodes[node_index].read(id).map(|b| b.to_vec());
            let outcome = self.auditor.audit(id, content.as_deref());
            if outcome.needs_repair() {
                problems += 1;
                self.stats.latent_faults_detected += 1;
                match self.repair_mode {
                    RepairMode::DetectOnly => {}
                    RepairMode::ChecksumVerifiedPeer => self.repair_from_peer(id, node_index),
                    RepairMode::MajorityVote => self.repair_by_vote(id),
                }
            }
        }
        self.stats.scrub_passes += 1;
        problems
    }

    /// Scrubs every online node immediately, regardless of schedule.
    pub fn scrub_all(&mut self) -> usize {
        (0..self.nodes.len()).map(|i| self.scrub_node(i)).sum()
    }

    /// Verifies every object on every node without repairing, returning the
    /// number of (object, node) pairs that are damaged. Used by experiments
    /// to measure ground-truth damage.
    pub fn damage_census(&self) -> usize {
        let ids = self.auditor_object_ids();
        let mut damaged = 0;
        for node in &self.nodes {
            for id in &ids {
                let content = node.store.get(id).map(|b| b.to_vec());
                if self.auditor.audit(id, content.as_deref()).needs_repair() {
                    damaged += 1;
                }
            }
        }
        damaged
    }

    /// Number of objects for which *no* node holds a verified copy
    /// (irrecoverable data loss).
    pub fn lost_objects(&self) -> usize {
        let ids = self.auditor_object_ids();
        ids.iter()
            .filter(|id| {
                !self.nodes.iter().any(|node| {
                    let content = node.store.get(id).map(|b| b.to_vec());
                    self.auditor.audit(id, content.as_deref()) == AuditOutcome::Clean
                })
            })
            .count()
    }

    fn auditor_object_ids(&self) -> Vec<String> {
        self.registry.clone()
    }

    fn repair_from_peer(&mut self, id: &str, damaged_index: usize) {
        let source = self.nodes.iter().enumerate().find_map(|(i, node)| {
            if i == damaged_index {
                return None;
            }
            let content = node.read(id).map(|b| b.to_vec());
            if self.auditor.audit(id, content.as_deref()) == AuditOutcome::Clean {
                content
            } else {
                None
            }
        });
        match source {
            Some(bytes) => {
                if self.nodes[damaged_index].is_online() {
                    self.nodes[damaged_index].store.put(id, bytes);
                    self.stats.repairs += 1;
                }
            }
            None => self.stats.unrecoverable += 1,
        }
    }

    fn repair_by_vote(&mut self, id: &str) {
        let contents: Vec<Option<Vec<u8>>> =
            self.nodes.iter().map(|n| n.read(id).map(|b| b.to_vec())).collect();
        match self.voter.vote(&contents) {
            VoteOutcome::Unanimous { .. } => {}
            VoteOutcome::Majority { losers, .. } => {
                let winner = contents
                    .iter()
                    .enumerate()
                    .find(|(i, c)| !losers.contains(i) && c.is_some())
                    .and_then(|(_, c)| c.clone())
                    .expect("majority implies at least one intact copy");
                for i in losers {
                    if self.nodes[i].is_online() {
                        self.nodes[i].store.put(id, winner.clone());
                        self.stats.repairs += 1;
                    }
                }
            }
            VoteOutcome::NoQuorum => self.stats.unrecoverable += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_archive(mode: RepairMode) -> Archive {
        let mut config = ArchiveConfig::default_three_node();
        config.repair_mode = mode;
        let mut a = Archive::new(config);
        a.ingest("doc-1", b"first document".to_vec()).unwrap();
        a.ingest("doc-2", b"second document".to_vec()).unwrap();
        a
    }

    #[test]
    fn ingest_replicates_to_all_nodes() {
        let a = small_archive(RepairMode::ChecksumVerifiedPeer);
        for node in a.nodes() {
            assert_eq!(node.store.object_ids().len(), 2);
        }
        assert_eq!(a.stats().ingested, 2);
        assert_eq!(a.damage_census(), 0);
        assert_eq!(a.lost_objects(), 0);
    }

    #[test]
    fn ingest_validation() {
        let mut a = Archive::new(ArchiveConfig {
            node_names: vec![],
            scrub_period: Hours::new(100.0),
            repair_mode: RepairMode::ChecksumVerifiedPeer,
        });
        assert_eq!(a.ingest("x", b"data".to_vec()), Err(ArchiveError::NoNodes));
        let mut b = small_archive(RepairMode::ChecksumVerifiedPeer);
        assert!(matches!(b.ingest("", b"data".to_vec()), Err(ArchiveError::InvalidInput(_))));
    }

    #[test]
    fn verified_read_falls_back_to_intact_replica() {
        let mut a = small_archive(RepairMode::ChecksumVerifiedPeer);
        // Corrupt the copy on node 0 and delete it from node 1.
        a.nodes()[0].store.flip_bit("doc-1", 0, 0);
        a.nodes()[1].store.delete("doc-1");
        let data = a.read_verified("doc-1").unwrap();
        assert_eq!(data, b"first document".to_vec());
        // Access-triggered repair restored the damaged replicas.
        assert_eq!(a.damage_census(), 0);
        assert!(a.stats().repairs >= 2);
    }

    #[test]
    fn unknown_and_unrecoverable_reads_error() {
        let mut a = small_archive(RepairMode::ChecksumVerifiedPeer);
        assert!(matches!(a.read_verified("nope"), Err(ArchiveError::UnknownObject(_))));
        for node in a.nodes() {
            node.store.flip_bit("doc-2", 1, 1);
        }
        assert!(matches!(a.read_verified("doc-2"), Err(ArchiveError::Unrecoverable(_))));
        assert_eq!(a.lost_objects(), 1);
    }

    #[test]
    fn scrub_detects_and_repairs_bit_rot() {
        let mut a = small_archive(RepairMode::ChecksumVerifiedPeer);
        a.nodes()[2].store.flip_bit("doc-1", 5, 3);
        assert_eq!(a.damage_census(), 1);
        let problems = a.scrub_node(2);
        assert_eq!(problems, 1);
        assert_eq!(a.damage_census(), 0);
        assert_eq!(a.stats().latent_faults_detected, 1);
        assert_eq!(a.stats().repairs, 1);
        assert_eq!(a.stats().unrecoverable, 0);
    }

    #[test]
    fn detect_only_mode_never_repairs() {
        let mut a = small_archive(RepairMode::DetectOnly);
        a.nodes()[0].store.flip_bit("doc-1", 0, 0);
        let problems = a.scrub_node(0);
        assert_eq!(problems, 1);
        assert_eq!(a.stats().repairs, 0);
        assert_eq!(a.damage_census(), 1);
    }

    #[test]
    fn majority_vote_repair_without_digest_trust() {
        let mut a = small_archive(RepairMode::MajorityVote);
        a.nodes()[1].store.flip_bit("doc-2", 2, 2);
        let problems = a.scrub_node(1);
        assert_eq!(problems, 1);
        assert_eq!(a.damage_census(), 0);
        assert_eq!(a.stats().repairs, 1);
    }

    #[test]
    fn scrub_of_offline_node_is_skipped() {
        let mut a = small_archive(RepairMode::ChecksumVerifiedPeer);
        a.nodes_mut()[0].take_offline();
        assert_eq!(a.scrub_node(0), 0);
        // Scheduled scrubbing via advance also skips it without panicking.
        a.advance(Hours::new(5000.0));
        assert!(a.stats().scrub_passes >= 2);
    }

    #[test]
    fn advance_runs_scheduled_scrubs() {
        let mut a = small_archive(RepairMode::ChecksumVerifiedPeer);
        a.nodes()[0].store.flip_bit("doc-1", 0, 0);
        // Half a period: nothing due yet.
        a.advance(Hours::new(1000.0));
        assert_eq!(a.stats().scrub_passes, 0);
        assert_eq!(a.damage_census(), 1);
        // Cross the period boundary: all three nodes scrub, damage is repaired.
        a.advance(Hours::new(2000.0));
        assert_eq!(a.stats().scrub_passes, 3);
        assert_eq!(a.damage_census(), 0);
    }

    #[test]
    fn unrecoverable_damage_is_counted() {
        let mut a = small_archive(RepairMode::ChecksumVerifiedPeer);
        for node in a.nodes() {
            node.store.flip_bit("doc-1", 0, 0);
        }
        a.scrub_all();
        assert!(a.stats().unrecoverable > 0);
        assert_eq!(a.lost_objects(), 1);
    }
}
