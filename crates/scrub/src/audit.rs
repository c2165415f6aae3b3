//! Checksum auditing: the mechanism behind "reading the data and computing
//! checksums" (§6.2).
//!
//! The auditor is deliberately storage-agnostic: it works over byte slices
//! and previously recorded digests, so the archive substrate, the simulator
//! and tests can all reuse it. The digest is a 64-bit FNV-1a hash — not
//! cryptographic, but exactly the kind of cheap integrity check scrubbing
//! uses to detect bit rot (an adversarial setting would swap in a
//! cryptographic hash behind the same interface).

/// A 64-bit content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub u64);

/// Computes the FNV-1a digest of a byte slice (the workspace-standard
/// [`ltds_core::hash::fnv1a`]).
pub fn digest(data: &[u8]) -> Digest {
    Digest(ltds_core::hash::fnv1a(data))
}

/// Result of auditing one object replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditOutcome {
    /// Content matches the recorded digest.
    Clean,
    /// Content is present but does not match the recorded digest (bit rot,
    /// misdirected write, tampering).
    Corrupt,
    /// Content is missing entirely (deleted, unreadable sector, lost medium).
    Missing,
}

impl AuditOutcome {
    /// Whether the outcome indicates a latent fault that needs repair.
    pub fn needs_repair(self) -> bool {
        self != AuditOutcome::Clean
    }
}

/// A checksum auditor holding the expected digests of a collection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChecksumAuditor {
    expected: std::collections::BTreeMap<String, Digest>,
}

impl ChecksumAuditor {
    /// Creates an auditor with no registered objects.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers) the authoritative content of an object.
    pub fn register(&mut self, object_id: impl Into<String>, content: &[u8]) {
        self.expected.insert(object_id.into(), digest(content));
    }

    /// The recorded digest for an object, if registered.
    pub fn expected_digest(&self, object_id: &str) -> Option<Digest> {
        self.expected.get(object_id).copied()
    }

    /// Audits a single object replica.
    ///
    /// `content` is `None` when the replica cannot produce the object at all.
    /// Unregistered objects are reported as [`AuditOutcome::Missing`] because
    /// the auditor has no basis to vouch for them.
    pub fn audit(&self, object_id: &str, content: Option<&[u8]>) -> AuditOutcome {
        let Some(expected) = self.expected.get(object_id) else {
            return AuditOutcome::Missing;
        };
        match content {
            None => AuditOutcome::Missing,
            Some(bytes) => {
                if digest(bytes) == *expected {
                    AuditOutcome::Clean
                } else {
                    AuditOutcome::Corrupt
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        assert_eq!(digest(b"hello"), digest(b"hello"));
        assert_ne!(digest(b"hello"), digest(b"hellp"));
        assert_ne!(digest(b""), digest(b"\0"));
    }

    #[test]
    fn single_bit_flip_is_detected() {
        let mut data = vec![0u8; 4096];
        data[1234] = 0x55;
        let original = digest(&data);
        data[1234] ^= 0x01;
        assert_ne!(digest(&data), original);
    }

    #[test]
    fn audit_outcomes() {
        let mut auditor = ChecksumAuditor::new();
        auditor.register("obj-1", b"the quick brown fox");
        assert_eq!(auditor.audit("obj-1", Some(b"the quick brown fox")), AuditOutcome::Clean);
        assert_eq!(auditor.audit("obj-1", Some(b"the quick brown fix")), AuditOutcome::Corrupt);
        assert_eq!(auditor.audit("obj-1", None), AuditOutcome::Missing);
        assert_eq!(auditor.audit("unknown", Some(b"anything")), AuditOutcome::Missing);
        assert!(!AuditOutcome::Clean.needs_repair());
        assert!(AuditOutcome::Corrupt.needs_repair());
        assert!(AuditOutcome::Missing.needs_repair());
    }

    #[test]
    fn reregistering_updates_the_digest() {
        let mut auditor = ChecksumAuditor::new();
        auditor.register("a", b"version 1");
        auditor.register("a", b"version 2");
        assert_eq!(auditor.audit("a", Some(b"version 2")), AuditOutcome::Clean);
        assert_eq!(auditor.audit("a", Some(b"version 1")), AuditOutcome::Corrupt);
        assert_eq!(auditor.expected_digest("a"), Some(digest(b"version 2")));
    }
}
