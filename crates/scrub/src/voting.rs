//! Inter-replica comparison auditing (LOCKSS-style majority voting).
//!
//! §6.2 notes that auditing can either compute checksums against stored
//! digests or *compare replicas against each other*. Voting needs no trusted
//! digest store — the majority defines the truth — at the cost of reading
//! several replicas per audit and of being unable to decide without a
//! majority. §6.6 warns that the audit protocol itself becomes an attack
//! channel; the tie/no-quorum handling here is deliberately conservative.

use crate::audit::{digest, Digest};
use std::collections::BTreeMap;

/// Result of a voting audit for one object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VoteOutcome {
    /// All replicas agree.
    Unanimous {
        /// The agreed digest.
        digest: Digest,
    },
    /// A strict majority agrees; the listed replicas dissent and should be
    /// repaired from the majority.
    Majority {
        /// The winning digest.
        digest: Digest,
        /// Replicas (by index into the audited list) whose content disagrees
        /// or is missing.
        losers: Vec<usize>,
    },
    /// No strict majority exists; repair cannot proceed safely from votes
    /// alone.
    NoQuorum,
}

/// A voting auditor: compares the same object across replicas.
#[derive(Debug, Clone, Copy, Default)]
pub struct VotingAuditor;

impl VotingAuditor {
    /// Creates a voting auditor.
    pub fn new() -> Self {
        Self
    }

    /// Runs a vote over one object's replica contents.
    ///
    /// `contents[i]` is replica `i`'s copy, or `None` if that replica cannot
    /// produce the object. Missing copies never win the vote but do count
    /// toward the quorum denominator: a majority of *replicas*, not of
    /// present copies, is required.
    pub fn vote(&self, contents: &[Option<Vec<u8>>]) -> VoteOutcome {
        assert!(!contents.is_empty(), "cannot vote over zero replicas");
        let total = contents.len();
        let mut tally: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (idx, content) in contents.iter().enumerate() {
            if let Some(bytes) = content {
                tally.entry(digest(bytes).0).or_default().push(idx);
            }
        }
        let Some((&winning, voters)) =
            tally.iter().max_by_key(|(_, voters)| voters.len()).map(|(d, v)| (d, v.clone()))
        else {
            return VoteOutcome::NoQuorum;
        };
        // Strict majority of all replicas required.
        if voters.len() * 2 <= total {
            return VoteOutcome::NoQuorum;
        }
        if voters.len() == total {
            return VoteOutcome::Unanimous { digest: Digest(winning) };
        }
        let losers: Vec<usize> = (0..total).filter(|i| !voters.contains(i)).collect();
        VoteOutcome::Majority { digest: Digest(winning), losers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn some(bytes: &[u8]) -> Option<Vec<u8>> {
        Some(bytes.to_vec())
    }

    #[test]
    fn unanimous_agreement() {
        let v = VotingAuditor::new();
        let out = v.vote(&[some(b"data"), some(b"data"), some(b"data")]);
        assert!(matches!(out, VoteOutcome::Unanimous { .. }));
    }

    #[test]
    fn majority_identifies_the_corrupt_copy() {
        let v = VotingAuditor::new();
        let out = v.vote(&[some(b"data"), some(b"dama"), some(b"data")]);
        match out {
            VoteOutcome::Majority { digest: d, ref losers } => {
                assert_eq!(d, digest(b"data"));
                assert_eq!(losers, &[1]);
            }
            other => panic!("expected majority, got {other:?}"),
        }
    }

    #[test]
    fn missing_copy_counts_as_loser() {
        let v = VotingAuditor::new();
        let out = v.vote(&[some(b"data"), None, some(b"data")]);
        assert!(matches!(out, VoteOutcome::Majority { ref losers, .. } if losers == &[1]));
    }

    #[test]
    fn two_way_split_has_no_quorum() {
        let v = VotingAuditor::new();
        let out = v.vote(&[some(b"aaa"), some(b"bbb")]);
        assert_eq!(out, VoteOutcome::NoQuorum);
    }

    #[test]
    fn majority_of_all_replicas_not_just_present_ones() {
        // Two copies missing, one present: the survivor is NOT a majority of
        // three replicas, so the vote must refuse to declare it authoritative.
        let v = VotingAuditor::new();
        let out = v.vote(&[None, some(b"only copy"), None]);
        assert_eq!(out, VoteOutcome::NoQuorum);
    }

    #[test]
    fn all_missing_is_no_quorum() {
        let v = VotingAuditor::new();
        assert_eq!(v.vote(&[None, None, None]), VoteOutcome::NoQuorum);
    }

    #[test]
    fn five_way_vote_with_two_corrupt() {
        let v = VotingAuditor::new();
        let out =
            v.vote(&[some(b"good"), some(b"bad1"), some(b"good"), some(b"bad2"), some(b"good")]);
        assert!(matches!(out, VoteOutcome::Majority { ref losers, .. } if losers == &[1, 3]));
    }

    #[test]
    #[should_panic(expected = "zero replicas")]
    fn empty_vote_panics() {
        let _ = VotingAuditor::new().vote(&[]);
    }
}
