//! The physical fleet hierarchy: `site → rack → node → drive`, and the
//! deterministic placement of replica groups onto it.
//!
//! Drives are identified by a flat index in `0..total_drives()`; the
//! hierarchy is regular (every site has the same number of racks, and so
//! on), which keeps domain arithmetic branch-free and the topology
//! description four integers.

use ltds_core::error::ModelError;
use serde::{Deserialize, Serialize};

/// Shape of the fleet: a regular `site → rack → node → drive` tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetTopology {
    /// Number of sites (data centres).
    pub sites: usize,
    /// Racks per site.
    pub racks_per_site: usize,
    /// Nodes per rack.
    pub nodes_per_rack: usize,
    /// Drives per node.
    pub drives_per_node: usize,
}

impl FleetTopology {
    /// Creates a topology, validating that every level is populated.
    pub fn new(
        sites: usize,
        racks_per_site: usize,
        nodes_per_rack: usize,
        drives_per_node: usize,
    ) -> Result<Self, ModelError> {
        for (level, n) in [
            ("sites", sites),
            ("racks_per_site", racks_per_site),
            ("nodes_per_rack", nodes_per_rack),
            ("drives_per_node", drives_per_node),
        ] {
            if n == 0 {
                return Err(ModelError::InvalidQuantity { parameter: level, value: 0.0 });
            }
        }
        Ok(Self { sites, racks_per_site, nodes_per_rack, drives_per_node })
    }

    /// A single node with `drives` drives — the degenerate topology used to
    /// cross-check the fleet engine against the per-group simulator.
    pub fn single_node(drives: usize) -> Result<Self, ModelError> {
        Self::new(1, 1, 1, drives)
    }

    /// Drives per site.
    pub fn drives_per_site(&self) -> usize {
        self.racks_per_site * self.nodes_per_rack * self.drives_per_node
    }

    /// Drives per rack.
    pub fn drives_per_rack(&self) -> usize {
        self.nodes_per_rack * self.drives_per_node
    }

    /// Total drives in the fleet.
    pub fn total_drives(&self) -> usize {
        self.sites * self.drives_per_site()
    }

    /// Total nodes in the fleet.
    pub fn total_nodes(&self) -> usize {
        self.sites * self.racks_per_site * self.nodes_per_rack
    }

    /// Total racks in the fleet.
    pub fn total_racks(&self) -> usize {
        self.sites * self.racks_per_site
    }

    /// Site containing a drive.
    pub fn site_of(&self, drive: usize) -> usize {
        drive / self.drives_per_site()
    }

    /// Range of drive indices belonging to a site.
    pub fn site_drives(&self, site: usize) -> std::ops::Range<usize> {
        let n = self.drives_per_site();
        site * n..(site + 1) * n
    }

    /// Range of drive indices belonging to a global rack index.
    pub fn rack_drives(&self, rack: usize) -> std::ops::Range<usize> {
        let n = self.drives_per_rack();
        rack * n..(rack + 1) * n
    }

    /// Range of drive indices belonging to a global node index.
    pub fn node_drives(&self, node: usize) -> std::ops::Range<usize> {
        let n = self.drives_per_node;
        node * n..(node + 1) * n
    }

    /// Places replica `r` of replica group `group` onto a drive.
    ///
    /// The policy follows the paper's independence advice mechanically:
    /// replicas go to *distinct sites* first (site `(group + r) % sites`),
    /// and only once every site holds one replica do additional replicas
    /// reuse a site — on a *distinct drive*, with consecutive within-site
    /// slots striped across racks so co-sited replicas avoid sharing a rack
    /// where possible. Placement is a pure function of `(topology, group,
    /// r)`, so every shard and thread count sees the same layout.
    pub fn place(&self, group: usize, r: usize) -> usize {
        let site = (group + r) % self.sites;
        let wrap = r / self.sites;
        let dps = self.drives_per_site();
        let local = (group / self.sites + wrap) % dps;
        // Stripe within-site slots across racks, then nodes, then drives:
        // consecutive `local` values land in different racks.
        let rack = local % self.racks_per_site;
        let node = (local / self.racks_per_site) % self.nodes_per_rack;
        let drive = local / (self.racks_per_site * self.nodes_per_rack);
        site * dps + rack * self.drives_per_rack() + node * self.drives_per_node + drive
    }

    /// Largest replica count the placement policy can host without putting
    /// two replicas of one group on the same drive.
    pub fn max_replicas(&self) -> usize {
        self.sites * self.drives_per_site()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FleetTopology {
        FleetTopology::new(3, 4, 5, 6).unwrap()
    }

    #[test]
    fn counts_multiply_out() {
        let t = topo();
        assert_eq!(t.drives_per_site(), 120);
        assert_eq!(t.drives_per_rack(), 30);
        assert_eq!(t.total_drives(), 360);
        assert_eq!(t.total_nodes(), 60);
        assert_eq!(t.total_racks(), 12);
    }

    #[test]
    fn domain_arithmetic_is_consistent() {
        let t = topo();
        for drive in 0..t.total_drives() {
            assert!(t.site_drives(t.site_of(drive)).contains(&drive));
        }
        // Racks and nodes tile the drives in index order, each inside its
        // site, so every drive lies in exactly one rack and one node.
        let mut next = 0;
        for rack in 0..t.total_racks() {
            let site = t.site_drives(rack / t.racks_per_site);
            let drives = t.rack_drives(rack);
            assert_eq!(drives.start, next, "rack {rack}");
            assert!(site.start <= drives.start && drives.end <= site.end, "rack {rack}");
            next = drives.end;
        }
        assert_eq!(next, t.total_drives());
        let mut next = 0;
        for node in 0..t.total_nodes() {
            let site = t.site_drives(node / (t.racks_per_site * t.nodes_per_rack));
            let drives = t.node_drives(node);
            assert_eq!(drives.start, next, "node {node}");
            assert!(site.start <= drives.start && drives.end <= site.end, "node {node}");
            next = drives.end;
        }
        assert_eq!(next, t.total_drives());
    }

    #[test]
    fn replicas_of_a_group_land_on_distinct_sites_then_distinct_drives() {
        let t = topo();
        for group in 0..500 {
            let drives: Vec<usize> = (0..3).map(|r| t.place(group, r)).collect();
            let sites: Vec<usize> = drives.iter().map(|&d| t.site_of(d)).collect();
            // 3 replicas over 3 sites: all distinct.
            assert_eq!(
                sites.iter().collect::<std::collections::BTreeSet<_>>().len(),
                3,
                "group {group}: {sites:?}"
            );
        }
        // More replicas than sites: drives still distinct.
        for group in 0..500 {
            let drives: Vec<usize> = (0..7).map(|r| t.place(group, r)).collect();
            let unique: std::collections::BTreeSet<_> = drives.iter().collect();
            assert_eq!(unique.len(), 7, "group {group}: {drives:?}");
        }
    }

    #[test]
    fn degenerate_single_node_pair_uses_both_drives() {
        let t = FleetTopology::single_node(2).unwrap();
        assert_eq!(t.place(0, 0), 0);
        assert_eq!(t.place(0, 1), 1);
        assert_eq!(t.max_replicas(), 2);
    }

    #[test]
    fn groups_cover_drives_roughly_evenly() {
        let t = topo();
        let mut load = vec![0usize; t.total_drives()];
        for group in 0..3600 {
            for r in 0..3 {
                load[t.place(group, r)] += 1;
            }
        }
        let (min, max) = (load.iter().min().unwrap(), load.iter().max().unwrap());
        assert!(*min > 0, "every drive should host replicas");
        assert!(*max <= 3 * *min, "placement badly skewed: min {min}, max {max}");
    }

    #[test]
    fn empty_levels_rejected() {
        assert!(FleetTopology::new(0, 1, 1, 1).is_err());
        assert!(FleetTopology::new(1, 0, 1, 1).is_err());
        assert!(FleetTopology::new(1, 1, 0, 1).is_err());
        assert!(FleetTopology::new(1, 1, 1, 0).is_err());
    }
}
