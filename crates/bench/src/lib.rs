//! Experiment harness reproducing every quantitative claim of the paper.
//!
//! Each module under [`experiments`] regenerates one table, figure or worked
//! numerical scenario from *"A Fresh Look at the Reliability of Long-term
//! Digital Storage"* and returns an [`report::ExperimentResult`] holding the
//! paper's printed value next to the value this implementation produces.
//!
//! Run the whole suite with:
//!
//! ```text
//! cargo run -p ltds-bench --bin paper_experiments
//! ```
//!
//! The repository benchmark, its own package under `perfbench/`, times
//! the canonical [`workloads`]:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload study --seed 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod workloads;

pub use report::{ExperimentResult, Row};

/// Runs every experiment in order and returns their results.
pub fn run_all() -> Vec<ExperimentResult> {
    vec![
        experiments::e01_drive_comparison::run(),
        experiments::e02_no_scrub::run(),
        experiments::e03_scrubbed::run(),
        experiments::e04_correlated::run(),
        experiments::e05_negligent_latent::run(),
        experiments::e06_alpha_bounds::run(),
        experiments::e07_replication_vs_alpha::run(),
        experiments::e08_double_fault_matrix::run(),
        experiments::e09_simulation_validation::run(),
        experiments::e10_disk_vs_tape::run(),
        experiments::e11_scrub_frequency_sweep::run(),
        experiments::e12_mv_ml_tradeoff::run(),
        experiments::e13_independence_vs_replication::run(),
        experiments::e14_archive_end_to_end::run(),
        experiments::e15_fleet_disaster::run(),
        experiments::e16_policy_tradeoff::run(),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_experiments_run_and_pass_their_own_tolerances() {
        let results = super::run_all();
        assert_eq!(results.len(), 16);
        for r in &results {
            assert!(!r.rows.is_empty(), "{} produced no rows", r.id);
            for row in &r.rows {
                assert!(
                    row.within_tolerance(),
                    "{}: row '{}' out of tolerance (paper {:?}, measured {}, tol {:?})",
                    r.id,
                    row.label,
                    row.paper,
                    row.measured,
                    row.tolerance
                );
            }
        }
    }

    #[test]
    fn markdown_rendering_is_nonempty() {
        let results = super::run_all();
        let mut report = String::new();
        for r in results {
            let md = r.to_markdown();
            assert!(md.contains(&r.id));
            assert!(md.lines().count() >= r.rows.len());
            report.push_str(&md);
        }
        // Every row of E01–E16, exactly: the digest of the report
        // `paper_experiments --markdown` prints. A change that moves any
        // measured value fails here, whatever the tolerances allow.
        assert_eq!(
            ltds_core::hash::fnv1a(report.as_bytes()),
            0x2286_fcc0_e4fa_4748,
            "the E01–E16 report changed; diff `paper_experiments --markdown` against the last \
             commit before re-pinning"
        );
    }
}
