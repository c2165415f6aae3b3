//! Paper-vs-measured reporting types.

/// One row of an experiment: a quantity the paper reports (or implies) and
/// the value this implementation measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What the row measures (e.g. "MTTDL (years)").
    pub label: String,
    /// The paper's printed value, if it prints one. Series points the paper
    /// only describes qualitatively carry `None`.
    pub paper: Option<f64>,
    /// The value measured by this implementation.
    pub measured: f64,
    /// Relative tolerance against the paper value (`None` means the row is
    /// informational and only checked for being finite).
    pub tolerance: Option<f64>,
    /// Unit for display.
    pub unit: String,
}

impl Row {
    /// A row checked against a paper value at a relative tolerance.
    pub fn checked(
        label: impl Into<String>,
        paper: f64,
        measured: f64,
        tolerance: f64,
        unit: impl Into<String>,
    ) -> Self {
        Self {
            label: label.into(),
            paper: Some(paper),
            measured,
            tolerance: Some(tolerance),
            unit: unit.into(),
        }
    }

    /// An informational row with no paper value to compare against.
    pub fn info(label: impl Into<String>, measured: f64, unit: impl Into<String>) -> Self {
        Self { label: label.into(), paper: None, measured, tolerance: None, unit: unit.into() }
    }

    /// Whether the measured value is within tolerance of the paper value
    /// (informational rows only require a finite measurement).
    pub fn within_tolerance(&self) -> bool {
        if !self.measured.is_finite() {
            return false;
        }
        match (self.paper, self.tolerance) {
            (Some(paper), Some(tol)) => {
                if paper == 0.0 {
                    self.measured.abs() <= tol
                } else {
                    ((self.measured - paper) / paper).abs() <= tol
                }
            }
            _ => true,
        }
    }

    /// Relative deviation from the paper value, if one exists.
    pub fn relative_error(&self) -> Option<f64> {
        self.paper.map(|p| if p == 0.0 { self.measured.abs() } else { (self.measured - p) / p })
    }
}

/// The result of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Experiment id, e.g. "E03".
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Where in the paper the claim comes from, e.g. "§5.4 scenario 2".
    pub paper_location: String,
    /// The rows of the regenerated table/series.
    pub rows: Vec<Row>,
    /// Free-text notes (calibration choices, substitutions).
    pub notes: String,
}

impl ExperimentResult {
    /// Whether every row is within its tolerance.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(Row::within_tolerance)
    }

    /// Renders the result as a Markdown section (used to build EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {} ({})\n\n", self.id, self.title, self.paper_location));
        out.push_str("| Quantity | Paper | Measured | Unit | Rel. error |\n");
        out.push_str("|----------|-------|----------|------|------------|\n");
        for row in &self.rows {
            let paper = row.paper.map(|p| format!("{p:.4}")).unwrap_or_else(|| "—".to_string());
            let err = row
                .relative_error()
                .map(|e| format!("{:+.1}%", e * 100.0))
                .unwrap_or_else(|| "—".to_string());
            out.push_str(&format!(
                "| {} | {} | {:.4} | {} | {} |\n",
                row.label, paper, row.measured, row.unit, err
            ));
        }
        if !self.notes.is_empty() {
            out.push_str(&format!("\n{}\n", self.notes));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_checks() {
        let ok = Row::checked("x", 100.0, 101.0, 0.02, "years");
        assert!(ok.within_tolerance());
        assert!((ok.relative_error().unwrap() - 0.01).abs() < 1e-12);
        let bad = Row::checked("x", 100.0, 120.0, 0.05, "years");
        assert!(!bad.within_tolerance());
        let info = Row::info("y", 3.5, "errors");
        assert!(info.within_tolerance());
        assert!(info.relative_error().is_none());
        let nan = Row::info("z", f64::NAN, "x");
        assert!(!nan.within_tolerance());
        let zero_paper = Row::checked("w", 0.0, 0.005, 0.01, "x");
        assert!(zero_paper.within_tolerance());
    }

    #[test]
    fn markdown_contains_rows_and_notes() {
        let result = ExperimentResult {
            id: "E99".into(),
            title: "Example".into(),
            paper_location: "§0".into(),
            rows: vec![Row::checked("MTTDL", 32.0, 31.96, 0.01, "years")],
            notes: "A note.".into(),
        };
        assert!(result.passed());
        let md = result.to_markdown();
        assert!(md.contains("E99"));
        assert!(md.contains("MTTDL"));
        assert!(md.contains("A note."));
        assert!(md.contains("-0.1%"));
    }
}
