//! Model parameters (`MV`, `ML`, `MRV`, `MRL`, `MDL`, `α`) with validation.

use crate::error::ModelError;
use crate::units::Hours;

/// The six parameters of the paper's reliability model (§5.1–§5.3).
///
/// All mean times are per-replica quantities; the model describes the
/// reliability of *mirrored* data (two replicas) unless extended via
/// [`crate::replication`].
///
/// Construct via [`ReliabilityParams::builder`] or one of the presets in
/// [`crate::presets`].
///
/// # Examples
///
/// ```
/// use ltds_core::{ReliabilityParams, Hours};
///
/// let params = ReliabilityParams::builder()
///     .mttf_visible(Hours::new(1.4e6))
///     .mttf_latent(Hours::new(2.8e5))
///     .repair_visible(Hours::from_minutes(20.0))
///     .repair_latent(Hours::from_minutes(20.0))
///     .detect_latent(Hours::new(1460.0))
///     .alpha(1.0)
///     .build()
///     .unwrap();
/// assert_eq!(params.mttf_visible().get(), 1.4e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityParams {
    mv: Hours,
    ml: Hours,
    mrv: Hours,
    mrl: Hours,
    mdl: Hours,
    alpha: f64,
}

impl ReliabilityParams {
    /// Starts building a parameter set.
    pub fn builder() -> ReliabilityParamsBuilder {
        ReliabilityParamsBuilder::default()
    }

    /// Mean time to a visible fault, `MV`.
    pub fn mttf_visible(&self) -> Hours {
        self.mv
    }

    /// Mean time to a latent fault, `ML`.
    pub fn mttf_latent(&self) -> Hours {
        self.ml
    }

    /// Mean time to repair a visible fault, `MRV`.
    pub fn repair_visible(&self) -> Hours {
        self.mrv
    }

    /// Mean time to repair a latent fault once detected, `MRL`.
    pub fn repair_latent(&self) -> Hours {
        self.mrl
    }

    /// Mean time to detect a latent fault, `MDL`.
    ///
    /// `Hours::infinite()` models a system that never audits: latent faults
    /// are only found (if ever) when the data is finally accessed, and the
    /// window of vulnerability after a latent fault saturates.
    pub fn detect_latent(&self) -> Hours {
        self.mdl
    }

    /// Correlation factor `α ∈ (0, 1]`; `1` means fully independent replicas.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The window of vulnerability opened by a visible fault (its repair time).
    pub fn wov_after_visible(&self) -> Hours {
        self.mrv
    }

    /// The window of vulnerability opened by a latent fault
    /// (detection delay plus repair time).
    pub fn wov_after_latent(&self) -> Hours {
        self.mdl + self.mrl
    }

    /// Returns a copy with a different latent detection time (e.g. after
    /// changing the scrub schedule).
    pub fn with_detect_latent(&self, mdl: Hours) -> Result<Self, ModelError> {
        Self::validated(self.mv, self.ml, self.mrv, self.mrl, mdl, self.alpha)
    }

    /// Returns a copy with a different correlation factor.
    pub fn with_alpha(&self, alpha: f64) -> Result<Self, ModelError> {
        Self::validated(self.mv, self.ml, self.mrv, self.mrl, self.mdl, alpha)
    }

    /// Returns a copy with a different visible-fault MTTF.
    pub fn with_mttf_visible(&self, mv: Hours) -> Result<Self, ModelError> {
        Self::validated(mv, self.ml, self.mrv, self.mrl, self.mdl, self.alpha)
    }

    /// Returns a copy with a different latent-fault MTTF.
    pub fn with_mttf_latent(&self, ml: Hours) -> Result<Self, ModelError> {
        Self::validated(self.mv, ml, self.mrv, self.mrl, self.mdl, self.alpha)
    }

    /// Returns a copy with different repair times.
    pub fn with_repair_times(&self, mrv: Hours, mrl: Hours) -> Result<Self, ModelError> {
        Self::validated(self.mv, self.ml, mrv, mrl, self.mdl, self.alpha)
    }

    /// Whether the fast-repair assumptions of the closed forms hold, i.e.
    /// both windows of vulnerability are much shorter than both MTTFs.
    ///
    /// `margin` is the required ratio (the paper uses "≪"; a margin of 100 is
    /// a reasonable reading).
    pub fn windows_are_short(&self, margin: f64) -> bool {
        let min_mttf = self.mv.min(self.ml).get();
        let max_wov = self.wov_after_visible().max(self.wov_after_latent()).get();
        max_wov.is_finite() && max_wov * margin <= min_mttf
    }

    fn validated(
        mv: Hours,
        ml: Hours,
        mrv: Hours,
        mrl: Hours,
        mdl: Hours,
        alpha: f64,
    ) -> Result<Self, ModelError> {
        fn check_positive(name: &'static str, v: Hours) -> Result<(), ModelError> {
            if !v.is_valid() || v.get() <= 0.0 {
                return Err(ModelError::InvalidMeanTime { parameter: name, value: v.get() });
            }
            Ok(())
        }
        fn check_non_negative(name: &'static str, v: Hours) -> Result<(), ModelError> {
            if !v.is_valid() {
                return Err(ModelError::InvalidMeanTime { parameter: name, value: v.get() });
            }
            Ok(())
        }
        check_positive("MV", mv)?;
        check_positive("ML", ml)?;
        // MTTFs must be finite: an infinite MTTF would mean the fault class
        // never occurs, which callers should express by choosing a very large
        // value instead so the algebra stays well-defined.
        if !mv.is_finite() {
            return Err(ModelError::InvalidMeanTime { parameter: "MV", value: mv.get() });
        }
        if !ml.is_finite() {
            return Err(ModelError::InvalidMeanTime { parameter: "ML", value: ml.get() });
        }
        check_non_negative("MRV", mrv)?;
        check_non_negative("MRL", mrl)?;
        check_non_negative("MDL", mdl)?;
        if !mrv.is_finite() || !mrl.is_finite() {
            return Err(ModelError::InvalidMeanTime {
                parameter: if mrv.is_finite() { "MRL" } else { "MRV" },
                value: f64::INFINITY,
            });
        }
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(ModelError::InvalidCorrelation { alpha });
        }
        Ok(Self { mv, ml, mrv, mrl, mdl, alpha })
    }
}

/// Builder for [`ReliabilityParams`].
#[derive(Debug, Clone, Default)]
pub struct ReliabilityParamsBuilder {
    mv: Option<Hours>,
    ml: Option<Hours>,
    mrv: Option<Hours>,
    mrl: Option<Hours>,
    mdl: Option<Hours>,
    alpha: Option<f64>,
}

impl ReliabilityParamsBuilder {
    /// Sets the mean time to a visible fault, `MV`.
    pub fn mttf_visible(mut self, mv: Hours) -> Self {
        self.mv = Some(mv);
        self
    }

    /// Sets the mean time to a latent fault, `ML`.
    pub fn mttf_latent(mut self, ml: Hours) -> Self {
        self.ml = Some(ml);
        self
    }

    /// Sets the mean repair time for visible faults, `MRV`.
    pub fn repair_visible(mut self, mrv: Hours) -> Self {
        self.mrv = Some(mrv);
        self
    }

    /// Sets the mean repair time for latent faults, `MRL`.
    pub fn repair_latent(mut self, mrl: Hours) -> Self {
        self.mrl = Some(mrl);
        self
    }

    /// Sets the mean time to detect a latent fault, `MDL`.
    pub fn detect_latent(mut self, mdl: Hours) -> Self {
        self.mdl = Some(mdl);
        self
    }

    /// Sets the correlation factor `α`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Finalises the parameter set, validating every field.
    ///
    /// Missing fields default to: `MRL = MRV`, `MDL = 0` (faults detected
    /// immediately — i.e. the classic RAID model), `α = 1` (independent).
    /// `MV` and `ML` have no defaults and must be supplied.
    pub fn build(self) -> Result<ReliabilityParams, ModelError> {
        let mv = self.mv.ok_or(ModelError::InvalidMeanTime { parameter: "MV", value: f64::NAN })?;
        let ml = self.ml.ok_or(ModelError::InvalidMeanTime { parameter: "ML", value: f64::NAN })?;
        let mrv =
            self.mrv.ok_or(ModelError::InvalidMeanTime { parameter: "MRV", value: f64::NAN })?;
        let mrl = self.mrl.unwrap_or(mrv);
        let mdl = self.mdl.unwrap_or(Hours::ZERO);
        let alpha = self.alpha.unwrap_or(1.0);
        ReliabilityParams::validated(mv, ml, mrv, mrl, mdl, alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ReliabilityParamsBuilder {
        ReliabilityParams::builder()
            .mttf_visible(Hours::new(1.4e6))
            .mttf_latent(Hours::new(2.8e5))
            .repair_visible(Hours::from_minutes(20.0))
    }

    #[test]
    fn builder_defaults() {
        let p = base().build().unwrap();
        assert_eq!(p.repair_latent(), p.repair_visible());
        assert_eq!(p.detect_latent(), Hours::ZERO);
        assert_eq!(p.alpha(), 1.0);
    }

    #[test]
    fn windows_of_vulnerability() {
        let p = base().detect_latent(Hours::new(1460.0)).build().unwrap();
        assert_eq!(p.wov_after_visible(), p.repair_visible());
        let wov_l = p.wov_after_latent().get();
        assert!((wov_l - (1460.0 + 20.0 / 60.0)).abs() < 1e-9);
    }

    #[test]
    fn missing_required_field_errors() {
        let err = ReliabilityParams::builder()
            .mttf_visible(Hours::new(1.0e6))
            .repair_visible(Hours::new(1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::InvalidMeanTime { parameter: "ML", .. }));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(matches!(
            base().mttf_visible(Hours::new(0.0)).build(),
            Err(ModelError::InvalidMeanTime { parameter: "MV", .. })
        ));
        assert!(matches!(
            base().mttf_latent(Hours::new(-5.0)).build(),
            Err(ModelError::InvalidMeanTime { parameter: "ML", .. })
        ));
        assert!(matches!(base().alpha(0.0).build(), Err(ModelError::InvalidCorrelation { .. })));
        assert!(matches!(base().alpha(1.5).build(), Err(ModelError::InvalidCorrelation { .. })));
        assert!(matches!(
            base().mttf_visible(Hours::infinite()).build(),
            Err(ModelError::InvalidMeanTime { parameter: "MV", .. })
        ));
        assert!(matches!(
            base().repair_visible(Hours::infinite()).build(),
            Err(ModelError::InvalidMeanTime { .. })
        ));
    }

    #[test]
    fn infinite_detection_is_allowed() {
        let p = base().detect_latent(Hours::infinite()).build().unwrap();
        assert!(!p.detect_latent().is_finite());
        assert!(!p.wov_after_latent().is_finite());
    }

    #[test]
    fn zero_repair_time_is_allowed() {
        // Idealised "instant repair" is a useful limiting case.
        let p = base().repair_visible(Hours::ZERO).build().unwrap();
        assert_eq!(p.repair_visible(), Hours::ZERO);
    }

    #[test]
    fn with_methods_revalidate() {
        let p = base().build().unwrap();
        assert!(p.with_alpha(0.1).is_ok());
        assert!(p.with_alpha(0.0).is_err());
        assert!(p.with_detect_latent(Hours::new(100.0)).is_ok());
        assert!(p.with_mttf_visible(Hours::new(-1.0)).is_err());
        assert!(p.with_mttf_latent(Hours::new(1.0e7)).is_ok());
        assert!(p.with_repair_times(Hours::new(1.0), Hours::new(2.0)).is_ok());
    }

    #[test]
    fn windows_are_short_detects_saturation() {
        let short = base().detect_latent(Hours::new(1460.0)).build().unwrap();
        assert!(short.windows_are_short(100.0));
        let long = base().detect_latent(Hours::new(2.8e5)).build().unwrap();
        assert!(!long.windows_are_short(100.0));
        let never = base().detect_latent(Hours::infinite()).build().unwrap();
        assert!(!never.windows_are_short(100.0));
    }
}
