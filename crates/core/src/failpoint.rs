//! Deterministic fail-point injection.
//!
//! The source paper's method is to *assume* components fail and then prove
//! the detection/repair machinery holds; this module is the same mindset
//! applied to our own campaign plumbing. Code under test declares named
//! fail-point *sites* (`worker.kill`, `net.frame.truncate`, ...) by calling
//! [`fire`] with a context value (usually the work-unit ordinal). A *plan*
//! — parsed from a compact spec string, typically the `LTDS_FAILPOINTS`
//! environment variable — decides which evaluations trigger.
//!
//! Two properties matter more than expressiveness:
//!
//! * **Deterministic.** Triggers are pure functions of the plan seed, the
//!   site name and the context value (plus, for `every:`/`times:`, a
//!   per-site evaluation count). Nothing reads a clock and nothing touches
//!   the simulation RNG streams, so an armed plan never shifts a pinned
//!   simulation digest — it only decides *where* the process misbehaves.
//! * **Compiled out by default.** Without the `failpoints` cargo feature,
//!   [`fire`] is a `const false` that the optimizer deletes along with the
//!   failure arm behind it. Production binaries carry no chaos code.
//!
//! Spec grammar (`;`-separated rules, first matching rule per site wins):
//!
//! ```text
//! site=trigger[,times:N]
//! trigger := always | unit:K | every:N | hash:PERMILLE
//! ```
//!
//! * `always` — every evaluation fires.
//! * `unit:K` — fires when the context value equals `K`.
//! * `every:N` — every Nth evaluation of the site fires (per-process
//!   evaluation order; meant for single-threaded worker loops).
//! * `hash:P` — fires when `fnv1a(seed, site, ctx) mod 1000 < P`: a seeded,
//!   thread-invariant "random" P-permille of evaluations.
//! * `times:N` — caps the rule at N firings (per process).
//!
//! Example: kill the worker the first time it executes unit 9, and drop
//! the worker's socket on roughly 5% of the units it starts:
//!
//! ```text
//! LTDS_FAILPOINTS='worker.kill=unit:9,times:1;net.conn.drop=hash:50'
//! ```

use crate::hash::fnv1a;

/// One parsed fail-point rule: a site name, a trigger, an optional budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailRule {
    /// The fail-point site this rule arms.
    pub site: String,
    /// When an evaluation of the site fires.
    pub trigger: Trigger,
    /// Stop firing after this many hits (per process). `None` = unlimited.
    pub times: Option<u64>,
}

/// When a fail-point evaluation triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Every evaluation fires.
    Always,
    /// Fires when the context value equals the given ordinal.
    Unit(u64),
    /// Every Nth evaluation of the site fires (1-based: `every:3` fires on
    /// the 3rd, 6th, ... evaluation).
    Every(u64),
    /// Fires on a seeded pseudo-random permille of evaluations, decided by
    /// `fnv1a(seed, site, ctx)` — identical across threads and runs.
    Hash(u64),
}

/// A parsed set of fail-point rules plus the seed their `hash:` triggers
/// key from. Plans are inert data; [`install`] arms one process-wide.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailPlan {
    /// Seed mixed into `hash:` triggers.
    pub seed: u64,
    /// The rules, in spec order. The first rule matching a site is used.
    pub rules: Vec<FailRule>,
}

impl FailPlan {
    /// Parses a spec string (see the module docs for the grammar). An
    /// empty spec is a valid, empty plan.
    pub fn parse(spec: &str, seed: u64) -> Result<FailPlan, String> {
        let mut rules = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (site, rest) =
                part.split_once('=').ok_or_else(|| format!("rule `{part}` has no `=`"))?;
            let site = site.trim();
            if site.is_empty() {
                return Err(format!("rule `{part}` has an empty site name"));
            }
            let mut trigger = None;
            let mut times = None;
            for clause in rest.split(',') {
                let clause = clause.trim();
                let parse_n = |what: &str, text: &str| -> Result<u64, String> {
                    text.parse::<u64>().map_err(|_| format!("`{what}` needs a number in `{part}`"))
                };
                if clause == "always" {
                    trigger = Some(Trigger::Always);
                } else if let Some(k) = clause.strip_prefix("unit:") {
                    trigger = Some(Trigger::Unit(parse_n("unit", k)?));
                } else if let Some(n) = clause.strip_prefix("every:") {
                    let n = parse_n("every", n)?;
                    if n == 0 {
                        return Err(format!("`every:0` in `{part}` would never fire"));
                    }
                    trigger = Some(Trigger::Every(n));
                } else if let Some(p) = clause.strip_prefix("hash:") {
                    trigger = Some(Trigger::Hash(parse_n("hash", p)?));
                } else if let Some(n) = clause.strip_prefix("times:") {
                    times = Some(parse_n("times", n)?);
                } else {
                    return Err(format!("unknown clause `{clause}` in `{part}`"));
                }
            }
            let trigger = trigger.ok_or_else(|| format!("rule `{part}` has no trigger"))?;
            rules.push(FailRule { site: site.to_string(), trigger, times });
        }
        Ok(FailPlan { seed, rules })
    }

    /// Pure trigger evaluation: would the `eval_index`-th evaluation
    /// (0-based) of `site` with context `ctx`, after `fired_so_far` prior
    /// hits, fire? This is the whole semantics — the process-wide [`fire`]
    /// just wraps it with per-site counters.
    pub fn should_fire(&self, site: &str, ctx: u64, eval_index: u64, fired_so_far: u64) -> bool {
        let Some(rule) = self.rules.iter().find(|r| r.site == site) else {
            return false;
        };
        if rule.times.is_some_and(|budget| fired_so_far >= budget) {
            return false;
        }
        match rule.trigger {
            Trigger::Always => true,
            Trigger::Unit(k) => ctx == k,
            Trigger::Every(n) => (eval_index + 1).is_multiple_of(n),
            Trigger::Hash(permille) => {
                let mut bytes = Vec::with_capacity(site.len() + 16);
                bytes.extend_from_slice(&self.seed.to_le_bytes());
                bytes.extend_from_slice(site.as_bytes());
                bytes.extend_from_slice(&ctx.to_le_bytes());
                fnv1a(&bytes) % 1000 < permille
            }
        }
    }
}

/// True when this binary was compiled with the `failpoints` feature —
/// i.e. when [`fire`] can ever return `true`. Binaries print a warning
/// when a plan is requested but the machinery is compiled out.
pub const fn compiled_in() -> bool {
    cfg!(feature = "failpoints")
}

#[cfg(feature = "failpoints")]
mod armed {
    use super::FailPlan;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    struct Registry {
        plan: FailPlan,
        // Parallel to plan.rules: evaluation + firing counters.
        evals: Vec<AtomicU64>,
        fired: Vec<AtomicU64>,
    }

    fn registry() -> &'static Mutex<Option<std::sync::Arc<Registry>>> {
        static REGISTRY: OnceLock<Mutex<Option<std::sync::Arc<Registry>>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(None))
    }

    /// Arms a plan process-wide, replacing any previous one and resetting
    /// all counters.
    pub fn install(plan: FailPlan) {
        let evals = plan.rules.iter().map(|_| AtomicU64::new(0)).collect();
        let fired = plan.rules.iter().map(|_| AtomicU64::new(0)).collect();
        *registry().lock().unwrap() = Some(std::sync::Arc::new(Registry { plan, evals, fired }));
    }

    /// Disarms fail-point injection.
    pub fn clear() {
        *registry().lock().unwrap() = None;
    }

    /// Arms a plan from `LTDS_FAILPOINTS` / `LTDS_FAILPOINT_SEED` if set.
    /// Returns an error string for a malformed spec.
    pub fn init_from_env() -> Result<bool, String> {
        let Ok(spec) = std::env::var("LTDS_FAILPOINTS") else { return Ok(false) };
        let seed = match std::env::var("LTDS_FAILPOINT_SEED") {
            Ok(s) => s.parse::<u64>().map_err(|_| "LTDS_FAILPOINT_SEED must be a u64")?,
            Err(_) => 0,
        };
        install(FailPlan::parse(&spec, seed)?);
        Ok(true)
    }

    /// Evaluates the site against the armed plan (false when disarmed).
    pub fn fire(site: &str, ctx: u64) -> bool {
        let armed = registry().lock().unwrap().clone();
        let Some(reg) = armed else { return false };
        let Some(index) = reg.plan.rules.iter().position(|r| r.site == site) else {
            return false;
        };
        let eval_index = reg.evals[index].fetch_add(1, Ordering::Relaxed);
        let fired_so_far = reg.fired[index].load(Ordering::Relaxed);
        let hit = reg.plan.should_fire(site, ctx, eval_index, fired_so_far);
        if hit {
            reg.fired[index].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

#[cfg(feature = "failpoints")]
pub use armed::{clear, fire, init_from_env, install};

/// Feature-off stub: nothing to arm.
#[cfg(not(feature = "failpoints"))]
pub fn install(_plan: FailPlan) {}

/// Feature-off stub: nothing to disarm.
#[cfg(not(feature = "failpoints"))]
pub fn clear() {}

/// Feature-off stub: never arms and always reports `Ok(false)`. Binaries
/// that want to warn about a requested-but-compiled-out plan should check
/// the `LTDS_FAILPOINTS` env var against [`compiled_in`] themselves.
#[cfg(not(feature = "failpoints"))]
pub fn init_from_env() -> Result<bool, String> {
    Ok(false)
}

/// Should the failure arm behind fail-point `site` run for context `ctx`?
/// Always `false` (and fully compiled out) without the `failpoints`
/// feature; with it, evaluates the installed [`FailPlan`].
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn fire(_site: &str, _ctx: u64) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_readme_spec() {
        let plan = FailPlan::parse("worker.kill=unit:9,times:1;net.conn.drop=hash:50", 7).unwrap();
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].trigger, Trigger::Unit(9));
        assert_eq!(plan.rules[0].times, Some(1));
        assert_eq!(plan.rules[1].trigger, Trigger::Hash(50));
        assert_eq!(plan.rules[1].times, None);
    }

    #[test]
    fn empty_and_whitespace_specs_are_empty_plans() {
        assert!(FailPlan::parse("", 0).unwrap().rules.is_empty());
        assert!(FailPlan::parse(" ; ;", 0).unwrap().rules.is_empty());
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        assert!(FailPlan::parse("noequals", 0).is_err());
        assert!(FailPlan::parse("site=", 0).is_err());
        assert!(FailPlan::parse("site=bogus:3", 0).is_err());
        assert!(FailPlan::parse("site=unit:x", 0).is_err());
        assert!(FailPlan::parse("site=every:0", 0).is_err());
        assert!(FailPlan::parse("site=times:2", 0).is_err(), "times without a trigger");
        assert!(FailPlan::parse("=always", 0).is_err());
    }

    #[test]
    fn unit_trigger_matches_context_only() {
        let plan = FailPlan::parse("w.kill=unit:3", 0).unwrap();
        assert!(plan.should_fire("w.kill", 3, 0, 0));
        assert!(plan.should_fire("w.kill", 3, 99, 0), "evaluation index irrelevant");
        assert!(!plan.should_fire("w.kill", 4, 0, 0));
        assert!(!plan.should_fire("other.site", 3, 0, 0));
    }

    #[test]
    fn times_budget_caps_firing() {
        let plan = FailPlan::parse("w.kill=always,times:2", 0).unwrap();
        assert!(plan.should_fire("w.kill", 0, 0, 0));
        assert!(plan.should_fire("w.kill", 0, 1, 1));
        assert!(!plan.should_fire("w.kill", 0, 2, 2));
    }

    #[test]
    fn every_fires_on_the_nth_evaluation() {
        let plan = FailPlan::parse("s=every:3", 0).unwrap();
        let hits: Vec<bool> = (0..7).map(|i| plan.should_fire("s", 0, i, 0)).collect();
        assert_eq!(hits, [false, false, true, false, false, true, false]);
    }

    #[test]
    fn hash_trigger_is_seeded_and_deterministic() {
        let plan = FailPlan::parse("s=hash:500", 42).unwrap();
        let hits: Vec<bool> = (0..64).map(|ctx| plan.should_fire("s", ctx, 0, 0)).collect();
        let again: Vec<bool> = (0..64).map(|ctx| plan.should_fire("s", ctx, 0, 0)).collect();
        assert_eq!(hits, again, "pure function of (seed, site, ctx)");
        let n = hits.iter().filter(|h| **h).count();
        assert!(n > 10 && n < 54, "hash:500 should hit roughly half, got {n}/64");
        // A different seed reshuffles which contexts hit.
        let other = FailPlan::parse("s=hash:500", 43).unwrap();
        let reshuffled: Vec<bool> = (0..64).map(|ctx| other.should_fire("s", ctx, 0, 0)).collect();
        assert_ne!(hits, reshuffled);
        // hash:0 never fires, hash:1000 always fires.
        let never = FailPlan::parse("s=hash:0", 42).unwrap();
        assert!((0..64).all(|ctx| !never.should_fire("s", ctx, 0, 0)));
        let always = FailPlan::parse("s=hash:1000", 42).unwrap();
        assert!((0..64).all(|ctx| always.should_fire("s", ctx, 0, 0)));
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn fire_is_inert_without_the_feature() {
        install(FailPlan::parse("s=always", 0).unwrap());
        assert!(!fire("s", 0), "failpoints are compiled out by default");
        assert!(!compiled_in());
        clear();
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn armed_fire_counts_and_respects_budgets() {
        // Site names are namespaced per test because the registry is
        // process-global and tests share one process.
        install(FailPlan::parse("t.armed=unit:5,times:2;t.every=every:2", 0).unwrap());
        assert!(compiled_in());
        assert!(!fire("t.armed", 4));
        assert!(fire("t.armed", 5));
        assert!(fire("t.armed", 5));
        assert!(!fire("t.armed", 5), "times:2 budget spent");
        assert!(!fire("t.unlisted", 5));
        clear();
        assert!(!fire("t.armed", 5), "cleared plans never fire");
    }
}
