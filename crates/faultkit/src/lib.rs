#![warn(missing_docs)]
//! # faultkit — deterministic, seeded fault injection
//!
//! A failpoint-style injection layer for the hardening stack. Library code
//! marks *sites* (`faultkit::fire("sketch/nan_stream")`) at which a fault
//! *may* be injected; whether it actually fires is decided by a plan loaded
//! from the `SKETCH_FAULTS` environment variable or installed
//! programmatically with [`set_plan_str`].
//!
//! Design constraints, mirroring obskit's gate:
//!
//! * **Disabled path = one relaxed atomic load.** When no plan is armed,
//!   [`fire`] is a single `Relaxed` load of a process-global byte and a
//!   predictable branch — cheap enough to sit on kernel block boundaries.
//!   Hot per-nonzero loops must additionally hoist [`armed`] out of the loop
//!   (the robust sketch drivers check once per kernel entry).
//! * **Determinism.** Probabilistic triggers hash `(seed, site, hit index)`
//!   through splitmix64 — the same plan, seed and call sequence always fires
//!   the same faults, so every chaoscheck cell is reproducible.
//!
//! ## Plan grammar
//!
//! `SKETCH_FAULTS` is a comma-separated list of `site=trigger` clauses:
//!
//! ```text
//! SKETCH_FAULTS="sketch/nan_stream=once,parkit/worker=nth:3,svc/dispatch=p:0.25"
//! ```
//!
//! | trigger   | meaning                                             |
//! |-----------|-----------------------------------------------------|
//! | `always`  | fires on every hit                                  |
//! | `once`    | fires on the first hit only                         |
//! | `nth:N`   | fires on the N-th hit (1-based), once               |
//! | `every:N` | fires on every N-th hit                             |
//! | `p:F`     | fires with probability F, deterministically seeded  |
//! | `off`     | never fires (site stays counted)                    |
//!
//! `SKETCH_FAULTS_SEED` (u64, default `0xFA17`) seeds the `p:` triggers.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

const GATE_INIT: u8 = 1;
const GATE_ARMED: u8 = 2;

/// Process-global gate byte: bit 0 = env examined, bit 1 = a plan is armed.
static GATE: AtomicU8 = AtomicU8::new(0);

/// How a fault site decides whether a given hit fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on the first hit only.
    Once,
    /// Fire on the N-th hit (1-based), once.
    Nth(u64),
    /// Fire on every N-th hit.
    Every(u64),
    /// Fire with probability `p`, deterministically derived from
    /// `(seed, site, hit index)`.
    Prob(f64),
    /// Never fire.
    Off,
}

#[derive(Clone, Debug)]
struct Point {
    site: String,
    trigger: Trigger,
    hits: u64,
    fired: u64,
}

#[derive(Clone, Debug, Default)]
struct Plan {
    seed: u64,
    points: Vec<Point>,
}

static PLAN: Mutex<Option<Plan>> = Mutex::new(None);

fn lock_plan() -> std::sync::MutexGuard<'static, Option<Plan>> {
    // A poisoned plan lock only means a panic landed between fault-injection
    // bookkeeping updates; the plan itself stays coherent (plain fields, no
    // invariants spanning the lock), so recover rather than propagate.
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_site(site: &str) -> u64 {
    // FNV-1a, good enough to separate the handful of site names.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Parse one trigger clause (`always`, `once`, `nth:3`, `every:2`, `p:0.5`,
/// `off`).
fn parse_trigger(s: &str) -> Result<Trigger, String> {
    let s = s.trim();
    if let Some(n) = s.strip_prefix("nth:") {
        let n: u64 = n.parse().map_err(|_| format!("bad nth count {n:?}"))?;
        if n == 0 {
            return Err("nth:0 is meaningless (hits are 1-based)".into());
        }
        return Ok(Trigger::Nth(n));
    }
    if let Some(n) = s.strip_prefix("every:") {
        let n: u64 = n.parse().map_err(|_| format!("bad every count {n:?}"))?;
        if n == 0 {
            return Err("every:0 is meaningless".into());
        }
        return Ok(Trigger::Every(n));
    }
    if let Some(p) = s.strip_prefix("p:") {
        let p: f64 = p.parse().map_err(|_| format!("bad probability {p:?}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability {p} outside [0, 1]"));
        }
        return Ok(Trigger::Prob(p));
    }
    match s {
        "always" => Ok(Trigger::Always),
        "once" => Ok(Trigger::Once),
        "off" => Ok(Trigger::Off),
        other => Err(format!("unknown trigger {other:?}")),
    }
}

fn parse_plan(spec: &str, seed: u64) -> Result<Plan, String> {
    let mut points = Vec::new();
    for clause in spec.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (site, trig) = clause
            .split_once('=')
            .ok_or_else(|| format!("clause {clause:?} is not site=trigger"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("empty site in clause {clause:?}"));
        }
        points.push(Point {
            site: site.to_string(),
            trigger: parse_trigger(trig)?,
            hits: 0,
            fired: 0,
        });
    }
    Ok(Plan { seed, points })
}

fn init_from_env() {
    let seed = std::env::var("SKETCH_FAULTS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0xFA17);
    let armed = match std::env::var("SKETCH_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => match parse_plan(&spec, seed) {
            Ok(plan) => {
                let has_live = plan.points.iter().any(|p| p.trigger != Trigger::Off);
                *lock_plan() = Some(plan);
                has_live
            }
            Err(e) => {
                eprintln!("faultkit: ignoring malformed SKETCH_FAULTS: {e}");
                false
            }
        },
        _ => false,
    };
    let bits = GATE_INIT | if armed { GATE_ARMED } else { 0 };
    // Another thread may have raced the init; `fetch_or` keeps both outcomes.
    GATE.fetch_or(bits, Ordering::Release);
}

/// Is any fault plan armed? One relaxed load on the common (disarmed) path.
///
/// Hot loops should hoist this to their entry: the contract is one load per
/// *kernel or block invocation*, not per element.
#[inline(always)]
pub fn armed() -> bool {
    let g = GATE.load(Ordering::Relaxed);
    if g & GATE_INIT == 0 {
        init_slow();
        return GATE.load(Ordering::Relaxed) & GATE_ARMED != 0;
    }
    g & GATE_ARMED != 0
}

#[cold]
fn init_slow() {
    init_from_env();
}

/// Install a fault plan programmatically (tests, chaoscheck). Replaces any
/// existing plan and arms the gate; an empty/`off`-only spec disarms it.
///
/// Returns `Err` with a description if the spec does not parse; the previous
/// plan is left untouched in that case.
pub fn set_plan_str(spec: &str, seed: u64) -> Result<(), String> {
    let plan = parse_plan(spec, seed)?;
    let live = plan.points.iter().any(|p| p.trigger != Trigger::Off);
    *lock_plan() = Some(plan);
    if live {
        GATE.store(GATE_INIT | GATE_ARMED, Ordering::Release);
    } else {
        GATE.store(GATE_INIT, Ordering::Release);
    }
    Ok(())
}

/// Remove the active plan and disarm the gate (fault sites become free again
/// apart from the single relaxed load).
pub fn clear() {
    *lock_plan() = None;
    GATE.store(GATE_INIT, Ordering::Release);
}

/// Should the fault at `site` fire on this hit?
///
/// Disarmed: one relaxed load, returns `false`. Armed: takes the plan lock,
/// bumps the site's hit counter and evaluates its trigger. Unknown sites
/// never fire (and are not tracked).
pub fn fire(site: &str) -> bool {
    if !armed() {
        return false;
    }
    let mut guard = lock_plan();
    let Some(plan) = guard.as_mut() else {
        return false;
    };
    let seed = plan.seed;
    let Some(p) = plan.points.iter_mut().find(|p| p.site == site) else {
        return false;
    };
    p.hits += 1;
    let fires = match p.trigger {
        Trigger::Always => true,
        Trigger::Once => p.hits == 1,
        Trigger::Nth(n) => p.hits == n,
        Trigger::Every(n) => p.hits.is_multiple_of(n),
        Trigger::Prob(prob) => {
            let z = splitmix64(seed ^ hash_site(site) ^ p.hits);
            // 53 high bits → uniform in [0, 1).
            let u = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            u < prob
        }
        Trigger::Off => false,
    };
    if fires {
        p.fired += 1;
    }
    fires
}

/// How many times `site` has fired under the current plan.
pub fn fired_count(site: &str) -> u64 {
    lock_plan()
        .as_ref()
        .and_then(|p| p.points.iter().find(|pt| pt.site == site))
        .map_or(0, |pt| pt.fired)
}

/// How many times `site` has been hit (evaluated) under the current plan.
pub fn hit_count(site: &str) -> u64 {
    lock_plan()
        .as_ref()
        .and_then(|p| p.points.iter().find(|pt| pt.site == site))
        .map_or(0, |pt| pt.hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The gate and plan are process-global and the harness runs tests
    // concurrently in one binary, so everything lives in one test function.
    #[test]
    fn plan_lifecycle_and_triggers() {
        // Disarmed: fire is free and false.
        clear();
        assert!(!armed());
        assert!(!fire("x/y"));

        // always / once / nth / every.
        set_plan_str("a=always,b=once,c=nth:3,d=every:2,e=off", 7).unwrap();
        assert!(armed());
        assert!(fire("a") && fire("a") && fire("a"));
        assert!(fire("b"));
        assert!(!fire("b") && !fire("b"));
        assert!(!fire("c") && !fire("c"));
        assert!(fire("c"));
        assert!(!fire("c"));
        assert!(!fire("d"));
        assert!(fire("d"));
        assert!(!fire("d"));
        assert!(fire("d"));
        assert!(!fire("e") && !fire("e"));
        assert_eq!(fired_count("a"), 3);
        assert_eq!(hit_count("c"), 4);
        assert_eq!(fired_count("c"), 1);
        assert_eq!(fired_count("e"), 0);
        assert_eq!(hit_count("e"), 2);

        // Unknown sites never fire and are not tracked.
        assert!(!fire("unknown/site"));
        assert_eq!(hit_count("unknown/site"), 0);

        // p: determinism — identical plan+seed ⇒ identical firing sequence;
        // rate lands near p for a fair trigger.
        let run = |seed: u64| -> Vec<bool> {
            set_plan_str("p/site=p:0.25", seed).unwrap();
            (0..400).map(|_| fire("p/site")).collect()
        };
        let s1 = run(42);
        let s2 = run(42);
        assert_eq!(s1, s2, "seeded probabilistic trigger must be deterministic");
        let rate = s1.iter().filter(|&&f| f).count() as f64 / s1.len() as f64;
        assert!((rate - 0.25).abs() < 0.08, "p:0.25 fired at rate {rate}");
        let s3 = run(43);
        assert_ne!(s1, s3, "different seeds should fire differently");

        // The counters reflect the last plan.
        assert_eq!(hit_count("p/site"), 400);

        // Malformed specs are rejected without clobbering the active plan.
        assert!(set_plan_str("novalue", 0).is_err());
        assert!(set_plan_str("x=nth:0", 0).is_err());
        assert!(set_plan_str("x=p:1.5", 0).is_err());
        assert!(set_plan_str("x=wat", 0).is_err());
        assert_eq!(hit_count("p/site"), 400, "failed parse must not clobber");

        // Off-only plans leave the gate disarmed.
        set_plan_str("x=off", 0).unwrap();
        assert!(!armed());

        clear();
        assert!(!armed());
    }
}
