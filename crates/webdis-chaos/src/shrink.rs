//! Fault-schedule shrinking: from a failing plan to a locally-minimal
//! one.
//!
//! Delta-debugging over the fault list: repeatedly remove chunks of
//! faults (halves, then quarters, …) keeping any removal that still
//! reproduces a violation of the target kind, then polish to
//! 1-minimality by retrying every single-fault removal until none
//! succeeds. Every candidate is a full deterministic re-run, so the
//! result is reproducible: the same failing plan always shrinks to the
//! same minimal plan.

use crate::plan::ChaosPlan;

/// Outcome of a shrink.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The locally-minimal failing plan.
    pub plan: ChaosPlan,
    /// How many candidate runs the shrink spent.
    pub runs: usize,
}

/// Shrinks `plan`'s fault schedule to a locally-minimal one that still
/// makes `fails` return true. `fails` must be deterministic (run the
/// plan, check the oracle for the target violation kind). If the input
/// plan does not fail, it is returned unchanged.
pub fn shrink<F>(plan: &ChaosPlan, mut fails: F) -> Shrunk
where
    F: FnMut(&ChaosPlan) -> bool,
{
    let mut runs = 0usize;
    let mut try_fails = |candidate: &ChaosPlan, runs: &mut usize| {
        *runs += 1;
        fails(candidate)
    };
    if !try_fails(plan, &mut runs) {
        return Shrunk {
            plan: plan.clone(),
            runs,
        };
    }
    let mut current = plan.clone();

    // Chunked removal: coarse to fine.
    let mut chunks = 2usize;
    while current.faults.len() >= 2 {
        let len = current.faults.len();
        let chunk = len.div_ceil(chunks);
        let mut reduced = false;
        for i in 0..chunks {
            let lo = i * chunk;
            let hi = ((i + 1) * chunk).min(len);
            if lo >= hi {
                continue;
            }
            let mut faults = current.faults.clone();
            faults.drain(lo..hi);
            let candidate = current.with_faults(faults);
            if try_fails(&candidate, &mut runs) {
                current = candidate;
                reduced = true;
                break;
            }
        }
        if reduced {
            chunks = chunks.saturating_sub(1).max(2);
        } else {
            if chunks >= len {
                break;
            }
            chunks = (chunks * 2).min(len);
        }
    }

    // 1-minimal polish: no single fault can still be removed.
    loop {
        let mut removed = false;
        for i in 0..current.faults.len() {
            let mut faults = current.faults.clone();
            faults.remove(i);
            let candidate = current.with_faults(faults);
            if try_fails(&candidate, &mut runs) {
                current = candidate;
                removed = true;
                break;
            }
        }
        if !removed {
            break;
        }
    }

    Shrunk {
        plan: current,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChaosFault;
    use webdis_sim::{Fault, FaultKind};

    /// A uniform drop of `ppm` parts per million.
    fn rate_fault(ppm: u32) -> ChaosFault {
        Fault::rate(FaultKind::Drop, f64::from(ppm) / 1e6).into()
    }

    /// A synthetic failure predicate: the plan "fails" iff fault with
    /// rate 777 survives — shrink must isolate exactly that fault.
    #[test]
    fn shrink_isolates_the_culprit_fault() {
        let plan = ChaosPlan {
            faults: vec![
                rate_fault(1),
                rate_fault(2),
                rate_fault(777),
                rate_fault(3),
                rate_fault(4),
                rate_fault(5),
            ],
            ..ChaosPlan::default()
        };
        let shrunk = shrink(&plan, |p| p.faults.contains(&rate_fault(777)));
        assert_eq!(shrunk.plan.faults, vec![rate_fault(777)]);
    }

    /// Conjunctive failures (both faults needed) stay together.
    #[test]
    fn shrink_keeps_conjunctive_pairs() {
        let plan = ChaosPlan {
            faults: vec![rate_fault(1), rate_fault(10), rate_fault(2), rate_fault(20)],
            ..ChaosPlan::default()
        };
        let shrunk = shrink(&plan, |p| {
            p.faults.contains(&rate_fault(10)) && p.faults.contains(&rate_fault(20))
        });
        assert_eq!(shrunk.plan.faults, vec![rate_fault(10), rate_fault(20)]);
    }

    #[test]
    fn non_failing_plans_come_back_unchanged() {
        let plan = ChaosPlan {
            faults: vec![rate_fault(1), rate_fault(2)],
            ..ChaosPlan::default()
        };
        let shrunk = shrink(&plan, |_| false);
        assert_eq!(shrunk.plan, plan);
        assert_eq!(shrunk.runs, 1);
    }
}
