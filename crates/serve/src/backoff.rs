//! Jittered exponential backoff for the serve-protocol client's
//! `connect_retry`, which races a just-booted daemon.
//!
//! The retry loop grows `attempt` without bound — a long deadline
//! pushes the counter to `u32::MAX` and parks it there — so the math
//! here must be total over the whole `u32` range.

use std::time::Duration;

/// First retry delay of the backoff schedule.
pub const RETRY_BASE: Duration = Duration::from_millis(10);
/// Ceiling on any single retry delay.
pub const RETRY_CAP: Duration = Duration::from_secs(1);

/// The backoff schedule: attempt `k` (0-based) sleeps a jittered delay
/// in `[cap/2, cap]`, where `cap = min(RETRY_BASE << k, RETRY_CAP)` —
/// exponential growth, bounded, with enough jitter (seeded per call)
/// that a stampede of clients racing one just-booted server spreads
/// out instead of reconnecting in lockstep. Pure deadline math, so the
/// schedule is unit-testable without sockets.
///
/// Total over all of `u32`: callers grow `attempt` with
/// `saturating_add`, so a long-lived retry loop eventually pins it at
/// `u32::MAX`, and the delay must stay a plain capped draw rather than
/// overflow. The shift is capped at the `u32` width and the jitter
/// mixing uses wrapping arithmetic throughout.
pub fn retry_delay(attempt: u32, seed: u64) -> Duration {
    // `1 << attempt` saturates once the shift leaves u32 range; capping
    // the shift keeps `checked_shl` meaningful and the cap at RETRY_CAP
    // for every attempt past the crossover.
    let shift = attempt.min(31);
    let cap = RETRY_BASE
        .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX))
        .min(RETRY_CAP);
    let cap_ns = cap.as_nanos() as u64;
    let half = cap_ns / 2;
    // xorshift over (seed, attempt): cheap, deterministic per input,
    // and well-spread across clients with distinct seeds. Widen before
    // the +1 — `attempt + 1` in u32 overflows at the saturated counter.
    let mut x = seed ^ (u64::from(attempt) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    Duration::from_nanos(half + x % (cap_ns - half).max(1))
}

/// A per-call jitter seed. `RandomState` is the standard library's
/// per-process randomly seeded hasher — no extra dependency, and two
/// clients (or two calls) get different schedules.
pub fn jitter_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delays_grow_exponentially_to_the_cap() {
        let seed = 0xdead_beef;
        for attempt in 0..40 {
            let cap = RETRY_BASE
                .saturating_mul(1u32.checked_shl(attempt.min(31)).unwrap_or(u32::MAX))
                .min(RETRY_CAP);
            let delay = retry_delay(attempt, seed);
            assert!(
                delay >= cap / 2 && delay <= cap,
                "attempt {attempt}: {delay:?} outside [{:?}, {cap:?}]",
                cap / 2
            );
        }
        // The cap binds: far-out attempts never exceed RETRY_CAP.
        assert!(retry_delay(63, seed) <= RETRY_CAP);
        assert!(retry_delay(63, seed) >= RETRY_CAP / 2);
    }

    #[test]
    fn retry_delay_is_total_at_the_saturated_attempt_counter() {
        // Callers grow `attempt` with saturating_add, so a retry loop
        // outlasting its deadline pins the counter at u32::MAX; the next
        // draw used to compute `attempt + 1` in u32 and panic in debug
        // builds. The delay must stay a plain capped draw.
        for seed in [0u64, 7, 42, u64::MAX] {
            let delay = retry_delay(u32::MAX, seed);
            assert!(
                delay >= RETRY_CAP / 2 && delay <= RETRY_CAP,
                "saturated attempt: {delay:?} outside [{:?}, {RETRY_CAP:?}]",
                RETRY_CAP / 2
            );
        }
        // The near-saturated neighborhood draws cleanly too.
        for attempt in [31u32, 32, 63, 64, u32::MAX - 1] {
            let _ = retry_delay(attempt, 1);
        }
    }

    #[test]
    fn retry_delays_are_deterministic_per_seed_and_jittered_across_seeds() {
        assert_eq!(retry_delay(5, 42), retry_delay(5, 42));
        // With the cap at 320ms for attempt 5, distinct seeds landing on
        // the exact same nanosecond would be a broken jitter.
        let distinct: std::collections::HashSet<Duration> = (0..64u64)
            .map(|seed| retry_delay(5, seed * 7 + 1))
            .collect();
        assert!(distinct.len() > 32, "jitter collapsed: {}", distinct.len());
    }

    #[test]
    fn retry_schedule_stays_within_a_deadline_by_clamping() {
        // connect_retry clamps each sleep to the remaining deadline;
        // simulate the same arithmetic: total sleep time never passes
        // the deadline no matter how many attempts fail.
        let deadline = Duration::from_millis(200);
        let mut elapsed = Duration::ZERO;
        let seed = 7;
        for attempt in 0..32 {
            if elapsed >= deadline {
                break;
            }
            let sleep = retry_delay(attempt, seed).min(deadline - elapsed);
            elapsed += sleep;
        }
        assert!(elapsed <= deadline);
        // And the schedule actually reaches the deadline (it does not
        // stall short of it with zero-length sleeps).
        assert!(elapsed >= deadline - Duration::from_nanos(1));
    }

    #[test]
    fn first_retry_is_prompt() {
        // A driver racing a just-booted server should not wait long on
        // its first retry: attempt 0 sleeps at most RETRY_BASE.
        for seed in 0..32 {
            assert!(retry_delay(0, seed) <= RETRY_BASE);
        }
    }
}
