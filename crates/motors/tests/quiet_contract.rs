//! The plant's quiet contract: `SmdHead::quiet_sample(now)` may take the
//! sample for `now` only when `sample_events(now)` would return nothing,
//! and must then leave the head exactly as that sample would; when it
//! refuses, it changes nothing.
//!
//! Random walks drive one head through port writes (periods, arms of
//! every motor including zero-step arms, directions, emergency stops,
//! STATUS handshakes), BUFFER reads and sample times, landing often on
//! or next to the next motor pulse and the next `DATA_VALID`. At every
//! step one clone takes `quiet_sample(now)` and another
//! `sample_events(now)`. The quiet sample must be granted exactly when
//! the sample is empty and pulses no motor: the silent Z axis raises no
//! event but still refuses, as skipping cannot issue its pulse.

use proptest::prelude::*;
use pscp_core::machine::Environment;
use pscp_motors::example::ports;
use pscp_motors::head::{Move, SmdHead};

/// Output ports a walk writes.
const WRITES: [u16; 12] = [
    ports::XPERIOD,
    ports::YPERIOD,
    ports::PHIPERIOD,
    ports::XSTEPS,
    ports::YSTEPS,
    ports::PHISTEPS,
    ports::ZSTEPS,
    ports::XDIR,
    ports::YDIR,
    ports::PHIDIR,
    ports::STOPALL,
    ports::STATUS,
];

/// Total pulses issued by the head's four motors.
fn pulses(head: &SmdHead) -> u64 {
    [&head.motor_x, &head.motor_y, &head.motor_phi, &head.motor_z].iter().map(|m| m.pulses).sum()
}

/// The earliest pulse due on any motor of a head last sampled at
/// `last`.
fn next_pulse(head: &SmdHead, last: u64) -> u64 {
    [&head.motor_x, &head.motor_y, &head.motor_phi, &head.motor_z]
        .iter()
        .map(|m| m.next_pulse_at(last))
        .min()
        .expect("four motors")
}

/// Checks the contract at `now` and advances `head` as a machine would:
/// by the quiet sample when granted, else by the sample. Returns whether
/// the sample offered `DATA_VALID`.
fn check(head: &mut SmdHead, now: u64) -> Result<bool, TestCaseError> {
    let mut quiet = head.clone();
    let mut sampled = head.clone();
    let granted = quiet.quiet_sample(now);
    let events = sampled.sample_events(now);
    let silent = events.is_empty() && pulses(&sampled) == pulses(head);
    prop_assert_eq!(granted, silent, "at {}: sample {:?}", now, events);
    if granted {
        prop_assert_eq!(&quiet, &sampled, "a quiet sample diverged from the sample at {}", now);
    } else {
        prop_assert_eq!(&quiet, &*head, "a refused quiet sample changed the head at {}", now);
    }
    *head = sampled;
    Ok(events.iter().any(|e| e == "DATA_VALID"))
}

/// One walk step: `(kind, a, b)`.
type Op = (u8, u64, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..8, 0u64..4_000, 0u64..64), 1..120)
}

fn moves() -> impl Strategy<Value = Vec<(u16, u16, u16)>> {
    proptest::collection::vec((0u16..5, 0u16..5, 0u16..40), 0..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quiet_sample_is_the_empty_sample(moves in moves(), walk in ops()) {
        let moves: Vec<Move> = moves.into_iter().map(|(x, y, phi)| Move { x, y, phi }).collect();
        let mut head = SmdHead::with_moves(&moves);
        // Every step samples at `now`, so the head was last sampled
        // there; `data_valid` is when the next offer falls due.
        let (mut now, mut data_valid) = (0u64, 0u64);
        for (kind, a, b) in walk {
            match kind {
                // Time passes: to a random cycle, onto or next to the
                // next pulse or DATA_VALID offer, or far ahead.
                0..=3 => {
                    let near = |t: u64| t.saturating_add(b % 3).saturating_sub(1).max(now);
                    now = match kind {
                        0 => now + a,
                        1 if next_pulse(&head, now) != u64::MAX => near(next_pulse(&head, now)),
                        2 => near(data_valid),
                        _ => now + a * 64,
                    };
                }
                // A routine writes a port: periods on the ramp's scale,
                // step counts from zero, direction bits, rare stops, and
                // the STATUS handshake at or past the moves done.
                4 | 5 => {
                    let port = WRITES[(a % WRITES.len() as u64) as usize];
                    let value = match port {
                        ports::XPERIOD | ports::YPERIOD | ports::PHIPERIOD => 300 + 300 * b,
                        ports::XSTEPS | ports::YSTEPS | ports::PHISTEPS | ports::ZSTEPS => b % 4,
                        ports::STOPALL => u64::from(b == 0),
                        ports::STATUS => head.moves_done() as u64 + b % 2,
                        _ => b % 2,
                    };
                    head.port_write(port, value as i64, now);
                }
                // A routine reads the next command byte.
                6 => {
                    head.port_read(ports::BUFFER, now);
                }
                // The next cycle starts a few clock cycles on.
                _ => now += 4 + b,
            }
            if check(&mut head, now)? {
                data_valid = now + head.data_valid_period;
            }
        }
    }
}
