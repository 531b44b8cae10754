//! The SMD pickup head as a PSCP co-simulation environment (Fig. 7).
//!
//! The head owns the four stepper motors, plays the central controller's
//! command stream through the `BUFFER` port at the `DATA_VALID` cadence
//! (one byte per 1500 cycles, Table 2), converts motor counter zeros
//! into `X_PULSE`/`Y_PULSE`/`PHI_PULSE` events and move completions into
//! `X_STEPS`/`Y_STEPS`/`PHI_STEPS`, and records every physical-limit or
//! deadline fault the controller causes.

use crate::example::{opcodes, ports};
use crate::stepper::{AxisLimits, MotorFault, StepperMotor};
use crate::CLOCK_HZ;
use pscp_core::machine::Environment;

/// One movement command for the head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Target X in steps (0.025 mm each).
    pub x: u16,
    /// Target Y in steps.
    pub y: u16,
    /// Target φ in 0.1° units.
    pub phi: u16,
}

/// The plant model.
#[derive(Debug, Clone, PartialEq)]
pub struct SmdHead {
    /// X axis (50 kHz, ramped).
    pub motor_x: StepperMotor,
    /// Y axis (50 kHz, ramped).
    pub motor_y: StepperMotor,
    /// φ axis (9 kHz, uniform).
    pub motor_phi: StepperMotor,
    /// Z axis (9 kHz, uniform, chart-invisible).
    pub motor_z: StepperMotor,
    /// Encoded command stream still to deliver.
    stream: Vec<u8>,
    cursor: usize,
    /// Byte offsets where command frames begin. The central controller
    /// handshakes: frame `k` is only streamed once the controller has
    /// reported `k` completed moves through the STATUS port.
    frame_starts: Vec<usize>,
    /// Absolute cycle of the next DATA_VALID offer.
    next_data_valid: u64,
    /// DATA_VALID interval (Table 2: 1500).
    pub data_valid_period: u64,
    powered: bool,
    last_sample: u64,
    /// Direction latches written through the DIR ports.
    dir_x: i64,
    dir_y: i64,
    dir_phi: i64,
    /// Period latches: a PERIOD write before the STEPS arm sets the
    /// initial counter value.
    period_x: u64,
    period_y: u64,
    period_phi: u64,
    /// Pending completion events.
    pending_steps_events: Vec<&'static str>,
    /// STATUS-port writes observed `(value, cycle)`.
    pub status_writes: Vec<(i64, u64)>,
    /// Emergency-stop count.
    pub stops: u64,
}

impl SmdHead {
    /// Creates a head with an empty command stream.
    pub fn new() -> Self {
        SmdHead {
            motor_x: StepperMotor::new(AxisLimits::xy(CLOCK_HZ)),
            motor_y: StepperMotor::new(AxisLimits::xy(CLOCK_HZ)),
            motor_phi: StepperMotor::new(AxisLimits::zphi(CLOCK_HZ)),
            motor_z: StepperMotor::new(AxisLimits::zphi(CLOCK_HZ)),
            stream: Vec::new(),
            cursor: 0,
            frame_starts: Vec::new(),
            next_data_valid: 0,
            data_valid_period: 1500,
            powered: false,
            last_sample: 0,
            dir_x: 1,
            dir_y: 1,
            dir_phi: 1,
            period_x: 16800,
            period_y: 16800,
            period_phi: 1666,
            pending_steps_events: Vec::new(),
            status_writes: Vec::new(),
            stops: 0,
        }
    }

    /// Creates a head that will stream the given moves followed by the
    /// end-of-data marker.
    pub fn with_moves(moves: &[Move]) -> Self {
        let mut head = SmdHead::new();
        for m in moves {
            head.frame_starts.push(head.stream.len());
            head.stream.push(opcodes::MOVE);
            head.stream.push((m.x & 0xff) as u8);
            head.stream.push((m.x >> 8) as u8);
            head.stream.push((m.y & 0xff) as u8);
            head.stream.push((m.y >> 8) as u8);
            head.stream.push((m.phi & 0xff) as u8);
            head.stream.push((m.phi >> 8) as u8);
        }
        head.frame_starts.push(head.stream.len());
        head.stream.push(opcodes::END);
        head
    }

    /// True when the next byte may be offered: mid-frame bytes stream
    /// freely; a byte starting frame `k` waits until the controller has
    /// completed `k` moves (STATUS handshake).
    fn byte_ready(&self) -> bool {
        if self.cursor >= self.stream.len() {
            return false;
        }
        match self.frame_starts.iter().position(|&s| s == self.cursor) {
            Some(k) => self.moves_done() >= k as i64,
            None => true,
        }
    }

    /// Bytes still to deliver.
    pub fn pending_bytes(&self) -> usize {
        self.stream.len() - self.cursor
    }

    /// True when every motor is idle.
    pub fn all_idle(&self) -> bool {
        !self.motor_x.running()
            && !self.motor_y.running()
            && !self.motor_phi.running()
            && !self.motor_z.running()
    }

    /// All faults across the motors.
    pub fn faults(&self) -> Vec<MotorFault> {
        let mut out = Vec::new();
        for m in [&self.motor_x, &self.motor_y, &self.motor_phi, &self.motor_z] {
            out.extend(m.faults.iter().copied());
        }
        out
    }

    /// Missed-pulse count (controller deadline misses).
    pub fn missed_pulses(&self) -> usize {
        self.faults().iter().filter(|f| **f == MotorFault::MissedPulse).count()
    }

    /// Completed moves as reported through the STATUS port.
    pub fn moves_done(&self) -> i64 {
        self.status_writes.last().map(|&(v, _)| v).unwrap_or(0)
    }

    fn advance_motors(&mut self, now: u64) -> Vec<&'static str> {
        let elapsed = now.saturating_sub(self.last_sample);
        self.last_sample = now;
        let mut events = Vec::new();
        let specs: [(&mut StepperMotor, &'static str, &'static str); 3] = [
            (&mut self.motor_x, "X_PULSE", "X_STEPS"),
            (&mut self.motor_y, "Y_PULSE", "Y_STEPS"),
            (&mut self.motor_phi, "PHI_PULSE", "PHI_STEPS"),
        ];
        for (motor, pulse_ev, steps_ev) in specs {
            let was_running = motor.running();
            let pulses = motor.advance(elapsed);
            if pulses > 0 && motor.running() {
                events.push(pulse_ev);
            }
            if was_running && !motor.running() {
                events.push(steps_ev);
            }
        }
        // Z runs silently.
        self.motor_z.advance(elapsed);
        events
    }
}

impl Default for SmdHead {
    fn default() -> Self {
        SmdHead::new()
    }
}

impl Environment for SmdHead {
    fn sample_events(&mut self, now: u64) -> Vec<String> {
        let mut events: Vec<String> = Vec::new();
        if !self.powered {
            self.powered = true;
            events.push("POWER".into());
        }
        for e in self.advance_motors(now) {
            events.push(e.into());
        }
        events.extend(self.pending_steps_events.drain(..).map(String::from));
        if self.byte_ready() && now >= self.next_data_valid {
            events.push("DATA_VALID".into());
            self.next_data_valid = now + self.data_valid_period;
        }
        events
    }

    /// Takes an empty sample in place of [`sample_events`](Self::sample_events):
    /// only when the head is powered, no completion event is pending,
    /// no motor — the silent Z axis included — pulses by `now` and no
    /// `DATA_VALID` is due. Without a pulse, skipping every motor over
    /// the elapsed time is exactly what the sample's `advance` calls
    /// would have done.
    fn quiet_sample(&mut self, now: u64) -> bool {
        let last = self.last_sample;
        let next_pulse = self
            .motor_x
            .next_pulse_at(last)
            .min(self.motor_y.next_pulse_at(last))
            .min(self.motor_phi.next_pulse_at(last))
            .min(self.motor_z.next_pulse_at(last));
        if !self.powered
            || !self.pending_steps_events.is_empty()
            || next_pulse <= now
            || (now >= self.next_data_valid && self.byte_ready())
        {
            return false;
        }
        let elapsed = now.saturating_sub(last);
        self.last_sample = now;
        self.motor_x.skip(elapsed);
        self.motor_y.skip(elapsed);
        self.motor_phi.skip(elapsed);
        self.motor_z.skip(elapsed);
        true
    }

    fn port_read(&mut self, address: u16, _now: u64) -> i64 {
        if address == ports::BUFFER {
            let b = self.stream.get(self.cursor).copied().unwrap_or(opcodes::END);
            self.cursor = (self.cursor + 1).min(self.stream.len());
            b as i64
        } else {
            0
        }
    }

    fn port_write(&mut self, address: u16, value: i64, now: u64) {
        let v = value.max(0) as u64;
        match address {
            ports::XPERIOD => {
                self.period_x = v;
                self.motor_x.set_period(v);
            }
            ports::YPERIOD => {
                self.period_y = v;
                self.motor_y.set_period(v);
            }
            ports::PHIPERIOD => {
                self.period_phi = v;
                self.motor_phi.set_period(v);
            }
            ports::XSTEPS => {
                if v == 0 {
                    self.pending_steps_events.push("X_STEPS");
                } else {
                    self.motor_x.start(v, self.dir_x, self.period_x);
                }
            }
            ports::YSTEPS => {
                if v == 0 {
                    self.pending_steps_events.push("Y_STEPS");
                } else {
                    self.motor_y.start(v, self.dir_y, self.period_y);
                }
            }
            ports::PHISTEPS => {
                if v == 0 {
                    self.pending_steps_events.push("PHI_STEPS");
                } else {
                    self.motor_phi.start(v, self.dir_phi, self.period_phi);
                }
            }
            ports::ZSTEPS
                if v > 0 => {
                    self.motor_z.start(v, 1, 1666);
                }
            ports::XDIR => self.dir_x = if v == 0 { 1 } else { -1 },
            ports::YDIR => self.dir_y = if v == 0 { 1 } else { -1 },
            ports::PHIDIR => self.dir_phi = if v == 0 { 1 } else { -1 },
            ports::STOPALL
                if v != 0 => {
                    self.stops += 1;
                    self.motor_x.stop();
                    self.motor_y.stop();
                    self.motor_phi.stop();
                    self.motor_z.stop();
                }
            ports::STATUS => self.status_writes.push((value, now)),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_bytes_at_data_valid_cadence() {
        let mut head = SmdHead::with_moves(&[Move { x: 100, y: 50, phi: 10 }]);
        assert_eq!(head.pending_bytes(), 8); // 7 frame bytes + END
        // First sample powers up and offers DATA_VALID.
        let evs = head.sample_events(0);
        assert!(evs.contains(&"POWER".to_string()));
        assert!(evs.contains(&"DATA_VALID".to_string()));
        // No second offer before 1500 cycles.
        let evs = head.sample_events(100);
        assert!(!evs.contains(&"DATA_VALID".to_string()));
        let evs = head.sample_events(1500);
        assert!(evs.contains(&"DATA_VALID".to_string()));
    }

    #[test]
    fn buffer_reads_consume_stream() {
        let mut head = SmdHead::with_moves(&[Move { x: 0x1234, y: 1, phi: 2 }]);
        assert_eq!(head.port_read(ports::BUFFER, 0), opcodes::MOVE as i64);
        assert_eq!(head.port_read(ports::BUFFER, 0), 0x34);
        assert_eq!(head.port_read(ports::BUFFER, 0), 0x12);
        // After exhaustion, END is returned.
        for _ in 0..10 {
            head.port_read(ports::BUFFER, 0);
        }
        assert_eq!(head.port_read(ports::BUFFER, 0), opcodes::END as i64);
    }

    #[test]
    fn arming_and_pulses_flow_back_as_events() {
        let mut head = SmdHead::new();
        head.port_write(ports::XDIR, 0, 0);
        head.port_write(ports::XPERIOD, 500, 0);
        head.port_write(ports::XSTEPS, 3, 0);
        assert!(head.motor_x.running());
        head.sample_events(0); // sync sample clock (also powers up)
        let evs = head.sample_events(500);
        assert!(evs.contains(&"X_PULSE".to_string()), "{evs:?}");
        // Finish the move: completion event, no further pulses.
        let evs = head.sample_events(2000);
        assert!(evs.contains(&"X_STEPS".to_string()), "{evs:?}");
        assert!(head.motor_x.position() == 3);
    }

    #[test]
    fn zero_step_arm_completes_immediately() {
        let mut head = SmdHead::new();
        head.port_write(ports::XSTEPS, 0, 0);
        let evs = head.sample_events(10);
        assert!(evs.contains(&"X_STEPS".to_string()));
    }

    #[test]
    fn stop_all_halts_everything() {
        let mut head = SmdHead::new();
        head.port_write(ports::XSTEPS, 100, 0);
        head.port_write(ports::PHISTEPS, 100, 0);
        head.port_write(ports::STOPALL, 1, 0);
        assert!(head.all_idle());
        assert_eq!(head.stops, 1);
    }

    /// Asserts what `quiet_sample(now)` promises against a twin that
    /// samples: on `true` the sample is empty and both heads are equal,
    /// on `false` the head is untouched. Returns the verdict.
    fn check_quiet(head: &mut SmdHead, now: u64) -> bool {
        let before = head.clone();
        let quiet = head.quiet_sample(now);
        if quiet {
            let mut sampled = before;
            assert_eq!(sampled.sample_events(now), Vec::<String>::new(), "at {now}");
            assert_eq!(*head, sampled, "quiet sample diverged from sample_events at {now}");
        } else {
            assert_eq!(*head, before, "a refused quiet sample changed the head at {now}");
        }
        quiet
    }

    #[test]
    fn quiet_sample_refuses_before_power_up_and_with_pending_completions() {
        let mut head = SmdHead::new();
        assert!(!check_quiet(&mut head, 0), "the first sample raises POWER");
        head.sample_events(0);
        assert!(check_quiet(&mut head, 10));
        head.port_write(ports::XSTEPS, 0, 10);
        assert!(!check_quiet(&mut head, 20), "X_STEPS is pending");
    }

    #[test]
    fn quiet_sample_refuses_when_any_motor_would_pulse() {
        for steps_port in [ports::XSTEPS, ports::YSTEPS, ports::PHISTEPS, ports::ZSTEPS] {
            let mut head = SmdHead::new();
            head.sample_events(0);
            head.port_write(ports::XPERIOD, 2_000, 0);
            head.port_write(ports::YPERIOD, 2_000, 0);
            head.port_write(ports::PHIPERIOD, 2_000, 0);
            head.port_write(steps_port, 2, 0);
            // Z runs at its fixed 1666-cycle period, the others at 2000.
            let first = if steps_port == ports::ZSTEPS { 1_666 } else { 2_000 };
            assert!(check_quiet(&mut head, 1_000), "port {steps_port:#x}");
            assert!(check_quiet(&mut head, first - 1), "port {steps_port:#x}");
            assert!(!check_quiet(&mut head, first), "port {steps_port:#x}: a pulse is due");
            head.sample_events(first);
            assert!(check_quiet(&mut head, first + 1), "port {steps_port:#x}");
            // The second pulse ends the move; afterwards nothing is due.
            assert!(!check_quiet(&mut head, 2 * first + 5), "port {steps_port:#x}");
            head.sample_events(2 * first + 5);
            assert!(check_quiet(&mut head, 1_000_000), "port {steps_port:#x}");
        }
    }

    #[test]
    fn quiet_sample_refuses_when_data_valid_is_due() {
        let mut head = SmdHead::with_moves(&[Move { x: 1, y: 1, phi: 1 }]);
        head.sample_events(0); // POWER + the first DATA_VALID
        assert!(check_quiet(&mut head, 1_499));
        assert!(!check_quiet(&mut head, 1_500), "the next byte is due");
        assert!(head.sample_events(1_500).contains(&"DATA_VALID".to_string()));
        // The stream's END waits for the STATUS handshake, so nothing
        // is due once the frame is consumed until the move completes.
        for _ in 0..7 {
            head.port_read(ports::BUFFER, 1_500);
        }
        assert!(check_quiet(&mut head, 10_000));
        head.port_write(ports::STATUS, 1, 10_000);
        assert!(!check_quiet(&mut head, 10_001), "END is offered after the handshake");
    }

    #[test]
    fn direction_latches_apply() {
        let mut head = SmdHead::new();
        head.port_write(ports::XDIR, 1, 0);
        head.port_write(ports::XSTEPS, 2, 0);
        head.sample_events(0);
        head.sample_events(50_000);
        assert_eq!(head.motor_x.position(), -2);
    }
}
