//! Discrete-time stepper-motor physics.
//!
//! A motor is driven by a down-counter: the controller writes a period,
//! the counter counts reference-clock cycles and "issues a pulse on
//! zero" (§5), advancing the rotor one step and reloading the period.
//! The model integrates position, derives the step frequency from the
//! period, and checks the physical limits (maximum step frequency,
//! maximum acceleration) the paper states for the SMD head's axes.


/// Physical limits of one axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisLimits {
    /// Maximum step frequency in Hz (50 kHz for X/Y, 9 kHz for Z/φ).
    pub max_step_hz: u64,
    /// Step length in micrometres (25 µm for X/Y/Z) or centi-degrees
    /// (10 for φ). Only used for reporting.
    pub step_size: u32,
    /// Maximum acceleration in steps/s² (10 m/s² at 25 µm/step =
    /// 400 000 steps/s² for X/Y); `None` for uniform-speed axes.
    pub max_accel_steps_s2: Option<u64>,
    /// Reference clock in Hz.
    pub clock_hz: u64,
}

impl AxisLimits {
    /// The paper's X/Y axis: 50 kHz, 0.025 mm/step, 10 m/s², 1.25 m/s.
    pub fn xy(clock_hz: u64) -> Self {
        AxisLimits {
            max_step_hz: 50_000,
            step_size: 25,
            max_accel_steps_s2: Some(400_000),
            clock_hz,
        }
    }

    /// The paper's Z/φ axis: 9 kHz, uniform speed.
    pub fn zphi(clock_hz: u64) -> Self {
        AxisLimits { max_step_hz: 9_000, step_size: 10, max_accel_steps_s2: None, clock_hz }
    }

    /// Minimum legal counter period in clock cycles (= clock / max step
    /// frequency; 300 cycles for X/Y at 15 MHz — the Table 2 numbers).
    pub fn min_period(&self) -> u64 {
        self.clock_hz / self.max_step_hz
    }
}

/// Violations the plant can detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MotorFault {
    /// Commanded period below the axis' minimum (overspeed).
    Overspeed,
    /// Step-to-step frequency change exceeds the acceleration limit.
    Overaccel,
    /// A pulse was not serviced before the next one arrived (the
    /// controller missed its counter-update deadline).
    MissedPulse,
}

/// One stepper motor with its down-counter.
#[derive(Debug, Clone, PartialEq)]
pub struct StepperMotor {
    /// Axis limits.
    pub limits: AxisLimits,
    /// Current counter period in cycles (0 = stopped).
    period: u64,
    /// Cycles until the next pulse.
    remaining: u64,
    /// Steps still to issue in the current move (0 = idle).
    steps_left: u64,
    /// Absolute position in steps.
    position: i64,
    /// Direction of the current move.
    direction: i64,
    /// Period of the previous step (for the acceleration check).
    last_period: Option<u64>,
    /// Faults observed.
    pub faults: Vec<MotorFault>,
    /// Total pulses issued.
    pub pulses: u64,
}

impl StepperMotor {
    /// Creates an idle motor.
    pub fn new(limits: AxisLimits) -> Self {
        StepperMotor {
            limits,
            period: 0,
            remaining: 0,
            steps_left: 0,
            position: 0,
            direction: 1,
            last_period: None,
            faults: Vec::new(),
            pulses: 0,
        }
    }

    /// True while a move is in progress.
    pub fn running(&self) -> bool {
        self.steps_left > 0
    }

    /// Absolute position in steps.
    pub fn position(&self) -> i64 {
        self.position
    }

    /// Steps remaining in the current move.
    pub fn steps_left(&self) -> u64 {
        self.steps_left
    }

    /// Current counter period.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Arms a move: `steps` to go in `direction` (±1), starting with
    /// counter period `period`.
    pub fn start(&mut self, steps: u64, direction: i64, period: u64) {
        self.check_period(period);
        self.steps_left = steps;
        self.direction = if direction < 0 { -1 } else { 1 };
        self.period = period.max(1);
        self.remaining = self.period;
        self.last_period = None;
        if steps == 0 {
            self.period = 0;
        }
    }

    /// Controller writes a new counter period (the `DeltaT` update).
    pub fn set_period(&mut self, period: u64) {
        if !self.running() {
            return;
        }
        self.check_period(period);
        self.period = period.max(1);
    }

    /// Stops the motor immediately.
    pub fn stop(&mut self) {
        self.steps_left = 0;
        self.period = 0;
        self.remaining = 0;
        self.last_period = None;
    }

    fn check_period(&mut self, period: u64) {
        let min = self.limits.min_period();
        if period > 0 && period < min {
            self.faults.push(MotorFault::Overspeed);
        }
        if let (Some(max_accel), Some(last)) =
            (self.limits.max_accel_steps_s2, self.last_period)
        {
            if period > 0 && last > 0 {
                let clock = self.limits.clock_hz as f64;
                let f_new = clock / period as f64;
                let f_old = clock / last as f64;
                // Acceleration over one step interval: df / dt with
                // dt = last/clock.
                let accel = (f_new - f_old).abs() / (last as f64 / clock);
                // 2.5x headroom over the spec: the classical integer
                // ramp c' = c - 2c/(4n+1) overshoots the ideal
                // constant-acceleration profile on its first steps (the
                // well-known 0.676 first-step deviation); the check
                // still catches order-of-magnitude violations.
                if accel > max_accel as f64 * 2.5 {
                    self.faults.push(MotorFault::Overaccel);
                }
            }
        }
    }

    /// The absolute cycle of the next pulse, for a motor last advanced
    /// at cycle `last`; `u64::MAX` when it is not running.
    /// [`advance`](Self::advance) up to any earlier cycle issues no
    /// pulse, and is then exactly [`skip`](Self::skip).
    pub fn next_pulse_at(&self, last: u64) -> u64 {
        if self.running() && self.period != 0 {
            last.saturating_add(self.remaining)
        } else {
            u64::MAX
        }
    }

    /// Advances the motor by `cycles` clock cycles that issue no pulse:
    /// the caller has checked that they end before
    /// [`next_pulse_at`](Self::next_pulse_at). Leaves the motor exactly
    /// as [`advance`](Self::advance)`(cycles)` would.
    pub fn skip(&mut self, cycles: u64) {
        if self.running() && self.period != 0 {
            debug_assert!(self.remaining > cycles, "skip over a pulse");
            self.remaining -= cycles;
        }
    }

    /// Advances the motor by `cycles` clock cycles; returns the number
    /// of pulses issued in that window. More than one pulse per window
    /// means the controller failed to service each pulse in time, which
    /// is recorded as a [`MotorFault::MissedPulse`] per extra pulse.
    pub fn advance(&mut self, cycles: u64) -> u64 {
        if !self.running() || self.period == 0 {
            return 0;
        }
        let mut issued = 0;
        let mut left = cycles;
        while self.running() && left > 0 {
            if self.remaining > left {
                self.remaining -= left;
                break;
            }
            left -= self.remaining;
            // Pulse.
            issued += 1;
            self.pulses += 1;
            self.position += self.direction;
            self.steps_left -= 1;
            self.last_period = Some(self.period);
            self.remaining = self.period;
            if !self.running() {
                self.period = 0;
                break;
            }
        }
        if issued > 1 {
            for _ in 1..issued {
                self.faults.push(MotorFault::MissedPulse);
            }
        }
        issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOCK: u64 = 15_000_000;

    #[test]
    fn min_periods_match_table2() {
        assert_eq!(AxisLimits::xy(CLOCK).min_period(), 300);
        assert_eq!(AxisLimits::zphi(CLOCK).min_period(), 1666);
    }

    #[test]
    fn pulses_arrive_every_period() {
        let mut m = StepperMotor::new(AxisLimits::xy(CLOCK));
        m.start(10, 1, 500);
        assert_eq!(m.advance(499), 0);
        assert_eq!(m.advance(1), 1);
        assert_eq!(m.advance(500), 1);
        assert_eq!(m.position(), 2);
        assert_eq!(m.steps_left(), 8);
    }

    #[test]
    fn move_completes_and_stops() {
        let mut m = StepperMotor::new(AxisLimits::xy(CLOCK));
        m.start(3, -1, 400);
        let total = m.advance(400 * 10);
        assert_eq!(total, 3);
        assert!(!m.running());
        assert_eq!(m.position(), -3);
        // Further time: no pulses.
        assert_eq!(m.advance(10_000), 0);
    }

    #[test]
    fn overspeed_detected() {
        let mut m = StepperMotor::new(AxisLimits::xy(CLOCK));
        m.start(5, 1, 200); // < 300 min period
        assert!(m.faults.contains(&MotorFault::Overspeed));
    }

    #[test]
    fn missed_pulse_detected() {
        let mut m = StepperMotor::new(AxisLimits::xy(CLOCK));
        m.start(10, 1, 300);
        // A window spanning three periods: two extra unserviced pulses.
        assert_eq!(m.advance(900), 3);
        assert_eq!(
            m.faults.iter().filter(|f| **f == MotorFault::MissedPulse).count(),
            2
        );
    }

    #[test]
    fn gentle_ramp_passes_accel_check() {
        let mut m = StepperMotor::new(AxisLimits::xy(CLOCK));
        // Physically sized start period (~900 Hz first step for
        // 400 000 steps/s^2), then the classical ramp; never trips.
        m.start(60, 1, 16800);
        let mut period = 16800u64;
        for n in 1..50u64 {
            // Service each pulse exactly when it arrives, like the
            // controller's X_PULSE/DeltaT loop.
            while m.running() && m.advance(100) == 0 {}
            period = (period - (2 * period) / (4 * n + 1)).max(300);
            m.set_period(period);
        }
        assert!(
            !m.faults.contains(&MotorFault::Overaccel),
            "faults: {:?}",
            m.faults
        );
    }

    #[test]
    fn violent_jump_trips_accel_check() {
        let mut m = StepperMotor::new(AxisLimits::xy(CLOCK));
        m.start(50, 1, 5000);
        m.advance(5000);
        m.set_period(300); // 3 kHz -> 50 kHz in one step
        assert!(m.faults.contains(&MotorFault::Overaccel));
    }

    #[test]
    fn next_pulse_at_predicts_advance() {
        let mut m = StepperMotor::new(AxisLimits::xy(CLOCK));
        assert_eq!(m.next_pulse_at(7), u64::MAX, "an idle motor never pulses");
        m.start(2, 1, 500);
        assert_eq!(m.next_pulse_at(1_000), 1_500);
        for window in [0, 1, 250, 499, 500, 501, 2_000] {
            let mut probe = m.clone();
            let pulses = probe.advance(window) > 0;
            assert_eq!(m.next_pulse_at(0) <= window, pulses, "window {window}");
        }
        m.advance(499);
        assert_eq!(m.next_pulse_at(499), 500);
        m.advance(1);
        assert_eq!(m.next_pulse_at(500), 1_000, "the counter reloads its period");
        m.advance(500);
        assert!(!m.running());
        assert_eq!(m.next_pulse_at(1_000), u64::MAX, "a finished move never pulses");
    }

    #[test]
    fn skip_is_advance_without_a_pulse() {
        let mut idle = StepperMotor::new(AxisLimits::zphi(CLOCK));
        let before = idle.clone();
        idle.skip(1_000_000);
        assert_eq!(idle, before, "skipping leaves an idle motor alone");
        let mut m = StepperMotor::new(AxisLimits::xy(CLOCK));
        m.start(3, -1, 400);
        m.advance(400);
        m.set_period(350);
        for window in [0, 1, 200, 399] {
            let (mut skipped, mut advanced) = (m.clone(), m.clone());
            skipped.skip(window);
            assert_eq!(advanced.advance(window), 0);
            assert_eq!(skipped, advanced, "window {window}");
        }
        // Skips add up like advances.
        let mut skipped = m.clone();
        skipped.skip(150);
        skipped.skip(249);
        m.advance(399);
        assert_eq!(skipped, m);
        assert_eq!(skipped.next_pulse_at(0), 1);
    }

    #[test]
    fn stop_halts_immediately() {
        let mut m = StepperMotor::new(AxisLimits::zphi(CLOCK));
        m.start(100, 1, 1700);
        m.advance(1700 * 3);
        m.stop();
        assert!(!m.running());
        assert_eq!(m.advance(100_000), 0);
        assert_eq!(m.position(), 3);
    }
}
