//! Simulated time.
//!
//! The simulator uses a discrete logical clock measured in microseconds.
//! [`SimTime`] is an instant, [`SimDuration`] a span; both are thin wrappers
//! over `u64` so that arithmetic stays explicit and overflow panics in debug
//! builds rather than silently wrapping.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// An instant of simulated time, in microseconds since the start of the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from microseconds.
    pub fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from milliseconds.
    pub fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant from seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// The instant as microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The instant as (truncated) milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}µs", self.0)
    }
}

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// The duration as microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration as (truncated) milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Multiplies the duration by an integer factor.
    #[must_use]
    pub fn times(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t.as_micros(), 15);
        let mut t2 = SimTime::ZERO;
        t2 += SimDuration::from_micros(7);
        assert_eq!(t2.as_micros(), 7);
        assert_eq!((t - t2).as_micros(), 8);
        assert_eq!(t.since(t2).as_micros(), 8);
        // Saturating subtraction.
        assert_eq!((t2 - t).as_micros(), 0);
        assert_eq!(SimDuration::from_micros(3).times(4).as_micros(), 12);
        assert_eq!(
            (SimDuration::from_micros(1) + SimDuration::from_micros(2)).as_micros(),
            3
        );
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_micros(1));
        assert!(SimDuration::ZERO < SimDuration::from_micros(1));
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", SimTime::from_micros(9)), "t=9µs");
        assert_eq!(format!("{}", SimDuration::from_micros(9)), "9µs");
    }
}
