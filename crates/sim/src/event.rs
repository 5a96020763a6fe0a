//! Simulation time. Events are ordered by `mcast_events::TimeQueue`,
//! keyed by [`Time`]'s microseconds.

use std::fmt;
use std::ops::Add;

use serde::{Deserialize, Serialize};

/// Simulation time in microseconds since start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(pub u64);

impl Time {
    /// Zero.
    pub const ZERO: Time = Time(0);

    /// Builds from milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1000)
    }

    /// Builds from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000)
    }

    /// The value in (fractional) seconds, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add for Time {
    type Output = Time;

    fn add(self, rhs: Time) -> Time {
        Time(self.0.checked_add(rhs.0).expect("time overflow"))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions() {
        assert_eq!(Time::from_millis(3), Time(3000));
        assert_eq!(Time::from_secs(2), Time(2_000_000));
        assert_eq!(Time::from_secs(1) + Time::from_millis(500), Time(1_500_000));
        assert!((Time(1_500_000).as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Time(1_500_000).to_string(), "1.500000s");
    }
}
