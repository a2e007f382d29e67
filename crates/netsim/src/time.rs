//! Simulation time: a `u64` count of nanoseconds since the start of the run.

/// Simulation timestamp / duration in nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROS: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLIS: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECONDS: Nanos = 1_000_000_000;

/// Convert milliseconds (possibly fractional) to [`Nanos`].
pub fn from_ms(ms: f64) -> Nanos {
    (ms * MILLIS as f64).round() as Nanos
}

/// Convert seconds (possibly fractional) to [`Nanos`].
pub fn from_secs(s: f64) -> Nanos {
    (s * SECONDS as f64).round() as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        assert_eq!(from_ms(1.5), 1_500_000);
        assert_eq!(from_secs(2.0), 2 * SECONDS);
    }
}
