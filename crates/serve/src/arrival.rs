//! Arrival processes in virtual time.
//!
//! Open-loop serving needs *when* requests arrive, independent of how
//! fast the rack drains them: memoryless [`ArrivalProcess::Poisson`]
//! traffic. Every sample comes from a [`SimRng`] fork, so a seeded
//! process yields the same arrival sequence on every run.

use disagg_hwsim::rng::SimRng;
use disagg_hwsim::time::SimDuration;

/// How request inter-arrival gaps are drawn, all in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: gaps are exponential around `mean_gap`
    /// (offered load = 1/`mean_gap` requests per virtual second).
    Poisson {
        /// Mean inter-arrival gap.
        mean_gap: SimDuration,
    },
}

/// One exponential draw with the given mean, via inverse-CDF over a
/// `[0, 1)` uniform. `-ln(1-u)` keeps the draw finite for `u == 0`.
fn exp_draw(mean: SimDuration, rng: &mut SimRng) -> SimDuration {
    let u = rng.next_f64();
    SimDuration::from_nanos_f64(-mean.as_nanos_f64() * (1.0 - u).ln())
}

impl ArrivalProcess {
    /// Draws `n` arrival offsets (relative to the submission instant),
    /// in nondecreasing order.
    ///
    /// # Panics
    ///
    /// If an offset overflows virtual time; `ServeLayer::run` returns
    /// `InvalidConfig` for such a process instead.
    pub fn sample_offsets(&self, n: usize, rng: &mut SimRng) -> Vec<SimDuration> {
        self.checked_offsets(n, rng).expect("arrival offsets overflow virtual time")
    }

    /// The draws of [`Self::sample_offsets`], or `None` once an offset
    /// would overflow virtual time.
    pub(crate) fn checked_offsets(&self, n: usize, rng: &mut SimRng) -> Option<Vec<SimDuration>> {
        let ArrivalProcess::Poisson { mean_gap } = *self;
        let mut t = SimDuration::ZERO;
        let mut offsets = Vec::with_capacity(n);
        for _ in 0..n {
            t = SimDuration(t.0.checked_add(exp_draw(mean_gap, rng).0)?);
            offsets.push(t);
        }
        Some(offsets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_offsets_are_seeded_and_monotone() {
        let p = ArrivalProcess::Poisson { mean_gap: SimDuration::from_micros(10) };
        let a = p.sample_offsets(100, &mut SimRng::new(7));
        let b = p.sample_offsets(100, &mut SimRng::new(7));
        assert_eq!(a, b, "same seed, same arrivals");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets nondecreasing");
        let mean = a.last().unwrap().as_nanos_f64() / 100.0;
        assert!(
            (5_000.0..20_000.0).contains(&mean),
            "empirical mean gap {mean} ns should be near 10_000 ns"
        );
    }
}
