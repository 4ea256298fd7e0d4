//! Arrival processes in virtual time.
//!
//! Open-loop serving needs *when* requests arrive, independent of how
//! fast the rack drains them. Two processes cover the classic shapes:
//! memoryless [`ArrivalProcess::Poisson`] traffic and a two-phase
//! Markov-modulated Poisson process ([`ArrivalProcess::Mmpp`]) whose
//! calm/burst phases model diurnal or flash-crowd traffic. Every sample
//! comes from a [`SimRng`] fork, so a seeded process yields the same
//! arrival sequence on every run.

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
    /// A two-phase Markov-modulated Poisson process: the source
    /// alternates between a calm phase (exponential gaps around
    /// `calm_gap`) and a burst phase (around `burst_gap`), dwelling in
    /// each phase for an exponential stretch of virtual time.
    Mmpp {
        /// Mean gap while calm.
        calm_gap: SimDuration,
        /// Mean gap while bursting (smaller = denser bursts).
        burst_gap: SimDuration,
        /// Mean dwell time in the calm phase.
        calm_dwell: SimDuration,
        /// Mean dwell time in the burst phase.
        burst_dwell: SimDuration,
    },
}

/// One exponential draw with the given mean, via inverse-CDF over a
/// `[0, 1)` uniform. `-ln(1-u)` keeps the draw finite for `u == 0`.
fn exp_draw(mean: SimDuration, rng: &mut SimRng) -> SimDuration {
    let u = rng.next_f64();
    SimDuration::from_nanos_f64(-mean.as_nanos_f64() * (1.0 - u).ln())
}

impl ArrivalProcess {
    /// Mean offered gap of the process — for MMPP the dwell-weighted
    /// average of the two phase gaps.
    pub fn mean_gap(&self) -> SimDuration {
        match *self {
            ArrivalProcess::Poisson { mean_gap } => mean_gap,
            ArrivalProcess::Mmpp { calm_gap, burst_gap, calm_dwell, burst_dwell } => {
                let total = calm_dwell.as_nanos_f64() + burst_dwell.as_nanos_f64();
                if total == 0.0 {
                    return calm_gap;
                }
                // Requests per phase cycle, then cycle length / requests.
                let calm_n = calm_dwell.as_nanos_f64() / calm_gap.as_nanos_f64().max(1.0);
                let burst_n = burst_dwell.as_nanos_f64() / burst_gap.as_nanos_f64().max(1.0);
                SimDuration::from_nanos_f64(total / (calm_n + burst_n).max(1e-12))
            }
        }
    }

    /// Draws `n` arrival offsets (relative to the submission instant),
    /// in nondecreasing order.
    pub fn sample_offsets(&self, n: usize, rng: &mut SimRng) -> Vec<SimDuration> {
        let mut offsets = Vec::with_capacity(n);
        let mut t = SimDuration::ZERO;
        match *self {
            ArrivalProcess::Poisson { mean_gap } => {
                for _ in 0..n {
                    t += exp_draw(mean_gap, rng);
                    offsets.push(t);
                }
            }
            ArrivalProcess::Mmpp { calm_gap, burst_gap, calm_dwell, burst_dwell } => {
                let mut bursting = false;
                let mut phase_end = exp_draw(calm_dwell, rng);
                for _ in 0..n {
                    // Advance phases the arrival clock has run past.
                    while t >= phase_end {
                        bursting = !bursting;
                        let dwell = if bursting { burst_dwell } else { calm_dwell };
                        phase_end += exp_draw(dwell, rng);
                    }
                    let gap = if bursting { burst_gap } else { calm_gap };
                    t += exp_draw(gap, rng);
                    offsets.push(t);
                }
            }
        }
        offsets
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

    #[test]
    fn mmpp_bursts_are_denser_than_calm() {
        let p = ArrivalProcess::Mmpp {
            calm_gap: SimDuration::from_micros(50),
            burst_gap: SimDuration::from_micros(2),
            calm_dwell: SimDuration::from_millis(1),
            burst_dwell: SimDuration::from_millis(1),
        };
        let a = p.sample_offsets(500, &mut SimRng::new(11));
        assert_eq!(a, p.sample_offsets(500, &mut SimRng::new(11)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // The dwell-weighted mean gap sits between the two phase gaps.
        let mean = p.mean_gap();
        assert!(mean > SimDuration::from_micros(2) && mean < SimDuration::from_micros(50));
    }
}
