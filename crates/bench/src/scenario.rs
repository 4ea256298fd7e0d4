//! The experiments' one input: the size they run at and the seed every
//! random stream they draw forks from.

/// What an experiment runs at. The default — full size, seed 0 — is
/// the scenario `BENCH_disagg.json` records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scenario {
    /// Shrink workloads to the CI size (`exp_driver --quick`).
    pub quick: bool,
    /// The seed every stream forks from.
    pub seed: u64,
}

impl Scenario {
    /// The seed of the random stream an experiment names `tag`. At seed
    /// 0 it is `tag` itself, so the default scenario draws what the
    /// experiments drew before they had a seed; any other seed moves
    /// every stream at once, and distinct seeds never give one tag the
    /// same stream (the multiplier is odd, so it is a bijection).
    pub fn stream(&self, tag: u64) -> u64 {
        tag ^ self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_identity_and_each_seed_its_own_stream() {
        for tag in [0, 7, 99, 2_023, 0xd15a66, u64::MAX] {
            assert_eq!(Scenario::default().stream(tag), tag);
            assert_eq!(Scenario { quick: true, seed: 0 }.stream(tag), tag, "size is not a stream");
        }
        assert_eq!(Scenario { quick: false, seed: 1 }.stream(0), 0x9E37_79B9_7F4A_7C15);
        assert_eq!(Scenario { quick: false, seed: 2 }.stream(99), 0x3C6E_F372_FE94_F82A ^ 99);
        let tag = 0xd15a66;
        let streams: std::collections::BTreeSet<u64> =
            (1..=10).map(|seed| Scenario { quick: false, seed }.stream(tag)).collect();
        assert_eq!(streams.len(), 10, "ten seeds, ten streams: {streams:x?}");
        assert!(!streams.contains(&tag), "no grid seed replays the record's stream");
    }
}
