//! The paper's five applications at a scenario's size and seed. This is
//! the one place an experiment takes a job, or an app's reference check,
//! from.

use disagg_core::prelude::{JobId, JobSpec, RunReport, Runtime};
use disagg_workloads::dbms::{self, DbmsConfig};
use disagg_workloads::hospital::{self, HospitalConfig};
use disagg_workloads::hpc::{self, HpcConfig};
use disagg_workloads::ml::{self, MlConfig};
use disagg_workloads::streaming::{self, StreamConfig};
use disagg_workloads::util::final_output;

use crate::Scenario;

/// One of the five applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum App {
    Dbms,
    Ml,
    Stream,
    Hpc,
    Hospital,
}

impl App {
    /// Short label ("dbms", "ml", ...).
    pub(crate) fn name(self) -> &'static str {
        ["dbms", "ml", "stream", "hpc", "hospital"][self as usize]
    }

    /// A fresh job at `scenario`'s size and seed. [`JobSpec`] bodies are
    /// one-shot, so every run builds its own.
    pub(crate) fn job(self, scenario: &Scenario) -> JobSpec {
        match self {
            App::Dbms => dbms::query_job(dbms_config(scenario)),
            App::Ml => ml::training_job(ml_config(scenario)),
            App::Stream => streaming::windowed_job(stream_config(scenario)),
            App::Hpc => hpc::stencil_job(hpc_config(scenario)),
            App::Hospital => hospital::hospital_job(hospital_config(scenario)),
        }
    }

    /// Whether the final output of the run's job `job` — this app's
    /// [`job`](Self::job) at `scenario` — decoded, equals the app's own
    /// reference for `scenario`.
    pub(crate) fn output_matches(
        self,
        scenario: &Scenario,
        rt: &Runtime,
        report: &RunReport,
        job: JobId,
    ) -> bool {
        let out = |task: &str| final_output(rt, report, job, task);
        match self {
            App::Dbms => {
                let want = dbms::expected(&dbms_config(scenario));
                dbms::decode_result(&out("hash-join"))
                    == (want.join_matches, want.groups as u64, want.total_sum)
            }
            App::Ml => ml::decode_model(&out("train")) == ml::expected_model(&ml_config(scenario)),
            App::Stream => {
                streaming::decode_result(&out("sink"))
                    == streaming::expected_windows(&stream_config(scenario))
            }
            App::Hpc => hpc::decode_sum(&out("reduce")) == hpc::expected_sum(&hpc_config(scenario)),
            App::Hospital => {
                hospital::decode_count(&out("alert-caregivers"))
                    == hospital::expected(&hospital_config(scenario)).patients
            }
        }
    }
}

fn dbms_config(scenario: &Scenario) -> DbmsConfig {
    DbmsConfig {
        tuples: if scenario.quick { 2_000 } else { 20_000 },
        probe_tuples: if scenario.quick { 1_000 } else { 10_000 },
        seed: scenario.stream(DbmsConfig::default().seed),
        ..DbmsConfig::default()
    }
}

fn ml_config(scenario: &Scenario) -> MlConfig {
    MlConfig {
        samples: if scenario.quick { 1_024 } else { 4_096 },
        seed: scenario.stream(MlConfig::default().seed),
        ..MlConfig::default()
    }
}

fn stream_config(scenario: &Scenario) -> StreamConfig {
    StreamConfig {
        events: if scenario.quick { 4_000 } else { 20_000 },
        seed: scenario.stream(StreamConfig::default().seed),
        ..StreamConfig::default()
    }
}

fn hpc_config(scenario: &Scenario) -> HpcConfig {
    HpcConfig {
        cells: if scenario.quick { 2_048 } else { 8_192 },
        seed: scenario.stream(HpcConfig::default().seed),
        ..HpcConfig::default()
    }
}

/// The hospital job's config (`fig2` reads its ground truth).
pub(crate) fn hospital_config(scenario: &Scenario) -> HospitalConfig {
    HospitalConfig {
        frames: if scenario.quick { 4 } else { 16 },
        seed: scenario.stream(HospitalConfig::default().seed),
        ..HospitalConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_core::prelude::RuntimeConfig;
    use disagg_hwsim::presets::single_server;

    /// A check that passed whatever the run computed would let every
    /// "outputs match" claim pass vacuously: each app's check accepts
    /// its own run and rejects it against another seed's reference.
    /// The hospital's surviving output is a patient count that no seed
    /// moves (the generator plants the same number of faces per frame,
    /// and who is an employee hashes frame and face index, not the
    /// seed), so its check is held to another size's reference instead.
    #[test]
    fn each_output_check_rejects_another_seeds_reference() {
        const OWN: Scenario = Scenario { quick: true, seed: 0, trace_out: None };
        for app in [App::Dbms, App::Ml, App::Stream, App::Hpc, App::Hospital] {
            let mut rt = Runtime::new(single_server().0, RuntimeConfig::traced());
            let report = rt.execute(app.job(&OWN)).expect("app runs");
            assert!(app.output_matches(&OWN, &rt, &report, JobId(0)), "{}", app.name());
            let other = match app {
                App::Hospital => Scenario { quick: false, ..OWN },
                _ => Scenario { seed: 1, ..OWN },
            };
            assert!(!app.output_matches(&other, &rt, &report, JobId(0)), "{}", app.name());
        }
        let seeds = |seed| hospital::expected(&hospital_config(&Scenario { seed, ..OWN }));
        assert_eq!(seeds(0), seeds(1), "the hospital reference does not move with the seed");
    }
}
