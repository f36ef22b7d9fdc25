//! The submission-round pipeline: what the MLPerf organization itself
//! runs each round (§4.1–§4.2 of the paper).
//!
//! Submitters hand in *bundles* — org, division, category, and one
//! run set of `:::MLLOG` logs per benchmark entered ([`bundle`]).
//! Review ([`review`]) replays the published review process over each
//! bundle: parse every log, run the [`mlperf_core::compliance`]
//! checker, validate hyperparameters against the Closed-division
//! [`mlperf_core::rules`], enforce the shared dataset and quality
//! target both divisions owe the round, fingerprint-check workload
//! [`mlperf_core::equivalence`], and aggregate the run set with the
//! drop-min/max rule of [`mlperf_core::aggregate`].
//!
//! A round ([`round`]) ingests many bundles concurrently — log parsing
//! and bundle review each fan out over the worker pool — and is
//! fault-tolerant: malformed or non-compliant bundles are quarantined
//! with structured [`review::ReviewReport`] diagnostics and never
//! abort the round. Accepted scores feed per-benchmark/division
//! leaderboards ([`leaderboard`]) and, across an ordered
//! [`tables::RoundHistory`] of any number of rounds, the paper's
//! Figure 4/5-style speedup and scale tables ([`tables`]).
//!
//! Rounds persist: [`store`] serializes whole rounds to a disk archive
//! of real `:::MLLOG` log files plus versioned JSON manifests, and
//! ingests them back — quarantining damaged entries with path-level
//! diagnostics instead of aborting — so a multi-round history can be
//! rebuilt from the archive alone.
//!
//! [`synthetic`] generates whole multi-vendor rounds from the
//! `mlperf-distsim` vendor fleet, with optional injected faults, so
//! the pipeline can be exercised end to end without real submitters.

#![warn(missing_docs)]

pub mod bundle;
pub mod leaderboard;
pub mod manifest;
pub mod review;
pub mod round;
pub mod store;
pub mod synthetic;
pub mod tables;

pub use bundle::{BenchmarkReference, RunSet, SubmissionBundle};
pub use leaderboard::{
    leaderboards, scenario_leaderboards, Leaderboard, LeaderboardAccumulator, ScenarioLeaderboard,
};
pub use review::{review_bundle, BenchmarkReview, Diagnostic, ReviewReport};
pub use round::{
    run_round, run_round_with, AcceptedEntry, ReviewedBundle, RoundOutcome, RoundSubmissions,
    ScenarioEntry, StreamingReview,
};
pub use store::{
    ArchiveReplay, FaultReason, MigrationReport, OpenRoundWriter, RoundArchive, RoundIngest,
    RoundStream, StoreError, StoreFault, StreamedBundle, MANIFEST_SCHEMA,
};
pub use synthetic::{
    round_references, synthetic_round, synthetic_stress_round, Fault, SyntheticRoundSpec,
};
pub use tables::{RoundHistory, RoundTable};
