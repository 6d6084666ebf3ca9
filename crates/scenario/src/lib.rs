//! # dclue-scenario — declarative experiments over the DCLUE cluster
//!
//! A `.dcs` scenario file names a topology, a protocol, a workload,
//! optional faults, named `[case]` points and sweep axes, and the
//! columns to print. The pipeline here turns it into a validated
//! [`dclue_cluster::ClusterConfig`] grid and runs it through the
//! [`dclue_cluster::sweep`] entry point. Every paper figure is such a
//! file (`examples/scenarios/`), which the `figures` binary embeds and
//! runs by name.
//!
//! The pipeline, one module per stage:
//!
//! - [`mod@parse`] — text → [`ast::Scenario`]. Line-oriented, hand-rolled,
//!   every error carries a line number and the accepted choices.
//! - [`plan`] — [`ast::Scenario`] → [`plan::Plan`]: scalars applied to
//!   a base config, `[case]` sections and multi-valued keys expanded
//!   into a cartesian grid (cases outermost, then axes in file order),
//!   every point pre-validated by `ClusterConfig::validate`.
//! - [`runner`] — executes a plan via `sweep::run_avg_many`, keeping
//!   the determinism contract (submission order, exact serial path at
//!   `jobs = 1`, fixed seed ladder), and renders the text tables.
//! - [`knee`] — adaptive bisection for the scalability knee on the
//!   `nodes` axis: where marginal tpm-C per added node drops below a
//!   threshold. `O(log)` probes, memoized, same answer as a full grid
//!   scan on monotone curves.
//! - [`service`] — `figures serve`: a std-only HTTP endpoint streaming
//!   run status, finished rows and the dclue-trace metrics registry as
//!   JSON while the experiment is in flight.
//! - [`columns`] — the columns `[output]` can select (config echoes,
//!   report series, point coordinates, the group-relative
//!   `tpmc_drop_pct`), shared by the text table and the JSON rows.
//! - [`emit`] — `figures run ... output=csv:<path>` / `output=json:<path>`
//!   file emission, derived from the same column table.
//! - [`json`] — minimal JSON writer + validating scanner (no deps).
//! - [`discover`] — `*.dcs` discovery for `figures list`.
//!
//! See `EXPERIMENTS.md` for the file format and `examples/scenarios/`
//! for runnable examples.

pub mod ast;
pub mod columns;
pub mod discover;
pub mod emit;
pub mod json;
pub mod knee;
pub mod parse;
pub mod plan;
pub mod runner;
pub mod service;

pub use ast::Scenario;
pub use parse::{parse, ParseError};
pub use plan::{compile, Plan};
