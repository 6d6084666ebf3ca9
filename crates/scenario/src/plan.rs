//! Lowering a parsed [`Scenario`] onto validated [`ClusterConfig`]s.
//!
//! Scalar entries are applied to a base config; `[case]` sections and
//! multi-valued entries become sweep axes expanded as a cartesian
//! product (cases outermost, then axes in file order).
//! Every grid point passes [`ClusterConfig::validate`] before anything
//! runs, so a bad sweep value fails with the point's label attached
//! instead of panicking mid-sweep.

use crate::ast::{apply, Entry, Scenario, SweepSpec, Value};
use dclue_cluster::{ClientModel, ClusterConfig};

/// One runnable grid point.
#[derive(Clone, Debug)]
pub struct Point {
    /// `key=value` pairs of the axis coordinates, in axis order; a
    /// point of a `[case]` section starts with `case=<label>`.
    pub coords: Vec<(&'static str, String)>,
    pub cfg: ClusterConfig,
}

impl Point {
    /// The canonical value of this point's coordinate on `key`.
    pub fn coord(&self, key: &str) -> Option<&str> {
        self.coords
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Human label: `nodes=8 affinity=0.5` (empty for a single point).
    pub fn label(&self) -> String {
        self.coords
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A compiled, validated experiment plan.
#[derive(Clone, Debug)]
pub struct Plan {
    pub scenario: Scenario,
    /// The base config with every scalar entry applied (knee mode runs
    /// this at each probed `nodes` value).
    pub base: ClusterConfig,
    /// Grid points in run order (empty for a knee sweep).
    pub points: Vec<Point>,
    /// Seed count from `[engine] seeds` (default 1).
    pub seeds: u64,
    /// Worker count from `[engine] jobs`; `None` = harness decides.
    pub jobs: Option<usize>,
}

/// Compile a scenario. Errors are already-formatted human messages
/// (the scenario file has been parsed, so there are no line numbers —
/// failures here are semantic, e.g. a grid point a figure-style sweep
/// would also have rejected).
pub fn compile(scenario: &Scenario) -> Result<Plan, String> {
    let mut base = ClusterConfig::default();
    let mut seeds = 1u64;
    let mut jobs = None;

    for e in scenario.entries.iter().filter(|e| !e.is_axis()) {
        match (e.key, &e.values[0]) {
            ("seeds", Value::U64(s)) => seeds = (*s).max(1),
            ("jobs", Value::U64(j)) => jobs = Some((*j).max(1) as usize),
            (key, v) => apply(&mut base, key, v),
        }
    }
    for f in &scenario.faults {
        base.fault_plan = f.extend(std::mem::take(&mut base.fault_plan));
    }

    let axes: Vec<&Entry> = scenario.axes().collect();
    let points = match &scenario.sweep {
        SweepSpec::Knee(_) => Vec::new(),
        SweepSpec::Grid => {
            let mut pts = if scenario.cases.is_empty() {
                vec![Point {
                    coords: Vec::new(),
                    cfg: base.clone(),
                }]
            } else {
                scenario
                    .cases
                    .iter()
                    .map(|case| {
                        let mut cfg = base.clone();
                        for e in &case.entries {
                            apply(&mut cfg, e.key, &e.values[0]);
                        }
                        Point {
                            coords: vec![("case", case.label.clone())],
                            cfg,
                        }
                    })
                    .collect()
            };
            for axis in &axes {
                let mut next = Vec::with_capacity(pts.len() * axis.values.len());
                for p in &pts {
                    for v in &axis.values {
                        let mut cfg = p.cfg.clone();
                        apply(&mut cfg, axis.key, v);
                        let mut coords = p.coords.clone();
                        coords.push((axis.key, v.to_string()));
                        next.push(Point { coords, cfg });
                    }
                }
                pts = next;
            }
            pts
        }
    };

    let plan = Plan {
        scenario: scenario.clone(),
        base,
        points,
        seeds,
        jobs,
    };
    plan.validate()?;
    Ok(plan)
}

impl Plan {
    /// Validate every grid point (or both knee range ends), naming the
    /// offending point.
    fn validate(&self) -> Result<(), String> {
        let name = &self.scenario.name;
        match &self.scenario.sweep {
            SweepSpec::Grid => {
                for p in &self.points {
                    p.cfg.validate().map_err(|e| {
                        let label = p.label();
                        if label.is_empty() {
                            format!("scenario '{name}': {e}")
                        } else {
                            format!("scenario '{name}', point {label}: {e}")
                        }
                    })?;
                }
            }
            SweepSpec::Knee(k) => {
                for n in [k.min, k.max] {
                    cfg_at_nodes(&self.base, n)
                        .validate()
                        .map_err(|e| format!("scenario '{name}', knee probe nodes={n}: {e}"))?;
                }
            }
        }
        Ok(())
    }

    /// Apply the command line's engine choices to the base and every
    /// point: `exact` selects the segment-exact engine, `client_model`
    /// replaces the scenario's driver model. The plan is re-validated.
    pub fn override_engine(
        &mut self,
        exact: bool,
        client_model: Option<ClientModel>,
    ) -> Result<(), String> {
        for cfg in std::iter::once(&mut self.base).chain(self.points.iter_mut().map(|p| &mut p.cfg))
        {
            cfg.exact |= exact;
            if let Some(m) = client_model {
                cfg.client_model = m;
            }
        }
        self.validate()
    }
}

/// The base config probed at a given cluster size (knee mode).
pub fn cfg_at_nodes(base: &ClusterConfig, nodes: u32) -> ClusterConfig {
    let mut cfg = base.clone();
    cfg.nodes = nodes;
    cfg
}
