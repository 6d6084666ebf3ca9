//! `figures serve`: a live metrics endpoint over a running experiment.
//!
//! A tiny HTTP/1.1 server on `std::net::TcpListener` — no framework,
//! matching the workspace's zero-dependency rule. Three GET endpoints,
//! all JSON (see EXPERIMENTS.md for the schemas):
//!
//! - `/status`     — run state, progress, current point
//! - `/metrics`    — finished rows plus the dclue-trace registry
//! - `/scenarios`  — scenarios known to this binary (built-ins + files)
//!
//! Rows stream per point in both sweep modes: a grid run publishes
//! each grid point as it finishes, and a `mode = knee` search
//! publishes every probe (as a full output-column row) while the
//! bisection is still narrowing — a client polling `/metrics` watches
//! the curve grow instead of waiting for the verdict.
//!
//! The experiment runs on the caller's thread with `jobs = 1`; the
//! dclue-trace metrics registry is thread-local, so the runner thread is
//! the only writer and snapshots it into the shared state after every
//! finished point. Connection handling threads only ever read the
//! state. Each response carries `Connection: close`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration as StdDuration;

use crate::ast::SweepSpec;
use crate::emit::grid_row_json;
use crate::json::Json;
use crate::knee::find_knee;
use crate::plan::{cfg_at_nodes, Plan, Point};
use crate::runner::{output_columns, table_cells, GridRow};
use dclue_cluster::{sweep, ClusterConfig, Report};
use dclue_trace::metrics;

/// One scenario listed by `/scenarios`.
#[derive(Clone, Debug)]
pub struct ScenarioInfo {
    pub name: String,
    pub description: String,
    /// Where it came from: `built-in` or a file path.
    pub source: String,
}

/// Shared run state, updated by the runner thread.
struct State {
    name: String,
    description: String,
    mode: &'static str,
    run_state: &'static str,
    points_total: usize,
    points_done: usize,
    current: Option<String>,
    rows: Vec<Json>,
    registry: Vec<(String, f64)>,
    knee: Json,
    scenarios: Vec<ScenarioInfo>,
}

impl State {
    fn status_json(&self) -> Json {
        Json::Obj(vec![
            ("scenario".into(), Json::str(self.name.clone())),
            ("description".into(), Json::str(self.description.clone())),
            ("mode".into(), Json::str(self.mode)),
            ("state".into(), Json::str(self.run_state)),
            ("points_total".into(), Json::Num(self.points_total as f64)),
            ("points_done".into(), Json::Num(self.points_done as f64)),
            (
                "current".into(),
                match &self.current {
                    Some(c) => Json::str(c.clone()),
                    None => Json::Null,
                },
            ),
        ])
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(vec![
            ("scenario".into(), Json::str(self.name.clone())),
            ("points_done".into(), Json::Num(self.points_done as f64)),
            ("rows".into(), Json::Arr(self.rows.clone())),
            (
                "registry".into(),
                Json::Obj(
                    self.registry
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("knee".into(), self.knee.clone()),
        ])
    }

    fn scenarios_json(&self) -> Json {
        Json::Arr(
            self.scenarios
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(s.name.clone())),
                        ("description".into(), Json::str(s.description.clone())),
                        ("source".into(), Json::str(s.source.clone())),
                    ])
                })
                .collect(),
        )
    }
}

/// A started service: listener thread accepted, runner not yet begun.
pub struct Service {
    addr: SocketAddr,
    state: Arc<Mutex<State>>,
}

/// Bind `listen` and start answering requests. The experiment itself
/// runs when the caller invokes [`Service::run_blocking`].
pub fn start(plan: &Plan, listen: &str, scenarios: Vec<ScenarioInfo>) -> Result<Service, String> {
    let listener = TcpListener::bind(listen).map_err(|e| format!("cannot bind '{listen}': {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    let mode = match plan.scenario.sweep {
        SweepSpec::Grid => "grid",
        SweepSpec::Knee(_) => "knee",
    };
    let points_total = match &plan.scenario.sweep {
        SweepSpec::Grid => plan.points.len(),
        // A knee search's probe count is adaptive; report the grid size
        // it would take, as an upper bound.
        SweepSpec::Knee(k) => ((k.max - k.min) / k.step.max(1) + 2) as usize,
    };
    let state = Arc::new(Mutex::new(State {
        name: plan.scenario.name.clone(),
        description: plan.scenario.description.clone(),
        mode,
        run_state: "starting",
        points_total,
        points_done: 0,
        current: None,
        rows: Vec::new(),
        registry: Vec::new(),
        knee: Json::Null,
        scenarios,
    }));
    let accept_state = Arc::clone(&state);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let st = Arc::clone(&accept_state);
            std::thread::spawn(move || handle(stream, &st));
        }
    });
    Ok(Service { addr, state })
}

impl Service {
    /// The bound address (useful when `listen` asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Run the experiment on this thread with `jobs = 1`, publishing
    /// per-point progress and metrics snapshots. Returns when the run
    /// is done; the endpoints keep answering afterwards.
    pub fn run_blocking(&self, plan: &Plan) {
        metrics::set_enabled(true);
        metrics::clear();
        self.set_run_state("running");
        match &plan.scenario.sweep {
            SweepSpec::Grid => self.run_grid(plan),
            SweepSpec::Knee(spec) => {
                let outcome = find_knee(spec, |n| {
                    self.set_current(format!("nodes={n}"));
                    let cfg = cfg_at_nodes(&plan.base, n);
                    let report = sweep::run_avg_many(1, std::slice::from_ref(&cfg), plan.seeds)
                        .pop()
                        .expect("one config in, one report out");
                    let tpmc = report.tpmc_scaled;
                    // Published as soon as the probe finishes, so a
                    // /metrics poll mid-search already sees the curve
                    // grow point by point.
                    self.push_knee_probe(plan, n, cfg, report);
                    tpmc
                });
                let mut s = self.state.lock().unwrap();
                s.knee = Json::Obj(vec![
                    ("knee".into(), Json::Num(outcome.knee as f64)),
                    ("kneed".into(), Json::Bool(outcome.kneed)),
                    ("per_node_ref".into(), Json::Num(outcome.per_node_ref)),
                ]);
            }
        }
        let mut s = self.state.lock().unwrap();
        s.run_state = "done";
        s.current = None;
        metrics::set_enabled(false);
    }

    fn run_grid(&self, plan: &Plan) {
        let mut done: Vec<GridRow> = Vec::new();
        for point in &plan.points {
            self.set_current(point.label());
            let report = sweep::run_avg_many(1, std::slice::from_ref(&point.cfg), plan.seeds)
                .pop()
                .expect("one config in, one report out");
            done.push(GridRow {
                point: point.clone(),
                report,
            });
            // Cells of the newest row, against its group's reference.
            let cells = table_cells(plan, &done).pop().expect("a row was pushed");
            self.publish(grid_row_json(plan, &done[done.len() - 1], &cells));
        }
    }

    fn set_run_state(&self, rs: &'static str) {
        self.state.lock().unwrap().run_state = rs;
    }

    fn set_current(&self, label: String) {
        self.state.lock().unwrap().current = Some(label);
    }

    /// Publish one finished knee probe as a full output-column row
    /// (same shape as a grid row), keeping the guarantee that knee
    /// rows always carry `nodes` and `tpmc_scaled` even when the
    /// scenario's `[output] columns` omits them. A probe is its own
    /// `tpmc_drop_pct` reference.
    fn push_knee_probe(&self, plan: &Plan, nodes: u32, cfg: ClusterConfig, report: Report) {
        let cols = output_columns(plan);
        let mut extra: Vec<(String, Json)> = Vec::new();
        if !cols.iter().any(|c| c.name == "nodes") {
            extra.push(("nodes".into(), Json::Num(nodes as f64)));
        }
        if !cols.iter().any(|c| c.name == "tpmc_scaled") {
            extra.push(("tpmc_scaled".into(), Json::Num(report.tpmc_scaled)));
        }
        let row = GridRow {
            point: Point {
                coords: vec![("nodes", nodes.to_string())],
                cfg,
            },
            report,
        };
        let cells = table_cells(plan, std::slice::from_ref(&row))
            .pop()
            .expect("one row in, one row out");
        let Json::Obj(mut pairs) = grid_row_json(plan, &row, &cells) else {
            unreachable!("a grid row is a JSON object");
        };
        pairs.splice(1..1, extra);
        self.publish(Json::Obj(pairs));
    }

    /// Append a finished row and snapshot the metrics registry.
    fn publish(&self, row: Json) {
        let mut s = self.state.lock().unwrap();
        s.rows.push(row);
        s.points_done += 1;
        s.registry = metrics::snapshot()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
    }
}

/// Answer one connection: read the request head, route, respond, close.
fn handle(stream: TcpStream, state: &Mutex<State>) {
    let _ = stream.set_read_timeout(Some(StdDuration::from_secs(5)));
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the headers so the peer sees a clean close.
    let mut line = String::new();
    while reader.read_line(&mut line).is_ok() && line.trim() != "" {
        line.clear();
    }
    let mut stream = reader.into_inner();

    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        respond(
            &mut stream,
            405,
            "Method Not Allowed",
            "{\"error\":\"only GET is supported\"}",
        );
        return;
    }
    let body = {
        let s = state.lock().unwrap();
        match path {
            "/status" => Some(s.status_json().to_string()),
            "/metrics" => Some(s.metrics_json().to_string()),
            "/scenarios" => Some(s.scenarios_json().to_string()),
            _ => None,
        }
    };
    match body {
        Some(b) => respond(&mut stream, 200, "OK", &b),
        None => respond(
            &mut stream,
            404,
            "Not Found",
            "{\"error\":\"unknown path; try /status, /metrics or /scenarios\"}",
        ),
    }
}

fn respond(stream: &mut TcpStream, code: u16, reason: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}
