//! Hand-rolled parser for `.dcs` scenario files.
//!
//! The format is line-oriented and dependency-free, in keeping with the
//! repo's zero-dep policy:
//!
//! ```text
//! # comment
//! scenario = fig7-affinity
//! description = Throughput vs affinity, cluster size as parameter
//!
//! [engine]
//! exact = true
//! seeds = 2
//!
//! [topology]
//! nodes = [4, 8, 16]          # a list makes the key a sweep axis
//! affinity = [0.0, 0.5, 1.0]  # grid order: first axis outermost
//!
//! [fault]
//! node_outage 1 at=25s for=6s
//!
//! [output]
//! columns = [nodes, affinity, tpmc_scaled]
//! group_by = nodes
//!
//! [case no cross traffic]     # a named point: the outermost axis
//! [case priority FTP]
//! qos = ftp-priority          # scalar overrides of the base config
//! ftp_offered_bps = 6000000
//! ```
//!
//! Every error carries the 1-based line number and says what to change;
//! the rejection tests pin one test per grammar rule.

use crate::ast::{
    key_spec, Case, Entry, FaultLine, KneeSpec, OutputSpec, Scenario, Section, SweepSpec, Ty, Value,
};
use crate::columns;
use dclue_cluster::config::{Policer, StorageMode};
use dclue_cluster::{DbGrowth, ProtocolKind, QosPolicy, TcpOffload};
use dclue_fault::LinkRef;
use dclue_sim::Duration;
use dclue_storage::IscsiMode;
use std::fmt;

/// A parse failure: 1-based line number plus an actionable message.
#[derive(Clone, PartialEq, Debug)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// Strip a `#` comment (at line start or preceded by whitespace) and
/// surrounding whitespace.
fn strip(line: &str) -> &str {
    let mut cut = line.len();
    for (i, c) in line.char_indices() {
        if c == '#' && (i == 0 || line[..i].ends_with([' ', '\t'])) {
            cut = i;
            break;
        }
    }
    line[..cut].trim()
}

/// Split `name(arg)` into `("name", Some("arg"))`, or `("name", None)`.
fn split_paren(s: &str) -> Result<(&str, Option<&str>), String> {
    match s.find('(') {
        None => Ok((s, None)),
        Some(i) => {
            let Some(inner) = s[i + 1..].strip_suffix(')') else {
                return Err(format!("'{s}' is missing the closing ')'"));
            };
            Ok((&s[..i], Some(inner)))
        }
    }
}

fn parse_f64(s: &str) -> Result<f64, String> {
    s.trim()
        .parse::<f64>()
        .map_err(|_| format!("'{s}' is not a number"))
}

/// Parse a duration literal: integer + `ns`/`us`/`ms`/`s` suffix.
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (num, mul) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        return Err(format!(
            "duration '{s}' needs a unit suffix (ns/us/ms/s), e.g. 40s"
        ));
    };
    num.trim()
        .parse::<u64>()
        .map(|v| Duration::from_nanos(v * mul))
        .map_err(|_| format!("duration '{s}' needs an integer value before the unit"))
}

/// Parse one scalar of type `ty`.
fn parse_scalar(ty: Ty, raw: &str) -> Result<Value, String> {
    let raw = raw.trim();
    match ty {
        Ty::U32 => raw
            .parse::<u32>()
            .map(Value::U32)
            .map_err(|_| format!("'{raw}' is not a non-negative integer")),
        Ty::U64 => raw
            .parse::<u64>()
            .map(Value::U64)
            .map_err(|_| format!("'{raw}' is not a non-negative integer")),
        Ty::F64 => parse_f64(raw).map(Value::F64),
        Ty::Bool => match raw {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(format!("'{raw}' is not a bool (use true or false)")),
        },
        Ty::Dur => parse_duration(raw).map(Value::Dur),
        Ty::Protocol => match raw {
            "fusion2pl" => Ok(Value::Protocol(ProtocolKind::CacheFusion2pl)),
            "mvcc-lease" => Ok(Value::Protocol(ProtocolKind::MvccReadLease)),
            _ => Err(format!(
                "unknown protocol '{raw}' (choices: fusion2pl, mvcc-lease)"
            )),
        },
        Ty::Qos => {
            let (name, arg) = split_paren(raw)?;
            match (name, arg) {
                ("best-effort", None) => Ok(Value::Qos(QosPolicy::AllBestEffort)),
                ("ftp-priority", None) => Ok(Value::Qos(QosPolicy::FtpPriority)),
                ("wfq", Some(w)) => Ok(Value::Qos(QosPolicy::FtpWfq {
                    af_weight: parse_f64(w)?,
                })),
                ("autonomic", Some(t)) => Ok(Value::Qos(QosPolicy::Autonomic {
                    tolerance: parse_f64(t)?,
                })),
                _ => Err(format!(
                    "unknown qos '{raw}' (choices: best-effort, ftp-priority, \
                     wfq(<weight>), autonomic(<tolerance>))"
                )),
            }
        }
        Ty::Growth => {
            let (name, arg) = split_paren(raw)?;
            match (name, arg) {
                ("linear", None) => Ok(Value::Growth(DbGrowth::Linear)),
                ("sqrt", Some(knee)) => Ok(Value::Growth(DbGrowth::SqrtBeyond(parse_f64(knee)?))),
                _ => Err(format!(
                    "unknown db_growth '{raw}' (choices: linear, sqrt(<knee_tpmc>))"
                )),
            }
        }
        Ty::Storage => {
            let (name, arg) = split_paren(raw)?;
            match (name, arg) {
                ("distributed", None) => Ok(Value::Storage(StorageMode::Distributed)),
                ("san", Some(lat)) => Ok(Value::Storage(StorageMode::San {
                    fabric_latency: parse_duration(lat)?,
                })),
                _ => Err(format!(
                    "unknown storage mode '{raw}' (choices: distributed, san(<latency>))"
                )),
            }
        }
        Ty::Log => match raw {
            "local" => Ok(Value::Log(dclue_cluster::config::LogPlacement::Local)),
            "central" => Ok(Value::Log(dclue_cluster::config::LogPlacement::Central)),
            _ => Err(format!(
                "unknown log_placement '{raw}' (choices: local, central)"
            )),
        },
        Ty::Tcp => match raw {
            "hardware" => Ok(Value::Tcp(TcpOffload::Hardware)),
            "software" => Ok(Value::Tcp(TcpOffload::Software)),
            _ => Err(format!("unknown tcp '{raw}' (choices: hardware, software)")),
        },
        Ty::Iscsi => match raw {
            "hardware" => Ok(Value::Iscsi(IscsiMode::Hardware)),
            "software" => Ok(Value::Iscsi(IscsiMode::Software)),
            _ => Err(format!(
                "unknown iscsi '{raw}' (choices: hardware, software)"
            )),
        },
        Ty::Client => match raw {
            "exact" => Ok(Value::Client(dclue_cluster::config::ClientModel::Exact)),
            "aggregate" => Ok(Value::Client(dclue_cluster::config::ClientModel::Aggregate)),
            _ => Err(format!(
                "unknown client_model '{raw}' (choices: exact, aggregate)"
            )),
        },
        Ty::Shape => match raw {
            "paper" => Ok(Value::Shape(dclue_cluster::FabricShape::Paper)),
            "hierarchical" => Ok(Value::Shape(dclue_cluster::FabricShape::Hierarchical)),
            _ => Err(format!(
                "unknown topology '{raw}' (choices: paper, hierarchical)"
            )),
        },
        Ty::Policer => {
            // rate:<bit/s>,burst:<bytes>
            let mut rate = None;
            let mut burst = None;
            for part in raw.split(',') {
                match part.trim().split_once(':') {
                    Some(("rate", v)) => rate = Some(parse_f64(v)?),
                    Some(("burst", v)) => burst = Some(parse_f64(v)?),
                    _ => {
                        return Err(format!(
                            "ftp_policer expects 'rate:<bit/s>,burst:<bytes>', got '{raw}'"
                        ))
                    }
                }
            }
            match (rate, burst) {
                (Some(rate_bps), Some(burst_bytes)) => Ok(Value::Policer(Policer {
                    rate_bps,
                    burst_bytes,
                })),
                _ => Err(format!(
                    "ftp_policer needs both rate and burst ('rate:<bit/s>,burst:<bytes>'), \
                     got '{raw}'"
                )),
            }
        }
    }
}

/// Parse a fault-target link: `node_uplink:<i>`, `client_uplink:<i>`,
/// `trunk:<i>`.
fn parse_link(s: &str) -> Result<LinkRef, String> {
    let Some((kind, idx)) = s.split_once(':') else {
        return Err(format!(
            "link '{s}' must be node_uplink:<i>, client_uplink:<i> or trunk:<i>"
        ));
    };
    let i: usize = idx
        .parse()
        .map_err(|_| format!("link index '{idx}' is not an integer"))?;
    match kind {
        "node_uplink" => Ok(LinkRef::NodeUplink(i)),
        "client_uplink" => Ok(LinkRef::ClientUplink(i)),
        "trunk" => Ok(LinkRef::Trunk(i)),
        _ => Err(format!(
            "unknown link kind '{kind}' (choices: node_uplink, client_uplink, trunk)"
        )),
    }
}

/// Key-value arguments of a fault line (`at=25s for=4s factor=0.5`).
struct FaultArgs<'a> {
    line: usize,
    verb: &'a str,
    args: Vec<(&'a str, &'a str)>,
    used: Vec<bool>,
}

impl<'a> FaultArgs<'a> {
    fn new(line: usize, verb: &'a str, toks: &[&'a str]) -> Result<Self, ParseError> {
        let mut args = Vec::new();
        for t in toks {
            let Some((k, v)) = t.split_once('=') else {
                return err(line, format!("fault argument '{t}' must be key=value"));
            };
            args.push((k, v));
        }
        let used = vec![false; args.len()];
        Ok(FaultArgs {
            line,
            verb,
            args,
            used,
        })
    }

    fn take(&mut self, key: &str) -> Result<&'a str, ParseError> {
        for (i, (k, v)) in self.args.iter().enumerate() {
            if *k == key {
                self.used[i] = true;
                return Ok(v);
            }
        }
        err(self.line, format!("{} requires '{key}=...'", self.verb))
    }

    fn duration(&mut self, key: &str) -> Result<Duration, ParseError> {
        let raw = self.take(key)?;
        parse_duration(raw).map_err(|e| ParseError {
            line: self.line,
            msg: e,
        })
    }

    fn f64(&mut self, key: &str) -> Result<f64, ParseError> {
        let raw = self.take(key)?;
        parse_f64(raw).map_err(|e| ParseError {
            line: self.line,
            msg: e,
        })
    }

    fn finish(self) -> Result<(), ParseError> {
        for (i, (k, _)) in self.args.iter().enumerate() {
            if !self.used[i] {
                return err(
                    self.line,
                    format!("unknown argument '{k}' for fault '{}'", self.verb),
                );
            }
        }
        Ok(())
    }
}

fn parse_fault_line(line_no: usize, text: &str) -> Result<FaultLine, ParseError> {
    let toks: Vec<&str> = text.split_whitespace().collect();
    let verb = toks[0];
    let needs_target = || -> Result<&str, ParseError> {
        toks.get(1)
            .copied()
            .filter(|t| !t.contains('='))
            .ok_or(ParseError {
                line: line_no,
                msg: format!("fault '{verb}' needs a target before its arguments"),
            })
    };
    let link = |t: &str| -> Result<LinkRef, ParseError> {
        parse_link(t).map_err(|e| ParseError {
            line: line_no,
            msg: e,
        })
    };
    let node = |t: &str| -> Result<usize, ParseError> {
        t.parse().map_err(|_| ParseError {
            line: line_no,
            msg: format!("node index '{t}' is not an integer"),
        })
    };
    let rest = if toks.len() > 2 { &toks[2..] } else { &[][..] };
    let mut a = FaultArgs::new(line_no, verb, rest)?;
    let out = match verb {
        "link_flap" => FaultLine::LinkFlap {
            link: link(needs_target()?)?,
            at: a.duration("at")?,
            dur: a.duration("for")?,
        },
        "degrade" => FaultLine::Degrade {
            link: link(needs_target()?)?,
            at: a.duration("at")?,
            dur: a.duration("for")?,
            factor: a.f64("factor")?,
        },
        "loss_burst" => FaultLine::LossBurst {
            link: link(needs_target()?)?,
            at: a.duration("at")?,
            dur: a.duration("for")?,
            drop: a.f64("drop")?,
            corrupt: a.f64("corrupt")?,
        },
        "port_fail" => FaultLine::PortFail {
            link: link(needs_target()?)?,
            at: a.duration("at")?,
            dur: a.duration("for")?,
        },
        "node_outage" => FaultLine::NodeOutage {
            node: node(needs_target()?)?,
            at: a.duration("at")?,
            dur: a.duration("for")?,
        },
        "iscsi_stall" => FaultLine::IscsiStall {
            node: node(needs_target()?)?,
            at: a.duration("at")?,
            dur: a.duration("for")?,
        },
        other => {
            return err(
                line_no,
                format!(
                    "unknown fault '{other}' (choices: link_flap, degrade, loss_burst, \
                     port_fail, node_outage, iscsi_stall)"
                ),
            )
        }
    };
    a.finish()?;
    Ok(out)
}

/// `[sweep]` keys collected during the scan, finalized at EOF.
#[derive(Default)]
struct SweepBuilder {
    mode_knee: Option<usize>, // line of `mode = knee`
    axis: Option<(usize, String)>,
    min: Option<(usize, u32)>,
    max: Option<(usize, u32)>,
    step: Option<(usize, u32)>,
    threshold: Option<(usize, f64)>,
}

impl SweepBuilder {
    fn any_knee_key_line(&self) -> Option<usize> {
        self.axis
            .as_ref()
            .map(|(l, _)| *l)
            .or(self.min.map(|(l, _)| l))
            .or(self.max.map(|(l, _)| l))
            .or(self.step.map(|(l, _)| l))
            .or(self.threshold.map(|(l, _)| l))
    }

    fn finish(self) -> Result<SweepSpec, ParseError> {
        let Some(mode_line) = self.mode_knee else {
            if let Some(l) = self.any_knee_key_line() {
                return err(
                    l,
                    "axis/min/max/step/threshold are only meaningful with 'mode = knee' \
                     in [sweep]",
                );
            }
            return Ok(SweepSpec::Grid);
        };
        if let Some((l, axis)) = &self.axis {
            if axis != "nodes" {
                return err(
                    *l,
                    format!(
                        "the adaptive knee sweep currently bisects the 'nodes' axis only, \
                         not '{axis}'"
                    ),
                );
            }
        }
        let Some((_, min)) = self.min else {
            return err(mode_line, "mode = knee requires 'min = <nodes>' in [sweep]");
        };
        let Some((_, max)) = self.max else {
            return err(mode_line, "mode = knee requires 'max = <nodes>' in [sweep]");
        };
        let step = self.step.map(|(_, s)| s).unwrap_or(1);
        let threshold = self.threshold.map(|(_, t)| t).unwrap_or(0.5);
        if min == 0 || min >= max {
            return err(
                self.min.unwrap().0,
                format!("knee range needs 1 <= min < max, got min={min} max={max}"),
            );
        }
        if step == 0 || min + step > max {
            return err(
                self.step.map(|(l, _)| l).unwrap_or(mode_line),
                format!(
                    "knee step ({step}) must be >= 1 and leave at least one probe \
                     between min={min} and max={max}"
                ),
            );
        }
        if threshold <= 0.0 {
            return err(
                self.threshold.unwrap().0,
                format!(
                    "knee threshold ({threshold}) must be > 0: it is the fraction of \
                     the per-node baseline gain below which scaling has 'kneed'"
                ),
            );
        }
        Ok(SweepSpec::Knee(KneeSpec {
            axis: "nodes",
            min,
            max,
            step,
            threshold,
        }))
    }
}

/// Parse a `.dcs` scenario file.
pub fn parse(src: &str) -> Result<Scenario, ParseError> {
    let mut name: Option<String> = None;
    let mut description = String::new();
    let mut section: Option<Section> = None;
    let mut entries: Vec<Entry> = Vec::new();
    let mut faults: Vec<FaultLine> = Vec::new();
    let mut sweep = SweepBuilder::default();
    let mut columns_spec: Option<(usize, Vec<&'static str>)> = None;
    let mut cases: Vec<Case> = Vec::new();
    // Line of every case override, for the cross-checks at EOF.
    let mut case_keys: Vec<(usize, &'static str)> = Vec::new();
    let mut in_case = false;
    let mut group_by: Option<(usize, &'static str)> = None;
    let mut listen: Option<String> = None;
    let mut seen: Vec<(Option<usize>, Section, String)> = Vec::new();
    let mut last_line = 0;

    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        last_line = line_no;
        let text = strip(raw);
        if text.is_empty() {
            continue;
        }

        // Section header.
        if let Some(inner) = text.strip_prefix('[') {
            let Some(sec_name) = inner.strip_suffix(']') else {
                return err(line_no, format!("malformed section header '{text}'"));
            };
            if let Some(label) = sec_name.strip_prefix("case") {
                let label = label.trim();
                if label.is_empty() || !sec_name.starts_with("case ") {
                    return err(line_no, "a case section needs a label: [case <label>]");
                }
                if cases.iter().any(|c| c.label == label) {
                    return err(line_no, format!("duplicate case '{label}'"));
                }
                cases.push(Case {
                    label: label.to_string(),
                    entries: Vec::new(),
                });
                section = None;
                in_case = true;
                continue;
            }
            let Some(sec) = Section::from_name(sec_name) else {
                let all: Vec<&str> = Section::ALL.iter().map(|s| s.name()).collect();
                return err(
                    line_no,
                    format!(
                        "unknown section '[{sec_name}]' (choices: [{}], [case <label>])",
                        all.join("], [")
                    ),
                );
            };
            section = Some(sec);
            in_case = false;
            continue;
        }

        // Fault lines have no '='-at-top-level shape; dispatch by section.
        if section == Some(Section::Fault) {
            faults.push(parse_fault_line(line_no, text)?);
            continue;
        }

        let Some((key, raw_val)) = text.split_once('=') else {
            return err(line_no, format!("expected 'key = value', got '{text}'"));
        };
        let key = key.trim();
        let raw_val = raw_val.trim();
        if raw_val.is_empty() {
            return err(line_no, format!("key '{key}' has no value"));
        }

        // Top-level header keys.
        if key == "scenario" || key == "description" {
            if section.is_some() || in_case {
                return err(
                    line_no,
                    format!("'{key}' belongs at the top of the file, before any [section]"),
                );
            }
            if key == "scenario" {
                if !raw_val
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                {
                    return err(
                        line_no,
                        format!(
                            "scenario name '{raw_val}' may only contain letters, digits, \
                             '-' and '_'"
                        ),
                    );
                }
                name = Some(raw_val.to_string());
            } else {
                description = raw_val.to_string();
            }
            continue;
        }

        // Inside a case, a key belongs to its home section.
        let case = cases.last().filter(|_| in_case);
        let sec = match (section, case) {
            (Some(sec), _) => sec,
            (None, Some(case)) => match key_spec(key) {
                Some(spec) if !matches!(spec.key, "seeds" | "jobs") => spec.section,
                _ => {
                    return err(
                        line_no,
                        format!(
                            "unknown key '{key}' in [case {}] (a case overrides config \
                             keys of [engine] to [storage], except seeds and jobs)",
                            case.label
                        ),
                    )
                }
            },
            (None, None) => {
                return err(
                    line_no,
                    format!(
                        "key '{key}' appears before any section; only 'scenario' and \
                         'description' may appear at the top"
                    ),
                )
            }
        };
        let place = case.map_or(sec.name().to_string(), |c| format!("case {}", c.label));

        // Duplicate detection across the whole file (keys are unique),
        // and within each case.
        let scope = case.map(|_| cases.len());
        if seen
            .iter()
            .any(|(c, s, k)| *c == scope && *s == sec && k == key)
        {
            return err(line_no, format!("duplicate key '{key}' in [{place}]"));
        }
        seen.push((scope, sec, key.to_string()));

        // Section-specific structural keys.
        match sec {
            Section::Sweep => {
                match key {
                    "mode" => match raw_val {
                        "grid" => {}
                        "knee" => sweep.mode_knee = Some(line_no),
                        _ => {
                            return err(
                                line_no,
                                format!("unknown sweep mode '{raw_val}' (choices: grid, knee)"),
                            )
                        }
                    },
                    "axis" => sweep.axis = Some((line_no, raw_val.to_string())),
                    "min" | "max" | "step" => {
                        let v: u32 = raw_val.parse().map_err(|_| ParseError {
                            line: line_no,
                            msg: format!("'{raw_val}' is not a non-negative integer"),
                        })?;
                        match key {
                            "min" => sweep.min = Some((line_no, v)),
                            "max" => sweep.max = Some((line_no, v)),
                            _ => sweep.step = Some((line_no, v)),
                        }
                    }
                    "threshold" => {
                        sweep.threshold = Some((
                            line_no,
                            parse_f64(raw_val).map_err(|e| ParseError {
                                line: line_no,
                                msg: e,
                            })?,
                        ))
                    }
                    _ => {
                        return err(
                            line_no,
                            format!(
                                "unknown key '{key}' in [sweep] (choices: mode, axis, min, \
                                 max, step, threshold)"
                            ),
                        )
                    }
                }
                continue;
            }
            Section::Output => {
                match key {
                    "columns" => {
                        let Some(inner) =
                            raw_val.strip_prefix('[').and_then(|v| v.strip_suffix(']'))
                        else {
                            return err(
                                line_no,
                                "columns expects a list: columns = [nodes, tpmc_scaled, ...]",
                            );
                        };
                        if inner.trim().is_empty() {
                            return err(line_no, "columns list must not be empty");
                        }
                        let mut cols = Vec::new();
                        for c in inner.split(',') {
                            let c = c.trim();
                            let Some(col) = columns::column(c) else {
                                let known: Vec<&str> =
                                    columns::COLUMNS.iter().map(|c| c.name).collect();
                                return err(
                                    line_no,
                                    format!(
                                        "unknown column '{c}' (choices: {}, or any sweep-axis key)",
                                        known.join(", ")
                                    ),
                                );
                            };
                            cols.push(col.name);
                        }
                        if cols.is_empty() {
                            return err(line_no, "columns list must not be empty");
                        }
                        columns_spec = Some((line_no, cols));
                    }
                    "group_by" if raw_val == "case" => group_by = Some((line_no, "case")),
                    "group_by" => {
                        let Some(spec) = key_spec(raw_val) else {
                            return err(
                                line_no,
                                format!("group_by '{raw_val}' is not a known scenario key"),
                            );
                        };
                        group_by = Some((line_no, spec.key));
                    }
                    _ => {
                        return err(
                            line_no,
                            format!("unknown key '{key}' in [output] (choices: columns, group_by)"),
                        )
                    }
                }
                continue;
            }
            Section::Service => {
                if key != "listen" {
                    return err(
                        line_no,
                        format!("unknown key '{key}' in [service] (choices: listen)"),
                    );
                }
                if raw_val.parse::<std::net::SocketAddr>().is_err() {
                    return err(
                        line_no,
                        format!(
                            "listen address '{raw_val}' is not <ip>:<port> \
                             (e.g. 127.0.0.1:7070; port 0 picks an ephemeral port)"
                        ),
                    );
                }
                listen = Some(raw_val.to_string());
                continue;
            }
            Section::Fault => unreachable!("fault lines handled above"),
            _ => {}
        }

        // Ordinary config knob.
        let Some(spec) = key_spec(key) else {
            let in_section: Vec<&str> = crate::ast::KEYS
                .iter()
                .filter(|s| s.section == sec)
                .map(|s| s.key)
                .collect();
            return err(
                line_no,
                format!(
                    "unknown key '{key}' in [{}] (choices: {})",
                    sec.name(),
                    in_section.join(", ")
                ),
            );
        };
        if spec.section != sec {
            return err(
                line_no,
                format!(
                    "key '{key}' belongs in [{}], not [{}]",
                    spec.section.name(),
                    sec.name()
                ),
            );
        }

        // Scalar or list.
        let values: Vec<Value> = if let Some(inner) = raw_val.strip_prefix('[') {
            let Some(inner) = inner.strip_suffix(']') else {
                return err(
                    line_no,
                    format!("unterminated list for '{key}': missing closing ']'"),
                );
            };
            if in_case {
                return err(
                    line_no,
                    format!("'{key}' in [{place}] takes a single value; sweep lists belong outside the cases"),
                );
            }
            if !spec.sweepable {
                return err(
                    line_no,
                    format!("'{key}' cannot be a sweep axis; give it a single value"),
                );
            }
            let items: Vec<&str> = inner
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if items.is_empty() {
                return err(line_no, format!("sweep list for '{key}' is empty"));
            }
            let mut vals = Vec::with_capacity(items.len());
            for item in items {
                vals.push(parse_scalar(spec.ty, item).map_err(|e| ParseError {
                    line: line_no,
                    msg: format!("in list for '{key}': {e}"),
                })?);
            }
            vals
        } else {
            vec![parse_scalar(spec.ty, raw_val).map_err(|e| ParseError {
                line: line_no,
                msg: format!("value for '{key}': {e}"),
            })?]
        };
        let entry = Entry {
            section: sec,
            key: spec.key,
            values,
        };
        match cases.last_mut().filter(|_| in_case) {
            Some(case) => {
                case_keys.push((line_no, spec.key));
                case.entries.push(entry);
            }
            None => entries.push(entry),
        }
    }

    let Some(name) = name else {
        return err(
            last_line.max(1),
            "missing required top-level key 'scenario = <name>'",
        );
    };

    let sweep = sweep.finish()?;

    // Structural cross-checks.
    if let SweepSpec::Knee(_) = &sweep {
        if let Some(e) = entries.iter().find(|e| e.key == "nodes" && e.is_axis()) {
            let _ = e;
            return err(
                last_line.max(1),
                "mode = knee owns the nodes axis; remove 'nodes = [...]' from [topology] \
                 (a scalar 'nodes = <n>' is also ignored by the knee search)",
            );
        }
    }
    if !cases.is_empty() && matches!(sweep, SweepSpec::Knee(_)) {
        return err(
            last_line.max(1),
            "mode = knee probes one base config; [case] sections need a grid sweep",
        );
    }
    for &(l, k) in &case_keys {
        if entries.iter().any(|e| e.key == k && e.is_axis()) {
            return err(
                l,
                format!("'{k}' is a sweep axis; a case cannot also override it"),
            );
        }
    }
    // A coordinate (`case` or an axis key) must exist on every point.
    let is_coord = |k: &str| {
        if k == "case" {
            !cases.is_empty()
        } else {
            entries.iter().any(|e| e.key == k && e.is_axis())
        }
    };
    if let Some((l, g)) = group_by {
        if !is_coord(g) {
            return err(
                l,
                format!(
                    "group_by '{g}' must name a sweep axis (a key with a list value) \
                     or 'case' when the file has [case] sections"
                ),
            );
        }
    }
    if let Some((l, cols)) = &columns_spec {
        for &c in cols {
            if columns::column(c).is_some_and(|col| col.is_coord()) && !is_coord(c) {
                return err(
                    *l,
                    format!(
                        "column '{c}' prints a point coordinate, so it must name a sweep \
                         axis (a key with a list value) or 'case' with [case] sections"
                    ),
                );
            }
        }
    }

    let output = match columns_spec {
        Some((_, columns)) => OutputSpec {
            columns,
            group_by: group_by.map(|(_, g)| g),
        },
        None => OutputSpec {
            group_by: group_by.map(|(_, g)| g),
            ..OutputSpec::default()
        },
    };

    Ok(Scenario {
        name,
        description,
        entries,
        faults,
        cases,
        sweep,
        output,
        listen,
    })
}
