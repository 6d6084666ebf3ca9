//! One test per grammar rule of the `.dcs` parser, mirroring the
//! one-test-per-rule pattern of `crates/core/tests/config_validate.rs`.
//! Each rejection asserts (a) the 1-based line number points at the
//! offending line and (b) the message names the problem actionably —
//! `figures` prints these verbatim.

use dclue_scenario::parse;

/// Parse expecting failure; return (line, message).
fn err(src: &str) -> (usize, String) {
    match parse(src) {
        Ok(_) => panic!("parser accepted invalid input:\n{src}"),
        Err(e) => (e.line, e.msg),
    }
}

/// Wrap a body in a valid header so only the body can be at fault.
fn with_header(body: &str) -> String {
    format!("scenario = t\n{body}")
}

#[test]
fn rejects_missing_scenario_name() {
    let (_, m) = err("[topology]\nnodes = 4\n");
    assert!(m.contains("scenario = "), "{m}");
}

#[test]
fn rejects_bad_scenario_name_charset() {
    let (l, m) = err("scenario = has spaces\n");
    assert_eq!(l, 1);
    assert!(m.contains("letters"), "{m}");
}

#[test]
fn rejects_header_key_inside_section() {
    let (l, m) = err("scenario = t\n[engine]\ndescription = late\n");
    assert_eq!(l, 3);
    assert!(m.contains("top of the file"), "{m}");
}

#[test]
fn rejects_malformed_section_header() {
    let (l, m) = err(&with_header("[engine\n"));
    assert_eq!(l, 2);
    assert!(m.contains("malformed section header"), "{m}");
}

#[test]
fn rejects_unknown_section() {
    let (l, m) = err(&with_header("[motor]\n"));
    assert_eq!(l, 2);
    assert!(
        m.contains("unknown section") && m.contains("[engine]"),
        "{m}"
    );
}

#[test]
fn rejects_key_before_any_section() {
    let (l, m) = err("scenario = t\nnodes = 4\n");
    assert_eq!(l, 2);
    assert!(m.contains("before any section"), "{m}");
}

#[test]
fn rejects_line_without_equals() {
    let (l, m) = err(&with_header("[engine]\nexact true\n"));
    assert_eq!(l, 3);
    assert!(m.contains("key = value"), "{m}");
}

#[test]
fn rejects_empty_value() {
    let (l, m) = err(&with_header("[engine]\nexact =\n"));
    assert_eq!(l, 3);
    assert!(m.contains("no value"), "{m}");
}

#[test]
fn rejects_duplicate_key() {
    let (l, m) = err(&with_header("[topology]\nnodes = 4\nnodes = 8\n"));
    assert_eq!(l, 4);
    assert!(m.contains("duplicate"), "{m}");
}

#[test]
fn rejects_unknown_key_listing_section_choices() {
    let (l, m) = err(&with_header("[topology]\nnode_count = 4\n"));
    assert_eq!(l, 3);
    assert!(m.contains("unknown key") && m.contains("nodes"), "{m}");
}

#[test]
fn unknown_workload_key_lists_the_client_knobs() {
    // The suggestion list is derived from the KEYS table, so new knobs
    // must show up without anyone editing a hand-maintained string.
    let (_, m) = err(&with_header("[workload]\nclients = 200\n"));
    assert!(
        m.contains("client_model") && m.contains("client_conns_per_node"),
        "{m}"
    );
}

#[test]
fn rejects_key_in_wrong_section_naming_the_right_one() {
    let (l, m) = err(&with_header("[engine]\nnodes = 4\n"));
    assert_eq!(l, 3);
    assert!(m.contains("belongs in [topology]"), "{m}");
}

#[test]
fn rejects_unterminated_list() {
    let (l, m) = err(&with_header("[topology]\nnodes = [2, 4\n"));
    assert_eq!(l, 3);
    assert!(m.contains("']'"), "{m}");
}

#[test]
fn rejects_empty_sweep_list() {
    let (l, m) = err(&with_header("[topology]\nnodes = []\n"));
    assert_eq!(l, 3);
    assert!(m.contains("empty"), "{m}");
}

#[test]
fn rejects_list_on_non_sweepable_key() {
    let (l, m) = err(&with_header("[engine]\nseeds = [1, 2]\n"));
    assert_eq!(l, 3);
    assert!(m.contains("cannot be a sweep axis"), "{m}");
}

#[test]
fn rejects_bad_list_item_naming_the_key() {
    let (l, m) = err(&with_header("[topology]\nnodes = [2, banana]\n"));
    assert_eq!(l, 3);
    assert!(m.contains("in list for 'nodes'"), "{m}");
}

#[test]
fn rejects_non_integer() {
    let (_, m) = err(&with_header("[topology]\nnodes = 2.5\n"));
    assert!(m.contains("not a non-negative integer"), "{m}");
}

#[test]
fn rejects_non_bool() {
    let (_, m) = err(&with_header("[engine]\nexact = yes\n"));
    assert!(m.contains("true or false"), "{m}");
}

#[test]
fn rejects_duration_without_unit() {
    let (_, m) = err(&with_header("[engine]\nwarmup = 40\n"));
    assert!(m.contains("unit suffix"), "{m}");
}

#[test]
fn rejects_unknown_protocol_listing_choices() {
    let (_, m) = err(&with_header("[protocol]\nkind = raft\n"));
    assert!(m.contains("fusion2pl") && m.contains("mvcc-lease"), "{m}");
}

#[test]
fn rejects_unknown_qos_listing_choices() {
    let (_, m) = err(&with_header("[workload]\nqos = fancy\n"));
    assert!(m.contains("best-effort") && m.contains("wfq"), "{m}");
}

#[test]
fn rejects_unclosed_parenthesis() {
    let (_, m) = err(&with_header("[workload]\nqos = wfq(0.3\n"));
    assert!(m.contains("')'"), "{m}");
}

#[test]
fn rejects_unknown_client_model_listing_choices() {
    let (l, m) = err(&with_header("[workload]\nclient_model = pooled\n"));
    assert_eq!(l, 3);
    assert!(
        m.contains("client_model") && m.contains("exact") && m.contains("aggregate"),
        "{m}"
    );
}

#[test]
fn rejects_client_model_as_sweep_axis() {
    let (l, m) = err(&with_header(
        "[workload]\nclient_model = [exact, aggregate]\n",
    ));
    assert_eq!(l, 3);
    assert!(m.contains("cannot be a sweep axis"), "{m}");
}

#[test]
fn rejects_unknown_storage_mode() {
    let (_, m) = err(&with_header("[storage]\nmode = nvme\n"));
    assert!(m.contains("distributed") && m.contains("san"), "{m}");
}

#[test]
fn rejects_bad_policer_spec() {
    let (_, m) = err(&with_header("[workload]\nftp_policer = rate:100\n"));
    assert!(m.contains("burst"), "{m}");
}

#[test]
fn rejects_unknown_fault_verb_listing_choices() {
    let (l, m) = err(&with_header("[fault]\nexplode 1 at=5s for=1s\n"));
    assert_eq!(l, 3);
    assert!(m.contains("link_flap") && m.contains("node_outage"), "{m}");
}

#[test]
fn rejects_fault_missing_target() {
    let (_, m) = err(&with_header("[fault]\nlink_flap at=5s for=1s\n"));
    assert!(m.contains("target"), "{m}");
}

#[test]
fn rejects_fault_bad_link() {
    let (_, m) = err(&with_header("[fault]\nlink_flap wire:0 at=5s for=1s\n"));
    assert!(m.contains("node_uplink"), "{m}");
}

#[test]
fn rejects_fault_missing_required_argument() {
    let (_, m) = err(&with_header("[fault]\nlink_flap node_uplink:0 at=5s\n"));
    assert!(m.contains("'for="), "{m}");
}

#[test]
fn rejects_fault_unknown_argument() {
    let (_, m) = err(&with_header(
        "[fault]\nlink_flap node_uplink:0 at=5s for=1s boom=2\n",
    ));
    assert!(m.contains("unknown argument 'boom'"), "{m}");
}

#[test]
fn rejects_fault_malformed_argument() {
    let (_, m) = err(&with_header("[fault]\nnode_outage 1 at=5s for\n"));
    assert!(m.contains("key=value"), "{m}");
}

#[test]
fn rejects_unknown_sweep_mode() {
    let (_, m) = err(&with_header("[sweep]\nmode = random\n"));
    assert!(m.contains("grid") && m.contains("knee"), "{m}");
}

#[test]
fn rejects_unknown_sweep_key() {
    let (_, m) = err(&with_header("[sweep]\nwidth = 3\n"));
    assert!(m.contains("unknown key") && m.contains("threshold"), "{m}");
}

#[test]
fn rejects_knee_keys_without_knee_mode() {
    let (l, m) = err(&with_header("[sweep]\nmin = 2\n"));
    assert_eq!(l, 3);
    assert!(m.contains("mode = knee"), "{m}");
}

#[test]
fn rejects_knee_on_non_nodes_axis() {
    let (_, m) = err(&with_header(
        "[sweep]\nmode = knee\naxis = affinity\nmin = 2\nmax = 8\n",
    ));
    assert!(m.contains("'nodes' axis only"), "{m}");
}

#[test]
fn rejects_knee_missing_min_or_max() {
    let (_, m) = err(&with_header("[sweep]\nmode = knee\nmax = 8\n"));
    assert!(m.contains("min"), "{m}");
    let (_, m) = err(&with_header("[sweep]\nmode = knee\nmin = 2\n"));
    assert!(m.contains("max"), "{m}");
}

#[test]
fn rejects_knee_bad_range() {
    let (_, m) = err(&with_header("[sweep]\nmode = knee\nmin = 8\nmax = 8\n"));
    assert!(m.contains("min < max"), "{m}");
}

#[test]
fn rejects_knee_bad_step() {
    let (_, m) = err(&with_header(
        "[sweep]\nmode = knee\nmin = 2\nmax = 8\nstep = 12\n",
    ));
    assert!(m.contains("step"), "{m}");
}

#[test]
fn rejects_knee_bad_threshold() {
    let (_, m) = err(&with_header(
        "[sweep]\nmode = knee\nmin = 2\nmax = 8\nthreshold = 0\n",
    ));
    assert!(m.contains("threshold"), "{m}");
}

#[test]
fn rejects_knee_with_explicit_nodes_axis() {
    let (_, m) = err(&with_header(
        "[topology]\nnodes = [2, 4]\n[sweep]\nmode = knee\nmin = 2\nmax = 8\n",
    ));
    assert!(m.contains("owns the nodes axis"), "{m}");
}

#[test]
fn rejects_columns_not_a_list() {
    let (_, m) = err(&with_header("[output]\ncolumns = nodes\n"));
    assert!(m.contains("expects a list"), "{m}");
}

#[test]
fn rejects_unknown_column_listing_choices() {
    let (_, m) = err(&with_header("[output]\ncolumns = [warp_factor]\n"));
    assert!(
        m.contains("unknown column") && m.contains("tpmc_scaled"),
        "{m}"
    );
}

#[test]
fn rejects_empty_columns_list() {
    let (_, m) = err(&with_header("[output]\ncolumns = []\n"));
    assert!(m.contains("empty"), "{m}");
}

#[test]
fn rejects_group_by_unknown_key() {
    let (_, m) = err(&with_header("[output]\ngroup_by = flavor\n"));
    assert!(m.contains("not a known scenario key"), "{m}");
}

#[test]
fn rejects_group_by_on_non_axis() {
    let (l, m) = err(&with_header(
        "[topology]\nnodes = 4\n[output]\ngroup_by = nodes\n",
    ));
    assert_eq!(l, 5);
    assert!(m.contains("sweep axis"), "{m}");
}

#[test]
fn rejects_unknown_output_key() {
    let (_, m) = err(&with_header("[output]\nformat = csv\n"));
    assert!(m.contains("columns, group_by"), "{m}");
}

#[test]
fn rejects_unknown_service_key() {
    let (_, m) = err(&with_header("[service]\nport = 80\n"));
    assert!(m.contains("listen"), "{m}");
}

#[test]
fn rejects_bad_listen_address() {
    let (_, m) = err(&with_header("[service]\nlisten = localhost\n"));
    assert!(m.contains("<ip>:<port>"), "{m}");
}

#[test]
fn error_display_carries_the_line_number() {
    let e = parse("scenario = t\n[engine]\nexact = maybe\n").unwrap_err();
    assert!(e.to_string().starts_with("line 3: "), "{e}");
}

// `intra_jobs` selected the removed windowed engine. A scenario file
// that still sets it must fail at the offending line, in any form and
// any section, rather than run silently on the serial engine.

#[test]
fn rejects_intra_jobs_sweep_list() {
    let (l, m) = err(&with_header("[engine]\nintra_jobs = [2, 4]\n"));
    assert_eq!(l, 3);
    assert!(m.contains("unknown key 'intra_jobs' in [engine]"), "{m}");
}

#[test]
fn rejects_intra_jobs_outside_engine_section() {
    let (l, m) = err(&with_header("[topology]\nintra_jobs = 2\n"));
    assert_eq!(l, 3);
    assert!(m.contains("unknown key 'intra_jobs' in [topology]"), "{m}");
}

#[test]
fn rejects_non_integer_intra_jobs() {
    let (l, m) = err(&with_header("[engine]\nintra_jobs = fast\n"));
    assert_eq!(l, 3);
    assert!(m.contains("unknown key 'intra_jobs' in [engine]"), "{m}");
}

// The edge-switch count is derived (`nodes / nodes_per_edge`), so
// `edge_switches` is not a key: a file that sets it fails at that line
// rather than having the value silently ignored.
#[test]
fn rejects_edge_switches() {
    let (l, m) = err(&with_header("[topology]\nedge_switches = 8\n"));
    assert_eq!(l, 3);
    assert!(
        m.contains("unknown key 'edge_switches' in [topology]"),
        "{m}"
    );
}

#[test]
fn compile_rejects_intra_jobs_above_nodes() {
    // The parser already refuses the key, so no such scenario can reach
    // compile(); the error names the line and the key.
    let e = parse("scenario = t\n[engine]\nintra_jobs = 8\n[topology]\nnodes = 4\n").unwrap_err();
    assert_eq!(e.line, 3);
    assert!(e.msg.contains("unknown key 'intra_jobs'"), "{e}");
}

// `[case <label>]` sections: named points of scalar overrides.

#[test]
fn rejects_malformed_case_sections() {
    for (body, line, why) in [
        ("[case]\n", 2, "[case <label>]"),
        ("[case a]\nnodes = 2\n[case a]\n", 4, "duplicate case 'a'"),
        (
            "[case a]\nnodes = 2\nnodes = 4\n",
            4,
            "duplicate key 'nodes' in [case a]",
        ),
        ("[case a]\nnodes = [2, 4]\n", 3, "single value"),
        (
            "[case a]\nseeds = 2\n",
            3,
            "unknown key 'seeds' in [case a]",
        ),
        (
            "[topology]\nnodes = [2, 4]\n[case a]\nnodes = 8\n",
            5,
            "'nodes' is a sweep axis",
        ),
        (
            "[sweep]\nmode = knee\nmin = 2\nmax = 4\n[case a]\n",
            6,
            "need a grid sweep",
        ),
    ] {
        let (l, m) = err(&with_header(body));
        assert_eq!(l, line, "{body}: {m}");
        assert!(m.contains(why), "{body}: {m}");
    }
}

#[test]
fn rejects_coordinate_column_that_is_not_an_axis() {
    let (l, m) = err(&with_header(
        "[workload]\nqos = ftp-priority\n[output]\ncolumns = [qos, tpmc_scaled]\n",
    ));
    assert_eq!(l, 5);
    assert!(
        m.contains("column 'qos'") && m.contains("sweep axis"),
        "{m}"
    );
    let (_, m) = err(&with_header("[output]\ncolumns = [case]\n"));
    assert!(m.contains("column 'case'"), "{m}");
}
