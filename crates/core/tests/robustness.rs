//! Robustness: gmetad must stay sane when children serve degenerate —
//! but well-formed — reports. Monitoring the monitor's failure handling
//! is the whole point of the wide-area design.

use std::sync::Arc;
use std::time::Duration;

use ganglia_core::{DataSourceCfg, Gmetad, GmetadConfig, GmetadError, SourceData};
use ganglia_metrics::parse_document;
use ganglia_net::transport::Transport;
use ganglia_net::{Addr, SimNet};
use parking_lot::Mutex;

/// Serve a mutable canned body at an address.
fn serve_canned(
    net: &Arc<SimNet>,
    addr: &str,
) -> (Arc<Mutex<String>>, Box<dyn ganglia_net::ServerGuard>) {
    let body = Arc::new(Mutex::new(String::new()));
    let handler_body = Arc::clone(&body);
    let guard = net
        .serve(
            &Addr::new(addr),
            Arc::new(move |_: &str| handler_body.lock().clone()),
        )
        .expect("bind");
    (body, guard)
}

fn daemon(_net: &Arc<SimNet>, addr: &str) -> Arc<Gmetad> {
    Gmetad::new(
        GmetadConfig::new("sdsc")
            .with_source(DataSourceCfg::new("child", vec![Addr::new(addr)]).unwrap()),
    )
}

#[test]
fn a_report_with_no_cluster_or_grid_is_a_failed_poll() {
    // No producer sends such a report as data: it is how a serving tier
    // refuses a poll. Storing it would show the source with zero hosts.
    let net = SimNet::new(1);
    let (body, _guard) = serve_canned(&net, "child/n0");
    *body.lock() = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond"></GANGLIA_XML>"#.into();
    let gmetad = daemon(&net, "child/n0");
    let results = gmetad.poll_all(&net, 15);
    assert!(
        matches!(&results[0], Err(GmetadError::EmptyReport { source }) if source == "child"),
        "{results:?}"
    );
    assert!(gmetad.store().get("child").is_none());
    assert_eq!(gmetad.poller_stats()[0].polls_failed, 1);
    // Queries still answer.
    let xml = gmetad.query("/");
    assert!(parse_document(&xml).is_ok());
}

#[test]
fn summary_counts_past_u32_saturate_instead_of_overflowing() {
    // UP and NUM arrive as u32 from the wire; a child grid whose
    // clusters add past u32::MAX must not overflow the parent's fold
    // (a debug build panicked, a release build wrapped to UP=1).
    let net = SimNet::new(1);
    let (body, _guard) = serve_canned(&net, "child/n0");
    let cluster = |name: &str, up: u32| {
        format!(
            r#"<CLUSTER NAME="{name}" LOCALTIME="10" OWNER="" LATLONG="" URL="">
<HOSTS UP="{up}" DOWN="0" SOURCE="gmetad"/>
<METRICS NAME="load_one" SUM="1.5" NUM="{up}" TYPE="float" UNITS="" SLOPE="both" SOURCE="gmond"/>
</CLUSTER>"#
        )
    };
    *body.lock() = format!(
        r#"<GANGLIA_XML VERSION="3.0" SOURCE="gmetad"><GRID NAME="wide" AUTHORITY="http://wide/" LOCALTIME="10">{}{}</GRID></GANGLIA_XML>"#,
        cluster("a", u32::MAX),
        cluster("b", 2)
    );
    let gmetad = daemon(&net, "child/n0");
    for result in gmetad.poll_all(&net, 15) {
        result.expect("the report is well-formed");
    }
    let state = gmetad.store().get("child").expect("stored");
    assert_eq!(state.summary.hosts_up, u32::MAX);
    assert_eq!(state.summary.metric("load_one").unwrap().num, u32::MAX);
    assert_eq!(state.summary.metric("load_one").unwrap().sum, 3.0);
    assert_eq!(gmetad.store().root_summary().hosts_up, u32::MAX);
}

#[test]
fn empty_cluster_is_fine() {
    let net = SimNet::new(1);
    let (body, _guard) = serve_canned(&net, "child/n0");
    *body.lock() =
        r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond"><CLUSTER NAME="ghost-town"/></GANGLIA_XML>"#
            .into();
    let gmetad = daemon(&net, "child/n0");
    gmetad.poll_all(&net, 15)[0].as_ref().expect("ok");
    assert_eq!(gmetad.store().get("child").unwrap().host_count(), 0);
    assert!(parse_document(&gmetad.query("/child")).is_ok());
}

#[test]
fn reserved_characters_in_names_survive_the_round_trip() {
    let net = SimNet::new(1);
    let (body, _guard) = serve_canned(&net, "child/n0");
    *body.lock() = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond">
        <CLUSTER NAME="R&amp;D &lt;west&gt;">
          <HOST NAME="node &quot;a&quot;" IP="1.1.1.1" TN="1" TMAX="20">
            <METRIC NAME="weird&apos;metric" VAL="1.5" TYPE="float"/>
          </HOST>
        </CLUSTER></GANGLIA_XML>"#
        .into();
    let gmetad = daemon(&net, "child/n0");
    gmetad.poll_all(&net, 15)[0].as_ref().expect("ok");
    let state = gmetad.store().get("child").expect("present");
    let SourceData::Cluster(cluster) = &state.data else {
        panic!()
    };
    assert_eq!(cluster.name, "R&D <west>");
    let host = state.host("node \"a\"").expect("host indexed");
    assert!(host.metric("weird'metric").is_some());
    // The full dump re-escapes correctly and reparses.
    let xml = gmetad.query("/");
    let doc = parse_document(&xml).expect("round-trips");
    assert_eq!(doc.host_count(), 1);
}

#[test]
fn source_changing_shape_between_polls_is_replaced_cleanly() {
    // A child that is a gmond one round and a gmetad the next (daemon
    // swap on the same address) must simply replace the snapshot.
    let net = SimNet::new(1);
    let (body, _guard) = serve_canned(&net, "child/n0");
    *body.lock() = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond">
        <CLUSTER NAME="c"><HOST NAME="h" IP="1.1.1.1" TN="1" TMAX="20">
        <METRIC NAME="load_one" VAL="1.0" TYPE="float"/></HOST></CLUSTER></GANGLIA_XML>"#
        .into();
    let gmetad = daemon(&net, "child/n0");
    gmetad.poll_all(&net, 15)[0].as_ref().expect("cluster poll");
    assert!(matches!(
        gmetad.store().get("child").unwrap().data,
        SourceData::Cluster(_)
    ));

    *body.lock() = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmetad">
        <GRID NAME="g" AUTHORITY="http://g/">
          <CLUSTER NAME="c"><HOSTS UP="5" DOWN="0"/>
          <METRICS NAME="load_one" SUM="5" NUM="5" TYPE="float"/></CLUSTER>
        </GRID></GANGLIA_XML>"#
        .into();
    gmetad.poll_all(&net, 30)[0].as_ref().expect("grid poll");
    let state = gmetad.store().get("child").unwrap();
    assert!(matches!(state.data, SourceData::Grid(_)));
    assert_eq!(state.summary.hosts_up, 5);
}

#[test]
fn duplicate_host_names_do_not_break_the_index() {
    let net = SimNet::new(1);
    let (body, _guard) = serve_canned(&net, "child/n0");
    *body.lock() = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond">
        <CLUSTER NAME="c">
          <HOST NAME="dup" IP="1.1.1.1" TN="1" TMAX="20">
            <METRIC NAME="load_one" VAL="1.0" TYPE="float"/></HOST>
          <HOST NAME="dup" IP="1.1.1.2" TN="1" TMAX="20">
            <METRIC NAME="load_one" VAL="2.0" TYPE="float"/></HOST>
        </CLUSTER></GANGLIA_XML>"#
        .into();
    let gmetad = daemon(&net, "child/n0");
    gmetad.poll_all(&net, 15)[0].as_ref().expect("ok");
    let state = gmetad.store().get("child").unwrap();
    assert_eq!(state.host_count(), 2, "both rows kept");
    // The index resolves to one of them deterministically (the last).
    let host = state.host("dup").expect("indexed");
    assert_eq!(host.ip, "1.1.1.2");
    // Summaries count both.
    assert_eq!(state.summary.metric("load_one").unwrap().num, 2);
}

#[test]
fn unsolicited_huge_queries_do_not_oom_the_daemon() {
    let net = SimNet::new(1);
    let (body, _guard) = serve_canned(&net, "child/n0");
    *body.lock() =
        r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond"><CLUSTER NAME="c"/></GANGLIA_XML>"#.into();
    let gmetad = daemon(&net, "child/n0");
    gmetad.poll_all(&net, 15);
    // A pathological path: thousands of segments.
    let deep = format!("/{}", vec!["x"; 10_000].join("/"));
    let xml = gmetad.query(&deep);
    assert!(parse_document(&xml).is_ok());
    // And a pathological pattern (NFA engine: no blowup).
    let start = std::time::Instant::now();
    let xml = gmetad.query("/~(a*)*b/x");
    assert!(parse_document(&xml).is_ok());
    assert!(start.elapsed() < Duration::from_secs(1));
}

#[test]
fn slow_child_does_not_block_queries() {
    // Queries are served from the last snapshot even while a poll is in
    // flight (two time scales, §3.3.1). Simulate with a handler that
    // parks the polling thread.
    let net = SimNet::new(1);
    let (body, _guard) = serve_canned(&net, "child/n0");
    *body.lock() = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond">
        <CLUSTER NAME="c"><HOST NAME="h" IP="1.1.1.1" TN="1" TMAX="20">
        <METRIC NAME="load_one" VAL="1.0" TYPE="float"/></HOST></CLUSTER></GANGLIA_XML>"#
        .into();
    let gmetad = daemon(&net, "child/n0");
    gmetad.poll_all(&net, 15);

    let slow_net = Arc::clone(&net);
    let slow_gate = Arc::new(std::sync::Barrier::new(2));
    let gate_for_handler = Arc::clone(&slow_gate);
    let _slow_guard = net
        .serve(
            &Addr::new("slow/n0"),
            Arc::new(move |_: &str| {
                gate_for_handler.wait(); // hold the poll until the test is done querying
                r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond"><CLUSTER NAME="s"/></GANGLIA_XML>"#
                    .to_string()
            }),
        )
        .expect("bind");
    gmetad.add_source(DataSourceCfg::new("slow", vec![Addr::new("slow/n0")]).unwrap());

    let daemon_for_thread = Arc::clone(&gmetad);
    let poller = std::thread::spawn(move || {
        daemon_for_thread.poll_all(&slow_net, 30);
    });
    // While the poll is parked inside the slow handler, queries answer
    // instantly from the last snapshot.
    let xml = gmetad.query("/child/h");
    assert!(xml.contains("load_one"));
    slow_gate.wait();
    poller.join().expect("poll thread finishes");
}
