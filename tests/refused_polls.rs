//! A poll the child's serving tier refuses is a failed poll, not an
//! empty report.
//!
//! The tier refuses work with a well-formed `<GANGLIA_XML/>` that holds
//! no `CLUSTER` or `GRID` (shed, rate limited, queue full). A parent
//! that stored it would replace its last good snapshot of the child
//! with zero hosts and call the source fresh. Instead the refusal must
//! count as a failed exchange: the source keeps its snapshot and walks
//! the staleness lifecycle.

use ganglia::core::{DataSourceCfg, Gmetad, GmetadConfig, GmetadError, SourceStatus, TreeMode};
use ganglia::gmond::pseudo::ServedPseudoCluster;
use ganglia::gmond::PseudoGmond;
use ganglia::net::{Addr, SimNet, Transport};
use ganglia::serve::ServeOptions;

#[test]
fn a_refused_poll_keeps_the_last_good_snapshot() {
    let net = SimNet::new(1);
    let cluster = ServedPseudoCluster::serve(&net, PseudoGmond::new("meteor", 20, 7, 0), 1);
    let child = Gmetad::new(
        GmetadConfig::new("sdsc")
            .with_source(DataSourceCfg::new("meteor", cluster.addrs().to_vec()).unwrap()),
    );
    // One request per second, no burst: the parent's second poll, right
    // after its first, is refused.
    let tier = child.dump_tier(ServeOptions::default().with_rate_limit(1, 1));
    let child_registry = std::sync::Arc::clone(tier.registry());
    let _guard = net.serve(&Addr::new("sdsc-gmeta"), tier).unwrap();
    let parent = Gmetad::new(
        GmetadConfig::new("root")
            .with_mode(TreeMode::NLevel)
            .with_source(DataSourceCfg::new("sdsc", vec![Addr::new("sdsc-gmeta")]).unwrap()),
    );

    for result in child.poll_all(&net, 15) {
        result.expect("child polls its cluster");
    }
    for result in parent.poll_all(&net, 15) {
        result.expect("the first poll is served");
    }
    assert_eq!(parent.store().get("sdsc").unwrap().host_count(), 20);

    let refused = parent.poll_all(&net, 30);
    assert_eq!(
        child_registry.snapshot().counter("serve.ratelimited_total"),
        Some(1),
        "the child refused the second poll"
    );
    assert!(
        matches!(&refused[0], Err(GmetadError::EmptyReport { source }) if source == "sdsc"),
        "{refused:?}"
    );
    let state = parent.store().get("sdsc").unwrap();
    assert_eq!(state.host_count(), 20, "the last good snapshot is kept");
    assert_eq!(state.status, SourceStatus::Stale { since: 30 });
    assert_eq!(parent.store().root_summary().hosts_total(), 20);
    let stats = &parent.poller_stats()[0];
    assert_eq!((stats.polls_ok, stats.polls_failed), (1, 1));
    assert_eq!(
        parent.registry().snapshot().counter("polls_failed_total"),
        Some(1)
    );
}
