//! End-to-end correctness of the figure-2 monitoring tree: the numbers
//! at the root must equal ground truth computed directly from the leaf
//! clusters, at every resolution of the multiple-resolution view.

use ganglia::core::TreeMode;
use ganglia::metrics::model::{GridBody, GridItem};
use ganglia::metrics::parse_document;
use ganglia::sim::{fig2_tree, Deployment, DeploymentParams};

/// Ground truth: sum of a metric over every host of every leaf cluster,
/// collected straight from the pseudo-gmond XML.
fn ground_truth(deployment: &Deployment, metric: &str) -> (f64, u32) {
    let mut sum = 0.0;
    let mut hosts = 0;
    for monitor in &deployment.tree().monitors {
        for cluster in &monitor.local_clusters {
            let addr = ganglia::net::Addr::new(format!("{0}/{0}-node-0", cluster.name));
            let xml = ganglia::net::transport::Transport::fetch(
                deployment.net(),
                &addr,
                "/",
                std::time::Duration::from_secs(1),
            )
            .expect("leaf reachable");
            let doc = parse_document(&xml).expect("well-formed");
            let GridItem::Cluster(c) = &doc.items[0] else {
                panic!()
            };
            let summary = c.summary();
            let m = summary.metric(metric).expect("metric present");
            sum += m.sum;
            hosts += m.num;
        }
    }
    (sum, hosts)
}

#[test]
fn root_summary_equals_ground_truth() {
    let mut deployment = Deployment::build(
        fig2_tree(12),
        DeploymentParams::default().with_mode(TreeMode::NLevel),
    );
    deployment.run_rounds(1);
    let (truth_sum, truth_hosts) = ground_truth(&deployment, "cpu_num");

    let root = deployment.monitor("root");
    let summary = root.store().root_summary();
    let cpu = summary.metric("cpu_num").expect("summarized");
    assert_eq!(cpu.num, truth_hosts);
    assert!(
        (cpu.sum - truth_sum).abs() < 1e-6,
        "root sees cpu sum {} vs ground truth {}",
        cpu.sum,
        truth_sum
    );
    assert_eq!(summary.hosts_total(), 12 * 12);
}

#[test]
fn both_designs_agree_on_the_totals() {
    // The designs move work around; they must not change the answer.
    let mut n = Deployment::build(
        fig2_tree(9),
        DeploymentParams::default().with_mode(TreeMode::NLevel),
    );
    let mut one = Deployment::build(
        fig2_tree(9),
        DeploymentParams::default().with_mode(TreeMode::OneLevel),
    );
    n.run_rounds(1);
    one.run_rounds(1);
    let n_summary = n.monitor("root").store().root_summary();
    let one_summary = one.monitor("root").store().root_summary();
    assert_eq!(n_summary.hosts_total(), one_summary.hosts_total());
    for metric in ["cpu_num", "mem_total", "proc_total"] {
        let a = n_summary.metric(metric).expect("present").sum;
        let b = one_summary.metric(metric).expect("present").sum;
        assert!((a - b).abs() < 1e-6, "{metric}: {a} vs {b}");
    }
}

#[test]
fn multiple_resolution_views_are_consistent() {
    let mut deployment = Deployment::build(
        fig2_tree(8),
        DeploymentParams::default().with_mode(TreeMode::NLevel),
    );
    deployment.run_rounds(1);

    // Resolution 1: the root's coarse summary of the sdsc grid.
    let root_xml = deployment.monitor("root").query("/sdsc");
    let doc = parse_document(&root_xml).expect("well-formed");
    let GridItem::Grid(self_grid) = &doc.items[0] else {
        panic!()
    };
    let GridBody::Items(items) = &self_grid.body else {
        panic!()
    };
    let GridItem::Grid(sdsc_summary) = &items[0] else {
        panic!()
    };
    let coarse = sdsc_summary.summary();

    // Resolution 2: ask the authority (sdsc itself) and reduce.
    let sdsc_xml = deployment.monitor("sdsc").query("/");
    let sdsc_doc = parse_document(&sdsc_xml).expect("well-formed");
    let GridItem::Grid(sdsc_grid) = &sdsc_doc.items[0] else {
        panic!()
    };
    let fine = sdsc_grid.summary();

    assert_eq!(coarse.hosts_total(), fine.hosts_total());
    let coarse_cpu = coarse.metric("cpu_num").expect("present");
    let fine_cpu = fine.metric("cpu_num").expect("present");
    assert!((coarse_cpu.sum - fine_cpu.sum).abs() < 1e-6);

    // Resolution 3: full host detail exists only at the authority.
    let host_xml = deployment.monitor("sdsc").query("/sdsc-c0/sdsc-c0-0000");
    let host_doc = parse_document(&host_xml).expect("well-formed");
    assert_eq!(host_doc.host_count(), 1);
}

#[test]
fn authority_pointers_name_the_higher_resolution_holder() {
    let mut deployment = Deployment::build(
        fig2_tree(5),
        DeploymentParams::default().with_mode(TreeMode::NLevel),
    );
    deployment.run_rounds(1);
    let xml = deployment.monitor("root").query("/");
    // Every child grid carries its own authority URL, distinct from the
    // root's.
    assert!(xml.contains("AUTHORITY=\"http://ucsd/ganglia/\""));
    assert!(xml.contains("AUTHORITY=\"http://sdsc/ganglia/\""));
    // Deeper authorities (physics) are NOT visible at the root — the
    // root only sees one level of grid summaries.
    assert!(!xml.contains("AUTHORITY=\"http://physics/ganglia/\""));
    // But they are visible at ucsd, one hop down.
    let ucsd_xml = deployment.monitor("ucsd").query("/");
    assert!(ucsd_xml.contains("AUTHORITY=\"http://physics/ganglia/\""));
}

#[test]
fn upstream_traffic_is_bounded_by_summaries() {
    // §3.2: the amount of information a node sends upstream is O(m) per
    // source under N-level, vs O(C·H·m) under 1-level.
    let mut n = Deployment::build(
        fig2_tree(40),
        DeploymentParams::default().with_mode(TreeMode::NLevel),
    );
    n.run_rounds(1);
    let n_bytes = n.net().stats().get(&n.gmeta_addr("ucsd")).bytes_served;

    let mut one = Deployment::build(
        fig2_tree(40),
        DeploymentParams::default().with_mode(TreeMode::OneLevel),
    );
    one.run_rounds(1);
    let one_bytes = one.net().stats().get(&one.gmeta_addr("ucsd")).bytes_served;

    // Under 1-level ucsd sends its two local clusters and its four
    // descendant clusters (physics's and math's) at full detail. Under
    // N-level its parent polls `/?filter=summary`, so every one of its
    // four sources goes upstream in summary form.
    assert!(
        n_bytes * 2 < one_bytes,
        "ucsd served {n_bytes} bytes upstream under N-level vs {one_bytes} under 1-level"
    );
}

#[test]
fn same_seed_deployments_render_identically_under_parallel_polling() {
    // Default params: every monitor polls its sources on automatic poll
    // workers, so sources reach each store in a different order run to
    // run. The renders, the root reduction included, must not care.
    let build = || Deployment::build(fig2_tree(10), DeploymentParams::default());
    let (mut first, mut second) = (build(), build());
    for round in 0..12 {
        first.run_round();
        second.run_round();
        for monitor in &first.tree().monitors {
            for request in ["/", "/?filter=summary"] {
                assert!(
                    first.monitor(&monitor.name).query(request)
                        == second.monitor(&monitor.name).query(request),
                    "round {round}: {} renders {request} differently",
                    monitor.name
                );
            }
        }
    }
}
