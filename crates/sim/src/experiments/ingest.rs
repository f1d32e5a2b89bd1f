//! The ingest path, measured: rebuild-every-round parsing vs the
//! delta-aware [`Ingester`] across churn levels.
//!
//! Between poll rounds a child's report is almost byte-identical — on a
//! quiet cluster only a handful of `VAL` attributes move. The corpus
//! generator here models that regime explicitly: `TN`/`REPORTED` are
//! frozen (a real gmond in a simulator would reroll them every round,
//! hiding the reuse a production poll cadence actually sees) and a
//! configurable fraction of hosts change one metric value per round.
//! The experiment then runs the same corpus through both paths and
//! verifies, round by round, that they produce byte-identical rendered
//! XML — the delta path is an optimization, never a behavior change.

use std::time::{Duration, Instant};

use ganglia_metrics::model::GridItem;
use ganglia_metrics::{parse_document, write_document, Ingester};

/// The paper's figure 3 document (a grid of grids), used as a fixed
/// byte-identity corpus alongside the generated one.
pub const FIG3_XML: &str = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmetad">
<GRID NAME="SDSC" AUTHORITY="http://sdsc/ganglia/">
 <CLUSTER NAME="Meteor" LOCALTIME="1058918400">
  <HOST NAME="compute-0-0" IP="10.255.255.254" REPORTED="1058918395" TN="5" TMAX="20" DMAX="0">
   <METRIC NAME="cpu_num" VAL="2" TYPE="int32" UNITS="CPUs" TN="10" TMAX="1200" DMAX="0" SLOPE="zero" SOURCE="gmond"/>
   <METRIC NAME="load_one" VAL="0.89" TYPE="float" UNITS="" TN="10" TMAX="70" DMAX="0" SLOPE="both" SOURCE="gmond"/>
  </HOST>
  <HOST NAME="compute-0-1" IP="10.255.255.253" REPORTED="1058918396" TN="4" TMAX="20" DMAX="0">
   <METRIC NAME="cpu_num" VAL="2" TYPE="int32" UNITS="CPUs" TN="10" TMAX="1200" DMAX="0" SLOPE="zero" SOURCE="gmond"/>
   <METRIC NAME="load_one" VAL="0.89" TYPE="float" UNITS="" TN="10" TMAX="70" DMAX="0" SLOPE="both" SOURCE="gmond"/>
  </HOST>
 </CLUSTER>
 <GRID NAME="ATTIC" AUTHORITY="http://attic/ganglia/">
  <HOSTS UP="10" DOWN="1"/>
  <METRICS NAME="cpu_num" SUM="20" NUM="10" TYPE="int32"/>
  <METRICS NAME="load_one" SUM="17.56" NUM="10" TYPE="float"/>
 </GRID>
</GRID>
</GANGLIA_XML>"#;

/// Shape of the ingest workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestParams {
    /// Hosts in the simulated cluster.
    pub hosts: usize,
    /// Metrics per host (a real gmond carries ~30 built-ins).
    pub metrics_per_host: usize,
    /// Poll rounds per churn level.
    pub rounds: usize,
}

impl Default for IngestParams {
    fn default() -> Self {
        IngestParams {
            hosts: 128,
            metrics_per_host: 24,
            rounds: 40,
        }
    }
}

/// One churn level's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRow {
    /// Fraction of hosts whose bytes change each round, in `[0, 1]`.
    pub churn: f64,
    /// Bytes of one round's report.
    pub report_bytes: usize,
    /// Rebuild-every-round: parse + summarize per round.
    pub baseline_elapsed: Duration,
    /// Delta-aware: [`Ingester::ingest`] per round.
    pub delta_elapsed: Duration,
    /// Host reuse across the delta pass; the cold round's hosts count as
    /// rebuilt.
    pub hosts_reused: u64,
    pub hosts_rebuilt: u64,
    /// The hosts a working cache must rebuild, counted from the corpus
    /// bytes alone ([`changed_hosts`]).
    pub hosts_changed: u64,
    /// Rounds answered entirely from the whole-document fingerprint.
    pub docs_reused: u64,
    /// Every round rendered byte-identically across the two paths.
    pub byte_identical: bool,
}

impl IngestRow {
    /// Baseline time over delta time: how much the cache buys.
    pub fn speedup(&self) -> f64 {
        self.baseline_elapsed.as_secs_f64() / self.delta_elapsed.as_secs_f64().max(1e-12)
    }

    /// Corpus megabytes parsed per second by the delta path.
    pub fn delta_mb_per_s(&self, rounds: usize) -> f64 {
        (self.report_bytes * rounds) as f64 / 1e6 / self.delta_elapsed.as_secs_f64().max(1e-12)
    }
}

/// Result of [`run_ingest_churn`].
#[derive(Debug, Clone, PartialEq)]
pub struct IngestResult {
    pub params: IngestParams,
    pub rows: Vec<IngestRow>,
    /// The fig-3 document also renders byte-identically via the
    /// delta path (cold and warm).
    pub fig3_identical: bool,
}

/// xorshift over a seed — deterministic, dependency-free value churn.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// One round's report: `hosts` hosts with `metrics_per_host` metrics,
/// `TN`/`REPORTED` frozen, and each host's first metric value drawn
/// from `vals[host]`.
fn render_round(hosts: usize, metrics_per_host: usize, vals: &[u64]) -> String {
    let mut xml = String::with_capacity(hosts * metrics_per_host * 140);
    xml.push_str(
        "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmond\">\
         <CLUSTER NAME=\"churn\" LOCALTIME=\"1000\" OWNER=\"lab\" LATLONG=\"\" URL=\"\">",
    );
    for (h, &hval) in vals.iter().enumerate().take(hosts) {
        xml.push_str(&format!(
            "<HOST NAME=\"node-{h:04}\" IP=\"10.0.{}.{}\" REPORTED=\"990\" TN=\"5\" \
             TMAX=\"20\" DMAX=\"0\" LOCATION=\"r{},c{}\" STARTED=\"100\">",
            h / 256,
            h % 256,
            h / 16,
            h % 16
        ));
        for m in 0..metrics_per_host {
            // Metric 0 carries the churned value; the rest are constants
            // shared across every host (the realistic case: cpu_num,
            // boottime, installed memory... rarely move).
            let val = if m == 0 {
                format!("{}.{:02}", hval % 100, hval % 97)
            } else {
                format!("{}", (m * 7) % 1000)
            };
            xml.push_str(&format!(
                "<METRIC NAME=\"metric_{m:02}\" VAL=\"{val}\" TYPE=\"float\" UNITS=\"u{}\" \
                 TN=\"8\" TMAX=\"70\" DMAX=\"0\" SLOPE=\"both\" SOURCE=\"gmond\"/>",
                m % 5
            ));
        }
        xml.push_str("</HOST>");
    }
    xml.push_str("</CLUSTER></GANGLIA_XML>");
    xml
}

/// Generate `rounds` reports where a `churn` fraction of hosts change
/// one metric value between consecutive rounds (frozen timestamps, so
/// unchanged hosts are byte-identical). Deterministic in `seed`.
pub fn churn_corpus(params: &IngestParams, churn: f64, seed: u64) -> Vec<String> {
    let mut rng = seed | 1;
    let mut vals: Vec<u64> = (0..params.hosts).map(|h| h as u64 * 31).collect();
    let churned = ((params.hosts as f64) * churn).round() as usize;
    (0..params.rounds)
        .map(|round| {
            if round > 0 {
                // Rotate which hosts churn so reuse is not an artifact
                // of one fixed hot set.
                for k in 0..churned {
                    let h = (round * 13 + k * 7) % params.hosts;
                    vals[h] = next_rand(&mut rng);
                }
            }
            render_round(params.hosts, params.metrics_per_host, &vals)
        })
        .collect()
}

/// The cold round's hosts plus, for each warm round, the hosts whose
/// bytes differ from the previous round's: what an exact host cache
/// rebuilds over `corpus` (whose rounds keep one roster in one order).
/// Counted by comparing `<HOST` spans position by position, with no
/// parsing.
pub fn changed_hosts(corpus: &[String]) -> u64 {
    let Some(first) = corpus.first() else {
        return 0;
    };
    let mut changed = first.matches("<HOST ").count() as u64;
    for pair in corpus.windows(2) {
        let prev = pair[0].split("<HOST ").skip(1);
        let next = pair[1].split("<HOST ").skip(1);
        changed += prev.zip(next).filter(|(a, b)| a != b).count() as u64;
    }
    changed
}

/// Rebuild-every-round pass: what the poller did before the delta path
/// — parse the full document and recompute the cluster summary. Returns
/// a checksum so the optimizer cannot elide the work.
pub fn baseline_pass(corpus: &[String]) -> u64 {
    let mut check = 0u64;
    for xml in corpus {
        let doc = parse_document(xml).expect("corpus parses");
        for item in &doc.items {
            let summary = match item {
                GridItem::Cluster(c) => c.summary(),
                GridItem::Grid(g) => g.summary(),
            };
            check = check
                .wrapping_mul(31)
                .wrapping_add(summary.hosts_up as u64)
                .wrapping_add(summary.metrics.len() as u64);
        }
    }
    check
}

/// Totals of one delta-aware pass over the corpus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaTotals {
    pub hosts_reused: u64,
    pub hosts_rebuilt: u64,
    pub docs_reused: u64,
}

/// Delta-aware pass: one [`Ingester`] carried across every round.
pub fn delta_pass(corpus: &[String]) -> DeltaTotals {
    let mut ingester = Ingester::new();
    let mut totals = DeltaTotals::default();
    for xml in corpus {
        let ingested = ingester.ingest(xml).expect("corpus parses");
        totals.hosts_reused += ingested.stats.hosts_reused;
        totals.hosts_rebuilt += ingested.stats.hosts_rebuilt;
        totals.docs_reused += u64::from(ingested.stats.doc_reused);
    }
    totals
}

/// Whether both paths render every round of `corpus` byte-identically.
pub fn byte_identical(corpus: &[String]) -> bool {
    let mut ingester = Ingester::new();
    corpus.iter().all(|xml| {
        let plain = write_document(&parse_document(xml).expect("corpus parses"));
        let delta = write_document(&ingester.ingest(xml).expect("corpus parses").doc);
        plain == delta
    })
}

/// Run the churn sweep: both paths over the same corpora, timed, with
/// the byte-identity invariant checked at every round.
pub fn run_ingest_churn(params: &IngestParams, churns: &[f64]) -> IngestResult {
    let rows = churns
        .iter()
        .map(|&churn| {
            let corpus = churn_corpus(params, churn, 0x5eed_0001);
            let report_bytes = corpus[0].len();
            // Best of five *interleaved* repetitions per pass: the CI
            // gates compare these two times as a ratio, and minimums
            // are far less sensitive to scheduler noise than single
            // shots. Interleaving matters as much as repeating — a
            // noisy-neighbor burst lasting one pass then degrades a
            // baseline rep and a delta rep alike instead of landing
            // entirely on whichever side happened to be running. Each
            // delta repetition uses a fresh ingester, so the reps are
            // independent and the reuse totals identical.
            const REPS: usize = 5;
            let mut baseline_elapsed = Duration::MAX;
            let mut delta_elapsed = Duration::MAX;
            let mut totals = DeltaTotals::default();
            for _ in 0..REPS {
                let start = Instant::now();
                let check = baseline_pass(&corpus);
                baseline_elapsed = baseline_elapsed.min(start.elapsed());
                assert_ne!(check, u64::MAX, "checksum consumed");
                let start = Instant::now();
                totals = delta_pass(&corpus);
                delta_elapsed = delta_elapsed.min(start.elapsed());
            }
            IngestRow {
                churn,
                report_bytes,
                baseline_elapsed,
                delta_elapsed,
                hosts_reused: totals.hosts_reused,
                hosts_rebuilt: totals.hosts_rebuilt,
                hosts_changed: changed_hosts(&corpus),
                docs_reused: totals.docs_reused,
                byte_identical: byte_identical(&corpus),
            }
        })
        .collect();
    let fig3 = vec![FIG3_XML.to_string(), FIG3_XML.to_string()];
    IngestResult {
        params: *params,
        rows,
        fig3_identical: byte_identical(&fig3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> IngestParams {
        IngestParams {
            hosts: 12,
            metrics_per_host: 4,
            rounds: 6,
        }
    }

    #[test]
    fn zero_churn_corpus_repeats_bytes() {
        let corpus = churn_corpus(&small(), 0.0, 7);
        assert!(corpus.iter().all(|r| r == &corpus[0]));
    }

    #[test]
    fn full_churn_corpus_changes_every_round() {
        let corpus = churn_corpus(&small(), 1.0, 7);
        for pair in corpus.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn sweep_is_byte_identical_and_reuses_at_low_churn() {
        let result = run_ingest_churn(&small(), &[0.0, 0.5, 1.0]);
        assert!(result.fig3_identical);
        for row in &result.rows {
            assert!(row.byte_identical, "churn {} diverged", row.churn);
        }
        let zero = &result.rows[0];
        // Rounds 2..N hit the whole-document fingerprint.
        assert_eq!(zero.docs_reused, small().rounds as u64 - 1);
        assert_eq!(zero.hosts_rebuilt, small().hosts as u64, "cold round only");
        let full = &result.rows[2];
        assert_eq!(full.docs_reused, 0);
        // Full churn still reuses nothing between rounds.
        assert_eq!(full.hosts_rebuilt, (small().hosts * small().rounds) as u64);
        // The cache rebuilds exactly the hosts whose bytes changed.
        for row in &result.rows {
            assert_eq!(row.hosts_rebuilt, row.hosts_changed, "churn {}", row.churn);
        }
        assert_eq!(result.rows[1].hosts_changed, 12 + 5 * 6);
    }
}
