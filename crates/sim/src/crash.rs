//! Crash-consistency fault injection for the journaled archive engine.
//!
//! The harness runs two daemons against the *same* served pseudo
//! cluster on a deterministic virtual clock: a control that never
//! crashes (in-memory archives) and a victim persisting through the
//! write-ahead journal. At a chosen round the victim "dies" — its
//! in-memory state is dropped and, depending on the mode, its journal
//! file is torn at a byte offset chosen by the seeded RNG (a torn
//! write) or a checkpoint is abandoned halfway through. A fresh daemon
//! then recovers from disk, re-polls the round the cluster is still
//! serving, and the run continues. At the end every archived series
//! must match the control bitwise: recovery plus idempotent replay
//! loses nothing that was acknowledged.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ganglia_core::{ArchiveMode, DataSourceCfg, Gmetad, GmetadConfig};
use ganglia_gmond::pseudo::ServedPseudoCluster;
use ganglia_gmond::PseudoGmond;
use ganglia_net::SimNet;
use ganglia_rrd::{ConsolidationFn, DataSourceDef, RraDef, RrdSpec, Series};

/// How the victim daemon dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Die after the crash round's group commit, then tear the journal
    /// at a byte offset inside that round's span (and sometimes flip a
    /// byte in the kept region) — the torn-write case fsync ordering
    /// cannot prevent, only recovery can contain.
    TornAppend,
    /// Die midway through a checkpoint: some `.rrd` files rewritten,
    /// some not, journal untouched (it only truncates on completion).
    PartialCheckpoint,
}

/// Parameters of one crash-replay run.
#[derive(Debug, Clone)]
pub struct CrashParams {
    /// Seeds the network, the pseudo cluster, and the fault RNG.
    pub seed: u64,
    /// Hosts in the pseudo cluster.
    pub hosts: usize,
    /// Total poll rounds.
    pub rounds: u64,
    /// Round (1-based) at which the victim dies.
    pub crash_round: u64,
    /// Fault flavour.
    pub mode: CrashMode,
    /// Rounds between victim checkpoints (`0` = every round).
    pub checkpoint_every: u64,
}

impl Default for CrashParams {
    fn default() -> Self {
        CrashParams {
            seed: 42,
            hosts: 8,
            rounds: 10,
            crash_round: 5,
            mode: CrashMode::TornAppend,
            checkpoint_every: 3,
        }
    }
}

/// Outcome of one crash-replay run.
#[derive(Debug, Clone, Default)]
pub struct CrashReport {
    /// Archived series compared.
    pub keys: usize,
    /// Series that differed from the never-crashed control.
    pub mismatched: usize,
    /// Whether victim and control archived the same key set.
    pub key_sets_match: bool,
    /// Journal records recovery replayed as fresh updates.
    pub replayed: u64,
    /// Journal records recovery found already checkpointed.
    pub noops: u64,
    /// Torn journal tails dropped during recovery.
    pub torn_tails: u64,
    /// Bytes discarded with those tails.
    pub torn_bytes: u64,
    /// Shards present after recovery.
    pub recovered_shards: usize,
}

impl CrashReport {
    /// True when the recovered victim is indistinguishable from the
    /// control.
    pub fn consistent(&self) -> bool {
        self.key_sets_match && self.mismatched == 0
    }
}

/// Run one crash-replay experiment under `dir` (wiped first).
pub fn run_crash_replay(dir: &Path, params: &CrashParams) -> CrashReport {
    assert!(
        (1..=params.rounds).contains(&params.crash_round),
        "crash_round must fall inside the run"
    );
    let _ = std::fs::remove_dir_all(dir);
    let interval = 15u64;
    let net = SimNet::new(params.seed);
    // A name with a space: its hosts' files reload under sanitized
    // names, which recovery must map back to the polled ones.
    let pseudo = PseudoGmond::new("meteor lab", params.hosts, params.seed ^ 0x6d65_7465, 0);
    let served = ServedPseudoCluster::serve(&net, pseudo, 1);

    let spec = move |key: &ganglia_rrd::MetricKey, start: u64| RrdSpec {
        step: interval,
        start,
        data_source: DataSourceDef::gauge(key.metric.clone(), interval * 8),
        archives: vec![RraDef::average(1, 64)],
    };
    let make_victim = || {
        let mut config = GmetadConfig::new("crashgrid")
            .with_source(
                DataSourceCfg::new("meteor lab", served.addrs().to_vec())
                    .expect("served cluster has addresses"),
            )
            .with_archive(ArchiveMode::Directory(dir.to_path_buf()))
            .with_archive_journal(true)
            .with_archive_flush_ms(0)
            .with_archive_checkpoint_secs(params.checkpoint_every * interval);
        config.poll_interval = interval;
        Gmetad::with_archive_spec(config, Some(Arc::new(spec)))
    };
    let control = {
        let mut config = GmetadConfig::new("crashgrid")
            .with_source(
                DataSourceCfg::new("meteor lab", served.addrs().to_vec())
                    .expect("served cluster has addresses"),
            )
            .with_archive(ArchiveMode::InMemory);
        config.poll_interval = interval;
        Gmetad::with_archive_spec(config, Some(Arc::new(spec)))
    };

    let mut rng = Rng(params.seed | 1);
    let mut victim = make_victim();
    let mut report = CrashReport::default();

    for round in 1..=params.rounds {
        let now = round * interval;
        served.advance(now);
        let _ = control.poll_all(&net, now);
        let sizes_before = if round == params.crash_round {
            wal_sizes(dir)
        } else {
            Vec::new()
        };
        let _ = victim.poll_all(&net, now);
        if round == params.crash_round {
            match params.mode {
                CrashMode::TornAppend => {
                    drop(victim); // in-memory state dies with the daemon
                    tear_journals(dir, &sizes_before, &mut rng);
                }
                CrashMode::PartialCheckpoint => {
                    let dirty = victim.archive_keys().len().max(1);
                    let budget = 1 + (rng.next() as usize) % dirty;
                    let _ = victim.checkpoint_archives_partial(now, budget);
                    drop(victim);
                }
            }
            victim = make_victim();
            let recovery = victim.recover_archives().expect("recovery never fails");
            report.replayed += recovery.replayed;
            report.noops += recovery.noops;
            report.torn_tails += recovery.torn_tails;
            report.torn_bytes += recovery.torn_bytes;
            report.recovered_shards = recovery.shards;
            // Re-poll the crash round: the cluster still serves the same
            // report, so updates lost with the torn tail are re-applied
            // and already-replayed ones gate out as `UpdateInPast`.
            let _ = victim.poll_all(&net, now);
        }
    }
    // One full checkpoint at the end exercises the post-recovery
    // checkpoint path (and leaves a clean directory behind).
    victim
        .checkpoint_archives(params.rounds * interval)
        .expect("final checkpoint");

    let control_keys = control.archive_keys();
    let victim_keys = victim.archive_keys();
    report.keys = control_keys.len();
    report.key_sets_match = control_keys == victim_keys;
    let end = (params.rounds + 1) * interval;
    for key in &control_keys {
        let want = control.fetch_history(key, ConsolidationFn::Average, 0, end);
        let got = victim.fetch_history(key, ConsolidationFn::Average, 0, end);
        if !series_eq(want.as_ref(), got.as_ref()) {
            report.mismatched += 1;
        }
    }
    report
}

/// Bitwise series equality (NaN == NaN, unlike `PartialEq` on f64).
fn series_eq(a: Option<&Series>, b: Option<&Series>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.start == b.start
                && a.step == b.step
                && a.values.len() == b.values.len()
                && a.values
                    .iter()
                    .zip(&b.values)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => false,
    }
}

/// Sizes of every journal file under `dir/.journal`.
fn wal_sizes(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut sizes = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir.join(".journal")) else {
        return sizes;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("wal") {
            if let Ok(meta) = std::fs::metadata(&path) {
                sizes.push((path, meta.len()));
            }
        }
    }
    sizes.sort();
    sizes
}

/// Simulate a torn write: truncate each journal at an RNG-chosen offset
/// inside the crash round's byte span, sometimes also flipping a byte in
/// the kept part of that span (a misdirected sector write). Earlier
/// rounds' bytes are never touched — they were acknowledged by fsync.
fn tear_journals(dir: &Path, sizes_before: &[(PathBuf, u64)], rng: &mut Rng) {
    for (path, after) in wal_sizes(dir) {
        let before = sizes_before
            .iter()
            .find(|(p, _)| *p == path)
            .map(|(_, len)| *len)
            .unwrap_or(0);
        if after <= before {
            continue; // nothing written this round (e.g. just checkpointed)
        }
        let span = after - before;
        let cut = before + 1 + rng.next() % span; // in (before, after]
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("journal exists");
        file.set_len(cut).expect("truncate journal");
        drop(file);
        if rng.next().is_multiple_of(2) && cut > before + 1 {
            flip_byte(&path, before + rng.next() % (cut - before));
        }
    }
}

fn flip_byte(path: &Path, offset: u64) {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("journal exists");
    let mut byte = [0u8];
    file.seek(SeekFrom::Start(offset)).expect("seek");
    file.read_exact(&mut byte).expect("read byte");
    byte[0] ^= 0xFF;
    file.seek(SeekFrom::Start(offset)).expect("seek");
    file.write_all(&byte).expect("write byte");
}

/// xorshift64* — deterministic, dependency-free fault randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ganglia-crash-{tag}-{}", std::process::id()))
    }

    #[test]
    fn torn_append_recovers_to_control() {
        let dir = temp_dir("torn");
        let report = run_crash_replay(&dir, &CrashParams::default());
        assert!(report.keys > 0);
        assert!(
            report.consistent(),
            "victim diverged from control: {report:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_checkpoint_recovers_to_control() {
        let dir = temp_dir("partial");
        let report = run_crash_replay(
            &dir,
            &CrashParams {
                mode: CrashMode::PartialCheckpoint,
                crash_round: 7,
                ..CrashParams::default()
            },
        );
        assert!(report.keys > 0);
        assert!(
            report.consistent(),
            "victim diverged from control: {report:?}"
        );
        assert!(
            report.replayed + report.noops > 0,
            "journal should have had records to replay: {report:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
