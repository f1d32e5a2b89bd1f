//! The journaled archive engine against the legacy rewrite-every-flush
//! persistence path, then crash safety.
//!
//! Both sides run the same workload — every database updated every
//! round, durable at every round boundary. The baseline makes a round
//! durable the old way: rewrite every `.rrd` file (each an atomic temp,
//! rename, fsync). The journaled side appends the round's updates to
//! the write-ahead journal and fsyncs once (group commit), rewriting
//! files only at checkpoints. Ten seeded crash-replay runs (torn
//! journal tails and abandoned checkpoints) must then recover bit-exact.

use std::path::Path;
use std::time::{Duration, Instant};

use ganglia_rrd::{DataSourceDef, MetricKey, RraDef, RrdSet, RrdSpec};
use ganglia_sim::{run_crash_replay, CrashMode, CrashParams};

use crate::{Op, Params, Report, Row};

const STEP: u64 = 15;

/// One side's measured outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub elapsed: Duration,
    pub updates: u64,
    pub files_written: usize,
}

impl Side {
    fn rate(&self) -> f64 {
        self.updates as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Outcome of the seeded crash-replay sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSweep {
    pub seeds: usize,
    /// Runs whose recovered archives equal the never-crashed control.
    pub consistent: usize,
    pub torn_tails: u64,
    /// Journal records replayed (including idempotent no-ops).
    pub replayed: u64,
}

fn bench_spec() -> impl Fn(&MetricKey, u64) -> RrdSpec + Send + Sync + 'static {
    |key, start| RrdSpec {
        step: STEP,
        start,
        data_sources: vec![DataSourceDef::gauge(key.metric.clone(), STEP * 8)],
        archives: vec![RraDef::average(1, 64)],
    }
}

/// Update every database for `rounds` rounds; `durable` makes each
/// round durable and returns the files it wrote.
fn run_side(
    mut set: RrdSet,
    keys: &[MetricKey],
    rounds: u64,
    mut durable: impl FnMut(&mut RrdSet, u64) -> usize,
) -> Side {
    let mut files_written = 0;
    let start = Instant::now();
    for round in 1..=rounds {
        let t = round * STEP;
        for (i, key) in keys.iter().enumerate() {
            set.update(key, t, (round + i as u64) as f64)
                .expect("update");
        }
        files_written += durable(&mut set, round);
    }
    Side {
        elapsed: start.elapsed(),
        updates: set.update_count(),
        files_written,
    }
}

/// Legacy durability: rewrite every file each round.
fn run_baseline(dir: &Path, keys: &[MetricKey], rounds: u64) -> Side {
    let _ = std::fs::remove_dir_all(dir);
    let set = RrdSet::with_spec_factory(bench_spec()).persist_to(dir);
    run_side(set, keys, rounds, |set, _| set.flush().expect("flush"))
}

/// Journaled durability: group-commit each round, checkpoint on a
/// cadence and once more at the end, inside the timed window — the
/// steady-state cost includes the rewrites, just amortized.
fn run_journaled(dir: &Path, keys: &[MetricKey], rounds: u64, checkpoint_every: u64) -> Side {
    let _ = std::fs::remove_dir_all(dir);
    let journal = dir
        .join(".journal")
        .join(ganglia_rrd::journal_file_name("bench"));
    let set = RrdSet::with_spec_factory(bench_spec())
        .persist_to(dir)
        .journal_to(journal, "bench");
    run_side(set, keys, rounds, |set, round| {
        set.commit_journal().expect("commit");
        let mut files = 0;
        if checkpoint_every > 0 && round % checkpoint_every == 0 {
            files += set.checkpoint(round * STEP).expect("checkpoint");
        }
        if round == rounds {
            files += set.checkpoint(round * STEP).expect("final checkpoint");
        }
        files
    })
}

/// Ten seeded crash-replay runs, alternating fault modes.
fn crash_sweep(root: &Path) -> CrashSweep {
    let seeds = [7u64, 19, 43, 89, 151, 293, 607, 1217, 2437, 4871];
    let mut sweep = CrashSweep {
        seeds: seeds.len(),
        consistent: 0,
        torn_tails: 0,
        replayed: 0,
    };
    for (i, seed) in seeds.into_iter().enumerate() {
        let params = CrashParams {
            seed,
            hosts: 6,
            rounds: 12,
            crash_round: 1 + seed % 12,
            mode: if i % 2 == 0 {
                CrashMode::TornAppend
            } else {
                CrashMode::PartialCheckpoint
            },
            checkpoint_every: seed % 5,
        };
        let dir = root.join(format!("crash-{i}"));
        let report = run_crash_replay(&dir, &params);
        let _ = std::fs::remove_dir_all(&dir);
        if report.consistent() && report.keys > 0 {
            sweep.consistent += 1;
        } else {
            eprintln!("crash seed {seed}: NOT consistent: {report:?}");
        }
        sweep.torn_tails += report.torn_tails;
        sweep.replayed += report.replayed + report.noops;
    }
    sweep
}

/// The archive run as rows, journaled against rewrite-every-flush.
/// Gates: ≥3x update throughput, every crash recovery bit-exact, and
/// the sweep really injected faults (torn tails dropped, records
/// replayed).
pub fn archive_rows(baseline: &Side, journaled: &Side, crash: &CrashSweep) -> Vec<Row> {
    let stage = "durable rounds";
    vec![
        Row::new(stage, "updates_per_s", journaled.rate()).vs(baseline.rate()),
        Row::new(stage, "elapsed_us", journaled.elapsed.as_secs_f64() * 1e6)
            .vs(baseline.elapsed.as_secs_f64() * 1e6),
        Row::new(stage, "file_writes", journaled.files_written).vs(baseline.files_written),
        Row::new(
            stage,
            "speedup_x",
            journaled.rate() / baseline.rate().max(1e-9),
        )
        .gate(Op::Ge, 3),
        Row::new("crash sweep", "bit_exact_recoveries", crash.consistent).gate(Op::Eq, crash.seeds),
        Row::new("crash sweep", "torn_tails", crash.torn_tails).gate(Op::Gt, 0),
        Row::new("crash sweep", "records_replayed", crash.replayed).gate(Op::Gt, 0),
    ]
}

pub fn run(p: &Params) -> Result<Report, String> {
    let databases = p.get("databases", 2000usize, 800)?.max(1);
    let rounds = p.get("rounds", 10u64, 10)?.max(1);
    let checkpoint_every = 5;
    let root = std::env::temp_dir().join(format!("repro-archive-{}", std::process::id()));
    let keys: Vec<MetricKey> = (0..databases)
        .map(|i| MetricKey::host_metric("bench", format!("h{}", i / 20), format!("m{}", i % 20)))
        .collect();
    let baseline = run_baseline(&root.join("baseline"), &keys, rounds);
    let journaled = run_journaled(&root.join("journal"), &keys, rounds, checkpoint_every);
    let crash = crash_sweep(&root);
    let _ = std::fs::remove_dir_all(&root);
    Ok(Report {
        experiment: "archive",
        params: vec![
            ("databases", databases.to_string()),
            ("rounds", rounds.to_string()),
            ("checkpoint_every", checkpoint_every.to_string()),
            ("crash_seeds", crash.seeds.to_string()),
        ],
        rows: archive_rows(&baseline, &journaled, &crash),
    })
}
