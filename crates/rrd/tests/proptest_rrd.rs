//! Property tests for the round-robin database: no panic on arbitrary
//! well-ordered update streams, constant storage, and consistency between
//! the archive ladder and the raw stream.

use ganglia_rrd::{ganglia_default_spec, ConsolidationFn, DataSourceDef, RraDef, Rrd, RrdSpec};
use proptest::prelude::*;

fn update_stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    // Increasing gaps (1..200 s) with values in a plausible range, and a
    // sprinkle of NANs for unknown samples.
    proptest::collection::vec(
        (
            1u64..200,
            prop_oneof![
                4 => (0.0f64..1000.0).boxed(),
                1 => Just(f64::NAN).boxed(),
            ],
        ),
        1..200,
    )
    .prop_map(|deltas| {
        let mut t = 0u64;
        deltas
            .into_iter()
            .map(|(dt, v)| {
                t += dt;
                (t, v)
            })
            .collect()
    })
}

/// Exercise a decoded database the way gmetad would: keep updating and
/// fetching. Any panic here means `decode` accepted state the engine
/// cannot actually operate on.
fn exercise(mut rrd: Rrd) {
    let t = rrd.last_update().saturating_add(15);
    let _ = rrd.update(t, 1.0);
    let _ = rrd.update(t.saturating_add(400), 2.0);
    // Fetch a bounded window; the result size is linear in the window,
    // so an unbounded 0..t fetch with a corrupted (huge) clock would
    // measure allocator throughput, not decode hardening.
    let _ = rrd.fetch(
        ConsolidationFn::Average,
        t.saturating_sub(5_000),
        t.saturating_add(1_000),
    );
}

#[test]
fn decode_survives_truncation_and_corruption_at_every_offset() {
    // Compact spec keeps the byte image small enough to attack every
    // single offset exhaustively.
    let spec = RrdSpec {
        step: 15,
        start: 0,
        data_source: DataSourceDef::gauge("m", 60),
        archives: vec![RraDef::average(1, 32), RraDef::average(8, 32)],
    };
    let mut rrd = Rrd::create(spec).unwrap();
    for i in 1..=100u64 {
        rrd.update(i * 15, (i % 13) as f64).unwrap();
    }
    let image = ganglia_rrd::file::encode(&rrd);
    // Truncation at every prefix length: decode must error cleanly
    // (only the full image is valid) and never panic.
    for cut in 0..image.len() {
        assert!(
            ganglia_rrd::file::decode(&image[..cut]).is_err(),
            "truncation at {cut} decoded"
        );
    }
    // Single-byte corruption at every offset: decode either rejects the
    // file or yields a database that still updates and fetches without
    // panicking (a flipped float payload is indistinguishable from a
    // legitimate value and need not be rejected).
    for i in 0..image.len() {
        let mut mangled = image.clone();
        mangled[i] ^= 0xFF;
        if let Ok(back) = ganglia_rrd::file::decode(&mangled) {
            exercise(back);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decode_never_panics_on_mutated_images(
        stream in update_stream(),
        mutations in proptest::collection::vec((0usize..50_000, 0u8..=255), 1..16),
        cut in 0usize..50_000,
    ) {
        let mut rrd = Rrd::create(ganglia_default_spec("m", 0)).unwrap();
        for (t, v) in &stream {
            rrd.update(*t, *v).unwrap();
        }
        let mut image = ganglia_rrd::file::encode(&rrd);
        for (offset, byte) in mutations {
            let len = image.len();
            image[offset % len] = byte;
        }
        // `cut == len` (mod len+1) leaves the image whole.
        image.truncate(cut % (image.len() + 1));
        if let Ok(back) = ganglia_rrd::file::decode(&image) {
            exercise(back);
        }
    }

    #[test]
    fn arbitrary_streams_never_panic_and_fetch_is_sane(stream in update_stream()) {
        let mut rrd = Rrd::create(ganglia_default_spec("m", 0)).unwrap();
        for (t, v) in &stream {
            rrd.update(*t, *v).unwrap();
        }
        let end = stream.last().unwrap().0;
        for (start, stop) in [(0, end), (end / 2, end), (end, end + 1000)] {
            let series = rrd.fetch(ConsolidationFn::Average, start, stop).unwrap();
            // Every known value must lie within the observed value range
            // (averaging cannot extrapolate).
            for v in series.values.iter().filter(|v| !v.is_nan()) {
                prop_assert!((0.0..=1000.0).contains(v), "value {v} out of range");
            }
        }
    }

    #[test]
    fn encoded_size_is_constant(stream in update_stream()) {
        let mut rrd = Rrd::create(ganglia_default_spec("m", 0)).unwrap();
        let before = ganglia_rrd::file::encode(&rrd).len();
        for (t, v) in &stream {
            rrd.update(*t, *v).unwrap();
        }
        let after = ganglia_rrd::file::encode(&rrd).len();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn file_roundtrip_preserves_fetches(stream in update_stream()) {
        let mut rrd = Rrd::create(ganglia_default_spec("m", 0)).unwrap();
        for (t, v) in &stream {
            rrd.update(*t, *v).unwrap();
        }
        let back = ganglia_rrd::file::decode(&ganglia_rrd::file::encode(&rrd)).unwrap();
        let end = stream.last().unwrap().0;
        let a = rrd.fetch(ConsolidationFn::Average, 0, end).unwrap();
        let b = back.fetch(ConsolidationFn::Average, 0, end).unwrap();
        prop_assert_eq!(a.start, b.start);
        prop_assert_eq!(a.step, b.step);
        prop_assert_eq!(a.values.len(), b.values.len());
        for (x, y) in a.values.iter().zip(&b.values) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn constant_input_consolidates_to_itself(
        value in 0.0f64..100.0,
        step in 5u64..60,
        count in 50usize..300,
    ) {
        let spec = RrdSpec {
            step,
            start: 0,
            data_source: DataSourceDef::gauge("m", step * 4),
            archives: vec![RraDef::average(1, 64), RraDef::average(7, 64)],
        };
        let mut rrd = Rrd::create(spec).unwrap();
        for i in 1..=count as u64 {
            rrd.update(i * step, value).unwrap();
        }
        let end = count as u64 * step;
        let series = rrd.fetch(ConsolidationFn::Average, 0, end).unwrap();
        for v in series.values.iter().filter(|v| !v.is_nan()) {
            prop_assert!((v - value).abs() < 1e-9);
        }
        prop_assert!(series.known_count() > 0);
    }
}
