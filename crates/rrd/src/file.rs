//! Compact binary on-disk form of a round-robin database.
//!
//! Like RRDtool files, the encoding has a fixed size determined entirely
//! by the spec — the archive rings are stored in full — so databases
//! "do not grow in size over time" (paper §3.1). gmetad stores one file
//! per `(source, host, metric)` under its archive root, which in the
//! paper's experiments sat on a RAM-backed tmpfs (§4.1).

use std::path::Path;

use bytes::{Buf, BufMut, BytesMut};

use crate::error::RrdError;
use crate::rrd::{Archive, Rrd};
use crate::spec::{ConsolidationFn, DataSourceDef, DataSourceType, RraDef, RrdSpec};

const MAGIC: &[u8; 8] = b"GRRD0001";

/// Serialize a database to its binary form.
///
/// The layout keeps a data-source count (always 1) so files stay
/// byte-compatible with every archive written before databases were
/// fixed at one data source.
pub fn encode(rrd: &Rrd) -> Vec<u8> {
    let spec = rrd.spec();
    let ds = &spec.data_source;
    let mut buf = BytesMut::with_capacity(64 + spec.cell_count() * 8);
    buf.put_slice(MAGIC);
    buf.put_u64(spec.step);
    buf.put_u64(spec.start);
    buf.put_u64(rrd.last_update);
    buf.put_u64(rrd.update_count);
    buf.put_u32(1);
    put_string(&mut buf, &ds.name);
    buf.put_u8(ds.dst.to_u8());
    buf.put_u64(ds.heartbeat);
    buf.put_f64(ds.min);
    buf.put_f64(ds.max);
    buf.put_f64(rrd.last_raw);
    buf.put_f64(rrd.pdp_sum);
    buf.put_u64(rrd.pdp_known);
    buf.put_u32(rrd.archives.len() as u32);
    for archive in &rrd.archives {
        buf.put_u8(archive.def.cf.to_u8());
        buf.put_f64(archive.def.xff);
        buf.put_u64(archive.def.pdp_per_row as u64);
        buf.put_u64(archive.def.rows as u64);
        buf.put_u64(archive.steps_in_cdp as u64);
        buf.put_u64(archive.next as u64);
        buf.put_u64(archive.written as u64);
        buf.put_u64(archive.last_row_time);
        buf.put_f64(archive.cdp_agg);
        buf.put_u32(archive.cdp_known);
        for &v in &archive.data {
            buf.put_f64(v);
        }
    }
    buf.to_vec()
}

/// Reconstruct a database from its binary form.
pub fn decode(mut input: &[u8]) -> Result<Rrd, RrdError> {
    let bad = |why: &str| RrdError::BadFile(why.to_string());
    if input.len() < MAGIC.len() || &input[..MAGIC.len()] != MAGIC {
        return Err(bad("bad magic"));
    }
    input.advance(MAGIC.len());
    let need = |n: usize, input: &[u8]| -> Result<(), RrdError> {
        if input.remaining() < n {
            Err(RrdError::BadFile("truncated".to_string()))
        } else {
            Ok(())
        }
    };
    need(8 * 4 + 4, input)?;
    let step = input.get_u64();
    let start = input.get_u64();
    let last_update = input.get_u64();
    let update_count = input.get_u64();
    // Bound every field that feeds later arithmetic so adversarial
    // files cannot trigger overflow, however implausible: timestamps
    // below 2^48 (about 8.9 million years) and steps below 2^32 keep
    // all products and sums comfortably inside u64.
    if step == 0 || step > 1 << 32 {
        return Err(bad("implausible step"));
    }
    if start > 1 << 48 || last_update > 1 << 48 || last_update < start {
        return Err(bad("implausible timestamps"));
    }
    if input.get_u32() != 1 {
        return Err(bad("data source count is not 1"));
    }
    let name = get_string(&mut input)?;
    // dst byte + heartbeat/min/max + last_raw/pdp_sum/pdp_known.
    need(1 + 8 * 6, input)?;
    let dst = DataSourceType::from_u8(input.get_u8()).ok_or_else(|| bad("bad ds type"))?;
    let data_source = DataSourceDef {
        name,
        dst,
        heartbeat: input.get_u64(),
        min: input.get_f64(),
        max: input.get_f64(),
    };
    let last_raw = input.get_f64();
    let pdp_sum = input.get_f64();
    let pdp_known = input.get_u64();
    // Known seconds accumulate within the current step only.
    if pdp_known > step {
        return Err(bad("pdp accumulator exceeds step"));
    }
    need(4, input)?;
    let rra_count = input.get_u32() as usize;
    if rra_count == 0 || rra_count > 1 << 10 {
        return Err(bad("implausible archive count"));
    }
    let mut archive_defs = Vec::with_capacity(rra_count);
    let mut archives = Vec::with_capacity(rra_count);
    for _ in 0..rra_count {
        need(1 + 8 * 7, input)?;
        let cf = ConsolidationFn::from_u8(input.get_u8()).ok_or_else(|| bad("bad cf"))?;
        let xff = input.get_f64();
        let pdp_per_row = input.get_u64() as usize;
        let rows = input.get_u64() as usize;
        if pdp_per_row == 0 || pdp_per_row > 1 << 20 || rows == 0 || rows > 1 << 24 {
            return Err(bad("implausible archive dimensions"));
        }
        let def = RraDef {
            cf,
            xff,
            pdp_per_row,
            rows,
        };
        archive_defs.push(def);
        let steps_in_cdp = input.get_u64() as usize;
        let next = input.get_u64() as usize;
        let written = input.get_u64() as usize;
        let last_row_time = input.get_u64();
        // `steps_in_cdp == pdp_per_row` is unreachable at rest (the row
        // would have been finalized) and would hang the feed loop.
        if next >= rows || written > rows || steps_in_cdp >= pdp_per_row {
            return Err(bad("inconsistent archive cursor"));
        }
        // Until the ring first wraps, the write cursor tracks the row
        // count exactly.
        if written < rows && next != written {
            return Err(bad("inconsistent archive cursor"));
        }
        // Rows complete at pdp-aligned boundaries no later than the
        // database clock, and the first one no earlier than one full
        // row of steps — so `last_row_time >= written * row_secs` and
        // `<= last_update` hold for every engine-written file. Both are
        // load-bearing: they keep `earliest_row_time`'s subtraction
        // in range even after further (possibly early-finalizing)
        // updates on the decoded state.
        let row_secs = step * pdp_per_row as u64; // bounded: 2^32 * 2^20
        if last_row_time > last_update || (written > 0 && last_row_time < written as u64 * row_secs)
        {
            return Err(bad("inconsistent archive row time"));
        }
        need(12 + rows * 8, input)?;
        let cdp_agg = input.get_f64();
        let cdp_known = input.get_u32();
        // Known PDPs accumulate within the row in progress only.
        if cdp_known as usize > steps_in_cdp {
            return Err(bad("cdp accumulator exceeds row progress"));
        }
        let mut data = Vec::with_capacity(rows);
        for _ in 0..rows {
            data.push(input.get_f64());
        }
        archives.push(Archive {
            def,
            cdp_agg,
            cdp_known,
            steps_in_cdp,
            data,
            next,
            written,
            last_row_time,
        });
    }
    let spec = RrdSpec {
        step,
        start,
        data_source,
        archives: archive_defs,
    };
    spec.validate()?;
    Ok(Rrd {
        spec,
        last_update,
        last_raw,
        pdp_sum,
        pdp_known,
        archives,
        update_count,
    })
}

/// Write a database to a file, atomically and durably: write-temp →
/// fsync(file) → rename → fsync(dir). A crash at any instant leaves
/// either the old complete file or the new complete file — never a torn
/// mixture — and a completed rename survives power loss.
pub fn save(rrd: &Rrd, path: &Path) -> Result<(), RrdError> {
    write_atomic(path, &encode(rrd))
}

/// Atomic, durable file replacement (the checkpoint write primitive).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), RrdError> {
    use std::io::Write;
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => {
            std::fs::create_dir_all(parent)?;
            Some(parent)
        }
        other => other,
    };
    // Temp name carries the pid so two processes sharing an archive
    // root never collide on the scratch file.
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    let tmp = path.with_file_name(format!(".{file_name}.{}.tmp", std::process::id()));
    let result = (|| -> Result<(), RrdError> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        if let Some(parent) = parent {
            // The rename is only durable once the directory entry is.
            std::fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Load a database from a file.
pub fn load(path: &Path) -> Result<Rrd, RrdError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(input: &mut &[u8]) -> Result<String, RrdError> {
    if input.remaining() < 4 {
        return Err(RrdError::BadFile("truncated string length".to_string()));
    }
    let len = input.get_u32() as usize;
    if len > 1 << 16 || input.remaining() < len {
        return Err(RrdError::BadFile("truncated string".to_string()));
    }
    let s = String::from_utf8(input[..len].to_vec())
        .map_err(|_| RrdError::BadFile("non-utf8 string".to_string()))?;
    input.advance(len);
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrd::Series;
    use crate::spec::ganglia_default_spec;

    fn populated_rrd() -> Rrd {
        let mut rrd = Rrd::create(ganglia_default_spec("load_one", 0)).unwrap();
        for i in 1..=500u64 {
            rrd.update(i * 15, (i % 17) as f64).unwrap();
        }
        rrd
    }

    #[test]
    fn encode_decode_roundtrips_everything() {
        let rrd = populated_rrd();
        let bytes = encode(&rrd);
        let back = decode(&bytes).unwrap();
        // NAN min/max bounds make whole-spec equality vacuous; compare
        // the non-float structure directly.
        assert_eq!(back.spec().step, rrd.spec().step);
        assert_eq!(back.spec().start, rrd.spec().start);
        assert_eq!(back.spec().archives, rrd.spec().archives);
        assert_eq!(back.spec().data_source.name, rrd.spec().data_source.name);
        assert!(back.spec().data_source.min.is_nan());
        assert_eq!(back.last_update(), rrd.last_update());
        assert_eq!(back.update_count(), rrd.update_count());
        // Fetches agree exactly.
        let a = rrd.fetch(ConsolidationFn::Average, 0, 7500).unwrap();
        let b = back.fetch(ConsolidationFn::Average, 0, 7500).unwrap();
        assert_eq!(a.start, b.start);
        assert_eq!(a.step, b.step);
        for (x, y) in a.values.iter().zip(&b.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn decode_continues_updating() {
        let rrd = populated_rrd();
        let mut back = decode(&encode(&rrd)).unwrap();
        back.update(501 * 15, 3.0).unwrap();
        assert_eq!(back.update_count(), 501);
    }

    #[test]
    fn constant_size_on_disk() {
        let fresh = Rrd::create(ganglia_default_spec("m", 0)).unwrap();
        let grown = populated_rrd();
        // Same spec => same encoded size regardless of update history
        // (names differ by one byte here, so compare against same name).
        let mut fresh_same = Rrd::create(ganglia_default_spec("load_one", 0)).unwrap();
        fresh_same.update(15, 1.0).unwrap();
        assert_eq!(encode(&fresh_same).len(), encode(&grown).len());
        assert!(encode(&fresh).len() < encode(&grown).len() + 16);
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(b"not an rrd").is_err());
        assert!(decode(b"GRRD0001").is_err());
        let mut bytes = encode(&populated_rrd());
        bytes.truncate(bytes.len() / 2);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let dir = std::env::temp_dir().join(format!("ganglia-rrd-test-{}", std::process::id()));
        let path = dir.join("cluster").join("host").join("load_one.rrd");
        let rrd = populated_rrd();
        save(&rrd, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.last_update(), rrd.last_update());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `golden_rrd()` encoded by the engine before databases were fixed
    /// at one data source. The on-disk format must not move.
    const GOLDEN_RRD: &str = concat!(
        "4752524430303031000000000000000a000000000000000000000000000000cb",
        "000000000000001400000001000000086c6f61645f6f6e650000000000000000",
        "287ff80000000000007ff80000000000004004000000000000401e0000000000",
        "00000000000000000300000002003fe000000000000000000000000000010000",
        "0000000000080000000000000000000000000000000400000000000000080000",
        "0000000000c87ff8000000000000000000004015000000000000401600000000",
        "0000401700000000000040040000000000004011000000000000401200000000",
        "00007ff80000000000004014000000000000023fe00000000000000000000000",
        "0000040000000000000008000000000000000000000000000000050000000000",
        "00000500000000000000c87ff800000000000000000000400000000000000040",
        "080000000000004010000000000000401400000000000040170000000000007f",
        "f80000000000007ff80000000000007ff8000000000000",
    );

    fn golden_rrd() -> Rrd {
        let spec = RrdSpec {
            step: 10,
            start: 0,
            data_source: DataSourceDef::gauge("load_one", 40),
            archives: vec![
                RraDef::average(1, 8),
                RraDef {
                    cf: ConsolidationFn::Max,
                    xff: 0.5,
                    pdp_per_row: 4,
                    rows: 8,
                },
            ],
        };
        let mut rrd = Rrd::create(spec).unwrap();
        for i in 1..=19u64 {
            let value = if i == 15 {
                f64::NAN
            } else {
                i as f64 * 0.25 + 1.0
            };
            rrd.update(i * 10, value).unwrap();
        }
        rrd.update(203, 2.5).unwrap(); // leaves a step and a row in progress
        rrd
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(text: &str) -> Vec<u8> {
        (0..text.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
            .collect()
    }

    fn bits(series: &Series) -> (u64, u64, Vec<u64>) {
        let values = series.values.iter().map(|v| v.to_bits()).collect();
        (series.start, series.step, values)
    }

    #[test]
    fn golden_file_bytes_and_fetches_are_stable() {
        let rrd = golden_rrd();
        assert_eq!(hex(&encode(&rrd)), GOLDEN_RRD);
        let back = decode(&unhex(GOLDEN_RRD)).unwrap();
        let nan = f64::NAN.to_bits();
        let mut average = vec![nan; 12];
        average.extend([4.25, 4.5, f64::NAN, 5.0, 5.25, 5.5, 5.75, 2.5].map(f64::to_bits));
        let max = [2.0, 3.0, 4.0, 5.0, 5.75].map(f64::to_bits).to_vec();
        for (cf, start, step, values) in [
            (ConsolidationFn::Average, 10, 10, average),
            (ConsolidationFn::Max, 40, 40, max),
        ] {
            let want = (start, step, values);
            assert_eq!(bits(&rrd.fetch(cf, 0, 203).unwrap()), want, "{cf:?}");
            assert_eq!(bits(&back.fetch(cf, 0, 203).unwrap()), want, "{cf:?}");
        }
        assert_eq!(encode(&back), encode(&rrd));
    }

    #[test]
    fn data_source_count_other_than_one_is_rejected() {
        let mut bytes = encode(&golden_rrd());
        // magic + step/start/last_update/update_count, then the count.
        let at = MAGIC.len() + 4 * 8;
        assert_eq!(bytes[at..at + 4], 1u32.to_be_bytes());
        for count in [0u32, 2] {
            bytes[at..at + 4].copy_from_slice(&count.to_be_bytes());
            assert!(matches!(decode(&bytes), Err(RrdError::BadFile(_))));
        }
    }

    #[test]
    fn load_missing_file_is_io_error() {
        assert!(matches!(
            load(Path::new("/nonexistent/definitely/missing.rrd")),
            Err(RrdError::Io(_))
        ));
    }
}
