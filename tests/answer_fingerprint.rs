//! Answer pin: every bit of every answer on a fixed query list, hashed
//! and held against constants recorded at a known commit.
//!
//! The differential harnesses compare two paths of *one* build; this
//! test compares a build with an earlier one. A change that keeps
//! answers bit-identical (a hoist, a cheaper merge, a cheaper probe)
//! must pass it unedited; a change that *means* to move answers
//! re-records the constants and says so (see the verify skill).
//!
//! One database — a 20 000-row Conviva table plus 240 edge rows (NULL
//! and negative group keys) under the benchmark's sample configuration —
//! answers 163 queries at fan-out widths 1, 7 and 100 with tracing on.
//! Queries run in list order on one instance, so the jitter-seed stream
//! is part of what is pinned: a change in the number or order of
//! `next_run_seed` draws moves every later `elapsed_s`.

use blinkdb_common::rng::seeded;
use blinkdb_common::value::Value;
use blinkdb_core::{ApproxAnswer, BlinkDb, BlinkDbConfig, ExecPolicy};
use blinkdb_telemetry::{AttrValue, TraceSpan};
use blinkdb_workload::conviva::conviva_dataset;
use blinkdb_workload::queries::{instantiate, BoundSpec};
use std::fmt::Write as _;

/// Fan-out widths every query runs at.
const WIDTHS: [usize; 3] = [1, 7, 100];

/// `crates/bench` `bench_config()` — what `blinkbench` runs the mix
/// workloads under.
fn mix_config() -> BlinkDbConfig {
    let mut cfg = BlinkDbConfig::default();
    cfg.stratified.cap = 150.0;
    cfg.stratified.shrink = 2.0;
    cfg.stratified.resolutions = 6;
    cfg.uniform.cap = 0.2;
    cfg.uniform.resolutions = 8;
    cfg.optimizer.cap = 150.0;
    cfg.seed = 2013;
    cfg
}

/// 240 rows the generator never produces: NULL `dt`, negative and NULL
/// `jointimems`, NULL `endedflag`, a NULL `country`.
fn edge_rows() -> Vec<Vec<Value>> {
    (0..240i64)
        .map(|i| {
            let dt = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(1 + i % 30)
            };
            let join = match i % 4 {
                0 => Value::Null,
                1 => Value::Int(-100 * (1 + i % 7)),
                _ => Value::Int(100 * (1 + i % 9)),
            };
            let ended = match i % 5 {
                0 => Value::Null,
                k => Value::Bool(k % 2 == 0),
            };
            let country = if i % 8 == 0 {
                Value::Null
            } else {
                Value::str(format!("ctry{}", 1 + i % 6))
            };
            vec![
                dt,
                Value::str(format!("cust{}", 1 + i % 11)),
                Value::str(format!("city{}", 1 + i % 13)),
                country,
                Value::str(format!("dma{}", 1 + i % 17)),
                Value::str(format!("asn{}", 1 + i % 19)),
                Value::str(format!("os{}", 1 + i % 6)),
                Value::str(format!("br{}", 1 + i % 8)),
                Value::str(format!("genre{}", 1 + i % 20)),
                Value::str(format!("obj{}", 1 + i % 23)),
                join,
                Value::Float(1_000.0 * (1 + i % 97) as f64),
                Value::Float(10.0 * (i % 53) as f64),
                Value::Int(150 * (1 + i % 40)),
                ended,
            ]
        })
        .collect()
}

fn build_db() -> BlinkDb {
    let mut dataset = conviva_dataset(20_000, 2013);
    dataset
        .table
        .append_rows(&edge_rows())
        .expect("edge rows match the schema");
    let mut db = BlinkDb::new(dataset.table, mix_config());
    db.create_samples(&dataset.templates, 0.5)
        .expect("sample creation");
    db
}

/// The pinned query list.
fn queries(db: &BlinkDb) -> Vec<String> {
    let mut out = Vec::new();

    // The 42-template mix, two passes, bounds rotating as in
    // `adhoc_direct` (2 s, 8 s, 5 %, 1 %, none).
    let bounds = [
        BoundSpec::Time { seconds: 2.0 },
        BoundSpec::Time { seconds: 8.0 },
        BoundSpec::Error {
            pct: 5.0,
            conf: 95.0,
        },
        BoundSpec::Error {
            pct: 1.0,
            conf: 95.0,
        },
        BoundSpec::None,
    ];
    let templates = blinkdb_workload::conviva::conviva_templates();
    let mut rng = seeded(0xF1A6);
    for pass in 0..2 {
        for (i, t) in templates.iter().enumerate() {
            let bound = bounds[(i + 2 * pass) % bounds.len()];
            out.push(instantiate(db.fact(), &t.columns, "sessiontimems", bound, &mut rng).sql);
        }
    }

    // The six `heavy_scan` shapes, unbounded and `ERROR WITHIN 0.5%`.
    for body in [
        "SELECT COUNT(*) FROM sessions WHERE sessiontimems < 60000 AND endedflag = true",
        "SELECT SUM(bufferingms), STDDEV(sessiontimems) FROM sessions \
         WHERE dt BETWEEN 2 AND 28 AND genre != 'genre7'",
        "SELECT dma, COUNT(*), AVG(sessiontimems) FROM sessions \
         WHERE bitratekbps >= 1500 GROUP BY dma",
        "SELECT MEDIAN(sessiontimems), RATIO(bufferingms, sessiontimems) \
         FROM sessions WHERE country = 'ctry2'",
        "SELECT os, COUNT(*), AVG(bufferingms) FROM sessions WHERE dt >= 5 GROUP BY os",
        "SELECT dt, STDDEV(sessiontimems) FROM sessions WHERE bitratekbps <= 4500 GROUP BY dt",
    ] {
        out.push(body.to_string());
        out.push(format!("{body} ERROR WITHIN 0.5%"));
    }

    // GROUP BY an Int column: a narrow domain with NULLs (`dt`), wide
    // domains with negatives and NULLs (`jointimems`, `bitratekbps`).
    for (body, tail) in [
        ("SELECT dt, COUNT(*), AVG(sessiontimems) FROM sessions", "GROUP BY dt"),
        ("SELECT dt, SUM(bufferingms) FROM sessions WHERE os = 'os3'", "GROUP BY dt"),
        ("SELECT dt, COUNT(*) FROM sessions WHERE country = 'ctry1'", "GROUP BY dt"),
        ("SELECT dt, RATIO(bufferingms, sessiontimems) FROM sessions", "GROUP BY dt"),
        ("SELECT jointimems, COUNT(*), AVG(sessiontimems) FROM sessions", "GROUP BY jointimems"),
        (
            "SELECT jointimems, COUNT(*) FROM sessions WHERE jointimems < 900",
            "GROUP BY jointimems",
        ),
        (
            "SELECT jointimems, STDDEV(bufferingms) FROM sessions WHERE dt = 4",
            "GROUP BY jointimems",
        ),
        ("SELECT bitratekbps, SUM(sessiontimems) FROM sessions", "GROUP BY bitratekbps"),
        (
            "SELECT bitratekbps, COUNT(*), MEDIAN(bufferingms) FROM sessions WHERE genre = 'genre3'",
            "GROUP BY bitratekbps",
        ),
    ] {
        out.push(format!("{body} {tail}"));
        out.push(format!("{body} {tail} ERROR WITHIN 5%"));
        out.push(format!("{body} {tail} WITHIN 8 SECONDS"));
    }

    // GROUP BY a Bool column (with NULLs) and two columns.
    for body in [
        "SELECT endedflag, COUNT(*), AVG(sessiontimems) FROM sessions GROUP BY endedflag",
        "SELECT endedflag, SUM(bufferingms) FROM sessions WHERE country = 'ctry3' GROUP BY endedflag",
        "SELECT endedflag, STDDEV(sessiontimems) FROM sessions WHERE dt <= 10 GROUP BY endedflag",
        "SELECT dt, country, COUNT(*) FROM sessions WHERE os = 'os2' GROUP BY dt, country",
        "SELECT os, endedflag, COUNT(*), AVG(sessiontimems) FROM sessions GROUP BY os, endedflag",
        "SELECT country, endedflag, RATIO(bufferingms, sessiontimems) FROM sessions \
         WHERE dt > 20 GROUP BY country, endedflag",
    ] {
        out.push(body.to_string());
        out.push(format!("{body} ERROR WITHIN 2%"));
    }

    // String IN / BETWEEN / != predicates.
    for body in [
        "SELECT COUNT(*), AVG(sessiontimems) FROM sessions WHERE country IN ('ctry1', 'ctry4', 'ctry9')",
        "SELECT COUNT(*) FROM sessions WHERE objectid NOT IN ('obj1', 'obj2', NULL)",
        "SELECT genre, COUNT(*) FROM sessions WHERE city IN ('city1', 'city2', 'nowhere') GROUP BY genre",
        "SELECT SUM(bufferingms) FROM sessions WHERE asn BETWEEN 'asn1' AND 'asn3'",
        "SELECT os, AVG(sessiontimems) FROM sessions WHERE dma NOT BETWEEN 'dma1' AND 'dma5' GROUP BY os",
        "SELECT COUNT(*), STDDEV(sessiontimems) FROM sessions WHERE customer != 'cust1'",
        "SELECT browser, COUNT(*) FROM sessions WHERE genre != 'genre1' AND os != 'os1' GROUP BY browser",
    ] {
        out.push(body.to_string());
        out.push(format!("{body} WITHIN 5 SECONDS"));
    }

    // Disjunctive WHERE: the mergeable union path and the plain one.
    for body in [
        "SELECT COUNT(*), SUM(sessiontimems) FROM sessions WHERE country = 'ctry1' OR os = 'os4'",
        "SELECT dt, COUNT(*) FROM sessions WHERE dma = 'dma2' OR genre = 'genre5' GROUP BY dt",
        "SELECT AVG(sessiontimems) FROM sessions WHERE city = 'city1' OR dt = 3",
    ] {
        out.push(body.to_string());
        out.push(format!("{body} ERROR WITHIN 10%"));
    }

    // Bootstrapped aggregates filtered on columns no family covers, so
    // every family is probed, under time bounds tight enough that the
    // chosen family's ELP probe is itself the answer (§4.4): the bits of
    // that probe's error bars are pinned, not just what it selected.
    for body in [
        "SELECT STDDEV(sessiontimems) FROM sessions WHERE os = 'os2'",
        "SELECT RATIO(bufferingms, sessiontimems), COUNT(*) FROM sessions WHERE genre = 'genre4'",
        "SELECT browser, STDDEV(bufferingms) FROM sessions WHERE country = 'ctry1' GROUP BY browser",
        "SELECT os, RATIO(bufferingms, sessiontimems) FROM sessions WHERE genre != 'genre9' GROUP BY os",
    ] {
        out.push(format!("{body} WITHIN 1 SECONDS"));
        out.push(format!("{body} WITHIN 2 SECONDS"));
    }
    out
}

/// FNV-1a: a hash whose value no toolchain upgrade can move.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn render_span(span: &TraceSpan, depth: usize, out: &mut String) {
    let _ = write!(
        out,
        "{depth}:{}:{}:{:016x}",
        span.kind.as_str(),
        span.label,
        span.sim_cost_s.to_bits()
    );
    for (key, value) in &span.attrs {
        let _ = match value {
            AttrValue::F64(v) => write!(out, " {key}={:016x}", v.to_bits()),
            other => write!(out, " {key}={other}"),
        };
    }
    out.push('\n');
    for child in &span.children {
        render_span(child, depth + 1, out);
    }
}

/// Every field of an answer, floats by bit pattern, in a fixed order.
fn render(a: &ApproxAnswer) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "elapsed={:016x} probe={:016x} predicted={:016x} family={} cap={:016x} rows_read={} \
         fraction={:016x} partitions={}/{} method={:?} qcs={:?}",
        a.elapsed_s.to_bits(),
        a.probe_s.to_bits(),
        a.predicted_s.to_bits(),
        a.family,
        a.resolution_cap.to_bits(),
        a.rows_read,
        a.sample_fraction.to_bits(),
        a.partitions_scanned,
        a.partitions_total,
        a.method,
        a.qcs.iter().collect::<Vec<_>>(),
    );
    let q = &a.answer;
    let _ = writeln!(
        out,
        "groups={:?} aggs={:?} scanned={} matched={} confidence={:016x}",
        q.group_columns,
        q.agg_labels,
        q.rows_scanned,
        q.rows_matched,
        q.confidence.to_bits()
    );
    for row in &q.rows {
        let _ = write!(out, "{:?}", row.group);
        for agg in &row.aggs {
            let _ = write!(
                out,
                " | e={:016x} v={:016x} n={} exact={} {:?}",
                agg.estimate.to_bits(),
                agg.variance.to_bits(),
                agg.rows_used,
                agg.exact,
                agg.method
            );
        }
        out.push('\n');
    }
    match &a.trace {
        Some(trace) => render_span(&trace.root, 0, &mut out),
        None => out.push_str("untraced\n"),
    }
    out
}

#[test]
fn answers_match_the_recorded_fingerprints() {
    let db = build_db();
    let list = queries(&db);
    let mut got: Vec<[u64; 3]> = Vec::with_capacity(list.len());
    for sql in &list {
        let parsed = blinkdb_sql::parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let mut row = [0u64; 3];
        for (slot, &partitions) in row.iter_mut().zip(&WIDTHS) {
            let policy = ExecPolicy {
                partitions,
                trace: true,
                ..ExecPolicy::default()
            };
            let (answer, _) = db
                .query_parsed_with(&parsed, None, Some(policy))
                .unwrap_or_else(|e| panic!("{sql} at K={partitions}: {e}"));
            *slot = fnv1a(&render(&answer));
        }
        got.push(row);
    }

    let mut mismatches = Vec::new();
    for (i, (sql, row)) in list.iter().zip(&got).enumerate() {
        for (k, (&new, &partitions)) in row.iter().zip(&WIDTHS).enumerate() {
            if EXPECTED.get(i).map(|want| want[k]) != Some(new) {
                mismatches.push(format!("query {i} K={partitions} -> {new:#018x}: {sql}"));
            }
        }
    }
    if !mismatches.is_empty() || EXPECTED.len() != got.len() {
        let mut table = String::new();
        for row in &got {
            let _ = writeln!(
                table,
                "    [{:#018x}, {:#018x}, {:#018x}],",
                row[0], row[1], row[2]
            );
        }
        panic!(
            "{} of {} answers differ from the recorded fingerprints ({} recorded):\n{}\n\
             full table as computed by this build:\n{table}",
            mismatches.len(),
            got.len() * WIDTHS.len(),
            EXPECTED.len(),
            mismatches.join("\n"),
        );
    }
}

/// One row per query of [`queries`], one hash per width of [`WIDTHS`].
/// The K = 1 column was recorded at commit `c394ae8`; the K = 7 and
/// K = 100 columns were re-recorded on top of `98d59d8`, when partitions
/// became contiguous blocks of the shuffle order: estimates and variances
/// moved in their low bits (a new summation order) and per-partition
/// trace counts moved; group keys, row counts and `elapsed_s` did not.
#[rustfmt::skip]
const EXPECTED: &[[u64; 3]] = &[
    [0x14125f6e8e2502f5, 0x2b782b817433171b, 0x7cd187dc4659f67a],
    [0xe13f487b12ef8c40, 0xc3c1c3e75391a0c9, 0x080641902e7e5a25],
    [0x4d3361a79e0d0d58, 0xc30019223e4b59da, 0x688b2954860c314d],
    [0x8d5be152eea340fb, 0xa9fbf3f39c6b4eba, 0xdb2e4e64241e1c77],
    [0xe1293598b59e1747, 0x8a6588352e62c87a, 0xb95b7a88edbc5802],
    [0x1094e40d6e4ef598, 0xe74c61d698955d99, 0xbd8a415e59b594c7],
    [0x9b66ba3f75f38ccc, 0xd49df8e0f460b4b0, 0x1419c8ae68d98db0],
    [0x1b0e9c534c374c8f, 0xd11ee09372e1bc71, 0x9d33515b2068ba1a],
    [0x06b3b2c222045661, 0xd4010723bdd5bd6d, 0x6668c003b3bc10ab],
    [0xc0e95e325f6a4eec, 0x5c0cc220ebce91ae, 0x18f12fb8599dbedc],
    [0x96d79b8cf19fcbd8, 0x05c307a9f076b6c0, 0xf98d1e8388c948c3],
    [0xd81e9951617572bc, 0xcd2cdcf6fce53638, 0xc20ddb9e188c6f47],
    [0x44eef68e2257fbf4, 0x4c1e80c01e930547, 0x8cf756f8166f1c87],
    [0xdb77ba50e6d986ac, 0x4dc06102b871e94e, 0x0ac29abda2926698],
    [0x96aee076a0a6434e, 0x74f93ceec6ce890c, 0x136fcdc946f8c7c8],
    [0x813a02fb6fa1bda0, 0xed6b82b85ba59483, 0x3a920685f9f10d3f],
    [0x94e470506f2db28f, 0xe615fb2c0577cac3, 0x338f23afd671b436],
    [0x65c1712368374959, 0x637f87481d96e661, 0xf0a2f4d035283ed8],
    [0xb3207bf161cfad02, 0x26a531bf5be59ba2, 0xd265496da0386948],
    [0xdc06f329a11a572d, 0xfe46082096b67037, 0x5317a1a0cdc522b1],
    [0xfc27f1aefb319baf, 0xce24eed8899079b9, 0x5ea130ca291c84e6],
    [0x183b899fdf95e342, 0x255b55cf246eb083, 0x67488323f892063d],
    [0x552484f48fd3b941, 0x8be288abb92787ec, 0xde1c1e2ac7de31f1],
    [0x377ad8e87885631a, 0x4336ed2364a39d63, 0xdc0f61e591b7c617],
    [0x96f685fa14aac4cb, 0x6dc7d83d509ea336, 0x8085b16960423383],
    [0x053e44c529c21b67, 0x3c7be1ce3642e8d1, 0x832600736c30a5a1],
    [0x6cb66c3f493dfb2c, 0x4561d0eb81b0dd0d, 0xdd00117f8c893e00],
    [0xa96dbaa27c01117e, 0x1aa2d1ea74bb458e, 0x06c0f4fd562a225e],
    [0x93ed1a5dfd0fc0e2, 0xebf24e99f31b184c, 0xeb78d17f1929d948],
    [0xc05847e7c347ec6e, 0xcc74fd0e8564f246, 0x71b8b0427005e7b4],
    [0xf1a3a5499839ed14, 0xdde9cc5440608c32, 0x50f686aff0f3ff62],
    [0xd1749f72b7aced35, 0x93880d9bd6eb6ef2, 0x02d7193c2a7e5c47],
    [0x99247f79695cfe1a, 0x9b3d92099cb691af, 0xd978e44450819ea9],
    [0xf388b09b0e338c38, 0x9d573b99d71c5b38, 0x602c940b5493259e],
    [0xcfd315d8dbe01afd, 0x665965f8768cf3b1, 0xa345ab6c9c2b93fe],
    [0x09e3d282acf80813, 0x7dbdef0afa03fb50, 0x3c4f3f277dd74103],
    [0x7fcc8d0b86036d2d, 0x977c535fd8ec8b8e, 0x0f955b7c6e998588],
    [0x55b80c4bcffc116b, 0xc8b8f3eb3f7f2f77, 0x7108e08d72095687],
    [0xc5194b5f0d910f04, 0x9d175723922605cd, 0xdd2381dc047cc537],
    [0x708cb24162a7efb9, 0xe6877ef269063dcb, 0x111faf22e81a99dc],
    [0xadbbcd24ac69e3be, 0x1ccba092bbb7070a, 0x95b98ea4cb352d8b],
    [0x4ee950d5873a3709, 0xced6ce0ea202bb85, 0x58e9623a1d526b96],
    [0x0f45d36afab93605, 0x1047c0486011d1af, 0x96b895c829f5d36b],
    [0xb7fc2a7d0b47f428, 0x7c1e9701601d03ea, 0xe1f3da0d37ea959e],
    [0x7dc602d4f0fc7189, 0xffb4610691372e98, 0xe0760b98c04e6337],
    [0x5a2f07dc4f8aae81, 0xf8a9b37124b1f7fb, 0xa7a2e2d54485007b],
    [0x12e777b892ab0a56, 0x614991cd032dd1ee, 0x11ce04d59cd86194],
    [0x4c3dcf511452e77d, 0xbfed1092c186d3cc, 0x592ffeb9beead4b4],
    [0xaa5c4edbfdfdbb4d, 0xd6ad3e0b201a8922, 0xa6ccb5ef7b1290c0],
    [0x87c159e033d68fdb, 0xed190d643d4ee1b3, 0xa2a0906880ed1515],
    [0xa267c19a14f2a4ca, 0x8148830ca72cdb2c, 0xafda18332becadfa],
    [0x351812898c895cc7, 0x8a60f823b75193db, 0x493ab9e249ad613b],
    [0x87bd689824ba4db5, 0xb833f10673ed826b, 0x5d128ef456177e3e],
    [0x07975727b11cc26d, 0x677612c2880b31dd, 0x18211c6b334a1a49],
    [0x84c8442e25190304, 0x60083c33bc0d8638, 0x04682858670f2df7],
    [0x2cc7fc51e84ddd2b, 0xcbe1583cd7eb12fe, 0x4720141081baa058],
    [0xa77c629d962f38d2, 0xb8d7f51126047eee, 0xe7618e0b742d4c7d],
    [0x0c5a1ac00e625c98, 0x3d5f7dbe8f4e74f4, 0xd482695f92685e66],
    [0x24f573e7740185cb, 0x9ba0344b1b0e647d, 0xaf3b4ce123ec4df4],
    [0x7ecbf076625e7446, 0xe4851c0b2b990153, 0xda090042714cab3e],
    [0x70fd66641b14dbb9, 0x098f7d6ac39722cf, 0xa0ddd4b619253b41],
    [0x4983e620169bf0aa, 0x22bd569133db95f7, 0x0641145a44598b71],
    [0x42e9808a315869b6, 0xb140cf7ab359457d, 0xf1167ca8d05f388b],
    [0x00664a5320ddc5df, 0xebc65213d315ea54, 0x40993f3ae6c539cb],
    [0x3e095dc31b58454f, 0x1bad758d0c275a70, 0xf96c3520211d6f30],
    [0x655665d1f11f8352, 0x17b6c2ba23ab410a, 0xbf574fae18c57f48],
    [0x2886ded5d1bc8092, 0x849f112025dd7e32, 0x309f76cbb69a8666],
    [0xe8c69690d3e97634, 0xa9a57a06d1cb2058, 0x2a26112c82882242],
    [0x100eb12831ceddb1, 0xa2fd7d498e49087b, 0x5544f2fc1cf01e55],
    [0x2dbc7e2c2c9addb8, 0xb9052d4c13ba0bb3, 0xcbd0884cef5c33cc],
    [0x8ec5e318cd2dcc10, 0x66453cc0b0dcaa44, 0x0924442c29166ea9],
    [0x114ae997f1799c58, 0xc41c18c0472a1614, 0x5e204d15534ac6f6],
    [0x7bc1246b6e1f7169, 0x576b08ec0796db0a, 0x7f0039d84a1698b8],
    [0x7d401ae17d1f21f0, 0xc1f063b79e7bba93, 0xf2c701de0a037198],
    [0x8bf5ba5a7a29cee3, 0x337219765c44c75d, 0xa92546f3b860accd],
    [0xc369c6353ec899d0, 0x893a88acd91230d2, 0xf45b3ca1a0656d1d],
    [0x7fe70b3c9b908b6b, 0xa75ff3e539c69c8d, 0x8dc30993cb1e1e93],
    [0xacb43884e82edb3e, 0x69943e13f02b2ade, 0xf2dbc1c98b71a0ff],
    [0x720a8850cc07cff6, 0x327f262d8a883c88, 0x90b9c2fd4493be14],
    [0xc5156290235b2292, 0xb7eda7dcd9fe782d, 0x7d60fac8680a2cc6],
    [0x6849a03eb21e2e4e, 0x830257b0588babbc, 0xf15ba667e95947ba],
    [0xd82549282b89e242, 0xf234ae673df27d89, 0x2b2ff28eb2768bfc],
    [0x676fecd797364c8d, 0xe959fc819491adb2, 0x2f9d75358170e233],
    [0xc1e259ad81877e93, 0x25cf637a32a8732a, 0x0e38b68eb1e6cf65],
    [0x9023a08c370adafe, 0x076886dbbdbb7636, 0x1c1073a0011434b7],
    [0x0de938a68189dd21, 0xafa353392777e186, 0x3e1877341878cc15],
    [0x98b105e7ca544a61, 0x44d0d70e745006f1, 0x12151ee5ea2ad9de],
    [0x01e1ab09f3f16a34, 0xc2d8d0c3971d6c84, 0xc3da910a222f1b3b],
    [0xa97dcab5fddc1140, 0x8355cf4b789e6b31, 0x44983fab609b0360],
    [0x9f7fd9270ed7bd35, 0x51679d1d3826cbcd, 0x2632f6300613d271],
    [0xaa6a55447f3120a0, 0xb90b8d0edbe48faf, 0xf31379b0c0441337],
    [0x6caa89ebeaa19399, 0x393c07c8ba176c53, 0x2863b842e3f22626],
    [0x3d0525b98d8067aa, 0xdbed848b3b76b83f, 0xdef661f39b99e1e8],
    [0xb25312c5890ec573, 0x620928f010283d06, 0xfcaa31cb5a8e3638],
    [0x6448e2602ebcec00, 0x6987285d4158eea2, 0xd1d74039e53d3bd4],
    [0xf81bc08d480c82d3, 0xcc34ecd80180baed, 0x3f36ea7a4e2f526f],
    [0x42036a48fc7a4097, 0x78d09ad37ef5487b, 0xf7bb9bc7bb8b4fed],
    [0x0b7e4dc00659591b, 0x842c332ec040ebde, 0xbf1b85ae54ea3513],
    [0x412626f12dd064f9, 0x165cc194c709ce9b, 0x284cf5ff7df5a5d8],
    [0xaf55e5b25ba63d81, 0x354cecec2241a9de, 0xe9a1aa9682dfaecd],
    [0xf9035b9e00da847c, 0xf72e92910d7b49db, 0x2f7373792774ebed],
    [0x776f389b5e43792d, 0x80e921ff8b8d1992, 0x768c07875973c364],
    [0x40fdbe7759e69145, 0x56981de024fbcaa0, 0xf8f7ac44a8efdda2],
    [0xd44469755e5477ad, 0x8cb07ab6b78ebbda, 0x4643e50afd4e020d],
    [0x2bbcb01a39cb3df4, 0xcbea6da7be83b005, 0x645417a7ebff52d7],
    [0x0110b10e49d6f525, 0x5b175404d81d8a56, 0x439637e00656eab2],
    [0x51f21c5a580fa8b0, 0xd68cab01504f8f67, 0x8a5cbfae69336080],
    [0x57ed01f2a3827a83, 0x5dd8dec75d152d35, 0x079271da71c81d79],
    [0xaa30efa6ab83b35b, 0x33e4fcceeb103abf, 0xe92d0189bba605c1],
    [0x15f96f5934fe51aa, 0x921678d0a6e4c397, 0xaf70bb0e134e9288],
    [0xb12f4e4f5015932f, 0x8372db1efd9ef1f6, 0x0b6ed9fa6424705d],
    [0xa3ce7be696b03d46, 0x9848b10af99a852e, 0x258fbe63bed18ded],
    [0x9d2da22087b087fb, 0x97d0cac99f5d0c41, 0xda9d596fa8fc92d8],
    [0x5324e11256e7afd5, 0xe39f3737033f5ea1, 0xf7e7791686cb1072],
    [0x13a7e9d59d3e8b1d, 0x641e543b967a5a5d, 0xdb56656e8bde4f8f],
    [0xb7740eca11c7edb1, 0x13b7e3ee140fa128, 0x4dc315696199cba0],
    [0x982a22f2d15746ae, 0x2bd7732defb184a2, 0xc394dc120a35137a],
    [0x18ccac26a24ac27f, 0xc0c23cd288c33191, 0x609e485c3be7d9e2],
    [0x538b863a44c670a6, 0x0cacafea7ffc0f84, 0x8ce4248bccb686a4],
    [0xd0d11ee4fed68443, 0xff311256c44b368d, 0xe505a34cff0ed659],
    [0x9487afab6a487235, 0x004e299f47b3fdb6, 0xb1db76a874ba6e3f],
    [0x6194311f3318b7ec, 0xc0c7a239276a531e, 0x11e4f677e9347ed0],
    [0x9827d1f439115131, 0xb22b73687c8ca60c, 0x9e7d7f81da572ff7],
    [0x713504e0da7629b5, 0xab403a6814771e8f, 0x9074d767682d2322],
    [0x03d844693550b076, 0x5feadd74934c5b12, 0x22bec86f9abdd4ad],
    [0xed4a0ced69552d1e, 0xe8614c2e0516c207, 0x08105db2501c1a0e],
    [0x6bd25558c1d4b8cf, 0x6c88a2ee214e3633, 0x43a8cd1ac4f5c72f],
    [0xfac0faf083b98fe3, 0xf5ebe1a8c32a05c5, 0x2de72aaaf8e8c110],
    [0x80d9785d18ab2416, 0x59baf9635fe2d4d1, 0x8cdcca0ee37d5092],
    [0xcec90df899318871, 0x24e1a4fe8b1d855a, 0x36e3e5707aac3025],
    [0x10ac9d06bc511f89, 0x353c9eb752824905, 0x9999e70414e37b6a],
    [0x2338876034df0839, 0xe3b2930879a315c0, 0x8b4cdbcf46855efb],
    [0x7bca982e9644dc49, 0xfca13faf060481aa, 0x7b2f1ecbfa61d741],
    [0xe9cd8389b3ad49e3, 0x9859f2e7916c890e, 0xa489f813af3226b0],
    [0x6f0c00f2a319c8fe, 0x9595fcbca235292f, 0x37be5a8ceb3989ca],
    [0xe0bea0b27b1b477c, 0xb8d66669d6c5a2e4, 0x01fb100c3854942b],
    [0xa0278b1d0b8ab6b5, 0x5167e20596bbbe2c, 0x730a0c713d14d25b],
    [0x93e451744beb7acc, 0x0be6d85db1e50d1b, 0x4abde9d23ff514c3],
    [0x90509fc6c3f61fed, 0x3c8aa67ff94fbf08, 0x418adbf6c30fd59b],
    [0x9608324224d770c1, 0x6bd64e9666d500d9, 0x23c867ddaf31e3de],
    [0x75296b88d9c86322, 0x0ce610281191f497, 0x452307e21d87b62b],
    [0xcf7b2a8a407c1671, 0xd535168692f8104f, 0x536eff2dabe7cf6b],
    [0xb6640eb5e7b4a3c5, 0x11d9ba08a3afdf49, 0xa1ca782ea04c17d0],
    [0xa6cf8a6596b812ec, 0xf0dc05171401df92, 0xb1e11902ff4ce27e],
    [0x509118b47b123b06, 0x84d94a4015dab70d, 0x9d72026e65d714af],
    [0x767f4e33b8c85e9c, 0xa34941ff8f842b09, 0x7ba1cfa1d2218447],
    [0x7e42e99128fd7cdf, 0xcbe74d91fa62cbb7, 0xd1ac992c75ec6caf],
    [0xd3add4700fe0eaf3, 0x7580a4965218eaf5, 0xa59e6e1507b18e3a],
    [0x5be7ad707051df49, 0x1cbb2b47fb8915c4, 0xd05cee8aaf11b17b],
    [0x6645de1fee819405, 0xf5516f69d0e2cfe4, 0xb49c1f995bf8c3f4],
    [0x6f962ae5368dc2de, 0x037884b51788227b, 0x96845a339b9a3bd4],
    [0x6564be844e7262c5, 0xd0d0dbd0e41394b1, 0xe02959915ebdacb9],
    [0xed9734c0b8a00023, 0x41eee0fb5a3c9611, 0xa75157b178d12a9d],
    [0x264c208e8bab86f1, 0x5187c3456f468a3c, 0x26cc7b1eef882b40],
    [0x00cdcf66926d5f2b, 0x9b77024671c37e42, 0x69dbd408a7794fab],
    [0x8bf7f06b18b39c73, 0x09c1437ff493680f, 0x02e8cd5af563a3a0],
    [0xee935c6d47b41d80, 0x0c540cf8b10a98e2, 0xe0e48097467af423],
    [0x2759265eeddfcaf7, 0xe2c0e8f036b0d06e, 0xfa1bbb4d88491bf5],
    [0x53b096ead80473e7, 0x86fdbc511ebff6b5, 0xfcf1e35d50c54a5f],
    [0x77290f85258cbb64, 0x827f1294dc66276e, 0x7894edafc267c809],
    [0x8138dbc5e36e5d2b, 0x45e6294adfd05f61, 0x6f13262ecda38f74],
    [0xf3cd6660a140ba55, 0xad662f059cf1df7a, 0x6790db73a0af15c4],
    [0x0af578151ba1b34c, 0xe43ba2a7c7e2ae32, 0xcb23d4c311715d76],
];
