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

/// One row per query of [`queries`], one hash per width of [`WIDTHS`];
/// recorded at commit `c394ae8`.
#[rustfmt::skip]
const EXPECTED: &[[u64; 3]] = &[
    [0x14125f6e8e2502f5, 0x2b782b817433171b, 0xcf2284faef869389],
    [0xe13f487b12ef8c40, 0x2902e9a7b96e198d, 0xd843628003acc8fb],
    [0x4d3361a79e0d0d58, 0x96b27d6a11689f34, 0x0faedcd56a702abd],
    [0x8d5be152eea340fb, 0xecca1bc83d6542c8, 0xfe716920e910f519],
    [0xe1293598b59e1747, 0xd9e702cd99878c11, 0x1aa0bdacd8aea6eb],
    [0x1094e40d6e4ef598, 0xe74c61d698955d99, 0x447d03f2dad2d902],
    [0x9b66ba3f75f38ccc, 0xd49df8e0f460b4b0, 0x6ff8bf194eccb606],
    [0x1b0e9c534c374c8f, 0xb715335b0041de41, 0xe6a5551735e53294],
    [0x06b3b2c222045661, 0x13141edb0ddef4b9, 0x39e6a4401a75f2f1],
    [0xc0e95e325f6a4eec, 0x8c13d2f541375306, 0x2021223f7be4e969],
    [0x96d79b8cf19fcbd8, 0x05c307a9f076b6c0, 0xf98d1e8388c948c3],
    [0xd81e9951617572bc, 0xcd2cdcf6fce53638, 0xc20ddb9e188c6f47],
    [0x44eef68e2257fbf4, 0xc5bf8d38f353368a, 0xdef9952cc997e1e6],
    [0xdb77ba50e6d986ac, 0xde6c504aa9bff1b1, 0x97ec9c4d58192269],
    [0x96aee076a0a6434e, 0xf772c616b6047920, 0x6ad7ac379ca16f85],
    [0x813a02fb6fa1bda0, 0xed6b82b85ba59483, 0x3a920685f9f10d3f],
    [0x94e470506f2db28f, 0xbc4d944c80cb72f5, 0x828a61416b4c52f1],
    [0x65c1712368374959, 0x6a580ad4461ea802, 0xe659943ebd04950b],
    [0xb3207bf161cfad02, 0xcf5185b41a643d6f, 0xe5cc1300f3c360a2],
    [0xdc06f329a11a572d, 0x0fdb5e97f79568cb, 0xb27bf7a96a1fd004],
    [0xfc27f1aefb319baf, 0xce24eed8899079b9, 0x5ea130ca291c84e6],
    [0x183b899fdf95e342, 0x255b55cf246eb083, 0x2230ca2a3f3dfab5],
    [0x552484f48fd3b941, 0xc6235750060ad71e, 0xaa7323221c051063],
    [0x377ad8e87885631a, 0xd214df55d7029e66, 0x3d2646c75e90a5a5],
    [0x96f685fa14aac4cb, 0x6dc7d83d509ea336, 0x8085b16960423383],
    [0x053e44c529c21b67, 0xb0f41576525a9d91, 0x40308f936d19ce5c],
    [0x6cb66c3f493dfb2c, 0x4561d0eb81b0dd0d, 0x841d2519e05b5855],
    [0xa96dbaa27c01117e, 0x1aa2d1ea74bb458e, 0x06c0f4fd562a225e],
    [0x93ed1a5dfd0fc0e2, 0xdacb511d4f6853ed, 0xb26e65f6f1d54f2d],
    [0xc05847e7c347ec6e, 0x8d02d4924e6430a2, 0x64c39dd2122205d0],
    [0xf1a3a5499839ed14, 0xd220703f1f797212, 0x3d5759faa00ca5d9],
    [0xd1749f72b7aced35, 0xb9c1b5b588a6d5f3, 0x6c84b7df8d35ced5],
    [0x99247f79695cfe1a, 0xcd9edd11d3664614, 0x454b5f7288314f1b],
    [0xf388b09b0e338c38, 0x6a98c6b0ff8b88ee, 0x62d9ff80c84c41a9],
    [0xcfd315d8dbe01afd, 0xf42a616a8db8e774, 0x6c367f4ee16e4051],
    [0x09e3d282acf80813, 0x7dbdef0afa03fb50, 0xb3ec26ce00b92d41],
    [0x7fcc8d0b86036d2d, 0x997f0702eb67429c, 0x088ef4713d3122f5],
    [0x55b80c4bcffc116b, 0x81b70b1479018621, 0xf9b1885416fb44de],
    [0xc5194b5f0d910f04, 0x823cfcb389724d3d, 0xfba9a3ad459f1428],
    [0x708cb24162a7efb9, 0xa397fbbc0a3dfeb1, 0x529a5b1867df78f1],
    [0xadbbcd24ac69e3be, 0x201c8b82226afe96, 0xef86044ca12371cf],
    [0x4ee950d5873a3709, 0x6b154365ed4be955, 0x07ad2962203b9247],
    [0x0f45d36afab93605, 0xa8f2f285fe366ac3, 0x00e1f2777bd17822],
    [0xb7fc2a7d0b47f428, 0x7c1e9701601d03ea, 0xe1f3da0d37ea959e],
    [0x7dc602d4f0fc7189, 0x2a1276e2fe25f425, 0xf94556dcd7dc63f0],
    [0x5a2f07dc4f8aae81, 0xf8a9b37124b1f7fb, 0xa7a2e2d54485007b],
    [0x12e777b892ab0a56, 0x614991cd032dd1ee, 0x11ce04d59cd86194],
    [0x4c3dcf511452e77d, 0xd52b58145e3b53d9, 0x1835b8ef4a47d5bd],
    [0xaa5c4edbfdfdbb4d, 0xcf581b882cdc20fd, 0xb9bb063f2dd63dd3],
    [0x87c159e033d68fdb, 0x4a7fff331f8b051c, 0x6aae75dbc0e93f9c],
    [0xa267c19a14f2a4ca, 0x8148830ca72cdb2c, 0xafda18332becadfa],
    [0x351812898c895cc7, 0x8a60f823b75193db, 0xec13a1253c5b5338],
    [0x87bd689824ba4db5, 0x02453560f0bfce60, 0x22c9695eb4af47ae],
    [0x07975727b11cc26d, 0xac251e30dd925d71, 0xd14322dd0d46ee38],
    [0x84c8442e25190304, 0x48120249069363e9, 0xb6f4d7001bffa7b0],
    [0x2cc7fc51e84ddd2b, 0x1f9d69817df5c76a, 0x9770739c70380570],
    [0xa77c629d962f38d2, 0x2ae5c562813c9383, 0x90b41befb59f659a],
    [0x0c5a1ac00e625c98, 0xc25d22671bfdd639, 0x71dd03814d64120f],
    [0x24f573e7740185cb, 0xedead107bc133772, 0x699e07753982cd7e],
    [0x7ecbf076625e7446, 0xf9ce0787246409dc, 0xa0171b653a02ec36],
    [0x70fd66641b14dbb9, 0x098f7d6ac39722cf, 0xa0ddd4b619253b41],
    [0x4983e620169bf0aa, 0x22bd569133db95f7, 0x56ba7f6e33f97e59],
    [0x42e9808a315869b6, 0x3f6fcafdeb504839, 0xe688eb6b96b895af],
    [0x00664a5320ddc5df, 0xe8d60fe1c6da37d4, 0x02f2ced1148c3095],
    [0x3e095dc31b58454f, 0x8984b8ff8bac21f2, 0x80fe130be283b1ab],
    [0x655665d1f11f8352, 0x17b6c2ba23ab410a, 0xbf574fae18c57f48],
    [0x2886ded5d1bc8092, 0x90ae8f5b843e3aa7, 0xadd49dc525f06f7b],
    [0xe8c69690d3e97634, 0xde08c57433a46d86, 0x4e974e2d2ac7f457],
    [0x100eb12831ceddb1, 0x92225662272a6a54, 0xf3b5ee8183c15a37],
    [0x2dbc7e2c2c9addb8, 0xb9052d4c13ba0bb3, 0xcbd0884cef5c33cc],
    [0x8ec5e318cd2dcc10, 0x66453cc0b0dcaa44, 0xabea0508d83258cc],
    [0x114ae997f1799c58, 0xc41c18c0472a1614, 0xfda11e9de4e1f9d0],
    [0x7bc1246b6e1f7169, 0x927c47c556903467, 0x496b162adb3be8a4],
    [0x7d401ae17d1f21f0, 0x20ba06cafd5ed7bd, 0x15ccb377b9801300],
    [0x8bf5ba5a7a29cee3, 0x121ede3489e70f45, 0x4d1a064d1dd8c89c],
    [0xc369c6353ec899d0, 0x893a88acd91230d2, 0xe4ea01682da0d1f2],
    [0x7fe70b3c9b908b6b, 0xa75ff3e539c69c8d, 0xd9eae53736900c09],
    [0xacb43884e82edb3e, 0x69943e13f02b2ade, 0xf2dbc1c98b71a0ff],
    [0x720a8850cc07cff6, 0x49ecbe38d11394ae, 0xcb22405366d901f8],
    [0xc5156290235b2292, 0xb7eda7dcd9fe782d, 0x7d60fac8680a2cc6],
    [0x6849a03eb21e2e4e, 0x236230c97eff9694, 0x20fde08a54369404],
    [0xd82549282b89e242, 0xdb63e2968e21f237, 0x579750d74d9129ef],
    [0x676fecd797364c8d, 0x6d378d56820adba8, 0x7e42b4ca972ef6a4],
    [0xc1e259ad81877e93, 0x25cf637a32a8732a, 0x0e38b68eb1e6cf65],
    [0x9023a08c370adafe, 0x0901fa9c39a897f6, 0x4549dfde54d1ba33],
    [0x0de938a68189dd21, 0x669d411d37f1fb86, 0xbe46e381796593a1],
    [0x98b105e7ca544a61, 0x270694f9694fd853, 0xdd683d67dfaea3fb],
    [0x01e1ab09f3f16a34, 0x9a5f064ff541b352, 0xe975130564d6b1d6],
    [0xa97dcab5fddc1140, 0x4a68e448b008151b, 0xaaab6b5ff9cbbd7d],
    [0x9f7fd9270ed7bd35, 0x43c68101fe977f0b, 0xe90349e6ce5b11f9],
    [0xaa6a55447f3120a0, 0x648646b8371bef2a, 0x05a6027ad735aed0],
    [0x6caa89ebeaa19399, 0xf0f4c7573df47b0e, 0x0742d28546d4afc2],
    [0x3d0525b98d8067aa, 0x972864a592f05ede, 0xe847061c1215f6f5],
    [0xb25312c5890ec573, 0xac398076435bfbe3, 0x249d9e1f51c779a0],
    [0x6448e2602ebcec00, 0xb5ea88b68c6afed3, 0xb7e075acf98fb35b],
    [0xf81bc08d480c82d3, 0x89ad2e696e728aaa, 0xa91e0cfdec8d9c00],
    [0x42036a48fc7a4097, 0x221e87cfeee40db5, 0xf33ff7bdca0d9083],
    [0x0b7e4dc00659591b, 0xcc34ad01e0171802, 0xcd188188b3ef8c8c],
    [0x412626f12dd064f9, 0x165cc194c709ce9b, 0x284cf5ff7df5a5d8],
    [0xaf55e5b25ba63d81, 0xeb1d8836b3509115, 0xc0740a85d5032d1d],
    [0xf9035b9e00da847c, 0x9a9931ac97bd3e99, 0xf568dd2c38154b89],
    [0x776f389b5e43792d, 0x80e921ff8b8d1992, 0x2102a2de3872f484],
    [0x40fdbe7759e69145, 0xea1f60f4eea8f734, 0x039bccc963d83822],
    [0xd44469755e5477ad, 0xbd2860ca0fa48214, 0x52a28d59a6786ad2],
    [0x2bbcb01a39cb3df4, 0xcbea6da7be83b005, 0x645417a7ebff52d7],
    [0x0110b10e49d6f525, 0xfa13453ef65c9363, 0xced5e1ef402e564c],
    [0x51f21c5a580fa8b0, 0xfc187f5d58de90d2, 0x66bf2b79f8a38d7b],
    [0x57ed01f2a3827a83, 0x5dd8dec75d152d35, 0x079271da71c81d79],
    [0xaa30efa6ab83b35b, 0xeeda7c4fc5125515, 0x28690efb1384daad],
    [0x15f96f5934fe51aa, 0xb17b990a29c74f47, 0x5e56030d2aad7dd6],
    [0xb12f4e4f5015932f, 0x8372db1efd9ef1f6, 0xd07b5d9d4bac7ce9],
    [0xa3ce7be696b03d46, 0x1767436d5fdbe153, 0x6c97e5883de420a3],
    [0x9d2da22087b087fb, 0xa06199fd7c992e26, 0x2410b6794365f91a],
    [0x5324e11256e7afd5, 0xe39f3737033f5ea1, 0x3f9b30ff532eaef0],
    [0x13a7e9d59d3e8b1d, 0xd28736eafddab4b0, 0xf45f6bef263bb460],
    [0xb7740eca11c7edb1, 0x7c79e9f7b8ea86f6, 0xdeef57299a446599],
    [0x982a22f2d15746ae, 0x2bd7732defb184a2, 0x6af8ac1e29326727],
    [0x18ccac26a24ac27f, 0x39a3d8c46d7ac984, 0x4d0e46b42943ccfc],
    [0x538b863a44c670a6, 0xfcf430ef7ad592ac, 0x3117975e172dc106],
    [0xd0d11ee4fed68443, 0xff311256c44b368d, 0xba9f16b27d0dd946],
    [0x9487afab6a487235, 0xd532726e276f1eb2, 0x92210d12957f995c],
    [0x6194311f3318b7ec, 0x67f634f14b9fe732, 0x6e4e78d851c45fa2],
    [0x9827d1f439115131, 0xb22b73687c8ca60c, 0xf9c4431c6146eb2e],
    [0x713504e0da7629b5, 0xff81c3ee1571d374, 0x74c580717cfed2f1],
    [0x03d844693550b076, 0x40d37114e3d73106, 0x546f8316c1e33572],
    [0xed4a0ced69552d1e, 0xd57453f2ec820b31, 0xc468ed91831d2269],
    [0x6bd25558c1d4b8cf, 0x640226cc1dbbf544, 0xaf4ef3b84ebe6986],
    [0xfac0faf083b98fe3, 0xc2b100cdb563b6a9, 0x53a3eba58c8bae69],
    [0x80d9785d18ab2416, 0xc01481bddfde0660, 0x327e2f936667b51c],
    [0xcec90df899318871, 0xc33173a4246410b7, 0x3c835ba95c38ee75],
    [0x10ac9d06bc511f89, 0x9cba2e126b813b38, 0x022c90abf231536a],
    [0x2338876034df0839, 0xf3a713197e3459eb, 0xddb34977e063e975],
    [0x7bca982e9644dc49, 0x08c7d4497e61a3f4, 0x593c6066171678d4],
    [0xe9cd8389b3ad49e3, 0xfd4901e527605f07, 0x0422f239e449486d],
    [0x6f0c00f2a319c8fe, 0xfa46522627b30c4f, 0x15518d5f8c598f33],
    [0xe0bea0b27b1b477c, 0xa3d5c1adfbd9d224, 0xcfa8c2591ce2e6c0],
    [0xa0278b1d0b8ab6b5, 0x5167e20596bbbe2c, 0x730a0c713d14d25b],
    [0x93e451744beb7acc, 0x0be6d85db1e50d1b, 0x4abde9d23ff514c3],
    [0x90509fc6c3f61fed, 0x3c8aa67ff94fbf08, 0x418adbf6c30fd59b],
    [0x9608324224d770c1, 0xa560194b8d8b4b40, 0xe114d72f0ef78563],
    [0x75296b88d9c86322, 0x0ce610281191f497, 0xabb81fac5c98ba64],
    [0xcf7b2a8a407c1671, 0xa5509a61f712df41, 0xcd38c87293d65095],
    [0xb6640eb5e7b4a3c5, 0x11d9ba08a3afdf49, 0xaff1f8b1e70af568],
    [0xa6cf8a6596b812ec, 0xcb897b581efce968, 0x664d876eda17ba8c],
    [0x509118b47b123b06, 0x84d94a4015dab70d, 0x9054392ac2f553b6],
    [0x767f4e33b8c85e9c, 0xc06dbc2103f2e3c9, 0x875980f78d18746b],
    [0x7e42e99128fd7cdf, 0xcbe74d91fa62cbb7, 0x0ac68379d674f16b],
    [0xd3add4700fe0eaf3, 0xcb1f4331fb3e70c7, 0x514e97c98ca7234a],
    [0x5be7ad707051df49, 0x1cbb2b47fb8915c4, 0xd05cee8aaf11b17b],
    [0x6645de1fee819405, 0xc84bf77a755eede0, 0x749b5d8fc8037925],
    [0x6f962ae5368dc2de, 0x47508ea6183a95c1, 0xa1da71f2d8780537],
    [0x6564be844e7262c5, 0x1399bbe365da1052, 0x8eb6862fd429c218],
    [0xed9734c0b8a00023, 0x5c63dbb4fb12f15e, 0xc6efdada1aea9ea1],
    [0x264c208e8bab86f1, 0x1bea34a5881c63ba, 0xc1cfff79077ea2bc],
    [0x00cdcf66926d5f2b, 0x7e7be8b9abd7a421, 0x38ebc78fd25bab66],
    [0x8bf7f06b18b39c73, 0x09c1437ff493680f, 0x02e8cd5af563a3a0],
    [0xee935c6d47b41d80, 0x0c540cf8b10a98e2, 0xe0e48097467af423],
    [0x2759265eeddfcaf7, 0xe2c0e8f036b0d06e, 0xfa1bbb4d88491bf5],
    [0x53b096ead80473e7, 0x86fdbc511ebff6b5, 0xfcf1e35d50c54a5f],
    [0x77290f85258cbb64, 0x827f1294dc66276e, 0x7894edafc267c809],
    [0x8138dbc5e36e5d2b, 0x45e6294adfd05f61, 0x6f13262ecda38f74],
    [0xf3cd6660a140ba55, 0xad662f059cf1df7a, 0x6790db73a0af15c4],
    [0x0af578151ba1b34c, 0xe43ba2a7c7e2ae32, 0xcb23d4c311715d76],
];
