//! Fig. 6(c): BlinkDB vs. no-sampling frameworks on 2.5 TB and 7.5 TB of
//! Conviva data (log-scale response times in the paper).
//!
//! Systems: Hive on Hadoop, Shark without caching, Shark with caching,
//! BlinkDB at 1 % relative error. Query: `AVG(sessiontimems)` filtered on
//! `dt`, grouped by `city` (§6.2).
//!
//! Paper result: BlinkDB answers in a few seconds — 10–100× faster than
//! Shark and 100–1000× faster than Hive; Shark-cached ≈ 112 s at 2.5 TB
//! but degrades at 7.5 TB where data spills to disk (6 TB cluster RAM).

use blinkdb_bench::{banner, bench_config, f, row};
use blinkdb_cluster::EngineProfile;
use blinkdb_core::blinkdb::BlinkDb;
use blinkdb_storage::StorageTier;
use blinkdb_workload::conviva::conviva_dataset;

fn main() {
    banner(
        "Figure 6(c) — BlinkDB vs. no sampling (Conviva)",
        "Average response time (s) for AVG(sessiontimems) WHERE dt<=k GROUP BY city.",
    );
    const ROWS: usize = 150_000;
    // §6.2's headline: BlinkDB answers in ~2 seconds at 90–98% accuracy.
    // We pose the paper's query with the 2-second bound and report the
    // accuracy achieved. (The paper's alternative 1%-error-bound phrasing
    // needs ~10^5 matching rows per group — a trivial fraction of 5.5 B
    // logical rows but most of our physical rows; under the logical
    // scale factor the achieved physical error maps to err/√scale at
    // paper scale; see `Table::set_logical_scale`.)
    let sql = "SELECT AVG(sessiontimems) FROM sessions WHERE dt <= 15 GROUP BY os \
               WITHIN 2 SECONDS";

    row(&[
        "data size".into(),
        "Hive".into(),
        "Shark(disk)".into(),
        "Shark(cache)".into(),
        "BlinkDB".into(),
    ]);

    for tb in [2.5, 7.5] {
        let mut dataset = conviva_dataset(ROWS, 2013);
        // Rescale the logical volume to `tb` terabytes.
        let logical_rows = tb * 1e12 / 3_100.0;
        dataset
            .table
            .set_logical_scale(logical_rows / ROWS as f64, 3_100);
        let mut db = BlinkDb::new(dataset.table.clone(), bench_config());
        db.create_samples(&dataset.templates, 0.5)
            .expect("sample creation");

        let cluster = db.config().cluster;
        let cache_total = cluster.total_cache_mb() * 1e6;
        let table_bytes = dataset.table.logical_bytes();

        let hive = db
            .query_full_scan(sql, &EngineProfile::hive_on_hadoop(), StorageTier::Disk)
            .unwrap()
            .elapsed_s;
        let shark_disk = db
            .query_full_scan(sql, &EngineProfile::shark_no_cache(), StorageTier::Disk)
            .unwrap()
            .elapsed_s;
        // Shark-cached: when the table exceeds cluster RAM, the spilled
        // fraction scans at disk speed (harmonic blend of bandwidths).
        let shark_cached = {
            let base = EngineProfile::shark_cached();
            let cached_frac = (cache_total / table_bytes).min(1.0);
            let blended =
                1.0 / (cached_frac / base.mem_mbps + (1.0 - cached_frac) / base.disk_mbps);
            let profile = EngineProfile {
                mem_mbps: blended,
                ..base
            };
            db.query_full_scan(sql, &profile, StorageTier::Memory)
                .unwrap()
                .elapsed_s
        };
        let blink = db.query(sql).unwrap();

        row(&[
            format!("{tb} TB"),
            f(hive, 0),
            f(shark_disk, 0),
            f(shark_cached, 0),
            f(blink.elapsed_s, 2),
        ]);
        let err_phys = 100.0 * blink.answer.mean_relative_error();
        let scale = dataset.table.logical_rows_per_row();
        println!(
            "    BlinkDB: family {} ({} rows, {:.2}% of table); accuracy {:.1}% at physical \
             scale (≈{:.3}% at paper scale); speedup vs Hive {:.0}x, vs Shark(cache) {:.0}x",
            blink.family,
            blink.rows_read,
            100.0 * blink.sample_fraction,
            100.0 - err_phys,
            err_phys / scale.sqrt(),
            hive / blink.elapsed_s,
            shark_cached / blink.elapsed_s
        );
        assert!(
            blink.elapsed_s < shark_cached / 10.0,
            "BlinkDB must be >10x faster than the fastest full scan"
        );
    }
}
