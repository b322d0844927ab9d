//! Live-ingestion correctness under concurrency: N query threads hammer
//! a `QueryService` while the ingest thread appends heavily-skewed data
//! and maintenance refreshes drifted families.
//!
//! The contract being checked (ISSUE 3 acceptance):
//!
//! * no panics, no failed executions, every handle resolves;
//! * every answer — cached or computed — is *honest for the epoch it
//!   was computed at*: its estimate matches the fact table as of that
//!   epoch (within its own error bars / a slack tolerance), never a
//!   blend of epochs;
//! * appending ≥50% new rows with a shifted stratum distribution makes
//!   maintenance *refresh* the drifted stratified family (not just fold);
//! * the epoch advances and a repeated canonical query is answered
//!   fresh (no stale cache hit), with its estimate moving to the new
//!   ground truth — then the *new* answer is cacheable at the new epoch.

use blinkdb_common::schema::{Field, Schema};
use blinkdb_common::value::{DataType, Value};
use blinkdb_core::{BlinkDb, BlinkDbConfig, DataEpoch};
use blinkdb_service::{DurabilityConfig, IngestConfig, QueryService, ServiceConfig, SubmitError};
use blinkdb_sql::template::{ColumnSet, WeightedTemplate};
use blinkdb_storage::Table;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

const NY0: usize = 2_000;
const BOISE0: usize = 30;
const BATCHES: usize = 4;
const BOISE_PER_BATCH: usize = 450;
const NY_PER_BATCH: usize = 50;

fn sessions(ny: usize, boise: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("city", DataType::Str),
        Field::new("x", DataType::Float),
    ]);
    let mut t = Table::new("sessions", schema);
    for i in 0..ny {
        t.push_row(&[Value::str("NY"), Value::Float(i as f64)])
            .unwrap();
    }
    for i in 0..boise {
        t.push_row(&[Value::str("Boise"), Value::Float(i as f64)])
            .unwrap();
    }
    t
}

fn rows(city: &str, n: usize, tag: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| vec![Value::str(city), Value::Float((tag * 10_000 + i) as f64)])
        .collect()
}

fn fixture_db() -> BlinkDb {
    let mut cfg = BlinkDbConfig::default();
    cfg.cluster.jitter = 0.0;
    cfg.stratified.cap = 50.0;
    cfg.stratified.resolutions = 2;
    cfg.optimizer.cap = 50.0;
    let mut db = BlinkDb::new(sessions(NY0, BOISE0), cfg);
    db.create_samples(
        &[WeightedTemplate {
            columns: ColumnSet::from_names(["city"]),
            weight: 1.0,
        }],
        0.8,
    )
    .unwrap();
    assert!(
        db.families().iter().any(|f| !f.is_uniform()),
        "fixture must select the [city] stratified family"
    );
    db
}

fn live_service() -> QueryService {
    QueryService::with_ingest(
        fixture_db(),
        ServiceConfig {
            workers: 4,
            queue_capacity: 512,
            ..ServiceConfig::default()
        },
        IngestConfig::default(),
    )
}

/// One observed answer: which city was counted, at which epoch, what the
/// estimate and its 3σ half-width were, and whether it came from cache.
struct Observation {
    city: &'static str,
    epoch: DataEpoch,
    estimate: f64,
    ci3: f64,
    from_cache: bool,
}

#[test]
fn queries_stay_honest_while_skewed_data_streams_in() {
    let svc = live_service();
    let initial_rows = svc.db().fact().num_rows();
    let e0 = svc.current_epoch();

    // epoch -> exact (NY, Boise) counts as of that epoch's publish.
    let truths = Mutex::new(HashMap::from([(e0, (NY0, BOISE0))]));
    let observations = Mutex::new(Vec::<Observation>::new());
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // ---- 4 query threads, looping until ingestion finishes ----
        for t in 0..4 {
            let svc = &svc;
            let observations = &observations;
            let stop = &stop;
            scope.spawn(move || {
                let cities: [&'static str; 2] = ["Boise", "NY"];
                let mut i = t; // stagger the starting city per thread
                while !stop.load(Ordering::Relaxed) {
                    let city = cities[i % 2];
                    i += 1;
                    let sql = format!(
                        "SELECT COUNT(*) FROM sessions WHERE city = '{city}' WITHIN 10 SECONDS"
                    );
                    let handle = match svc.submit(&sql) {
                        Ok(h) => h,
                        Err(SubmitError::QueueFull) => continue,
                        Err(e) => panic!("unexpected rejection: {e}"),
                    };
                    let (_, result) = handle.wait();
                    let answer = result.expect("no execution failures under ingest");
                    let agg = &answer.answer.answer.rows[0].aggs[0];
                    let ci3 = 3.0 * agg.ci_half_width(answer.answer.answer.confidence);
                    observations.lock().unwrap().push(Observation {
                        city,
                        epoch: answer.epoch,
                        estimate: agg.estimate,
                        ci3,
                        from_cache: answer.from_cache,
                    });
                }
            });
        }

        // ---- The ingest driver: skewed batches, one epoch per batch ----
        let mut ny = NY0;
        let mut boise = BOISE0;
        for b in 0..BATCHES {
            let mut batch = rows("Boise", BOISE_PER_BATCH, b);
            batch.extend(rows("NY", NY_PER_BATCH, b));
            svc.append_rows(batch).unwrap();
            let epoch = svc.flush_ingest().expect("ingest applies cleanly");
            ny += NY_PER_BATCH;
            boise += BOISE_PER_BATCH;
            truths.lock().unwrap().insert(epoch, (ny, boise));
            // Let the query threads breathe at this epoch before the
            // next one lands.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
    });

    // ---- Honesty: every answer matches the truth of *its* epoch ----
    let truths = truths.into_inner().unwrap();
    let observations = observations.into_inner().unwrap();
    assert!(
        observations.len() >= 8,
        "query threads must have made progress ({} answers)",
        observations.len()
    );
    let mut epochs_seen = std::collections::HashSet::new();
    for obs in &observations {
        let (ny, boise) = *truths
            .get(&obs.epoch)
            .unwrap_or_else(|| panic!("answer from unpublished epoch {}", obs.epoch));
        let truth = match obs.city {
            "NY" => ny as f64,
            _ => boise as f64,
        };
        let slack = (obs.ci3 + 0.05 * truth).max(0.25 * truth);
        assert!(
            (obs.estimate - truth).abs() <= slack,
            "{} at {}: estimate {} vs epoch-truth {} (±{slack:.1}, cached={})",
            obs.city,
            obs.epoch,
            obs.estimate,
            truth,
            obs.from_cache
        );
        epochs_seen.insert(obs.epoch);
    }
    assert!(
        epochs_seen.len() >= 2,
        "ingestion must interleave with querying (saw {} epochs)",
        epochs_seen.len()
    );

    // ---- The maintenance + cache-freshness acceptance criteria ----
    let m = svc.metrics();
    assert_eq!(m.failed, 0, "no execution failures: {m:?}");
    assert_eq!(m.epochs_published, BATCHES as u64);
    assert!(
        m.families_refreshed >= 1,
        "the Boise flood must shift drift past the threshold: {m:?}"
    );
    let final_rows = svc.db().fact().num_rows();
    assert!(
        final_rows as f64 >= 1.5 * initial_rows as f64,
        "≥50% new rows appended ({initial_rows} -> {final_rows})"
    );

    // A repeated canonical query at the final epoch: computed fresh (the
    // stale entry was purged / is unreachable under the epoch key), and
    // the estimate lands on the new ground truth.
    let final_epoch = svc.current_epoch();
    assert!(final_epoch > e0);
    let sql = "SELECT COUNT(*) FROM sessions WHERE city = 'Boise' WITHIN 10 SECONDS";
    let (_, fresh) = svc.submit(sql).unwrap().wait();
    let fresh = fresh.unwrap();
    let boise_truth = (BOISE0 + BATCHES * BOISE_PER_BATCH) as f64;
    let fresh_est = fresh.answer.answer.rows[0].aggs[0].estimate;
    assert_eq!(fresh.epoch, final_epoch);
    assert!(
        (fresh_est - boise_truth).abs() / boise_truth < 0.2,
        "fresh estimate {fresh_est} vs new truth {boise_truth}"
    );
    // ... and the *new* answer is cacheable at the new epoch.
    let (_, warm) = svc.submit(sql).unwrap().wait();
    let warm = warm.unwrap();
    assert!(
        warm.from_cache,
        "same canonical query, same epoch: cache hit"
    );
    assert_eq!(warm.epoch, final_epoch);
    assert_eq!(warm.answer.answer.rows[0].aggs[0].estimate, fresh_est);
}

/// Static services are unaffected: no ingest thread, appends rejected,
/// the original cache behaviour (single epoch forever) is preserved.
#[test]
fn static_service_is_single_epoch() {
    let mut cfg = BlinkDbConfig::default();
    cfg.cluster.jitter = 0.0;
    let db = std::sync::Arc::new(BlinkDb::new(sessions(3_000, 40), cfg));
    let svc = QueryService::new(db, ServiceConfig::default());
    let e = svc.current_epoch();
    assert!(svc.append_rows(rows("NY", 5, 0)).is_err());
    let sql = "SELECT COUNT(*) FROM sessions WHERE city = 'NY' WITHIN 10 SECONDS";
    let (_, a) = svc.submit(sql).unwrap().wait();
    assert!(!a.unwrap().from_cache);
    let (_, b) = svc.submit(sql).unwrap().wait();
    let b = b.unwrap();
    assert!(b.from_cache);
    assert_eq!(b.epoch, e);
    assert_eq!(svc.current_epoch(), e);
}

/// WAL replay is bit-faithful on *sampled* answers: a durable service is
/// killed (dropped without a shutdown snapshot) with a checkpoint
/// mid-stream and a WAL tail behind it, and the recovered service must
/// serve, at the same epoch, exactly the estimates and error bars the
/// live one did. Fold/refresh seeds derive from `(seed, epoch, family)`,
/// so replaying the tail draws the same reservoirs the live ingest drew
/// — a seed counter held by the maintainer would restart at recovery
/// and resample the tail differently.
#[test]
fn recovered_service_serves_the_live_sampled_answers_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("blinkdb-ingest-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityConfig {
        dir: dir.clone(),
        fsync: false,
        snapshot_wal_bytes: 0,
        // Checkpoint after batch 2; batch 3 stays in the WAL.
        snapshot_sealed_segments: 2,
        snapshot_on_shutdown: false, // the drop below is a kill
    };
    let probes = [
        "SELECT COUNT(*), AVG(x) FROM sessions WHERE city = 'NY'",
        "SELECT COUNT(*), AVG(x) FROM sessions WHERE city = 'Boise'",
        "SELECT city, SUM(x) FROM sessions GROUP BY city",
        "SELECT AVG(x) FROM sessions WHERE x < 500",
    ];
    // Every estimate and variance of every probe, as raw bits.
    let fingerprint = |db: &BlinkDb| -> Vec<(u64, u64)> {
        probes
            .iter()
            .flat_map(|sql| db.query(sql).expect("probe runs").answer.rows)
            .flat_map(|row| row.aggs)
            .map(|a| (a.estimate.to_bits(), a.variance.to_bits()))
            .collect()
    };

    let svc = QueryService::with_ingest_durable(
        fixture_db(),
        ServiceConfig::default(),
        IngestConfig::default(),
        durability.clone(),
    )
    .unwrap();
    for tag in 0..3 {
        // Small, proportionally-shaped batches: families fold.
        let mut batch = rows("NY", 60, tag);
        batch.extend(rows("Boise", 2, tag));
        svc.append_rows(batch).unwrap();
    }
    let live_epoch = svc.flush_ingest().unwrap();
    assert_eq!(svc.metrics().snapshots_written, 2, "initial + mid-stream");
    let live = fingerprint(&svc.db());
    drop(svc);

    let svc = QueryService::recover(
        ServiceConfig::default(),
        IngestConfig::default(),
        durability,
    )
    .unwrap();
    assert_eq!(svc.metrics().wal_batches_replayed, 1, "the WAL tail");
    assert_eq!(svc.current_epoch(), live_epoch);
    assert_eq!(fingerprint(&svc.db()), live);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
