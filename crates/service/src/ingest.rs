//! Live ingestion and durability: the ingest lane's [`Backlog`], the
//! single-writer ingest/maintenance thread, the WAL payload codec,
//! incremental checkpoints, and crash recovery.
//!
//! Synchronises through the lane's [`Backlog`] (batches in, flush
//! waiters out), the lane's failure slot, the two locked caches (epoch
//! purge, checkpointed ELP hints) and the [`SnapshotSwap`] publish.
//!
//! [`SnapshotSwap`]: blinkdb_core::SnapshotSwap

use crate::backlog::Backlog;
use crate::config::{DurabilityConfig, IngestConfig, IngestError, ServiceConfig};
use crate::service::{Inner, QueryService};
use blinkdb_common::error::BlinkError;
use blinkdb_common::Value;
use blinkdb_core::{
    BlinkDb, CheckpointState, Compactor, CompactorConfig, DataEpoch, IngestMaintenance, Maintainer,
    PlanProfile, SaveReport,
};
use blinkdb_persist::{decode_batch, encode_batch, Wal};
use blinkdb_sql::canonical::CanonicalKey;
use blinkdb_telemetry::Registry;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The ingest lane: the batch queue [`QueryService::flush_ingest`]
/// waits on, plus the most recent background failure — recorded by the
/// ingest thread (or recovery), surfaced and cleared by the next flush.
pub(crate) struct IngestLane {
    pub(crate) backlog: Backlog<Vec<Vec<Value>>>,
    failed: Mutex<Option<String>>,
}

impl IngestLane {
    pub(crate) fn new() -> Self {
        IngestLane {
            backlog: Backlog::new(),
            failed: Mutex::new(None),
        }
    }

    /// The one lock site: the slot is only ever assigned or taken whole.
    fn failure(&self) -> std::sync::MutexGuard<'_, Option<String>> {
        self.failed
            .lock()
            .expect("ingest failure lock poisoned: a thread panicked while holding it")
    }

    /// Records a background failure for the next flush to report. Call
    /// *before* `mark_done`, so a flush that saw the batch finish also
    /// sees why it failed.
    fn fail(&self, error: String) {
        *self.failure() = Some(error);
    }
}

/// The durable side of the ingest thread: the open WAL plus checkpoint
/// bookkeeping. Lives on the ingest thread; never touched by workers.
struct Durable {
    wal: Wal,
    cfg: DurabilityConfig,
    /// Framed WAL bytes accumulated since the last checkpoint (trigger
    /// for `snapshot_wal_bytes`).
    wal_bytes_since_snapshot: u64,
    /// Segments sealed (batches applied) since the last checkpoint
    /// (trigger for `snapshot_sealed_segments`, and the shutdown
    /// snapshot's dirtiness test).
    segments_sealed_since_snapshot: u64,
    /// Which fact slices the committed manifest already holds — what
    /// makes each checkpoint incremental.
    checkpoint_state: CheckpointState,
}

impl Durable {
    /// Durable state right after a checkpoint: nothing logged or sealed
    /// since `checkpoint_state`'s manifest.
    fn new(wal: Wal, cfg: DurabilityConfig, checkpoint_state: CheckpointState) -> Self {
        Durable {
            wal,
            cfg,
            wal_bytes_since_snapshot: 0,
            segments_sealed_since_snapshot: 0,
            checkpoint_state,
        }
    }
}

/// Everything handed to the ingest thread at spawn.
pub(crate) struct MasterState {
    db: BlinkDb,
    cfg: IngestConfig,
    durable: Option<Durable>,
}

impl QueryService {
    /// Starts the worker pool over a *live* instance: `db` becomes the
    /// ingest thread's private master copy, and an initial snapshot of
    /// it is published for the workers. [`QueryService::append_rows`]
    /// enqueues new fact rows; the background thread appends them, runs
    /// the fold-or-refresh maintenance pass under
    /// `ingest.drift_threshold`, publishes the next epoch, and purges
    /// cache entries stamped with superseded epochs.
    pub fn with_ingest(db: BlinkDb, cfg: ServiceConfig, ingest: IngestConfig) -> Self {
        Self::build_live(db, ingest, None, cfg, Registry::new())
    }

    /// [`QueryService::build`] over a live master: publishes an initial
    /// snapshot of `db` and hands `db` itself to the ingest thread.
    fn build_live(
        db: BlinkDb,
        ingest: IngestConfig,
        durable: Option<Durable>,
        cfg: ServiceConfig,
        registry: Registry,
    ) -> Self {
        let snapshot = Arc::new(db.clone());
        let master = MasterState {
            db,
            cfg: ingest,
            durable,
        };
        Self::build(snapshot, Some(master), cfg, registry)
    }

    /// [`QueryService::with_ingest`] with a write-ahead log in front of
    /// the ingest path. An initial snapshot of `db` is committed to
    /// `durability.dir` immediately, so recovery always has a base; from
    /// then on every accepted batch is appended (framed + checksummed,
    /// optionally fsynced) to the WAL *before* it is applied, and an
    /// *incremental* checkpoint — only segments sealed since the last
    /// manifest, plus the current ELP profile cache — is written once
    /// the WAL accumulates `snapshot_wal_bytes` or
    /// `snapshot_sealed_segments` seals, whichever trips first. The
    /// WAL is truncated after each checkpoint commits.
    ///
    /// After a crash, [`QueryService::recover`] rebuilds the exact state
    /// of the last durable batch from `durability.dir`.
    pub fn with_ingest_durable(
        db: BlinkDb,
        cfg: ServiceConfig,
        ingest: IngestConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, BlinkError> {
        // Reset the WAL *before* committing the new snapshot: any tail
        // left by a previous incarnation in this directory belongs to
        // the previous lineage (abandoned by the caller's choice), and
        // its epoch stamps must never be replayed over the new
        // snapshot. A crash between the two steps leaves either the old
        // snapshot with an empty WAL (the old lineage, consistent) or
        // the new snapshot with an empty WAL — never a cross-lineage
        // mix.
        std::fs::create_dir_all(&durability.dir).map_err(|e| {
            BlinkError::internal(format!("create {}: {e}", durability.dir.display()))
        })?;
        let registry = Registry::new();
        let mut wal = Wal::open(durability.wal_path(), durability.fsync)?;
        wal.set_telemetry(registry.clone());
        wal.reset()?;
        let mut checkpoint_state = CheckpointState::default();
        save_timed(&registry, &db, &durability, &[], &mut checkpoint_state)?;
        let durable = Durable::new(wal, durability, checkpoint_state);
        let svc = Self::build_live(db, ingest, Some(durable), cfg, registry);
        svc.inner.metrics.snapshots_written.inc();
        Ok(svc)
    }

    /// Rebuilds a durable service from `durability.dir` after a crash or
    /// shutdown: opens the latest committed snapshot, replays the intact
    /// WAL tail over it batch by batch (the same `apply_batch` the live
    /// ingest thread runs), re-checkpoints, and
    /// resumes serving at the epoch of the last durable batch. Persisted
    /// ELP profile hints that are still fresh for the recovered epoch
    /// seed the ELP cache.
    ///
    /// A torn record at the WAL tail (crash mid-append) is discarded
    /// cleanly: recovery lands on the consistent prefix, and no
    /// half-applied batch is ever visible to queries. An intact record
    /// whose *apply* fails (it never applied live either — the ingest
    /// thread drops such batches) is skipped and retired by the
    /// post-replay checkpoint, with the error surfaced on the first
    /// [`QueryService::flush_ingest`] — a bad record can degrade one
    /// batch, never brick the store.
    pub fn recover(
        cfg: ServiceConfig,
        ingest: IngestConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, BlinkError> {
        let registry = Registry::new();
        let (mut master, profiles, mut checkpoint_state) =
            BlinkDb::open_with_state(&durability.dir)?;
        // The serving tier materializes its samples in RAM before
        // serving (the paper's deployment: samples cached). This also
        // keeps the persisted ELP hints accurate — they were fitted at
        // memory pricing before the crash.
        master.page_in_all();
        let replay_timer = Instant::now();
        let replay = blinkdb_persist::replay_wal(durability.wal_path())?;
        let mut maintainer = Maintainer::new(ingest.drift_threshold);
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        let mut skip_error: Option<String> = None;
        for record in &replay.records {
            // A CRC-valid frame whose payload does not decode (written
            // by an older or foreign incarnation) gets the same
            // skip-not-fatal treatment as a failed apply below — a `?`
            // here would turn one bad record into a deterministic
            // permanent crash loop.
            let (pre_epoch, batch) = match decode_wal_payload(&record.payload) {
                Ok(decoded) => decoded,
                Err(e) => {
                    skipped += 1;
                    skip_error = Some(e.to_string());
                    continue;
                }
            };
            // Idempotent replay: a record stamped below the snapshot's
            // epoch was already applied before that snapshot committed
            // (a crash in the window between manifest commit and WAL
            // truncation leaves exactly this overlap) — skip it instead
            // of double-applying the batch.
            if pre_epoch < master.epoch() {
                continue;
            }
            if pre_epoch > master.epoch() {
                return Err(BlinkError::internal(format!(
                    "wal record stamped epoch {pre_epoch} but the snapshot is at {}: \
                     the log is missing intermediate batches",
                    master.epoch()
                )));
            }
            // Like the live path (the same `apply_batch`), a batch whose
            // apply fails is *dropped* (no epoch published) with the
            // error surfaced, not fatal. Replaying must converge on the
            // same state, and a deterministic apply error must not wedge
            // recovery in a permanent crash loop — validation keeps such
            // batches out of the WAL in the first place, but a record
            // written by an older incarnation must still not brick the
            // store.
            match apply_batch(&mut master, &mut maintainer, &batch) {
                Ok(_) => replayed += 1,
                Err(e) => {
                    skipped += 1;
                    skip_error = Some(e.to_string());
                }
            }
        }
        registry
            .histogram("blinkdb_recovery_replay_seconds")
            .observe(replay_timer.elapsed().as_secs_f64());
        let mut wal = Wal::open_with_replay(durability.wal_path(), durability.fsync, &replay)?;
        wal.set_telemetry(registry.clone());
        let mut snapshots = 0u64;
        if replayed > 0 || skipped > 0 {
            // Fold the replayed tail into a fresh checkpoint so the WAL
            // can be truncated and a crash loop never replays twice —
            // and so a skipped (unappliable) record is retired for
            // good. Incremental: the slices the crashed incarnation
            // committed are reused; only replay-sealed segments are
            // written.
            save_timed(
                &registry,
                &master,
                &durability,
                &profiles,
                &mut checkpoint_state,
            )?;
            wal.reset()?;
            snapshots += 1;
        }
        let durable = Durable::new(wal, durability, checkpoint_state);
        let svc = Self::build_live(master, ingest, Some(durable), cfg, registry);
        let m = &svc.inner.metrics;
        m.wal_batches_replayed.add(replayed);
        m.snapshots_written.add(snapshots);
        // A skipped record is surfaced the same way a live drop is: on
        // the next flush, not as a recovery failure.
        if let (Some(e), Some(lane)) = (skip_error, svc.inner.ingest.as_ref()) {
            lane.fail(format!(
                "{skipped} wal record(s) skipped during replay: {e}"
            ));
        }
        // Seed the ELP cache with persisted hints still fresh for the
        // recovered epoch (a replayed WAL tail advances the epoch, so
        // hints from before the tail drop out naturally).
        let db = svc.inner.db.load();
        for (key, profile) in profiles {
            if profile.fresh_for(&db) {
                svc.inner
                    .elp
                    .put(CanonicalKey::from_canonical(key), profile);
            }
        }
        Ok(svc)
    }

    fn ingest_lane(&self) -> Result<&IngestLane, IngestError> {
        self.inner.ingest.as_ref().ok_or(IngestError::NotIngesting)
    }

    /// Enqueues a batch of fact rows for the ingest thread. Returns as
    /// soon as the batch is queued; queries keep being answered from the
    /// current epoch until the next snapshot is published. Fails with
    /// [`IngestError::NotIngesting`] on a static service.
    pub fn append_rows(&self, rows: Vec<Vec<Value>>) -> Result<(), IngestError> {
        let lane = self.ingest_lane()?;
        // The ingest queue is bounded by the caller, so the only refusal
        // is a shutdown.
        lane.backlog
            .push(rows, usize::MAX)
            .map_err(|_| IngestError::Shutdown)
    }

    /// Blocks until every batch enqueued so far has been applied and its
    /// epoch published; returns the serving epoch afterwards. Surfaces
    /// any background apply failure recorded since the last flush.
    pub fn flush_ingest(&self) -> Result<DataEpoch, IngestError> {
        let lane = self.ingest_lane()?;
        if !lane.backlog.wait_drained() {
            return Err(IngestError::Shutdown);
        }
        if let Some(e) = lane.failure().take() {
            return Err(IngestError::Failed(e));
        }
        Ok(self.inner.db.load().epoch())
    }
}

/// Frames one ingest batch for the WAL: the master's epoch *before* the
/// batch applies, then the rows. The epoch stamp is what makes replay
/// idempotent across the checkpoint window: a snapshot committed after
/// batch N has epoch = batch N+1's pre-apply epoch, so recovery skips
/// every record stamped below the snapshot epoch — a crash between the
/// manifest commit and the WAL truncation can never double-apply.
fn encode_wal_payload(pre_epoch: DataEpoch, batch: &[Vec<Value>]) -> Vec<u8> {
    let mut out = pre_epoch.get().to_le_bytes().to_vec();
    out.extend(encode_batch(batch));
    out
}

/// Decodes a WAL payload written by [`encode_wal_payload`].
fn decode_wal_payload(payload: &[u8]) -> Result<(DataEpoch, Vec<Vec<Value>>), BlinkError> {
    if payload.len() < 8 {
        return Err(BlinkError::internal("wal record too short for epoch stamp"));
    }
    let epoch = u64::from_le_bytes(payload[..8].try_into().expect("checked length"));
    Ok((DataEpoch::new(epoch), decode_batch(&payload[8..])?))
}

/// One incremental save into the snapshot directory, timed into
/// `blinkdb_snapshot_seconds`.
fn save_timed(
    registry: &Registry,
    db: &BlinkDb,
    cfg: &DurabilityConfig,
    profiles: &[(String, PlanProfile)],
    state: &mut CheckpointState,
) -> Result<SaveReport, BlinkError> {
    registry
        .histogram("blinkdb_snapshot_seconds")
        .time(|| db.save_incremental(&cfg.dir, profiles, cfg.fsync, state))
}

/// Writes a durable checkpoint: the master instance (with the current
/// ELP profile cache) into the snapshot directory, then truncates the
/// WAL — every logged batch is now durable in the snapshot instead.
/// Incremental: fact slices for segments the previous checkpoint
/// committed are reused byte-for-byte; only segments sealed (or
/// compacted) since the last manifest are written, so checkpoint cost
/// tracks new data, not total data. The WAL truncation happens only
/// after the manifest covering every sealed segment commits.
fn checkpoint(inner: &Inner, master: &BlinkDb, durable: &mut Durable) -> Result<(), BlinkError> {
    let profiles: Vec<(String, PlanProfile)> = inner
        .elp
        .map_entries(|k, v| (k.as_str().to_string(), v.clone()));
    let report = save_timed(
        &inner.metrics.registry,
        master,
        &durable.cfg,
        &profiles,
        &mut durable.checkpoint_state,
    )?;
    durable.wal.reset()?;
    durable.wal_bytes_since_snapshot = 0;
    durable.segments_sealed_since_snapshot = 0;
    let m = &inner.metrics;
    m.snapshots_written.inc();
    m.registry
        .counter("blinkdb_checkpoint_segments_reused")
        .add(report.segments_reused as u64);
    m.registry
        .counter("blinkdb_checkpoint_bytes_written")
        .add(report.bytes_written);
    Ok(())
}

/// Applies one ingest batch to the master: append (which seals the batch
/// as one segment and advances the epoch), then the fold-or-refresh
/// maintenance pass over exactly that row range. The live ingest loop
/// and WAL replay both apply through here, so replay walks the same
/// epochs — and with them the same fold/refresh seeds — as the live run.
fn apply_batch(
    master: &mut BlinkDb,
    maintainer: &mut Maintainer,
    batch: &[Vec<Value>],
) -> Result<IngestMaintenance, BlinkError> {
    let range = master.append_rows(batch)?;
    maintainer.fold_or_refresh(master, range)
}

/// The ingest/maintenance thread: the only writer. Owns the mutable
/// master instance; drains batches, validates each against the fact
/// schema (an unappliable batch is rejected before it can reach the
/// WAL), logs it to the WAL *before* applying it (durable services),
/// applies append + fold-or-refresh,
/// publishes the next epoch, purges cache entries whose epoch was
/// superseded, and checkpoints on the configured cadence. Queries keep
/// reading their pinned snapshots throughout — this thread never takes
/// the queue lock or blocks a worker.
pub(crate) fn ingest_loop(inner: &Inner, state: MasterState) {
    let MasterState {
        db: mut master,
        cfg,
        mut durable,
    } = state;
    let ingest = inner.ingest.as_ref().expect("ingest state exists");
    let mut maintainer =
        Maintainer::new(cfg.drift_threshold).with_telemetry(inner.metrics.registry.clone());
    let compactor =
        Compactor::new(CompactorConfig::default()).with_telemetry(inner.metrics.registry.clone());
    // Accepted batches are drained before shutdown exits: `next` only
    // reports the end once the queue is empty.
    while let Some(batch) = ingest.backlog.next() {
        let rows = batch.len() as u64;
        // Schema validation first (durable services only — the apply
        // path already rejects all-or-nothing, so without a WAL the
        // extra pass buys nothing): a batch that could never apply
        // (arity/type mismatch — a deterministic error) must be rejected
        // *before* it reaches the WAL. Logged-but-unappliable records
        // would fail again on every replay and wedge recovery.
        if durable.is_some() {
            if let Err(e) = master.fact().validate_rows(&batch) {
                ingest.fail(e.to_string());
                ingest.backlog.mark_done();
                continue;
            }
        }
        // Then durability: the batch reaches the WAL before any
        // in-memory state changes. A failed append rejects the batch
        // (surfaced on the next flush) rather than applying it
        // non-durably — an accepted-and-applied batch must never be
        // losable to a crash.
        if let Some(d) = &mut durable {
            match d.wal.append(&encode_wal_payload(master.epoch(), &batch)) {
                Ok(framed) => {
                    d.wal_bytes_since_snapshot += framed;
                    let m = &inner.metrics;
                    m.wal_appends.inc();
                    m.wal_bytes.add(framed);
                }
                Err(e) => {
                    ingest.fail(format!("wal append failed: {e}"));
                    ingest.backlog.mark_done();
                    continue;
                }
            }
        }
        match apply_batch(&mut master, &mut maintainer, &batch) {
            Ok(report) => {
                let epoch = master.epoch();
                // Copy-on-publish: the snapshot is immutable from birth;
                // the master stays private to this thread.
                inner.db.publish(Arc::new(master.clone()));
                let purged = inner.results.retain(|(_, e), _| *e == epoch);
                inner.elp.retain(|_, p| p.epoch == epoch);
                let m = &inner.metrics;
                m.rows_ingested.add(rows);
                m.epochs_published.inc();
                m.families_folded.add(report.folded.len() as u64);
                m.families_refreshed.add(report.refreshed.len() as u64);
                m.stale_results_purged.add(purged as u64);
                // Background compaction between batches: merge runs of
                // small sealed segments (and manage residency for the
                // ELP cache's hot families when demotion is enabled).
                // Pure metadata — the epoch is untouched, readers keep
                // their pinned snapshots, and the next checkpoint
                // simply persists the merged cover.
                let mut hot = inner.elp.map_entries(|_, p| p.family_idx);
                hot.sort_unstable();
                hot.dedup();
                compactor.tick(&mut master, &hot);
                // Sample-health gauges (drift, weight skew, staleness,
                // residency, fill, stratum coverage) for every family,
                // refreshed once per applied batch.
                let _ = maintainer.publish_health(&master);
                if let Some(d) = &mut durable {
                    d.segments_sealed_since_snapshot += 1;
                    let wal_trip = d.cfg.snapshot_wal_bytes > 0
                        && d.wal_bytes_since_snapshot >= d.cfg.snapshot_wal_bytes;
                    let seal_trip = d.cfg.snapshot_sealed_segments > 0
                        && d.segments_sealed_since_snapshot >= d.cfg.snapshot_sealed_segments;
                    if wal_trip || seal_trip {
                        if let Err(e) = checkpoint(inner, &master, d) {
                            // The WAL still covers the batches; only the
                            // checkpoint cadence slipped. Surface it.
                            ingest.fail(format!("checkpoint failed: {e}"));
                        }
                    }
                }
            }
            Err(e) => {
                // Nothing is published: readers keep the previous epoch.
                // A failed append dropped the batch with the master
                // untouched; a failed maintenance pass can only mean a
                // failed full *refresh* (fold errors fall back to
                // refresh inside `fold_or_refresh`), which does not
                // happen for families whose columns exist — and the
                // snapshot the readers hold remains self-consistent
                // regardless. The error surfaces on the next flush.
                ingest.fail(e.to_string());
            }
        }
        ingest.backlog.mark_done();
    }
    // A clean shutdown leaves a snapshot with no WAL tail, so the next
    // start is a pure cold-start open. No lock is held here: the
    // (potentially large, fsynced) snapshot write must not block
    // `append_rows`/`flush_ingest` callers racing shutdown — they fail
    // fast instead.
    if let Some(d) = &mut durable {
        if d.cfg.snapshot_on_shutdown && d.segments_sealed_since_snapshot > 0 {
            let _ = checkpoint(inner, &master, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{city_rows, fixture_db_owned, service};

    #[test]
    fn static_service_rejects_appends() {
        let svc = service(5_000, ServiceConfig::default());
        match svc.append_rows(city_rows("city1", 10)) {
            Err(IngestError::NotIngesting) => {}
            other => panic!("expected NotIngesting, got {other:?}"),
        }
        assert!(matches!(svc.flush_ingest(), Err(IngestError::NotIngesting)));
    }

    #[test]
    fn append_advances_epoch_and_ingests_rows() {
        let svc = QueryService::with_ingest(
            fixture_db_owned(10_000),
            ServiceConfig::default(),
            IngestConfig::default(),
        );
        let e0 = svc.current_epoch();
        svc.append_rows(city_rows("city3", 500)).unwrap();
        let e1 = svc.flush_ingest().unwrap();
        assert!(e1 > e0, "publish must advance the epoch: {e0} -> {e1}");
        assert_eq!(svc.current_epoch(), e1);
        let m = svc.metrics();
        assert_eq!(m.rows_ingested, 500);
        assert_eq!(m.epochs_published, 1);
        assert_eq!(
            m.families_folded + m.families_refreshed,
            svc.db().families().len() as u64,
            "every family gets a maintenance decision per batch"
        );
        // The published snapshot actually contains the appended rows.
        assert_eq!(svc.db().fact().num_rows(), 10_500);
    }

    /// The stale-result-cache bugfix: a cached answer must never survive
    /// an epoch change. Before the epoch key, the second lookup would
    /// have returned the pre-append answer from cache forever.
    #[test]
    fn result_cache_never_serves_across_epochs() {
        let svc = QueryService::with_ingest(
            fixture_db_owned(10_000),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            IngestConfig::default(),
        );
        let sql = "SELECT COUNT(*) FROM sessions WHERE city = 'city5' WITHIN 10 SECONDS";
        let (_, first) = svc.submit(sql).unwrap().wait();
        let first = first.unwrap();
        assert!(!first.from_cache);
        // Warm hit at the same epoch.
        let (_, warm) = svc.submit(sql).unwrap().wait();
        let warm = warm.unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.epoch, first.epoch);

        // Grow city5 by a lot and publish a new epoch.
        svc.append_rows(city_rows("city5", 4_000)).unwrap();
        let e1 = svc.flush_ingest().unwrap();
        let (_, fresh) = svc.submit(sql).unwrap().wait();
        let fresh = fresh.unwrap();
        assert!(
            !fresh.from_cache,
            "post-ingest repeat must recompute, not re-serve the stale answer"
        );
        assert_eq!(fresh.epoch, e1);
        let old = first.answer.answer.rows[0].aggs[0].estimate;
        let new = fresh.answer.answer.rows[0].aggs[0].estimate;
        assert!(
            new > old * 2.0,
            "estimate must move toward the new truth: {old} -> {new}"
        );
        assert!(svc.metrics().stale_results_purged > 0);
    }

    /// The stale-ELP-profile bugfix: a profile fitted before an ingest
    /// fails the epoch check even though the family layout is unchanged,
    /// so the worker re-runs the full probe pipeline and re-fits.
    #[test]
    fn elp_profiles_invalidate_on_epoch_change() {
        let svc = QueryService::with_ingest(
            fixture_db_owned(10_000),
            ServiceConfig::default(),
            IngestConfig::default(),
        );
        // Two same-template queries: the second hits the ELP cache.
        for i in [1, 2] {
            let sql =
                format!("SELECT COUNT(*) FROM sessions WHERE city = 'city{i}' WITHIN 10 SECONDS");
            svc.submit(&sql).unwrap().wait().1.unwrap();
        }
        let hits_before = svc.metrics().elp_cache_hits;
        assert!(hits_before > 0, "same template must hit the ELP cache");

        svc.append_rows(city_rows("city9", 2_000)).unwrap();
        svc.flush_ingest().unwrap();
        let misses_before = svc.metrics().elp_cache_misses;
        svc.submit("SELECT COUNT(*) FROM sessions WHERE city = 'city3' WITHIN 10 SECONDS")
            .unwrap()
            .wait()
            .1
            .unwrap();
        let m = svc.metrics();
        assert_eq!(
            m.elp_cache_hits, hits_before,
            "stale-epoch profile must not count as a hit"
        );
        assert_eq!(
            m.elp_cache_misses,
            misses_before + 1,
            "the full pipeline must re-run after the epoch change"
        );
    }

    #[test]
    fn bad_append_surfaces_on_flush_and_keeps_serving() {
        let svc = QueryService::with_ingest(
            fixture_db_owned(5_000),
            ServiceConfig::default(),
            IngestConfig::default(),
        );
        let e0 = svc.current_epoch();
        svc.append_rows(vec![vec![Value::Float(3.0)]]).unwrap();
        match svc.flush_ingest() {
            Err(IngestError::Failed(_)) => {}
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(svc.current_epoch(), e0, "no epoch published on failure");
        // The service still answers queries afterwards.
        svc.submit("SELECT COUNT(*) FROM sessions WITHIN 10 SECONDS")
            .unwrap()
            .wait()
            .1
            .unwrap();
        // And a subsequent good batch applies cleanly.
        svc.append_rows(city_rows("city2", 50)).unwrap();
        assert!(svc.flush_ingest().unwrap() > e0);
    }

    fn durability(name: &str, snapshot_every: u64, snapshot_on_shutdown: bool) -> DurabilityConfig {
        let dir =
            std::env::temp_dir().join(format!("blinkdb-svc-durable-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DurabilityConfig {
            dir,
            fsync: false,
            // Tests key the cadence purely off sealed segments (one
            // per applied batch); the byte trigger stays out of the
            // way.
            snapshot_wal_bytes: 0,
            snapshot_sealed_segments: snapshot_every,
            snapshot_on_shutdown,
        }
    }

    #[test]
    fn durable_ingest_logs_checkpoints_and_recovers() {
        let dur = durability("roundtrip", 2, true);
        let svc = QueryService::with_ingest_durable(
            fixture_db_owned(10_000),
            ServiceConfig::default(),
            IngestConfig::default(),
            dur.clone(),
        )
        .unwrap();
        for b in 0..3 {
            svc.append_rows(city_rows("city7", 200 + b)).unwrap();
        }
        let epoch = svc.flush_ingest().unwrap();
        let rows = svc.db().fact().num_rows();
        let m = svc.metrics();
        assert_eq!(m.wal_appends, 3);
        assert!(m.wal_bytes > 0);
        assert!(
            m.snapshots_written >= 2,
            "initial + cadence checkpoint: {m:?}"
        );
        drop(svc); // clean shutdown: final checkpoint, empty WAL

        let back = QueryService::recover(
            ServiceConfig::default(),
            IngestConfig::default(),
            dur.clone(),
        )
        .unwrap();
        assert_eq!(
            back.metrics().wal_batches_replayed,
            0,
            "clean shutdown has no tail"
        );
        assert_eq!(back.current_epoch(), epoch);
        assert_eq!(back.db().fact().num_rows(), rows);
        // The recovered service keeps serving and ingesting.
        let (_, r) = back
            .submit("SELECT COUNT(*) FROM sessions WHERE city = 'city7' WITHIN 10 SECONDS")
            .unwrap()
            .wait();
        r.unwrap();
        back.append_rows(city_rows("city2", 50)).unwrap();
        assert!(back.flush_ingest().unwrap() > epoch);
    }

    #[test]
    fn recovery_replays_the_wal_tail_after_a_simulated_kill() {
        // No periodic checkpoint and no shutdown snapshot: everything
        // after the initial save lives only in the WAL — a killed
        // process in miniature.
        let dur = durability("kill", 0, false);
        let svc = QueryService::with_ingest_durable(
            fixture_db_owned(10_000),
            ServiceConfig::default(),
            IngestConfig::default(),
            dur.clone(),
        )
        .unwrap();
        svc.append_rows(city_rows("city3", 2_000)).unwrap();
        svc.append_rows(city_rows("city3", 1_000)).unwrap();
        let epoch = svc.flush_ingest().unwrap();
        let rows = svc.db().fact().num_rows();
        drop(svc);

        let back =
            QueryService::recover(ServiceConfig::default(), IngestConfig::default(), dur).unwrap();
        let m = back.metrics();
        assert_eq!(m.wal_batches_replayed, 2);
        assert_eq!(
            back.current_epoch(),
            epoch,
            "recovery resumes at the epoch of the last durable batch"
        );
        assert_eq!(back.db().fact().num_rows(), rows);
        let (_, r) = back
            .submit("SELECT COUNT(*) FROM sessions WHERE city = 'city3' WITHIN 10 SECONDS")
            .unwrap()
            .wait();
        let est = r.unwrap().answer.answer.rows[0].aggs[0].estimate;
        // city3 truth after the appends: ~10000/31 + 3000.
        let truth = 10_000.0 / 31.0 + 3_000.0;
        assert!(
            (est - truth).abs() / truth < 0.25,
            "recovered estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn invalid_batch_never_reaches_the_wal_and_cannot_poison_recovery() {
        // No checkpoints after the initial save: every applied batch
        // lives only in the WAL, so recovery must replay all of them.
        let dur = durability("poison", 0, false);
        let svc = QueryService::with_ingest_durable(
            fixture_db_owned(10_000),
            ServiceConfig::default(),
            IngestConfig::default(),
            dur.clone(),
        )
        .unwrap();
        svc.append_rows(city_rows("city4", 500)).unwrap();
        // Wrong arity: this batch can never apply. It must be rejected
        // *before* the WAL append — a logged-but-unappliable record
        // would fail again on every replay and leave the store
        // permanently unrecoverable after a crash.
        svc.append_rows(vec![vec![Value::Float(1.0)]]).unwrap();
        match svc.flush_ingest() {
            Err(IngestError::Failed(e)) => assert!(e.contains("arity"), "{e}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        // A good batch after the bad one still applies and logs.
        svc.append_rows(city_rows("city4", 250)).unwrap();
        let epoch = svc.flush_ingest().unwrap();
        let rows = svc.db().fact().num_rows();
        assert_eq!(
            svc.metrics().wal_appends,
            2,
            "the invalid batch was never logged"
        );
        assert_eq!(
            blinkdb_persist::replay_wal(dur.wal_path())
                .unwrap()
                .records
                .len(),
            2
        );
        drop(svc);

        // Recovery replays exactly the two good batches and resumes at
        // their epoch — the rejected batch left no trace.
        let back =
            QueryService::recover(ServiceConfig::default(), IngestConfig::default(), dur).unwrap();
        assert_eq!(back.metrics().wal_batches_replayed, 2);
        assert_eq!(back.current_epoch(), epoch);
        assert_eq!(back.db().fact().num_rows(), rows);
        assert!(back.flush_ingest().is_ok(), "nothing was skipped");
    }

    #[test]
    fn a_poisoned_wal_record_is_skipped_not_fatal() {
        let dur = durability("legacy-poison", 0, false);
        let svc = QueryService::with_ingest_durable(
            fixture_db_owned(10_000),
            ServiceConfig::default(),
            IngestConfig::default(),
            dur.clone(),
        )
        .unwrap();
        svc.append_rows(city_rows("city5", 300)).unwrap();
        let epoch = svc.flush_ingest().unwrap();
        drop(svc);
        // Defense in depth: validation keeps unappliable batches out of
        // the WAL, but a record an older/foreign writer managed to log
        // must still not brick the store. Hand-append one stamped at
        // the current epoch whose apply can only fail.
        {
            let mut wal = Wal::open(dur.wal_path(), false).unwrap();
            wal.append(&encode_wal_payload(epoch, &[vec![Value::Float(1.0)]]))
                .unwrap();
            // And a CRC-valid frame whose payload does not even decode
            // (too short for the epoch stamp): same skip treatment.
            wal.append(&[0xFF; 5]).unwrap();
        }
        let back = QueryService::recover(
            ServiceConfig::default(),
            IngestConfig::default(),
            dur.clone(),
        )
        .unwrap();
        assert_eq!(back.metrics().wal_batches_replayed, 1, "the good batch");
        assert_eq!(back.current_epoch(), epoch);
        match back.flush_ingest() {
            Err(IngestError::Failed(e)) => assert!(e.contains("2 wal record(s) skipped"), "{e}"),
            other => panic!("the skip must surface on flush, got {other:?}"),
        }
        drop(back);
        // The post-replay checkpoint retired the poison: a second
        // recovery is clean — no crash loop.
        let again =
            QueryService::recover(ServiceConfig::default(), IngestConfig::default(), dur).unwrap();
        assert_eq!(again.current_epoch(), epoch);
        assert_eq!(again.metrics().wal_batches_replayed, 0);
        assert!(again.flush_ingest().is_ok());
    }
}
