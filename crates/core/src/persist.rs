//! Snapshot save/open for a whole [`BlinkDb`] instance, with
//! *incremental* checkpoints keyed to the sealed-segment cover.
//!
//! A snapshot directory contains generation-prefixed `.blk` files plus
//! one `MANIFEST` committed atomically by rename
//! ([`blinkdb_persist::manifest`]). Fact rows are persisted **once per
//! sealed segment** (`g<gen>-s<id>-seg.blk`, a
//! [`blinkdb_persist::write_table_slice`] of that segment's row range);
//! a checkpoint that follows another reuses every slice file the
//! previous manifest committed ([`CheckpointState`]) and writes only
//! the segments sealed since — checkpoint cost is proportional to new
//! data, not total data. The small slice-independent remainder is
//! rewritten fresh each checkpoint under `g<gen>-e<epoch>-…`: the fact
//! metadata + string dictionaries (append-only interned, so old
//! slices' codes stay valid against every later superset dictionary),
//! dimension tables, and one segment per sample family. The
//! generation prefix is bumped on every save, so a new checkpoint's
//! files never overwrite the committed one's — even when both capture
//! the same epoch — and files orphaned by a crash or superseded by
//! compaction are garbage-collected only *after* the next manifest is
//! durable. The manifest names every file and carries the scalar
//! state: the data epoch, the segment log (ids, generations, row
//! ranges), the full configuration (bit-exact, so seeds and the cost
//! surface survive), the optimizer's chosen sample set, and any
//! Error–Latency [`PlanProfile`] hints the caller wants to keep warm.
//!
//! Family segments persist the *complete* sampling state — the φ-sorted
//! family table, recorded stratum frequencies, shuffle positions, source
//! rows, stratum run ids, and every resolution's row set — so a reloaded
//! family is bit-identical to the saved one: same Horvitz–Thompson
//! weights, same nested resolutions, same stratum-aligned partitioning
//! at every fan-out K, and the per-stratum reservoirs of
//! [`crate::sampling::delta`] resume exactly where they left off.
//!
//! Loaded families come back with
//! [`Residency::Loaded`]`(`[`StorageTier::Disk`]`)`: until they are
//! paged in ([`BlinkDb::page_in_family`]) or touched by a fold/refresh,
//! the ELP prices their scans at disk bandwidth — the storage tier is a
//! physical fact now, not a caller-supplied constant.

use crate::blinkdb::{BlinkDb, BlinkDbConfig, EstimatorPolicy, ExecPolicy};
use crate::epoch::DataEpoch;
use crate::optimizer::{OptimizerConfig, SamplePlan};
use crate::query::PlanProfile;
use crate::runtime::elp::LatencyModel;
use crate::sampling::{FamilyConfig, Resolution, SampleFamily};
use blinkdb_cluster::{ClusterConfig, EngineProfile};
use blinkdb_common::error::{BlinkError, Result};
use blinkdb_persist::codec::{Dec, Enc};
use blinkdb_persist::{
    manifest, read_table, write_table, write_table_meta, write_table_slice, Segment, SegmentWriter,
    TableAssembler,
};
use blinkdb_sql::template::ColumnSet;
use blinkdb_storage::{Residency, SegmentLog, SegmentMeta, StorageTier};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The manifest file name inside a snapshot directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Manifest payload version. 2: checkpoints became incremental
/// (segment-sliced fact, segment log in the manifest). 3: whole tables
/// (dimensions, family tables) are stored as meta + one slice, the
/// same layout the fact slices use.
const MANIFEST_VERSION: u32 = 3;

/// Parses the generation prefix of a segment file name (`g<N>-…`).
fn segment_generation(name: &str) -> Option<u64> {
    let rest = name.strip_prefix('g')?;
    rest[..rest.find('-')?].parse().ok()
}

/// The snapshot generation the next save into `dir` must use: one past
/// the highest generation any existing segment carries. Generations make
/// segment names unique across saves, so writing a new snapshot — even
/// at the *same epoch* as the committed one (a repeated `save` with no
/// intervening mutation, or a fresh service pointed at a directory that
/// already holds an equal-epoch snapshot) — never truncates a segment
/// the committed manifest references. A crash mid-save therefore always
/// leaves the previous snapshot readable.
///
/// A directory-scan failure is an error, not a silent default: guessing
/// generation 1 over an unreadable directory could reuse the committed
/// snapshot's segment names and reintroduce exactly the in-place
/// overwrite this scheme exists to prevent.
fn next_generation(dir: &Path) -> Result<u64> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| BlinkError::internal(format!("scan {}: {e}", dir.display())))?;
    let mut max = 0;
    for entry in entries {
        let entry =
            entry.map_err(|e| BlinkError::internal(format!("scan {}: {e}", dir.display())))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".blk") {
            if let Some(g) = segment_generation(&name) {
                max = max.max(g);
            }
        }
    }
    Ok(max + 1)
}

/// What [`BlinkDb::save`] wrote.
#[derive(Debug, Clone)]
pub struct SaveReport {
    /// The epoch the snapshot captures.
    pub epoch: DataEpoch,
    /// `.blk` files the committed manifest references (fact slices +
    /// fact metadata + dims + families), reused or fresh.
    pub segments: usize,
    /// Durable fact-slice files reused from the previous checkpoint
    /// instead of being rewritten ([`BlinkDb::save_incremental`]).
    pub segments_reused: usize,
    /// Total bytes written this save (reused slices cost nothing).
    pub bytes_written: u64,
}

/// Which sealed segments already have a durable, manifest-committed
/// slice file — the carry-over that makes checkpoints incremental.
///
/// [`BlinkDb::save_incremental`] consults it to skip rewriting fact
/// slices the previous checkpoint committed, and updates it only
/// *after* the new manifest is durable, so a crash mid-save can never
/// record a slice as durable that no committed manifest references.
/// A fresh (default) state makes the next save a full one.
#[derive(Debug, Clone, Default)]
pub struct CheckpointState {
    /// Segment id → committed slice file name.
    durable: HashMap<u64, String>,
}

impl CheckpointState {
    /// Number of segments with a committed, reusable slice file.
    pub fn durable_segments(&self) -> usize {
        self.durable.len()
    }
}

/// What [`BlinkDb::open_with_state`] yields: the reconstructed
/// instance, the persisted ELP [`PlanProfile`] hints, and the
/// manifest-seeded [`CheckpointState`].
pub type OpenedWorkspace = (BlinkDb, Vec<(String, PlanProfile)>, CheckpointState);

fn tier_tag(t: StorageTier) -> u8 {
    match t {
        StorageTier::Memory => 0,
        StorageTier::Ssd => 1,
        StorageTier::Disk => 2,
    }
}

fn tag_tier(tag: u8) -> Result<StorageTier> {
    Ok(match tag {
        0 => StorageTier::Memory,
        1 => StorageTier::Ssd,
        2 => StorageTier::Disk,
        t => return Err(BlinkError::internal(format!("unknown tier tag {t}"))),
    })
}

fn enc_family_config(e: &mut Enc, c: &FamilyConfig) {
    e.f64(c.cap);
    e.f64(c.shrink);
    e.u64(c.resolutions as u64);
    e.u8(tier_tag(c.tier));
    e.u64(c.seed);
}

fn dec_family_config(d: &mut Dec) -> Result<FamilyConfig> {
    Ok(FamilyConfig {
        cap: d.f64()?,
        shrink: d.f64()?,
        resolutions: d.u64()? as usize,
        tier: tag_tier(d.u8()?)?,
        seed: d.u64()?,
    })
}

fn enc_config(e: &mut Enc, c: &BlinkDbConfig) {
    e.u64(c.cluster.num_nodes as u64);
    e.u64(c.cluster.cores_per_node as u64);
    e.f64(c.cluster.cache_mb_per_node);
    e.f64(c.cluster.net_mbps);
    e.f64(c.cluster.random_io_penalty);
    e.f64(c.cluster.jitter);

    e.str(c.engine.name);
    e.f64(c.engine.launch_s);
    e.f64(c.engine.task_overhead_s);
    e.f64(c.engine.disk_mbps);
    e.f64(c.engine.ssd_mbps);
    e.f64(c.engine.mem_mbps);
    e.u8(c.engine.can_cache as u8);
    e.f64(c.engine.dispatch_s_per_task);

    e.u64(c.exec.partitions as u64);
    e.u64(c.exec.parallelism as u64);
    e.u8(c.exec.early_termination as u8);
    e.u8(match c.exec.estimator {
        EstimatorPolicy::Auto => 0,
        EstimatorPolicy::ClosedFormOnly => 1,
        EstimatorPolicy::BootstrapAlways => 2,
    });
    e.u32(c.exec.bootstrap_replicates);

    enc_family_config(e, &c.stratified);
    enc_family_config(e, &c.uniform);

    e.f64(c.optimizer.cap);
    e.u64(c.optimizer.max_columns as u64);
    e.f64(c.optimizer.churn);
    e.u64(c.optimizer.node_limit as u64);

    e.f64(c.default_confidence);
    e.u64(c.seed);
}

/// Maps a persisted engine name back to a `'static` label. Unknown names
/// (a caller-constructed profile) keep their numeric calibration but are
/// relabeled, since the label is display-only.
fn engine_name(name: &str) -> &'static str {
    match name {
        "Hive on Hadoop" => "Hive on Hadoop",
        "Shark (no cache)" => "Shark (no cache)",
        "Shark (cached)" => "Shark (cached)",
        "BlinkDB" => "BlinkDB",
        _ => "custom",
    }
}

fn dec_config(d: &mut Dec) -> Result<BlinkDbConfig> {
    let cluster = ClusterConfig {
        num_nodes: d.u64()? as usize,
        cores_per_node: d.u64()? as usize,
        cache_mb_per_node: d.f64()?,
        net_mbps: d.f64()?,
        random_io_penalty: d.f64()?,
        jitter: d.f64()?,
    };
    let name = engine_name(&d.str()?);
    let engine = EngineProfile {
        name,
        launch_s: d.f64()?,
        task_overhead_s: d.f64()?,
        disk_mbps: d.f64()?,
        ssd_mbps: d.f64()?,
        mem_mbps: d.f64()?,
        can_cache: d.u8()? != 0,
        dispatch_s_per_task: d.f64()?,
    };
    let exec = ExecPolicy {
        partitions: d.u64()? as usize,
        parallelism: d.u64()? as usize,
        early_termination: d.u8()? != 0,
        estimator: match d.u8()? {
            0 => EstimatorPolicy::Auto,
            1 => EstimatorPolicy::ClosedFormOnly,
            2 => EstimatorPolicy::BootstrapAlways,
            t => return Err(BlinkError::internal(format!("unknown estimator tag {t}"))),
        },
        bootstrap_replicates: d.u32()?,
        // Runtime-only flags (observability, scan-path pinning); never
        // persisted.
        trace: false,
        scalar_scan: false,
    };
    let stratified = dec_family_config(d)?;
    let uniform = dec_family_config(d)?;
    let optimizer = OptimizerConfig {
        cap: d.f64()?,
        max_columns: d.u64()? as usize,
        churn: d.f64()?,
        node_limit: d.u64()? as usize,
    };
    Ok(BlinkDbConfig {
        cluster,
        engine,
        exec,
        stratified,
        uniform,
        optimizer,
        default_confidence: d.f64()?,
        seed: d.u64()?,
    })
}

fn enc_profile(e: &mut Enc, p: &PlanProfile) {
    e.u64(p.family_idx as u64);
    e.str(&p.family_label);
    e.u64(p.probe_resolution as u64);
    e.u64(p.probe_rows);
    e.u64(p.matched_rows);
    e.f64(p.max_rel_error);
    e.f64(p.latency.intercept_s);
    e.f64(p.latency.slope_s_per_mb);
    e.f64(p.pruned_fraction);
    e.u64(p.partitions as u64);
    e.u32(p.bootstrap_replicates);
    e.u64(p.epoch.get());
}

fn dec_profile(d: &mut Dec) -> Result<PlanProfile> {
    Ok(PlanProfile {
        family_idx: d.u64()? as usize,
        family_label: d.str()?,
        probe_resolution: d.u64()? as usize,
        probe_rows: d.u64()?,
        matched_rows: d.u64()?,
        max_rel_error: d.f64()?,
        latency: LatencyModel {
            intercept_s: d.f64()?,
            slope_s_per_mb: d.f64()?,
        },
        pruned_fraction: d.f64()?,
        partitions: d.u64()? as usize,
        bootstrap_replicates: d.u32()?,
        epoch: DataEpoch::new(d.u64()?),
    })
}

/// Writes one family's full state (table + sampling arrays +
/// resolutions) as a segment file.
fn write_family(path: &Path, family: &SampleFamily, fsync: bool) -> Result<u64> {
    let mut w = SegmentWriter::create(path)?;
    write_table(&mut w, "table", family.table())?;
    let mut e = Enc::new();
    e.f64s(&family.freqs);
    w.chunk("freqs", family.freqs.len() as u64, &e.into_bytes())?;
    let mut e = Enc::new();
    e.u32s(&family.stratum_ids);
    w.chunk(
        "stratum_ids",
        family.stratum_ids.len() as u64,
        &e.into_bytes(),
    )?;
    let mut e = Enc::new();
    e.u32s(&family.source_rows);
    w.chunk(
        "source_rows",
        family.source_rows.len() as u64,
        &e.into_bytes(),
    )?;
    let mut e = Enc::new();
    e.u32s(&family.shuffle_pos);
    w.chunk(
        "shuffle_pos",
        family.shuffle_pos.len() as u64,
        &e.into_bytes(),
    )?;
    for (i, res) in family.resolutions.iter().enumerate() {
        let mut e = Enc::new();
        e.f64(res.cap);
        e.f64(res.rate);
        e.u32s(&res.rows);
        w.chunk(&format!("res{i}"), res.len() as u64, &e.into_bytes())?;
    }
    w.finish(fsync)
}

/// Reads back a family segment; scalar metadata (columns, uniform flag,
/// tier override, resolution count) comes from the manifest.
fn read_family(
    path: &Path,
    columns: ColumnSet,
    uniform: bool,
    tier_override: Option<StorageTier>,
    n_resolutions: usize,
) -> Result<SampleFamily> {
    let seg = Segment::open(path)?;
    let table = read_table(&seg, "table")?;
    let freqs = seg.decoder("freqs")?.f64s()?;
    let stratum_ids = seg.decoder("stratum_ids")?.u32s()?;
    let source_rows = seg.decoder("source_rows")?.u32s()?;
    let shuffle_pos = seg.decoder("shuffle_pos")?.u32s()?;
    let mut resolutions = Vec::with_capacity(n_resolutions);
    for i in 0..n_resolutions {
        let mut d = seg.decoder(&format!("res{i}"))?;
        resolutions.push(Resolution {
            cap: d.f64()?,
            rate: d.f64()?,
            rows: d.u32s()?,
        });
    }
    if freqs.len() != table.num_rows() || source_rows.len() != table.num_rows() {
        return Err(BlinkError::internal(format!(
            "{}: family arrays disagree with the table ({} rows, {} freqs, {} sources)",
            path.display(),
            table.num_rows(),
            freqs.len(),
            source_rows.len()
        )));
    }
    Ok(SampleFamily {
        columns,
        table,
        freqs,
        stratum_ids,
        source_rows,
        shuffle_pos,
        resolutions,
        // The segments this family was just read from are its backing
        // store: scans price at disk bandwidth until it is paged in.
        residency: Residency::Loaded(StorageTier::Disk),
        tier_override,
        uniform,
    })
}

impl BlinkDb {
    /// Persists the whole instance into `dir`: one fact slice per
    /// sealed segment, the fact metadata + dictionaries, every
    /// dimension table, and every sample family (complete reservoir
    /// state included), then an atomically committed manifest. Every
    /// save writes under a fresh generation prefix, so a crash at any
    /// point leaves the previous snapshot readable — including a
    /// re-save at the same epoch, which would otherwise overwrite the
    /// committed snapshot's files in place; stale files are
    /// garbage-collected only after the new manifest is durable.
    ///
    /// Fsync behaviour follows `BLINKDB_FSYNC`
    /// ([`blinkdb_persist::fsync_default`]).
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<SaveReport> {
        self.save_with(dir, &[], blinkdb_persist::fsync_default())
    }

    /// [`BlinkDb::save`] plus a set of Error–Latency [`PlanProfile`]
    /// hints (keyed by canonical template string) to keep warm across
    /// the restart, with an explicit fsync choice — for callers (the
    /// service's durability layer) whose configuration must override
    /// the `BLINKDB_FSYNC` environment default: a WAL that fsyncs must
    /// never be truncated over a snapshot that did not.
    ///
    /// This is a *full* save: every fact slice is rewritten. Callers
    /// checkpointing repeatedly into the same directory should hold a
    /// [`CheckpointState`] and use [`BlinkDb::save_incremental`].
    pub fn save_with(
        &self,
        dir: impl AsRef<Path>,
        profiles: &[(String, PlanProfile)],
        fsync: bool,
    ) -> Result<SaveReport> {
        self.save_incremental(dir, profiles, fsync, &mut CheckpointState::default())
    }

    /// Incremental checkpoint: persists only what changed since the
    /// slices recorded in `state` were committed.
    ///
    /// Fact rows are written one file per sealed segment
    /// (`g<gen>-s<id>-seg.blk`); a segment whose slice file is already
    /// durable is *reused* — referenced by the new manifest without a
    /// byte rewritten — so checkpoint cost is proportional to data
    /// sealed (or compacted) since the last checkpoint, not to total
    /// data. Fact metadata + dictionaries, dimension tables, and
    /// sample-family state are small and rewritten every time. `state`
    /// is updated to the new manifest's slice set only after the
    /// manifest commit; files the new manifest does not reference
    /// (superseded checkpoints, compacted-away inputs, crashed saves)
    /// are garbage-collected after that same commit, never before —
    /// a crash at any point leaves the previous checkpoint readable.
    pub fn save_incremental(
        &self,
        dir: impl AsRef<Path>,
        profiles: &[(String, PlanProfile)],
        fsync: bool,
        state: &mut CheckpointState,
    ) -> Result<SaveReport> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| BlinkError::internal(format!("create {}: {e}", dir.display())))?;
        let epoch = self.epoch.get();
        let gen = next_generation(dir)?;
        let mut bytes = 0u64;
        let mut segments: Vec<String> = Vec::new();
        let mut reused = 0usize;

        // Fact slices: one file per sealed segment, reused when the
        // previous manifest already committed it. (A recorded-durable
        // file that vanished from disk is rewritten, not trusted.)
        let mut slice_files: HashMap<u64, String> = HashMap::new();
        for seg in self.segments.segments() {
            let file = match state.durable.get(&seg.id) {
                Some(f) if dir.join(f).exists() => {
                    reused += 1;
                    f.clone()
                }
                _ => {
                    let f = format!("g{gen}-s{}-seg.blk", seg.id);
                    let mut w = SegmentWriter::create(dir.join(&f))?;
                    write_table_slice(&mut w, "slice", &self.fact, seg.rows.start, seg.rows.end)?;
                    bytes += w.finish(fsync)?;
                    f
                }
            };
            segments.push(file.clone());
            slice_files.insert(seg.id, file);
        }

        // Unsealed tail rows (none in normal operation: ingest seals
        // every applied batch) plus the slice-independent metadata —
        // schema, dictionaries, logical scale — rewritten fresh so old
        // slices' string codes decode against the grown dictionary.
        let sealed = self.segments.sealed_rows();
        let tail_file = if sealed < self.fact.num_rows() {
            let f = format!("g{gen}-e{epoch}-tail.blk");
            let mut w = SegmentWriter::create(dir.join(&f))?;
            write_table_slice(&mut w, "slice", &self.fact, sealed, self.fact.num_rows())?;
            bytes += w.finish(fsync)?;
            segments.push(f.clone());
            Some(f)
        } else {
            None
        };
        let factmeta_file = format!("g{gen}-e{epoch}-factmeta.blk");
        {
            let mut w = SegmentWriter::create(dir.join(&factmeta_file))?;
            write_table_meta(&mut w, "fact", &self.fact)?;
            bytes += w.finish(fsync)?;
        }
        segments.push(factmeta_file.clone());

        // Dimension tables, sorted by name for a deterministic layout.
        let mut dim_names: Vec<&String> = self.dims.keys().collect();
        dim_names.sort();
        let mut dim_files = Vec::with_capacity(dim_names.len());
        for (i, name) in dim_names.iter().enumerate() {
            let file = format!("g{gen}-e{epoch}-dim{i}.blk");
            let mut w = SegmentWriter::create(dir.join(&file))?;
            write_table(&mut w, "table", &self.dims[*name])?;
            bytes += w.finish(fsync)?;
            segments.push(file.clone());
            dim_files.push(file);
        }

        let mut fam_files = Vec::with_capacity(self.families.len());
        for (i, fam) in self.families.iter().enumerate() {
            let file = format!("g{gen}-e{epoch}-fam{i}.blk");
            bytes += write_family(&dir.join(&file), fam, fsync)?;
            segments.push(file.clone());
            fam_files.push(file);
        }

        // ---- Manifest ----
        let mut e = Enc::new();
        e.u32(MANIFEST_VERSION);
        e.u64(epoch);
        e.u64(self.runs.load(Ordering::Relaxed));
        enc_config(&mut e, &self.config);
        e.str(&factmeta_file);
        e.u64(self.fact.num_rows() as u64);
        e.u32(self.segments.segments().len() as u32);
        for seg in self.segments.segments() {
            e.u64(seg.id);
            e.u32(seg.generation);
            e.u64(seg.rows.start as u64);
            e.u64(seg.rows.end as u64);
            e.str(&slice_files[&seg.id]);
        }
        e.u64(self.segments.next_id());
        match &tail_file {
            None => e.u8(0),
            Some(f) => {
                e.u8(1);
                e.str(f);
            }
        }
        e.u32(dim_files.len() as u32);
        for f in &dim_files {
            e.str(f);
        }
        e.u32(self.families.len() as u32);
        for (fam, file) in self.families.iter().zip(&fam_files) {
            e.str(file);
            e.u8(fam.is_uniform() as u8);
            e.u32(fam.columns().len() as u32);
            for c in fam.columns().iter() {
                e.str(c);
            }
            match fam.tier_override {
                None => e.u8(0),
                Some(t) => e.u8(1 + tier_tag(t)),
            }
            e.u32(fam.num_resolutions() as u32);
        }
        match &self.plan {
            None => e.u8(0),
            Some(p) => {
                e.u8(1);
                e.u32(p.selected.len() as u32);
                for set in &p.selected {
                    e.u32(set.len() as u32);
                    for c in set.iter() {
                        e.str(c);
                    }
                }
                e.f64(p.objective);
                e.f64(p.storage_bytes);
                e.u8(p.proven_optimal as u8);
            }
        }
        e.u32(profiles.len() as u32);
        for (key, p) in profiles {
            e.str(key);
            enc_profile(&mut e, p);
        }
        let payload = e.into_bytes();
        bytes += payload.len() as u64;
        manifest::commit(dir.join(MANIFEST_FILE), &payload, fsync)?;

        // Only now — after the manifest referencing them is durable —
        // do the new slices count as reusable, and only now may files
        // the new manifest does *not* reference (superseded
        // checkpoints, compacted-away slice inputs, crashed saves) be
        // collected. Best effort: a missed unlink is re-collected by
        // the next save.
        state.durable = slice_files;
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".blk") && !segments.contains(&name) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }

        Ok(SaveReport {
            epoch: self.epoch,
            segments: segments.len(),
            segments_reused: reused,
            bytes_written: bytes,
        })
    }

    /// Reconstructs an instance from a snapshot directory written by
    /// [`BlinkDb::save`]. The result is bit-identical to the saved
    /// instance — same epoch, same configuration (and therefore seeds),
    /// same family tables, weights, and nested resolutions — except that
    /// loaded families carry [`Residency::Loaded`]`(Disk)` and price
    /// their scans at disk bandwidth until paged in.
    pub fn open(dir: impl AsRef<Path>) -> Result<BlinkDb> {
        Self::open_with_state(dir).map(|(db, _, _)| db)
    }

    /// [`BlinkDb::open`] additionally returning the persisted
    /// [`PlanProfile`] hints and the [`CheckpointState`] seeded from
    /// the committed manifest, so the
    /// caller's *next* checkpoint into the same directory is
    /// incremental from the very first save after recovery.
    pub fn open_with_state(dir: impl AsRef<Path>) -> Result<OpenedWorkspace> {
        let dir = dir.as_ref();
        let payload = manifest::read(dir.join(MANIFEST_FILE))?;
        let mut d = Dec::new(&payload, format!("{} manifest", dir.display()));
        let version = d.u32()?;
        if version != MANIFEST_VERSION {
            return Err(BlinkError::internal(format!(
                "{} manifest: unsupported snapshot version {version} (expected {MANIFEST_VERSION})",
                dir.display()
            )));
        }
        let epoch = d.u64()?;
        let runs = d.u64()?;
        let config = dec_config(&mut d)?;

        // Fact: metadata + dictionaries, then the sealed slices in row
        // order, then the unsealed tail. The assembler rejects gaps,
        // overlaps, and shortfalls.
        let factmeta_file = d.str()?;
        let fact_total = d.u64()? as usize;
        let mut asm = TableAssembler::new(&Segment::open(dir.join(&factmeta_file))?, "fact")?;
        let n_segments = d.u32()? as usize;
        let mut seg_metas = Vec::with_capacity(n_segments);
        let mut durable = HashMap::with_capacity(n_segments);
        for _ in 0..n_segments {
            let id = d.u64()?;
            let generation = d.u32()?;
            let start = d.u64()? as usize;
            let end = d.u64()? as usize;
            let file = d.str()?;
            asm.append_slice(&Segment::open(dir.join(&file))?, "slice")?;
            if asm.assembled_rows() != end {
                return Err(BlinkError::internal(format!(
                    "{file}: slice covers rows up to {}, manifest declares {start}..{end}",
                    asm.assembled_rows()
                )));
            }
            seg_metas.push(SegmentMeta {
                id,
                generation,
                rows: start..end,
            });
            durable.insert(id, file);
        }
        let next_id = d.u64()?;
        if durable.len() != n_segments || seg_metas.iter().any(|s| s.id >= next_id) {
            return Err(BlinkError::internal(format!(
                "{} manifest: segment ids must be unique and below {next_id}",
                dir.display()
            )));
        }
        let segments = SegmentLog::from_saved(seg_metas, next_id);
        if d.u8()? != 0 {
            let tail_file = d.str()?;
            asm.append_slice(&Segment::open(dir.join(&tail_file))?, "slice")?;
        }
        if asm.total_rows() != fact_total {
            return Err(BlinkError::internal(format!(
                "{factmeta_file}: declares {} rows, manifest declares {fact_total}",
                asm.total_rows()
            )));
        }
        let fact = asm.finish()?;

        let n_dims = d.u32()? as usize;
        let mut dims = std::collections::HashMap::with_capacity(n_dims);
        for _ in 0..n_dims {
            let file = d.str()?;
            let table = read_table(&Segment::open(dir.join(&file))?, "table")?;
            dims.insert(table.name().to_ascii_lowercase(), table);
        }
        let n_fams = d.u32()? as usize;
        let mut families = Vec::with_capacity(n_fams);
        for _ in 0..n_fams {
            let file = d.str()?;
            let uniform = d.u8()? != 0;
            let n_cols = d.u32()? as usize;
            let mut cols = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                cols.push(d.str()?);
            }
            let tier_override = match d.u8()? {
                0 => None,
                t => Some(tag_tier(t - 1)?),
            };
            let n_res = d.u32()? as usize;
            families.push(read_family(
                &dir.join(&file),
                ColumnSet::from_names(cols),
                uniform,
                tier_override,
                n_res,
            )?);
        }
        let plan = match d.u8()? {
            0 => None,
            _ => {
                let n = d.u32()? as usize;
                let mut selected = Vec::with_capacity(n);
                for _ in 0..n {
                    let n_cols = d.u32()? as usize;
                    let mut cols = Vec::with_capacity(n_cols);
                    for _ in 0..n_cols {
                        cols.push(d.str()?);
                    }
                    selected.push(ColumnSet::from_names(cols));
                }
                Some(SamplePlan {
                    selected,
                    objective: d.f64()?,
                    storage_bytes: d.f64()?,
                    proven_optimal: d.u8()? != 0,
                })
            }
        };
        let n_profiles = d.u32()? as usize;
        let mut profiles = Vec::with_capacity(n_profiles);
        for _ in 0..n_profiles {
            let key = d.str()?;
            profiles.push((key, dec_profile(&mut d)?));
        }
        if !d.is_exhausted() {
            return Err(BlinkError::internal(format!(
                "{} manifest: trailing bytes",
                dir.display()
            )));
        }
        if families.is_empty() {
            return Err(BlinkError::internal(format!(
                "{} manifest: snapshot has no sample families",
                dir.display()
            )));
        }
        let db = BlinkDb {
            fact,
            dims,
            families,
            plan,
            config,
            runs: AtomicU64::new(runs),
            epoch: DataEpoch::new(epoch),
            segments,
        };
        Ok((db, profiles, CheckpointState { durable }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blinkdb_common::schema::{Field, Schema};
    use blinkdb_common::value::{DataType, Value};
    use blinkdb_sql::template::WeightedTemplate;
    use blinkdb_storage::Table;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "blinkdb-core-persist-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fixture_db() -> BlinkDb {
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("t", DataType::Float),
        ]);
        let mut t = Table::new("s", schema);
        for i in 0..8_000usize {
            // Heavy skew: rank r gets ~n/2^r rows, so [city] is selected.
            let r = (i.trailing_zeros().min(9) + 1) as usize;
            t.push_row(&[
                Value::str(format!("city{r}")),
                Value::Float((i % 97) as f64),
            ])
            .unwrap();
        }
        let mut cfg = BlinkDbConfig::default();
        cfg.cluster.jitter = 0.0;
        cfg.stratified.cap = 80.0;
        cfg.stratified.resolutions = 3;
        cfg.uniform.resolutions = 3;
        cfg.optimizer.cap = 80.0;
        let mut db = BlinkDb::new(t, cfg);
        db.create_samples(
            &[WeightedTemplate {
                columns: ColumnSet::from_names(["city"]),
                weight: 1.0,
            }],
            0.6,
        )
        .unwrap();
        assert!(
            db.families().len() >= 2,
            "fixture must select the [city] family"
        );
        db
    }

    #[test]
    fn save_open_round_trips_state() {
        let dir = tmp("roundtrip");
        let db = fixture_db();
        let report = db.save(&dir).unwrap();
        assert_eq!(report.epoch, db.epoch());
        assert!(report.bytes_written > 0);

        let back = BlinkDb::open(&dir).unwrap();
        assert_eq!(back.epoch(), db.epoch());
        assert_eq!(back.config().seed, db.config().seed);
        assert_eq!(back.fact().num_rows(), db.fact().num_rows());
        assert_eq!(back.families().len(), db.families().len());
        for (a, b) in back.families().iter().zip(db.families()) {
            assert_eq!(a.label(), b.label());
            assert_eq!(a.freqs, b.freqs);
            assert_eq!(a.source_rows, b.source_rows);
            assert_eq!(a.shuffle_pos, b.shuffle_pos);
            assert_eq!(a.stratum_ids, b.stratum_ids);
            assert_eq!(a.num_resolutions(), b.num_resolutions());
            for i in 0..a.num_resolutions() {
                assert_eq!(a.resolution(i).rows, b.resolution(i).rows);
                assert_eq!(a.resolution(i).cap, b.resolution(i).cap);
            }
        }
        let plan = back.plan().expect("plan persisted");
        assert_eq!(plan.selected, db.plan().unwrap().selected);
    }

    #[test]
    fn loaded_families_price_at_disk_until_paged_in() {
        let dir = tmp("residency");
        let db = fixture_db();
        assert!(db
            .families()
            .iter()
            .all(|f| f.tier() == StorageTier::Memory));
        db.save(&dir).unwrap();
        let mut back = BlinkDb::open(&dir).unwrap();
        for f in back.families() {
            assert_eq!(f.tier(), StorageTier::Disk, "loaded ⇒ disk-priced");
            assert!(!f.residency().is_resident());
        }
        // Disk-priced scans are strictly slower on the simulated cluster.
        let sql = "SELECT COUNT(*) FROM s WHERE city = 'city3'";
        let cold = back.query(sql).unwrap();
        let e0 = back.epoch();
        back.page_in_all();
        assert_eq!(back.epoch(), e0, "page-in changes pricing, not data");
        let warm = back.query(sql).unwrap();
        assert!(
            warm.elapsed_s < cold.elapsed_s,
            "paged-in scan {} must beat disk scan {}",
            warm.elapsed_s,
            cold.elapsed_s
        );
        assert_eq!(
            warm.answer.rows[0].aggs[0].estimate, cold.answer.rows[0].aggs[0].estimate,
            "residency changes pricing, never answers"
        );
    }

    #[test]
    fn explicit_tier_override_survives_the_round_trip() {
        let dir = tmp("override");
        let mut db = fixture_db();
        db.set_family_tier(0, StorageTier::Ssd);
        db.save(&dir).unwrap();
        let back = BlinkDb::open(&dir).unwrap();
        assert_eq!(back.families()[0].tier(), StorageTier::Ssd);
        // Non-overridden families derive from residency (disk).
        assert_eq!(back.families()[1].tier(), StorageTier::Disk);
    }

    #[test]
    fn profiles_round_trip_through_the_manifest() {
        let dir = tmp("profiles");
        let db = fixture_db();
        let query =
            blinkdb_sql::parse("SELECT COUNT(*) FROM s WHERE city = 'city1' WITHIN 5 SECONDS")
                .unwrap();
        let (_, profile) = db.query_parsed_with(&query, None, None).unwrap();
        let profile = profile.unwrap();
        db.save_with(&dir, &[("tmpl".into(), profile.clone())], false)
            .unwrap();
        let (back, profiles, _) = BlinkDb::open_with_state(&dir).unwrap();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].0, "tmpl");
        let p = &profiles[0].1;
        assert_eq!(p.family_label, profile.family_label);
        assert_eq!(
            p.latency.slope_s_per_mb.to_bits(),
            profile.latency.slope_s_per_mb.to_bits()
        );
        assert_eq!(p.epoch, back.epoch());
        assert!(
            p.fresh_for(&back),
            "profile saved at the snapshot epoch is warm"
        );
    }

    #[test]
    fn resave_garbage_collects_stale_segments() {
        let dir = tmp("gc");
        let mut db = fixture_db();
        db.save(&dir).unwrap();
        let first = blk_names(&dir);
        let batch: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::str("city1"), Value::Float(i as f64)])
            .collect();
        let range = db.append_rows(&batch).unwrap();
        db.fold_family(0, range, 7).unwrap();
        // A *full* save starts from a blank CheckpointState: nothing is
        // reused, so every first-save file is stale and must go.
        db.save(&dir).unwrap();
        let second = blk_names(&dir);
        assert!(
            first.is_disjoint(&second),
            "stale files must be collected: {first:?} vs {second:?}"
        );
        let back = BlinkDb::open(&dir).unwrap();
        assert_eq!(back.epoch(), db.epoch());
        assert_eq!(back.fact().num_rows(), db.fact().num_rows());
    }

    #[test]
    fn incremental_save_reuses_durable_fact_slices() {
        let dir = tmp("incremental");
        let mut db = fixture_db();
        let mut state = CheckpointState::default();
        let full = db.save_incremental(&dir, &[], false, &mut state).unwrap();
        assert_eq!(full.segments_reused, 0, "first save has nothing to reuse");
        assert_eq!(state.durable_segments(), db.segments().segments().len());
        let bootstrap_slice = "g1-s0-seg.blk";
        assert!(dir.join(bootstrap_slice).exists());

        // Seal a small batch; the next checkpoint must rewrite only it.
        let batch: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::str("city1"), Value::Float(i as f64)])
            .collect();
        let range = db.append_rows(&batch).unwrap();
        db.fold_family(0, range, 7).unwrap();
        let incr = db.save_incremental(&dir, &[], false, &mut state).unwrap();
        assert_eq!(incr.segments_reused, 1, "the 8000-row bootstrap slice");
        assert!(
            incr.bytes_written < full.bytes_written / 2,
            "incremental ({}) must not approach full ({})",
            incr.bytes_written,
            full.bytes_written
        );
        assert!(
            dir.join(bootstrap_slice).exists(),
            "reused slice survives the second save's GC"
        );

        let (back, _, restate) = BlinkDb::open_with_state(&dir).unwrap();
        assert_eq!(back.epoch(), db.epoch());
        assert_eq!(back.fact().num_rows(), db.fact().num_rows());
        for r in 0..db.fact().num_rows() {
            for c in 0..2 {
                assert_eq!(back.fact().value(r, c), db.fact().value(r, c));
            }
        }
        assert_eq!(back.segments().segments(), db.segments().segments());
        assert_eq!(back.segments().next_id(), db.segments().next_id());
        assert_eq!(
            restate.durable_segments(),
            state.durable_segments(),
            "recovery reseeds the checkpoint state from the manifest"
        );
    }

    #[test]
    fn compaction_inputs_are_collected_only_after_the_next_commit() {
        let dir = tmp("compact-gc");
        let mut db = fixture_db();
        let mut state = CheckpointState::default();
        for i in 0..4 {
            let batch: Vec<Vec<Value>> = (0..5)
                .map(|j| vec![Value::str("city1"), Value::Float((i * 5 + j) as f64)])
                .collect();
            db.append_rows(&batch).unwrap();
        }
        db.save_incremental(&dir, &[], false, &mut state).unwrap();
        let input_slices: Vec<String> = (0..=4).map(|id| format!("g1-s{id}-seg.blk")).collect();
        for f in &input_slices {
            assert!(dir.join(f).exists(), "{f} committed by the first save");
        }

        // Merge the generation-0 run (bootstrap + the four 5-row
        // seals); the input files stay committed — and the store
        // reopenable from them — until the manifest that references
        // the merged slice lands.
        let merged = db.compact_segments(2, usize::MAX).unwrap();
        assert_eq!(merged.rows, 0..8_020);
        for f in &input_slices {
            assert!(dir.join(f).exists(), "{f} survives in-memory compaction");
        }
        let back = BlinkDb::open(&dir).unwrap();
        assert_eq!(back.fact().num_rows(), 8_020);

        let report = db.save_incremental(&dir, &[], false, &mut state).unwrap();
        assert_eq!(report.segments_reused, 0, "every input was compacted away");
        for f in &input_slices {
            assert!(!dir.join(f).exists(), "{f} superseded by the merged slice");
        }
        let back = BlinkDb::open(&dir).unwrap();
        assert_eq!(back.segments().segments(), db.segments().segments());
        assert_eq!(back.fact().num_rows(), 8_020);
    }

    #[test]
    fn open_rejects_an_unsupported_manifest_version() {
        // v1 predates incremental checkpoints; v2 stored whole tables
        // in the pre-slice layout `read_table` no longer decodes.
        for old in [1u32, 2] {
            let dir = tmp(&format!("version{old}"));
            std::fs::create_dir_all(&dir).unwrap();
            let mut e = Enc::new();
            e.u32(old);
            manifest::commit(dir.join(MANIFEST_FILE), &e.into_bytes(), false).unwrap();
            let err = match BlinkDb::open(&dir) {
                Err(e) => e,
                Ok(_) => panic!("a version-{old} manifest must be rejected"),
            };
            assert!(
                err.to_string()
                    .contains(&format!("unsupported snapshot version {old} (expected 3)")),
                "{err}"
            );
        }
    }

    fn blk_names(dir: &Path) -> std::collections::BTreeSet<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".blk"))
            .collect()
    }

    #[test]
    fn same_epoch_resave_never_overwrites_committed_segments() {
        let dir = tmp("same-epoch");
        let db = fixture_db();
        db.save(&dir).unwrap();
        let first = blk_names(&dir);
        // No mutation: the second save captures the *same epoch*. Its
        // segments must land under fresh names — if it truncated the
        // committed snapshot's files in place, a crash mid-save would
        // leave the committed manifest pointing at torn segments.
        db.save(&dir).unwrap();
        let second = blk_names(&dir);
        assert!(
            first.is_disjoint(&second),
            "re-save reused committed segment names: {first:?} vs {second:?}"
        );
        let back = BlinkDb::open(&dir).unwrap();
        assert_eq!(back.epoch(), db.epoch());
    }

    #[test]
    fn crashed_resave_leaves_the_committed_snapshot_readable() {
        let dir = tmp("torn-resave");
        let db = fixture_db();
        db.save(&dir).unwrap();
        let committed = blk_names(&dir);
        // Simulate a crash mid-re-save at the same epoch: a later
        // generation's segments exist (one of them torn), but the
        // manifest was never re-committed.
        let epoch = db.epoch().get();
        std::fs::write(dir.join(format!("g9-e{epoch}-fact.blk")), b"torn").unwrap();
        let back = BlinkDb::open(&dir).unwrap();
        assert_eq!(back.epoch(), db.epoch());
        for name in &committed {
            assert!(dir.join(name).exists(), "{name} untouched by the crash");
        }
        // The next successful save collects the orphaned segment.
        db.save(&dir).unwrap();
        assert!(!dir.join(format!("g9-e{epoch}-fact.blk")).exists());
    }

    #[test]
    fn open_rejects_a_missing_manifest() {
        let dir = tmp("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(BlinkDb::open(&dir).is_err());
    }
}
