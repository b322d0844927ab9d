//! The `.blk` segment file: a versioned, checksummed columnar container.
//!
//! A segment holds named **chunks** — opaque byte payloads — indexed by a
//! footer written last:
//!
//! ```text
//! ┌────────────────┬──────────┬──────────┬─────┬────────┬────────────┬────────┐
//! │ "BLKD" version │ chunk 0  │ chunk 1  │ ... │ footer │ footer_len │ "BLKE" │
//! └────────────────┴──────────┴──────────┴─────┴────────┴────────────┴────────┘
//! ```
//!
//! The footer records `(name, rows, offset, len, crc32)` per chunk; every
//! read verifies the chunk's CRC and reports a **precise** error (file,
//! chunk, offset, expected/actual checksum) on mismatch, so a flipped bit
//! in a cold segment can never flow into a query answer.
//!
//! [`write_table`]/[`read_table`] lay a [`Table`] out as one chunk per
//! column per row group (the on-disk analogue of HDFS blocks):
//! fixed-size row groups keep individual chunks — and the blast radius
//! of a bad checksum — bounded. String columns persist their
//! dictionary *natively* (interned strings + per-row codes), so a reloaded
//! table is bit-identical to the saved one, dictionary order included.

use crate::codec::{Dec, Enc};
use crate::crc::crc32;
use blinkdb_common::column::{Column, ColumnData};
use blinkdb_common::error::{BlinkError, Result};
use blinkdb_common::schema::{Field, Schema};
use blinkdb_common::value::DataType;
use blinkdb_storage::Table;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"BLKD";
const END_MAGIC: &[u8; 4] = b"BLKE";
const VERSION: u32 = 1;

/// Physical rows per on-disk row group (one chunk per column per group).
pub const ROWS_PER_BLOCK: usize = 65_536;

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
    }
}

fn tag_dtype(tag: u8, what: &str) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        t => {
            return Err(BlinkError::internal(format!(
                "{what}: unknown dtype tag {t}"
            )))
        }
    })
}

/// One footer entry.
#[derive(Debug, Clone)]
struct ChunkEntry {
    name: String,
    rows: u64,
    offset: u64,
    len: u64,
    crc: u32,
}

/// Streams chunks into a new segment file; [`SegmentWriter::finish`]
/// writes the footer and (optionally) fsyncs.
#[derive(Debug)]
pub struct SegmentWriter {
    path: PathBuf,
    file: std::fs::File,
    offset: u64,
    entries: Vec<ChunkEntry>,
}

impl SegmentWriter {
    /// Creates (truncating) the segment at `path` and writes the header.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::File::create(&path)
            .map_err(|e| BlinkError::internal(format!("create {}: {e}", path.display())))?;
        file.write_all(MAGIC)
            .and_then(|_| file.write_all(&VERSION.to_le_bytes()))
            .map_err(|e| BlinkError::internal(format!("write {}: {e}", path.display())))?;
        Ok(SegmentWriter {
            path,
            file,
            offset: 8,
            entries: Vec::new(),
        })
    }

    /// Appends a chunk. `rows` is informational metadata recorded in the
    /// footer (0 for non-tabular chunks).
    pub fn chunk(&mut self, name: &str, rows: u64, payload: &[u8]) -> Result<()> {
        self.file
            .write_all(payload)
            .map_err(|e| BlinkError::internal(format!("write {}: {e}", self.path.display())))?;
        self.entries.push(ChunkEntry {
            name: name.to_string(),
            rows,
            offset: self.offset,
            len: payload.len() as u64,
            crc: crc32(payload),
        });
        self.offset += payload.len() as u64;
        Ok(())
    }

    /// Writes the footer + trailer, optionally fsyncs, and returns the
    /// total file size in bytes.
    pub fn finish(mut self, fsync: bool) -> Result<u64> {
        let mut footer = Enc::new();
        footer.u32(self.entries.len() as u32);
        for e in &self.entries {
            footer.str(&e.name);
            footer.u64(e.rows);
            footer.u64(e.offset);
            footer.u64(e.len);
            footer.u32(e.crc);
        }
        let footer = footer.into_bytes();
        let mut trailer = Enc::new();
        trailer.raw(&footer);
        // The footer is checksummed like any chunk: a flipped byte in
        // the *index* (names, offsets, lengths) must be a precise error,
        // not an out-of-range offset fed to a slice.
        trailer.u32(crc32(&footer));
        trailer.u64(footer.len() as u64);
        trailer.raw(END_MAGIC);
        let trailer = trailer.into_bytes();
        self.file
            .write_all(&trailer)
            .map_err(|e| BlinkError::internal(format!("write {}: {e}", self.path.display())))?;
        if fsync {
            self.file
                .sync_all()
                .map_err(|e| BlinkError::internal(format!("fsync {}: {e}", self.path.display())))?;
        }
        Ok(self.offset + trailer.len() as u64)
    }
}

/// A loaded segment: the raw bytes plus the parsed footer index.
#[derive(Debug)]
pub struct Segment {
    path: PathBuf,
    data: Vec<u8>,
    index: Vec<ChunkEntry>,
}

impl Segment {
    /// Reads and indexes the segment at `path`, validating the header
    /// and trailer magics and the format version.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let data = std::fs::read(&path)
            .map_err(|e| BlinkError::internal(format!("read {}: {e}", path.display())))?;
        let name = path.display().to_string();
        if data.len() < 8 + 16 || &data[..4] != MAGIC {
            return Err(BlinkError::internal(format!(
                "{name}: not a blinkdb segment (bad or missing magic)"
            )));
        }
        let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(BlinkError::internal(format!(
                "{name}: unsupported segment version {version} (expected {VERSION})"
            )));
        }
        if &data[data.len() - 4..] != END_MAGIC {
            return Err(BlinkError::internal(format!(
                "{name}: truncated segment (missing end magic)"
            )));
        }
        let footer_len =
            u64::from_le_bytes(data[data.len() - 12..data.len() - 4].try_into().unwrap()) as usize;
        let footer_start = data
            .len()
            .checked_sub(16 + footer_len)
            .filter(|&s| s >= 8)
            .ok_or_else(|| {
                BlinkError::internal(format!("{name}: footer length {footer_len} out of range"))
            })?;
        let footer = &data[footer_start..data.len() - 16];
        let stored_crc =
            u32::from_le_bytes(data[data.len() - 16..data.len() - 12].try_into().unwrap());
        let actual_crc = crc32(footer);
        if stored_crc != actual_crc {
            return Err(BlinkError::internal(format!(
                "{name}: footer at offset {footer_start}: checksum mismatch \
                 (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            )));
        }
        let mut d = Dec::new(footer, format!("{name} footer"));
        let n = d.u32()? as usize;
        // The CRC above vouches for the footer, but cap the
        // preallocation by what could physically fit anyway.
        let mut index = Vec::with_capacity(n.min(footer.len() / 24 + 1));
        for _ in 0..n {
            let entry = ChunkEntry {
                name: d.str()?,
                rows: d.u64()?,
                offset: d.u64()?,
                len: d.u64()?,
                crc: d.u32()?,
            };
            let end = entry.offset.checked_add(entry.len).ok_or_else(|| {
                BlinkError::internal(format!(
                    "{name}: chunk `{}` at offset {} has an overflowing extent",
                    entry.name, entry.offset
                ))
            })?;
            if end > footer_start as u64 {
                return Err(BlinkError::internal(format!(
                    "{name}: chunk `{}` at offset {} overruns the data region",
                    entry.name, entry.offset
                )));
            }
            index.push(entry);
        }
        Ok(Segment { path, data, index })
    }

    /// The file this segment was read from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The verified payload of chunk `name`: the CRC recorded in the
    /// footer is recomputed over the bytes, and a mismatch is a precise
    /// error naming the file, the chunk, and its offset.
    pub fn chunk(&self, name: &str) -> Result<&[u8]> {
        let entry = self.index.iter().find(|e| e.name == name).ok_or_else(|| {
            BlinkError::internal(format!("{}: missing chunk `{name}`", self.path.display()))
        })?;
        let payload = &self.data[entry.offset as usize..(entry.offset + entry.len) as usize];
        let actual = crc32(payload);
        if actual != entry.crc {
            return Err(BlinkError::internal(format!(
                "{}: chunk `{}` at offset {}: checksum mismatch (stored {:#010x}, computed {:#010x})",
                self.path.display(),
                entry.name,
                entry.offset,
                entry.crc,
                actual
            )));
        }
        Ok(payload)
    }

    /// [`Segment::chunk`] wrapped in a decoder with a useful context.
    pub fn decoder(&self, name: &str) -> Result<Dec<'_>> {
        let payload = self.chunk(name)?;
        Ok(Dec::new(
            payload,
            format!("{} chunk `{name}`", self.path.display()),
        ))
    }
}

/// Serializes `table` into `writer` under the chunk-name prefix
/// `prefix`: the [`write_table_meta`] chunk set plus one
/// [`write_table_slice`] covering every row, under the sub-prefix
/// `{prefix}:rows` so the two `:meta` chunks cannot collide. A 0-row
/// table is the meta chunks alone.
pub fn write_table(writer: &mut SegmentWriter, prefix: &str, table: &Table) -> Result<()> {
    write_table_meta(writer, prefix, table)?;
    if table.num_rows() > 0 {
        let rows = format!("{prefix}:rows");
        write_table_slice(writer, &rows, table, 0, table.num_rows())?;
    }
    Ok(())
}

/// Reads back a table written by [`write_table`] under `prefix`.
/// Bit-identical reconstruction: column payloads, null validity, string
/// dictionaries (including entries no surviving row references), and the
/// logical scale metadata all round-trip exactly.
pub fn read_table(segment: &Segment, prefix: &str) -> Result<Table> {
    let mut asm = TableAssembler::new(segment, prefix)?;
    if asm.total_rows() > 0 {
        asm.append_slice(segment, &format!("{prefix}:rows"))?;
    }
    asm.finish()
}

/// Serializes the *slice-independent* state of `table` under `prefix`:
/// name, schema, logical scale, total row count, and every string
/// column's full dictionary. The incremental-checkpoint path writes
/// this small chunk set fresh on every checkpoint while fact *rows*
/// are persisted once per sealed segment ([`write_table_slice`]) and
/// never rewritten.
///
/// Rewriting the dictionaries here is what keeps old segment slices
/// valid forever: dictionaries are append-only interned, so a segment
/// sealed when the dictionary had `d` entries stores codes `< d`, and
/// every later checkpoint's dictionary is a superset — the codes still
/// decode to the same strings, bit-identically.
pub fn write_table_meta(writer: &mut SegmentWriter, prefix: &str, table: &Table) -> Result<()> {
    let mut meta = Enc::new();
    meta.str(table.name());
    meta.u32(table.schema().len() as u32);
    for f in table.schema().fields() {
        meta.str(&f.name);
        meta.u8(dtype_tag(f.dtype));
    }
    meta.u64(table.num_rows() as u64);
    meta.f64(table.logical_rows_per_row());
    meta.u64(table.row_bytes());
    writer.chunk(
        &format!("{prefix}:meta"),
        table.num_rows() as u64,
        &meta.into_bytes(),
    )?;
    for (c, field) in table.schema().fields().iter().enumerate() {
        if field.dtype == DataType::Str {
            let sc = table.column(c).strs().expect("schema says Str");
            let mut e = Enc::new();
            e.u64(sc.dict_len() as u64);
            for code in 0..sc.dict_len() as u32 {
                e.str(sc.decode(code).expect("dense dictionary"));
            }
            writer.chunk(&format!("{prefix}:col{c}:dict"), 0, &e.into_bytes())?;
        }
    }
    Ok(())
}

/// Serializes rows `[start, end)` of `table` under `prefix`: per-column
/// validity and raw values only (string columns store dictionary
/// codes). Everything slice-independent — schema, dictionaries,
/// logical scale — lives in [`write_table_meta`], so a sealed
/// segment's slice file never needs rewriting as the table (and its
/// dictionaries) grow.
///
/// # Panics
///
/// Panics if the range is empty or out of bounds.
pub fn write_table_slice(
    writer: &mut SegmentWriter,
    prefix: &str,
    table: &Table,
    start: usize,
    end: usize,
) -> Result<()> {
    assert!(
        start < end && end <= table.num_rows(),
        "slice {start}..{end} out of bounds for {} rows",
        table.num_rows()
    );
    let len = end - start;
    let groups = len.div_ceil(ROWS_PER_BLOCK);
    let mut meta = Enc::new();
    meta.u64(start as u64);
    meta.u64(len as u64);
    meta.u32(table.schema().len() as u32);
    meta.u64(groups as u64);
    writer.chunk(&format!("{prefix}:meta"), len as u64, &meta.into_bytes())?;
    for (c, _) in table.schema().fields().iter().enumerate() {
        let col = table.column(c);
        for g in 0..groups {
            let gs = start + g * ROWS_PER_BLOCK;
            let ge = (gs + ROWS_PER_BLOCK).min(end);
            let mut e = Enc::new();
            let has_nulls = (gs..ge).any(|r| !col.is_valid(r));
            e.u8(has_nulls as u8);
            if has_nulls {
                for r in gs..ge {
                    e.u8(col.is_valid(r) as u8);
                }
            }
            match col.data() {
                ColumnData::Bool(v) => {
                    for &b in &v[gs..ge] {
                        e.u8(b as u8);
                    }
                }
                ColumnData::Int(v) => {
                    for &i in &v[gs..ge] {
                        e.i64(i);
                    }
                }
                ColumnData::Float(v) => {
                    for &f in &v[gs..ge] {
                        e.f64(f);
                    }
                }
                ColumnData::Str(sc) => {
                    for &code in &sc.codes()[gs..ge] {
                        e.u32(code);
                    }
                }
            }
            writer.chunk(
                &format!("{prefix}:col{c}:g{g}"),
                (ge - gs) as u64,
                &e.into_bytes(),
            )?;
        }
    }
    Ok(())
}

/// Reassembles a [`Table`] from one [`write_table_meta`] chunk set plus
/// an ordered sequence of [`write_table_slice`] files — the read side
/// of incremental fact persistence. Slices must arrive in row order and
/// cover `0..total_rows` exactly; gaps, overlaps, and shortfalls are
/// errors, never silently honest-looking tables.
pub struct TableAssembler {
    name: String,
    schema: Schema,
    total_rows: usize,
    logical_rows_per_row: f64,
    row_bytes: u64,
    dicts: Vec<Vec<String>>,
    validity: Vec<Option<Vec<bool>>>,
    bools: Vec<Vec<bool>>,
    ints: Vec<Vec<i64>>,
    floats: Vec<Vec<f64>>,
    codes: Vec<Vec<u32>>,
    next_row: usize,
}

impl TableAssembler {
    /// Starts assembly from the table-meta chunks written under
    /// `prefix` in `segment`.
    pub fn new(segment: &Segment, prefix: &str) -> Result<Self> {
        let mut meta = segment.decoder(&format!("{prefix}:meta"))?;
        let name = meta.str()?;
        let ncols = meta.u32()? as usize;
        let mut fields = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let fname = meta.str()?;
            let dtype = tag_dtype(meta.u8()?, &format!("{} schema", segment.path().display()))?;
            fields.push(Field::new(fname, dtype));
        }
        let total_rows = meta.u64()? as usize;
        let logical_rows_per_row = meta.f64()?;
        let row_bytes = meta.u64()?;
        let schema = Schema::new(fields);
        let mut dicts = Vec::with_capacity(ncols);
        for (c, field) in schema.fields().iter().enumerate() {
            if field.dtype == DataType::Str {
                let mut d = segment.decoder(&format!("{prefix}:col{c}:dict"))?;
                let len = d.u64()? as usize;
                dicts.push((0..len).map(|_| d.str()).collect::<Result<_>>()?);
            } else {
                dicts.push(Vec::new());
            }
        }
        Ok(TableAssembler {
            name,
            schema,
            total_rows,
            logical_rows_per_row,
            row_bytes,
            dicts,
            validity: vec![None; ncols],
            bools: vec![Vec::new(); ncols],
            ints: vec![Vec::new(); ncols],
            floats: vec![Vec::new(); ncols],
            codes: vec![Vec::new(); ncols],
            next_row: 0,
        })
    }

    /// Rows appended so far.
    pub fn assembled_rows(&self) -> usize {
        self.next_row
    }

    /// Total rows the finished table must have (from the meta chunks).
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Appends the slice stored under `prefix` in `segment`. The
    /// slice's recorded start row must equal the rows assembled so far.
    pub fn append_slice(&mut self, segment: &Segment, prefix: &str) -> Result<()> {
        let mut meta = segment.decoder(&format!("{prefix}:meta"))?;
        let start = meta.u64()? as usize;
        let len = meta.u64()? as usize;
        let ncols = meta.u32()? as usize;
        let groups = meta.u64()? as usize;
        if start != self.next_row {
            return Err(BlinkError::internal(format!(
                "{}: slice starts at row {start}, expected {}",
                segment.path().display(),
                self.next_row
            )));
        }
        if ncols != self.schema.len() {
            return Err(BlinkError::internal(format!(
                "{}: slice has {ncols} columns, table has {}",
                segment.path().display(),
                self.schema.len()
            )));
        }
        for (c, field) in self.schema.fields().iter().enumerate() {
            let mut seen = 0usize;
            for g in 0..groups {
                let rows = (len - g * ROWS_PER_BLOCK).min(ROWS_PER_BLOCK);
                let mut d = segment.decoder(&format!("{prefix}:col{c}:g{g}"))?;
                let has_nulls = d.u8()? != 0;
                if has_nulls && self.validity[c].is_none() {
                    self.validity[c] = Some(vec![true; self.next_row + seen]);
                }
                if let Some(v) = &mut self.validity[c] {
                    if has_nulls {
                        for _ in 0..rows {
                            v.push(d.u8()? != 0);
                        }
                    } else {
                        v.extend(std::iter::repeat_n(true, rows));
                    }
                }
                match field.dtype {
                    DataType::Bool => {
                        for _ in 0..rows {
                            self.bools[c].push(d.u8()? != 0);
                        }
                    }
                    DataType::Int => {
                        for _ in 0..rows {
                            self.ints[c].push(d.i64()?);
                        }
                    }
                    DataType::Float => {
                        for _ in 0..rows {
                            self.floats[c].push(d.f64()?);
                        }
                    }
                    DataType::Str => {
                        for _ in 0..rows {
                            self.codes[c].push(d.u32()?);
                        }
                    }
                }
                seen += rows;
            }
            if seen != len {
                return Err(BlinkError::internal(format!(
                    "{}: column {c} groups cover {seen} rows, slice declares {len}",
                    segment.path().display()
                )));
            }
        }
        self.next_row += len;
        Ok(())
    }

    /// Builds the table. Errors if the appended slices do not cover
    /// exactly `total_rows`, or any string code exceeds its dictionary.
    pub fn finish(self) -> Result<Table> {
        if self.next_row != self.total_rows {
            return Err(BlinkError::internal(format!(
                "table `{}`: slices cover {} rows, meta declares {}",
                self.name, self.next_row, self.total_rows
            )));
        }
        let mut columns = Vec::with_capacity(self.schema.len());
        let TableAssembler {
            name,
            schema,
            logical_rows_per_row,
            row_bytes,
            mut dicts,
            mut validity,
            mut bools,
            mut ints,
            mut floats,
            mut codes,
            ..
        } = self;
        for (c, field) in schema.fields().iter().enumerate() {
            let data = match field.dtype {
                DataType::Bool => ColumnData::Bool(std::mem::take(&mut bools[c])),
                DataType::Int => ColumnData::Int(std::mem::take(&mut ints[c])),
                DataType::Float => ColumnData::Float(std::mem::take(&mut floats[c])),
                DataType::Str => {
                    let codes = std::mem::take(&mut codes[c]);
                    let dict = std::mem::take(&mut dicts[c]);
                    let max_code = codes.iter().copied().max().map_or(0, |m| m as usize + 1);
                    if max_code > dict.len() {
                        return Err(BlinkError::internal(format!(
                            "table `{name}`: column {c}: code {} exceeds dictionary of {}",
                            max_code - 1,
                            dict.len()
                        )));
                    }
                    ColumnData::Str(blinkdb_common::column::StrColumn::from_dict_codes(
                        dict, codes,
                    ))
                }
            };
            columns.push(Column::from_parts(data, std::mem::take(&mut validity[c])));
        }
        let mut table = Table::from_columns(name, schema, columns)?;
        table.set_logical_scale(logical_rows_per_row, row_bytes);
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blinkdb_common::Value;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("blinkdb-blk-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("seg.blk")
    }

    fn fixture_table(rows: usize) -> Table {
        fixture_table_with(rows, |i| i % 11 == 0)
    }

    /// `null_at(i)` decides whether row `i`'s float is NULL.
    fn fixture_table_with(rows: usize, null_at: impl Fn(usize) -> bool) -> Table {
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("n", DataType::Int),
            Field::new("x", DataType::Float),
            Field::new("ok", DataType::Bool),
        ]);
        let mut t = Table::new("sessions", schema);
        for i in 0..rows {
            let city = format!("city{}", i % 7);
            let x = if null_at(i) {
                Value::Null
            } else {
                Value::Float(i as f64 * 0.25)
            };
            t.push_row(&[
                Value::str(&city),
                Value::Int(i as i64),
                x,
                Value::Bool(i % 3 == 0),
            ])
            .unwrap();
        }
        t.set_logical_scale(123.5, 777);
        t
    }

    #[test]
    fn table_round_trips_bit_identically() {
        // Besides the plain fixture: a 0-row table (meta chunks only, no
        // slice) and one whose only NULLs sit in the second row group
        // (the validity vector must be back-filled for group 0).
        for (i, t) in [
            fixture_table(1000),
            fixture_table(0),
            fixture_table_with(ROWS_PER_BLOCK + 17, |i| i > ROWS_PER_BLOCK && i % 5 == 0),
        ]
        .iter()
        .enumerate()
        {
            let path = tmp(&format!("roundtrip{i}"));
            let mut w = SegmentWriter::create(&path).unwrap();
            write_table(&mut w, "fact", t).unwrap();
            w.finish(false).unwrap();

            let seg = Segment::open(&path).unwrap();
            let back = read_table(&seg, "fact").unwrap();
            assert_tables_equal(&back, t);
            // Dictionary structure preserved exactly (codes, not just values).
            let (a, b) = (t.column(0).strs().unwrap(), back.column(0).strs().unwrap());
            assert_eq!(a.codes(), b.codes());
            assert_eq!(a.dict_len(), b.dict_len());
        }
    }

    #[test]
    fn dictionary_preserves_unused_entries() {
        // A gathered table keeps dictionary entries no row references;
        // the reload must too (distinct counts depend on dict size).
        let t = fixture_table(100);
        let sub = t.gather(&[0, 7, 14]);
        let dict_before = sub.column(0).strs().unwrap().dict_len();
        assert_eq!(dict_before, 7, "gather keeps the full dictionary");
        let path = tmp("dict");
        let mut w = SegmentWriter::create(&path).unwrap();
        write_table(&mut w, "t", &sub).unwrap();
        w.finish(false).unwrap();
        let back = read_table(&Segment::open(&path).unwrap(), "t").unwrap();
        assert_eq!(back.column(0).strs().unwrap().dict_len(), dict_before);
        assert_eq!(
            back.column(0).distinct_count(),
            sub.column(0).distinct_count()
        );
    }

    #[test]
    fn multi_group_tables_split_into_block_chunks() {
        let path = tmp("groups");
        let t = fixture_table(ROWS_PER_BLOCK + 17);
        let mut w = SegmentWriter::create(&path).unwrap();
        write_table(&mut w, "t", &t).unwrap();
        w.finish(false).unwrap();
        let seg = Segment::open(&path).unwrap();
        assert!(
            seg.chunk("t:rows:col1:g1").is_ok(),
            "second row group exists"
        );
        let back = read_table(&seg, "t").unwrap();
        assert_eq!(back.num_rows(), t.num_rows());
        assert_eq!(
            back.value(ROWS_PER_BLOCK + 3, 1),
            t.value(ROWS_PER_BLOCK + 3, 1)
        );
    }

    #[test]
    fn flipped_byte_is_a_precise_checksum_error() {
        let path = tmp("corrupt");
        let t = fixture_table(500);
        let mut w = SegmentWriter::create(&path).unwrap();
        write_table(&mut w, "t", &t).unwrap();
        w.finish(false).unwrap();

        // Flip one byte inside the first column chunk's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[64] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let seg = Segment::open(&path).unwrap();
        let err = read_table(&seg, "t").unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(err.contains("seg.blk"), "names the file: {err}");
        assert!(err.contains("offset"), "names the offset: {err}");
    }

    #[test]
    fn flipped_byte_in_the_footer_is_a_precise_error_not_a_panic() {
        let path = tmp("corrupt-footer");
        let t = fixture_table(500);
        let mut w = SegmentWriter::create(&path).unwrap();
        write_table(&mut w, "t", &t).unwrap();
        w.finish(false).unwrap();

        // Flip a byte inside the footer (the index of names/offsets/
        // lengths), where a wild offset could otherwise panic a slice.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = bytes.len() - 40;
        bytes[idx] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();

        let err = Segment::open(&path).unwrap_err().to_string();
        assert!(err.contains("footer"), "{err}");
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn truncated_segment_is_rejected() {
        let path = tmp("trunc");
        let t = fixture_table(100);
        let mut w = SegmentWriter::create(&path).unwrap();
        write_table(&mut w, "t", &t).unwrap();
        w.finish(false).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let err = Segment::open(&path).unwrap_err().to_string();
        assert!(err.contains("truncated") || err.contains("magic"), "{err}");
    }

    fn assert_tables_equal(back: &Table, t: &Table) {
        assert_eq!(back.name(), t.name());
        assert_eq!(back.schema(), t.schema());
        assert_eq!(back.num_rows(), t.num_rows());
        assert_eq!(back.logical_rows_per_row(), t.logical_rows_per_row());
        assert_eq!(back.row_bytes(), t.row_bytes());
        for r in 0..t.num_rows() {
            for c in 0..t.schema().len() {
                assert_eq!(back.value(r, c), t.value(r, c), "row {r} col {c}");
            }
        }
    }

    #[test]
    fn sliced_table_reassembles_bit_identically() {
        let t = fixture_table(1000);
        let dir = tmp("slices");
        let dir = dir.parent().unwrap().to_path_buf();

        let meta_path = dir.join("meta.blk");
        let mut w = SegmentWriter::create(&meta_path).unwrap();
        write_table_meta(&mut w, "fact", &t).unwrap();
        w.finish(false).unwrap();

        // Uneven cuts, including a single-row tail slice.
        let cuts = [(0usize, 300usize), (300, 999), (999, 1000)];
        let mut slice_paths = Vec::new();
        for (i, &(s, e)) in cuts.iter().enumerate() {
            let p = dir.join(format!("s{i}.blk"));
            let mut w = SegmentWriter::create(&p).unwrap();
            write_table_slice(&mut w, "fact", &t, s, e).unwrap();
            w.finish(false).unwrap();
            slice_paths.push(p);
        }

        let mut asm = TableAssembler::new(&Segment::open(&meta_path).unwrap(), "fact").unwrap();
        for p in &slice_paths {
            asm.append_slice(&Segment::open(p).unwrap(), "fact")
                .unwrap();
        }
        let back = asm.finish().unwrap();
        assert_tables_equal(&back, &t);
        let (a, b) = (t.column(0).strs().unwrap(), back.column(0).strs().unwrap());
        assert_eq!(a.codes(), b.codes());
        assert_eq!(a.dict_len(), b.dict_len());
    }

    #[test]
    fn slices_written_against_a_smaller_dictionary_stay_valid() {
        // A segment sealed early stores codes against the dictionary of
        // its day; the checkpoint that finally reads it back carries the
        // grown (superset) dictionary. Interning is append-only, so the
        // old codes must still decode bit-identically.
        let build = |rows: usize| {
            let schema = Schema::new(vec![
                Field::new("city", DataType::Str),
                Field::new("n", DataType::Int),
            ]);
            let mut t = Table::new("grow", schema);
            for i in 0..rows {
                t.push_row(&[Value::str(format!("c{}", i / 60)), Value::Int(i as i64)])
                    .unwrap();
            }
            t
        };
        let early = build(150);
        let full = build(400);
        assert!(
            full.column(0).strs().unwrap().dict_len() > early.column(0).strs().unwrap().dict_len(),
            "fixture must actually grow the dictionary"
        );

        let dir = tmp("growdict").parent().unwrap().to_path_buf();
        let s0 = dir.join("s0.blk");
        let mut w = SegmentWriter::create(&s0).unwrap();
        write_table_slice(&mut w, "f", &early, 0, 150).unwrap();
        w.finish(false).unwrap();
        let s1 = dir.join("s1.blk");
        let mut w = SegmentWriter::create(&s1).unwrap();
        write_table_slice(&mut w, "f", &full, 150, 400).unwrap();
        w.finish(false).unwrap();
        let meta = dir.join("meta.blk");
        let mut w = SegmentWriter::create(&meta).unwrap();
        write_table_meta(&mut w, "f", &full).unwrap();
        w.finish(false).unwrap();

        let mut asm = TableAssembler::new(&Segment::open(&meta).unwrap(), "f").unwrap();
        asm.append_slice(&Segment::open(&s0).unwrap(), "f").unwrap();
        asm.append_slice(&Segment::open(&s1).unwrap(), "f").unwrap();
        assert_tables_equal(&asm.finish().unwrap(), &full);
    }

    #[test]
    fn gapped_or_short_slice_sequences_are_rejected() {
        let t = fixture_table(1000);
        let dir = tmp("gaps").parent().unwrap().to_path_buf();
        let meta = dir.join("meta.blk");
        let mut w = SegmentWriter::create(&meta).unwrap();
        write_table_meta(&mut w, "f", &t).unwrap();
        w.finish(false).unwrap();
        let mk = |name: &str, s: usize, e: usize| {
            let p = dir.join(name);
            let mut w = SegmentWriter::create(&p).unwrap();
            write_table_slice(&mut w, "f", &t, s, e).unwrap();
            w.finish(false).unwrap();
            p
        };
        let head = mk("head.blk", 0, 300);
        let tail = mk("tail.blk", 400, 1000);

        // A gap (300..400 missing) is a hard error, not a short table.
        let mut asm = TableAssembler::new(&Segment::open(&meta).unwrap(), "f").unwrap();
        asm.append_slice(&Segment::open(&head).unwrap(), "f")
            .unwrap();
        let err = asm
            .append_slice(&Segment::open(&tail).unwrap(), "f")
            .unwrap_err();
        assert!(err.to_string().contains("expected 300"), "{err}");

        // Stopping short of the declared total is equally fatal.
        let mut asm = TableAssembler::new(&Segment::open(&meta).unwrap(), "f").unwrap();
        asm.append_slice(&Segment::open(&head).unwrap(), "f")
            .unwrap();
        let err = asm.finish().unwrap_err();
        assert!(err.to_string().contains("declares 1000"), "{err}");
    }

    #[test]
    fn multi_group_slices_round_trip() {
        // Second input: NULLs only in the *second* row group of the
        // second slice — validity must be back-filled across both the
        // earlier slice and the earlier group.
        for (i, t) in [
            fixture_table(ROWS_PER_BLOCK + 1700),
            fixture_table_with(ROWS_PER_BLOCK + 1700, |i| i >= ROWS_PER_BLOCK + 1000),
        ]
        .iter()
        .enumerate()
        {
            let dir = tmp(&format!("bigslice{i}")).parent().unwrap().to_path_buf();
            let meta = dir.join("meta.blk");
            let mut w = SegmentWriter::create(&meta).unwrap();
            write_table_meta(&mut w, "f", t).unwrap();
            w.finish(false).unwrap();
            // One slice larger than a row group: the group loop inside the
            // slice must chunk and reassemble without losing alignment.
            let cut = 900;
            let s0 = dir.join("s0.blk");
            let mut w = SegmentWriter::create(&s0).unwrap();
            write_table_slice(&mut w, "f", t, 0, cut).unwrap();
            w.finish(false).unwrap();
            let s1 = dir.join("s1.blk");
            let mut w = SegmentWriter::create(&s1).unwrap();
            write_table_slice(&mut w, "f", t, cut, t.num_rows()).unwrap();
            w.finish(false).unwrap();

            let mut asm = TableAssembler::new(&Segment::open(&meta).unwrap(), "f").unwrap();
            asm.append_slice(&Segment::open(&s0).unwrap(), "f").unwrap();
            asm.append_slice(&Segment::open(&s1).unwrap(), "f").unwrap();
            assert_tables_equal(&asm.finish().unwrap(), t);
        }
    }
}
