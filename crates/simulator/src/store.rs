//! The off-board trace repository.
//!
//! Fig. 1 of the paper: traces recorded on-board are stored in a common
//! repository and analyzed off-board, journey by journey (Table 6 processes
//! 1/7/12 journeys). This module is that repository at laptop scale: a
//! directory of journey files plus a plain-text index.
//!
//! Journeys are stored in the chunked columnar `.ivns` format
//! ([`ivnt_store`]), the only trace file format, so downstream extraction
//! can push predicates into the storage layer. Raw-trace CSV from external
//! capture tooling is imported into it ([`TraceStore::import_csv_journey`]).

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::trace::{Trace, TraceRecord};

/// Metadata of one stored journey.
#[derive(Debug, Clone, PartialEq)]
pub struct JourneyMeta {
    /// Journey name (unique within the store).
    pub name: String,
    /// Records in the trace.
    pub records: usize,
    /// Recording duration in seconds.
    pub duration_s: f64,
    /// File name within the store directory.
    pub file: String,
}

/// A directory-backed store of journey traces with a text index.
///
/// # Examples
///
/// ```no_run
/// use ivnt_simulator::store::TraceStore;
/// use ivnt_simulator::trace::Trace;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = TraceStore::open("/tmp/fleet")?;
/// store.add_journey("monday-commute", &Trace::new())?;
/// for meta in store.journeys() {
///     println!("{}: {} records", meta.name, meta.records);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceStore {
    root: PathBuf,
    index: Vec<JourneyMeta>,
}

const INDEX_FILE: &str = "index.txt";

impl TraceStore {
    /// Opens (or creates) a store at `root`, loading its index.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and malformed index lines.
    pub fn open(root: impl AsRef<Path>) -> Result<TraceStore> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let index_path = root.join(INDEX_FILE);
        let mut index = Vec::new();
        if index_path.exists() {
            for (i, line) in fs::read_to_string(&index_path)?.lines().enumerate() {
                if line.is_empty() {
                    continue;
                }
                let mut parts = line.split('|');
                let parse = |p: Option<&str>| {
                    p.map(str::to_string)
                        .ok_or_else(|| Error::Format(format!("index line {} malformed", i + 1)))
                };
                let name = parse(parts.next())?;
                let records: usize = parse(parts.next())?
                    .parse()
                    .map_err(|_| Error::Format(format!("index line {} malformed", i + 1)))?;
                let duration_us: u64 = parse(parts.next())?
                    .parse()
                    .map_err(|_| Error::Format(format!("index line {} malformed", i + 1)))?;
                let file = parse(parts.next())?;
                index.push(JourneyMeta {
                    name,
                    records,
                    duration_s: duration_us as f64 / 1e6,
                    file,
                });
            }
        }
        Ok(TraceStore { root, index })
    }

    /// The store's directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// All stored journeys, in insertion order.
    pub fn journeys(&self) -> &[JourneyMeta] {
        &self.index
    }

    /// Metadata for one journey.
    pub fn journey(&self, name: &str) -> Option<&JourneyMeta> {
        self.index.iter().find(|j| j.name == name)
    }

    /// Stores a journey under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidScenario`] for duplicate names or names with
    /// path separators, and propagates I/O failures.
    pub fn add_journey(&mut self, name: &str, trace: &Trace) -> Result<()> {
        if name.is_empty() || name.contains('/') || name.contains('|') || name.contains('\\') {
            return Err(Error::InvalidScenario(format!(
                "journey name {name:?} must be non-empty without '/', '\\\\' or '|'"
            )));
        }
        if self.journey(name).is_some() {
            return Err(Error::InvalidScenario(format!(
                "journey {name:?} already stored"
            )));
        }
        let file = format!("{name}.{}", ivnt_store::FILE_EXTENSION);
        let mut writer = ivnt_store::StoreWriter::create(
            self.root.join(&file),
            ivnt_store::WriterOptions::default(),
        )
        .map_err(Error::from)?;
        for r in trace.records() {
            writer.append(r).map_err(Error::from)?;
        }
        writer.finish().map_err(Error::from)?;
        self.index.push(JourneyMeta {
            name: name.to_string(),
            records: trace.len(),
            duration_s: trace.duration_s(),
            file,
        });
        self.write_index()
    }

    /// Imports a raw-trace CSV (columns `t,l,b_id,m_id,m_info`, as written
    /// by the tabular engine's CSV export) as a journey. The journey is
    /// stored in the native `.ivns` format; CSV is the interchange
    /// fallback for traces produced by external capture tooling.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Format`] for unparsable CSV and the same
    /// conditions as [`TraceStore::add_journey`].
    pub fn import_csv_journey<R: Read>(&mut self, name: &str, reader: R) -> Result<()> {
        let trace = read_csv_trace(reader)?;
        self.add_journey(name, &trace)
    }

    /// Loads one journey's full trace.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidScenario`] for unknown names and propagates
    /// I/O/store failures.
    pub fn load(&self, name: &str) -> Result<Trace> {
        let records = self.reader(name)?.read_all()?;
        Ok(Trace::from_records(records))
    }

    /// Loads the records of a journey within `[from_s, to_s)`. The window
    /// is pushed into the store scan as a zone-map predicate, so chunks
    /// outside it are skipped without being read.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceStore::load`].
    pub fn load_range(&self, name: &str, from_s: f64, to_s: f64) -> Result<Trace> {
        let mut records = Vec::new();
        self.reader(name)?
            .scan::<Error, _>(&window_predicate(from_s, to_s), |group| {
                // The µs predicate is conservative; the exact f64-second
                // boundary is re-checked per row.
                records.extend(group.into_iter().filter(|r| {
                    let t = r.timestamp_s();
                    t >= from_s && t < to_s
                }));
                Ok(())
            })?;
        Ok(Trace::from_records(records))
    }

    /// Loads several journeys merged into one time-sorted trace (the
    /// multi-journey workloads of Table 6 — timestamps are per-journey
    /// relative, so merging interleaves; use [`TraceStore::load`] per
    /// journey when journeys must stay separate).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceStore::load`].
    pub fn load_merged(&self, names: &[&str]) -> Result<Trace> {
        let mut merged = Trace::new();
        for name in names {
            merged.merge(self.load(name)?);
        }
        Ok(merged)
    }

    /// Removes a journey and its file.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidScenario`] for unknown names and propagates
    /// I/O failures.
    pub fn remove(&mut self, name: &str) -> Result<()> {
        let pos = self
            .index
            .iter()
            .position(|j| j.name == name)
            .ok_or_else(|| Error::InvalidScenario(format!("unknown journey {name:?}")))?;
        let meta = self.index.remove(pos);
        let path = self.root.join(&meta.file);
        if path.exists() {
            fs::remove_file(path)?;
        }
        self.write_index()
    }

    /// Scan statistics for one journey under a time window — how many
    /// chunks the zone maps pruned.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceStore::load`].
    pub fn range_scan_stats(
        &self,
        name: &str,
        from_s: f64,
        to_s: f64,
    ) -> Result<ivnt_store::ScanStats> {
        self.reader(name)?
            .scan::<Error, _>(&window_predicate(from_s, to_s), |_| Ok(()))
    }

    /// Opens one journey's store file.
    fn reader(&self, name: &str) -> Result<ivnt_store::StoreReader<std::io::BufReader<fs::File>>> {
        let meta = self
            .journey(name)
            .ok_or_else(|| Error::InvalidScenario(format!("unknown journey {name:?}")))?;
        Ok(ivnt_store::StoreReader::open(self.root.join(&meta.file))?)
    }

    fn write_index(&self) -> Result<()> {
        let mut text = String::new();
        for j in &self.index {
            text.push_str(&format!(
                "{}|{}|{}|{}\n",
                j.name,
                j.records,
                (j.duration_s * 1e6) as u64,
                j.file
            ));
        }
        fs::write(self.root.join(INDEX_FILE), text)?;
        Ok(())
    }
}

/// The zone-map predicate covering `[from_s, to_s)` in conservative µs
/// bounds.
fn window_predicate(from_s: f64, to_s: f64) -> ivnt_store::Predicate {
    let from_us = (from_s.max(0.0) * 1e6).floor() as u64;
    let to_us = (to_s.max(0.0) * 1e6).ceil() as u64;
    ivnt_store::Predicate::all().with_time_range_us(from_us, to_us)
}

/// Parses a raw-trace CSV (`t,l,b_id,m_id,m_info`) into a [`Trace`].
///
/// # Errors
///
/// Returns [`Error::Format`] for unparsable CSV, unknown protocol names,
/// or out-of-range timestamps/message ids.
pub fn read_csv_trace<R: Read>(reader: R) -> Result<Trace> {
    use ivnt_protocol::message::Protocol;
    use ivnt_store::schema::columns as c;

    let frame = ivnt_frame::csv::read_csv(reader, ivnt_store::schema::raw_trace_schema())
        .map_err(|e| Error::Format(format!("csv trace import failed: {e}")))?;
    // Intern bus names so repeated channels share one allocation, as the
    // simulator's own traces do.
    let mut buses: Vec<Arc<str>> = Vec::new();
    let mut records = Vec::with_capacity(frame.num_rows());
    for row in frame
        .collect_rows()
        .map_err(|e| Error::Format(format!("csv trace import failed: {e}")))?
    {
        let cell = |i: usize| &row[i];
        let t = cell(0)
            .as_float()
            .ok_or_else(|| Error::Format(format!("csv {} cell is not a number", c::T)))?;
        if !t.is_finite() || t < 0.0 {
            return Err(Error::Format(format!("csv {} cell {t} out of range", c::T)));
        }
        let payload = match cell(1) {
            ivnt_frame::value::Value::Bytes(b) => b.to_vec(),
            ivnt_frame::value::Value::Null => Vec::new(),
            other => {
                return Err(Error::Format(format!(
                    "csv {} cell {other:?} is not bytes",
                    c::PAYLOAD
                )))
            }
        };
        let bus_name = match cell(2) {
            ivnt_frame::value::Value::Str(s) => s.clone(),
            other => {
                return Err(Error::Format(format!(
                    "csv {} cell {other:?} is not a string",
                    c::BUS
                )))
            }
        };
        let bus = match buses.iter().find(|b| b.as_ref() == bus_name.as_ref()) {
            Some(b) => b.clone(),
            None => {
                buses.push(bus_name.clone());
                bus_name
            }
        };
        let mid = cell(3)
            .as_int()
            .and_then(|m| u32::try_from(m).ok())
            .ok_or_else(|| {
                Error::Format(format!("csv {} cell is not a message id", c::MESSAGE_ID))
            })?;
        let protocol = match cell(4) {
            ivnt_frame::value::Value::Str(s) => match s.as_ref() {
                "CAN" => Protocol::Can,
                "CAN FD" => Protocol::CanFd,
                "LIN" => Protocol::Lin,
                "SOME/IP" => Protocol::SomeIp,
                other => return Err(Error::Format(format!("csv unknown protocol {other:?}"))),
            },
            other => {
                return Err(Error::Format(format!(
                    "csv {} cell {other:?} is not a string",
                    c::INFO
                )))
            }
        };
        records.push(TraceRecord {
            timestamp_us: (t * 1e6).round() as u64,
            bus,
            message_id: mid,
            payload,
            protocol,
        });
    }
    Ok(Trace::from_records(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{generate, DataSetSpec};

    fn temp_store(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ivnt-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_trace(seed: u64) -> Trace {
        generate(&DataSetSpec::syn().with_duration_s(1.0).with_seed(seed))
            .unwrap()
            .trace
    }

    #[test]
    fn add_load_roundtrip() {
        let root = temp_store("roundtrip");
        let mut store = TraceStore::open(&root).unwrap();
        let trace = sample_trace(1);
        store.add_journey("j1", &trace).unwrap();
        assert_eq!(store.journeys().len(), 1);
        assert_eq!(store.journey("j1").unwrap().records, trace.len());
        let loaded = store.load("j1").unwrap();
        assert_eq!(loaded, trace);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn index_survives_reopen() {
        let root = temp_store("reopen");
        {
            let mut store = TraceStore::open(&root).unwrap();
            store.add_journey("a", &sample_trace(1)).unwrap();
            store.add_journey("b", &sample_trace(2)).unwrap();
        }
        let store = TraceStore::open(&root).unwrap();
        assert_eq!(store.journeys().len(), 2);
        assert!(store.load("b").is_ok());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn duplicate_and_bad_names_rejected() {
        let root = temp_store("names");
        let mut store = TraceStore::open(&root).unwrap();
        store.add_journey("j", &Trace::new()).unwrap();
        assert!(store.add_journey("j", &Trace::new()).is_err());
        assert!(store.add_journey("a/b", &Trace::new()).is_err());
        assert!(store.add_journey("a|b", &Trace::new()).is_err());
        assert!(store.add_journey("", &Trace::new()).is_err());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn load_range_filters_by_time() {
        let root = temp_store("range");
        let mut store = TraceStore::open(&root).unwrap();
        let trace = sample_trace(3);
        store.add_journey("j", &trace).unwrap();
        let slice = store.load_range("j", 0.2, 0.4).unwrap();
        assert!(!slice.is_empty());
        assert!(slice.len() < trace.len());
        for r in slice.iter() {
            assert!((0.2..0.4).contains(&r.timestamp_s()));
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn merged_load_is_time_sorted() {
        let root = temp_store("merge");
        let mut store = TraceStore::open(&root).unwrap();
        store.add_journey("a", &sample_trace(1)).unwrap();
        store.add_journey("b", &sample_trace(2)).unwrap();
        let merged = store.load_merged(&["a", "b"]).unwrap();
        assert_eq!(
            merged.len(),
            store.journey("a").unwrap().records + store.journey("b").unwrap().records
        );
        let times: Vec<u64> = merged.iter().map(|r| r.timestamp_us).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn remove_deletes_file_and_index() {
        let root = temp_store("remove");
        let mut store = TraceStore::open(&root).unwrap();
        store.add_journey("gone", &sample_trace(4)).unwrap();
        store.remove("gone").unwrap();
        assert!(store.journeys().is_empty());
        assert!(store.load("gone").is_err());
        assert!(store.remove("gone").is_err());
        // Reopen shows the removal persisted.
        let store = TraceStore::open(&root).unwrap();
        assert!(store.journeys().is_empty());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn csv_journeys_import_and_load() {
        let root = temp_store("csv");
        let trace = sample_trace(5);
        // Render the trace as a raw-trace CSV, as external tooling would.
        let schema = ivnt_store::schema::raw_trace_schema();
        let batch = ivnt_store::schema::records_to_batch(schema.clone(), trace.records()).unwrap();
        let frame = ivnt_frame::frame::DataFrame::from_partitions(schema, vec![batch]).unwrap();
        let mut csv = Vec::new();
        ivnt_frame::csv::write_csv(&frame, &mut csv).unwrap();

        // Import path: parse + store natively.
        let mut store = TraceStore::open(&root).unwrap();
        store
            .import_csv_journey("imported", csv.as_slice())
            .unwrap();
        assert_eq!(store.load("imported").unwrap(), trace);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn non_store_journey_file_is_a_typed_error() {
        let root = temp_store("not-a-store");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("trip.csv"), b"not a trace").unwrap();
        fs::write(root.join(INDEX_FILE), "trip|1|1000000|trip.csv\n").unwrap();
        let store = TraceStore::open(&root).unwrap();
        let err = store.load("trip").unwrap_err();
        assert!(
            matches!(err, Error::Store(ivnt_store::Error::BadMagic)),
            "{err}"
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn range_loads_skip_chunks_on_new_format() {
        let root = temp_store("range-stats");
        let mut store = TraceStore::open(&root).unwrap();
        let trace = sample_trace(12);
        store.add_journey("j", &trace).unwrap();
        let stats = store.range_scan_stats("j", 0.0, 0.05).unwrap();
        if trace.len() > 2 * 1024 * 32 {
            // Only multi-group traces can skip on a time window (groups
            // are clustered internally but laid out in time order).
            assert!(stats.chunks_skipped > 0);
        } else {
            assert_eq!(
                stats.chunks_total,
                stats.chunks_scanned + stats.chunks_skipped
            );
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn malformed_index_reported() {
        let root = temp_store("badindex");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join(INDEX_FILE), "only|two\n").unwrap();
        assert!(TraceStore::open(&root).is_err());
        let _ = fs::remove_dir_all(root);
    }
}
