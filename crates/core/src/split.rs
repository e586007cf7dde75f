//! Signal splitting (Algorithm 1, line 8).
//!
//! The interpreted table `K_s` is split into one time-ordered sequence per
//! signal type (`K_s^{s_id}` in the paper), since all further processing —
//! reduction, extension, classification, symbolization — is per signal.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use ivnt_frame::prelude::*;

use crate::error::Result;
use crate::interpret::{float_column, signal_schema, str_column};
use crate::tabular::columns as c;

/// One signal type's time-ordered instance sequence.
#[derive(Debug, Clone)]
pub struct SignalSequence {
    /// Signal identifier.
    pub signal: String,
    /// Rows `(t, s_id, b_id, v_num, v_text)`, sorted by time.
    pub frame: DataFrame,
}

impl SignalSequence {
    /// Number of instances.
    pub fn len(&self) -> usize {
        self.frame.num_rows()
    }

    /// `true` when the sequence holds no instances.
    pub fn is_empty(&self) -> bool {
        self.frame.is_empty()
    }

    /// Timestamps in seconds, in order.
    ///
    /// Reads the typed column slices directly — no per-cell `Value`
    /// boxing — since every branch kernel starts from this accessor.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn times(&self) -> Result<Vec<f64>> {
        let idx = self.frame.schema().index_of(c::T)?;
        let mut out = Vec::with_capacity(self.len());
        for batch in self.frame.partitions() {
            match batch.column(idx).as_float_slice() {
                Some(vals) => out.extend(vals.iter().map(|v| v.unwrap_or(f64::NAN))),
                None => out.extend(std::iter::repeat_n(f64::NAN, batch.num_rows())),
            }
        }
        Ok(out)
    }

    /// Numeric values in order (`None` where the instance is textual/null).
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn numeric_values(&self) -> Result<Vec<Option<f64>>> {
        let idx = self.frame.schema().index_of(c::VALUE_NUM)?;
        let mut out = Vec::with_capacity(self.len());
        for batch in self.frame.partitions() {
            match batch.column(idx).as_float_slice() {
                Some(vals) => out.extend_from_slice(vals),
                None => out.extend(std::iter::repeat_n(None, batch.num_rows())),
            }
        }
        Ok(out)
    }

    /// Textual values in order (`None` where the instance is numeric/null).
    ///
    /// Returns the column's shared `Arc<str>` cells, so downstream passes
    /// clone pointers, not string bytes.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn text_values(&self) -> Result<Vec<Option<Arc<str>>>> {
        let idx = self.frame.schema().index_of(c::VALUE_TEXT)?;
        let mut out = Vec::with_capacity(self.len());
        for batch in self.frame.partitions() {
            match batch.column(idx).as_str_slice() {
                Some(vals) => out.extend(vals.iter().cloned()),
                None => out.extend(std::iter::repeat_n(None, batch.num_rows())),
            }
        }
        Ok(out)
    }

    /// Per-row channel names, in order (`None` where the cell is null).
    ///
    /// Shares the column's `Arc<str>` cells like [`text_values`]
    /// (SignalSequence::text_values); used by equivalence tests comparing
    /// streaming deltas against batch sequences row by row.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn bus_values(&self) -> Result<Vec<Option<Arc<str>>>> {
        let idx = self.frame.schema().index_of(c::BUS)?;
        let mut out = Vec::with_capacity(self.len());
        for batch in self.frame.partitions() {
            match batch.column(idx).as_str_slice() {
                Some(vals) => out.extend(vals.iter().cloned()),
                None => out.extend(std::iter::repeat_n(None, batch.num_rows())),
            }
        }
        Ok(out)
    }

    /// Distinct channels the sequence was observed on, sorted.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn channels(&self) -> Result<Vec<String>> {
        let idx = self.frame.schema().index_of(c::BUS)?;
        // A split sequence's bus cells share one `Arc` per channel, so
        // collapsing pointer-equal cells first leaves a handful to sort.
        let mut buses: Vec<&Arc<str>> = Vec::new();
        for batch in self.frame.partitions() {
            let cells = batch.column(idx).as_str_slice().unwrap_or(&[]);
            for bus in cells.iter().flatten() {
                if !buses.iter().rev().take(8).any(|b| Arc::ptr_eq(b, bus)) {
                    buses.push(bus);
                }
            }
        }
        buses.sort_unstable();
        buses.dedup();
        Ok(buses.into_iter().map(|b| b.to_string()).collect())
    }
}

/// Bus code of a row whose `b_id` cell is null: past every dictionary.
const NULL_BUS: u32 = u32::MAX;

/// One signal's columns while its sequence is being built; `bus` holds
/// dictionary codes, materialized once at [`SequenceBuilder::finish`].
#[derive(Default)]
struct SignalColumns {
    t: Vec<Option<f64>>,
    bus: Vec<u32>,
    num: Vec<Option<f64>>,
    text: Vec<Option<Arc<str>>>,
}

/// The per-signal column sets of one partition, row group or micro-batch,
/// indexed by signal code: the sink the interpretation kernel emits into
/// when nobody needs `K_s` as a table.
#[doc(hidden)]
pub struct SignalRuns {
    cols: Vec<SignalColumns>,
}

impl SignalRuns {
    fn new(signals: usize) -> SignalRuns {
        SignalRuns {
            cols: (0..signals).map(|_| SignalColumns::default()).collect(),
        }
    }

    #[inline]
    pub(crate) fn push_row(
        &mut self,
        signal: u32,
        t: Option<f64>,
        bus: u32,
        num: Option<f64>,
        text: Option<Arc<str>>,
    ) {
        let cols = &mut self.cols[signal as usize];
        cols.t.push(t);
        cols.bus.push(bus);
        cols.num.push(num);
        cols.text.push(text);
    }
}

/// Hasher of [`ArcDict`]'s pointer keys, looked up once per row: heap
/// addresses differ in their middle bits already, so one multiply spreads
/// them where SipHash would cost more than the rest of the row. The keys
/// are addresses this process allocated, never outside input.
#[derive(Default)]
struct PtrHasher(u64);

impl Hasher for PtrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("pointer keys hash through write_usize");
    }

    fn write_usize(&mut self, address: usize) {
        // The product's low bits only see the address's (aligned, zero)
        // low bits; rotate its well-mixed high half down to where the
        // table takes its bucket index from.
        self.0 = (address as u64)
            .wrapping_mul(0x517c_c1b7_2722_0a95)
            .rotate_left(32);
    }
}

/// A dictionary of `Arc<str>` cells. A cell resolves to its code by
/// pointer, by content the first time a pointer is seen. The pointer table
/// is hashed: per-group kernels mint thousands of distinct `Arc`s for a few
/// dozen names, which a linear table would walk on every row.
#[derive(Default)]
struct ArcDict {
    /// Code → the cell that introduced it.
    entries: Vec<Arc<str>>,
    by_content: HashMap<Arc<str>, u32>,
    /// Keyed by the cell's data address, which no other live `Arc` shares.
    by_ptr: HashMap<usize, u32, BuildHasherDefault<PtrHasher>>,
    /// Every cell behind a `by_ptr` key, kept alive so its address cannot
    /// be handed to another string while the key exists.
    held: Vec<Arc<str>>,
}

impl ArcDict {
    fn from_entries(entries: &[Arc<str>]) -> ArcDict {
        ArcDict {
            entries: entries.to_vec(),
            ..ArcDict::default()
        }
    }

    fn code(&mut self, cell: &Arc<str>) -> u32 {
        let key = cell.as_ptr() as usize;
        if let Some(&code) = self.by_ptr.get(&key) {
            return code;
        }
        // Seeded entries (a kernel's dictionary) are indexed on first need.
        for (code, entry) in self.entries.iter().enumerate().skip(self.by_content.len()) {
            self.by_content.entry(entry.clone()).or_insert(code as u32);
        }
        let code = match self.by_content.get(cell.as_ref()) {
            Some(&code) => code,
            None => {
                let code = self.entries.len() as u32;
                self.entries.push(cell.clone());
                self.by_content.insert(cell.clone(), code);
                code
            }
        };
        self.by_ptr.insert(key, code);
        self.held.push(cell.clone());
        code
    }
}

/// Builds the per-signal sequences of line 8 incrementally: feed it one
/// partition, row group or micro-batch at a time, then [`finish`]
/// (SequenceBuilder::finish). Two feeders share it — the interpretation
/// kernel emitting [`SignalRuns`] by signal code, and [`push`]
/// (SequenceBuilder::push) routing the rows of an interpreted `K_s` batch.
///
/// Rows of a signal append in feed order. At `finish` a sequence whose
/// timestamps are already non-decreasing (under `f64::total_cmp`, nulls as
/// NaN) is emitted as is; any other is stable-sorted by that key, so ties
/// keep feed order.
pub struct SequenceBuilder {
    signals: ArcDict,
    buses: ArcDict,
    runs: SignalRuns,
}

impl Default for SequenceBuilder {
    fn default() -> Self {
        SequenceBuilder::with_dictionaries(&[], &[])
    }
}

impl SequenceBuilder {
    /// A builder whose signal and bus codes are the indices of the given
    /// dictionaries (the kernel's).
    pub(crate) fn with_dictionaries(signals: &[Arc<str>], buses: &[Arc<str>]) -> SequenceBuilder {
        SequenceBuilder {
            signals: ArcDict::from_entries(signals),
            buses: ArcDict::from_entries(buses),
            runs: SignalRuns::new(signals.len()),
        }
    }

    /// An empty sink over this builder's signal codes, for a partition
    /// decoded on another thread; hand it back through [`append`]
    /// (SequenceBuilder::append).
    pub(crate) fn new_runs(&self) -> SignalRuns {
        SignalRuns::new(self.runs.cols.len())
    }

    /// The builder's own sink, for decoding straight into it.
    #[doc(hidden)]
    pub fn runs_mut(&mut self) -> &mut SignalRuns {
        &mut self.runs
    }

    /// Appends one partition's runs after everything fed so far.
    pub(crate) fn append(&mut self, runs: SignalRuns) {
        for (mine, theirs) in self.runs.cols.iter_mut().zip(runs.cols) {
            if mine.t.is_empty() {
                *mine = theirs;
            } else {
                mine.t.extend(theirs.t);
                mine.bus.extend(theirs.bus);
                mine.num.extend(theirs.num);
                mine.text.extend(theirs.text);
            }
        }
    }

    /// Routes the rows of one interpreted `K_s` batch; rows with a null
    /// `s_id` are dropped.
    ///
    /// # Errors
    ///
    /// Fails when a `K_s` column is missing or mistyped.
    pub fn push(&mut self, batch: &Batch) -> Result<()> {
        let schema = batch.schema();
        let ts = float_column(batch, schema.index_of(c::T)?)?;
        let names = str_column(batch, schema.index_of(c::SIGNAL)?)?;
        let buses = str_column(batch, schema.index_of(c::BUS)?)?;
        let nums = float_column(batch, schema.index_of(c::VALUE_NUM)?)?;
        let texts = str_column(batch, schema.index_of(c::VALUE_TEXT)?)?;
        for (row, name) in names.iter().enumerate() {
            let Some(name) = name else { continue };
            let signal = self.signals.code(name);
            if signal as usize == self.runs.cols.len() {
                self.runs.cols.push(SignalColumns::default());
            }
            let bus = match &buses[row] {
                Some(bus) => self.buses.code(bus),
                None => NULL_BUS,
            };
            self.runs
                .push_row(signal, ts[row], bus, nums[row], texts[row].clone());
        }
        Ok(())
    }

    /// The sequences of every signal that received a row, sorted by name.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn finish(self) -> Result<Vec<SignalSequence>> {
        let schema = signal_schema();
        let mut fed: Vec<(&Arc<str>, SignalColumns)> = self
            .signals
            .entries
            .iter()
            .zip(self.runs.cols)
            .filter(|(_, cols)| !cols.t.is_empty())
            .collect();
        fed.sort_by(|a, b| a.0.cmp(b.0));

        let mut sorted_runs = 0u64;
        let mut out = Vec::with_capacity(fed.len());
        for (name, cols) in fed {
            let key = |t: &Option<f64>| t.unwrap_or(f64::NAN);
            let monotone = cols
                .t
                .windows(2)
                .all(|w| key(&w[0]).total_cmp(&key(&w[1])).is_le());
            let b_id = cols
                .bus
                .iter()
                .map(|&code| self.buses.entries.get(code as usize).cloned())
                .collect();
            let mut batch = Batch::new(
                schema.clone(),
                vec![
                    Column::Float(cols.t),
                    Column::Str(vec![Some(name.clone()); cols.bus.len()]),
                    Column::Str(b_id),
                    Column::Float(cols.num),
                    Column::Str(cols.text),
                ],
            )?;
            if !monotone {
                sorted_runs += 1;
                let times = batch.column(0).as_float_slice().unwrap_or(&[]);
                let mut order: Vec<usize> = (0..times.len()).collect();
                order.sort_by(|&a, &b| key(&times[a]).total_cmp(&key(&times[b])));
                batch = batch.take(&order);
            }
            out.push(SignalSequence {
                signal: name.to_string(),
                frame: DataFrame::from_partitions(schema.clone(), vec![batch])?,
            });
        }
        ivnt_obs::with(|r| {
            r.add("split_runs_monotone_total", out.len() as u64 - sorted_runs);
            r.add("split_runs_sorted_total", sorted_runs);
        });
        Ok(out)
    }
}

/// Splits `K_s` into per-signal sequences, each sorted by time.
///
/// Output is sorted by signal name, so iteration order is deterministic.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn split_by_signal(ks: &DataFrame) -> Result<Vec<SignalSequence>> {
    let mut builder = SequenceBuilder::default();
    for batch in ks.partitions() {
        builder.push(batch)?;
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::signal_schema;

    fn ks() -> DataFrame {
        DataFrame::from_rows(
            signal_schema(),
            vec![
                vec![
                    Value::Float(2.5),
                    Value::from("wpos"),
                    Value::from("FC"),
                    Value::Float(60.0),
                    Value::Null,
                ],
                vec![
                    Value::Float(2.0),
                    Value::from("wpos"),
                    Value::from("FC"),
                    Value::Float(45.0),
                    Value::Null,
                ],
                vec![
                    Value::Float(2.0),
                    Value::from("wvel"),
                    Value::from("FC"),
                    Value::Float(1.0),
                    Value::Null,
                ],
                vec![
                    Value::Float(2.1),
                    Value::from("belt"),
                    Value::from("BC"),
                    Value::Null,
                    Value::from("ON"),
                ],
            ],
        )
        .unwrap()
        .repartition(2)
        .unwrap()
    }

    #[test]
    fn splits_and_sorts() {
        let seqs = split_by_signal(&ks()).unwrap();
        assert_eq!(seqs.len(), 3);
        // Deterministic name order.
        let names: Vec<&str> = seqs.iter().map(|s| s.signal.as_str()).collect();
        assert_eq!(names, vec!["belt", "wpos", "wvel"]);
        // wpos sorted by time despite input order.
        let wpos = &seqs[1];
        assert_eq!(wpos.times().unwrap(), vec![2.0, 2.5]);
        assert_eq!(wpos.numeric_values().unwrap(), vec![Some(45.0), Some(60.0)]);
    }

    #[test]
    fn accessors() {
        let seqs = split_by_signal(&ks()).unwrap();
        let belt = &seqs[0];
        assert_eq!(belt.len(), 1);
        assert!(!belt.is_empty());
        assert_eq!(
            belt.text_values().unwrap(),
            vec![Some::<Arc<str>>("ON".into())]
        );
        assert_eq!(belt.numeric_values().unwrap(), vec![None]);
        assert_eq!(belt.channels().unwrap(), vec!["BC".to_string()]);
    }

    #[test]
    fn empty_input() {
        let empty = DataFrame::empty(signal_schema());
        assert!(split_by_signal(&empty).unwrap().is_empty());
    }
}
