//! Signal splitting (Algorithm 1, line 8).
//!
//! The interpreted table `K_s` is split into one time-ordered sequence per
//! signal type (`K_s^{s_id}` in the paper), since all further processing —
//! reduction, extension, classification, symbolization — is per signal.
//!
//! Until reduction has thrown most rows away, a sequence is a
//! [`CodedSequence`]: one 24-byte [`CodedRow`] per row, channel and text
//! coded against shared dictionaries. Only the rows lines 9–11 keep become
//! a [`SignalSequence`] frame, its string columns over the same
//! dictionaries.

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

    /// Each partition's columns, in order.
    ///
    /// # Errors
    ///
    /// Fails when a column is missing or mistyped.
    pub fn rows(&self) -> Result<Vec<Rows<'_>>> {
        self.frame.partitions().iter().map(Rows::of).collect()
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
            out.extend(
                str_column(batch, idx)?
                    .iter()
                    .map(Option::<&Arc<str>>::cloned),
            );
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
        // The distinct codes of each partition leave a handful to sort.
        let mut buses: Vec<&Arc<str>> = Vec::new();
        for batch in self.frame.partitions() {
            let cells = str_column(batch, idx)?;
            let mut seen = vec![false; cells.values().len()];
            for &code in cells.codes() {
                if let Some(seen @ false) = seen.get_mut(code as usize) {
                    *seen = true;
                    buses.push(&cells.values()[code as usize]);
                }
            }
        }
        buses.sort_unstable();
        buses.dedup();
        Ok(buses.into_iter().map(|b| b.to_string()).collect())
    }
}

/// One partition of a signal sequence as borrowed columns.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    /// Timestamps in seconds.
    pub t: &'a [Option<f64>],
    /// Channels.
    pub bus: &'a DictColumn,
    /// Numeric values.
    pub num: &'a [Option<f64>],
    /// Textual values.
    pub text: &'a DictColumn,
}

impl<'a> Rows<'a> {
    /// The columns of one `K_s`-schema partition.
    ///
    /// # Errors
    ///
    /// Fails when a column is missing or mistyped.
    pub fn of(batch: &'a Batch) -> Result<Rows<'a>> {
        let schema = batch.schema();
        Ok(Rows {
            t: float_column(batch, schema.index_of(c::T)?)?,
            bus: str_column(batch, schema.index_of(c::BUS)?)?,
            num: float_column(batch, schema.index_of(c::VALUE_NUM)?)?,
            text: str_column(batch, schema.index_of(c::VALUE_TEXT)?)?,
        })
    }
}

/// One interpreted row of a signal in 24 bytes: `t`, `v_num`, and the
/// channel and `v_text` as codes into dictionaries its holder keeps. Lines
/// 8–11 carry rows in this form; a `K_s`-schema frame is built only for
/// the rows reduction keeps.
#[derive(Debug, Clone, Copy)]
pub struct CodedRow {
    /// The timestamp, `NaN` when null: the order key as it is.
    t: f64,
    num: f64,
    /// The channel code in the low 30 bits (`NO_CHANNEL` for a null
    /// `b_id`); bit 31 set when `t` is present, bit 30 when `v_num` is.
    bus: u32,
    /// 1 + the `v_text` cell's index among the texts; 0 for null.
    text: u32,
}

impl CodedRow {
    const HAS_T: u32 = 1 << 31;
    const HAS_NUM: u32 = 1 << 30;
    const NO_CHANNEL: u32 = Self::HAS_NUM - 1;

    /// A row from its cells: `channel` a code below 2³⁰ − 1, `text` the
    /// index of its cell among the texts.
    ///
    /// # Panics
    ///
    /// When the code or the index does not fit its field.
    pub fn new(
        t: Option<f64>,
        channel: Option<u32>,
        num: Option<f64>,
        text: Option<usize>,
    ) -> Self {
        let code = channel.unwrap_or(Self::NO_CHANNEL);
        assert!(
            channel.is_none() || code < Self::NO_CHANNEL,
            "channel code {code} past the 30-bit field"
        );
        let text = text.map_or(0, |i| {
            u32::try_from(i + 1).expect("text index fits 32 bits")
        });
        CodedRow {
            t: t.unwrap_or(f64::NAN),
            num: num.unwrap_or(0.0),
            bus: code
                | if t.is_some() { Self::HAS_T } else { 0 }
                | if num.is_some() { Self::HAS_NUM } else { 0 },
            text,
        }
    }

    /// The timestamp.
    #[inline]
    pub fn t(&self) -> Option<f64> {
        (self.bus & Self::HAS_T != 0).then_some(self.t)
    }

    /// The order key of line 8: the timestamp, `NaN` when null, compared
    /// under `f64::total_cmp`.
    #[inline]
    pub fn time_key(&self) -> f64 {
        self.t
    }

    /// The numeric value.
    #[inline]
    pub fn num(&self) -> Option<f64> {
        (self.bus & Self::HAS_NUM != 0).then_some(self.num)
    }

    /// The channel's code, `None` for a null `b_id`.
    #[inline]
    pub fn channel(&self) -> Option<u32> {
        let code = self.bus & Self::NO_CHANNEL;
        (code != Self::NO_CHANNEL).then_some(code)
    }

    /// The textual value's index among the texts.
    #[inline]
    pub fn text_index(&self) -> Option<usize> {
        (self.text as usize).checked_sub(1)
    }
}

/// A borrowed run of one signal's coded rows, as lines 9 and 10
/// ([`Deduplicator`](crate::dedup::Deduplicator),
/// [`Reducer`](crate::reduce::Reducer)) read them: the rows and the text
/// and channel dictionaries their codes point into.
#[derive(Debug, Clone, Copy)]
pub struct CodedRows<'a> {
    /// The rows, in time order.
    pub rows: &'a [CodedRow],
    /// Texts by index.
    pub texts: &'a [Arc<str>],
    /// Channel names by code.
    pub channels: &'a [Arc<str>],
}

impl<'a> CodedRows<'a> {
    /// The textual value of `row`.
    #[inline]
    pub fn text(&self, row: &CodedRow) -> Option<&'a Arc<str>> {
        row.text_index().map(|i| &self.texts[i])
    }

    /// The channel name of `row`.
    #[inline]
    pub fn channel(&self, row: &CodedRow) -> Option<&'a Arc<str>> {
        row.channel().map(|c| &self.channels[c as usize])
    }

    /// The rows in `range`, with the same dictionaries.
    pub fn slice(&self, range: std::ops::Range<usize>) -> CodedRows<'a> {
        CodedRows {
            rows: &self.rows[range],
            ..*self
        }
    }
}

/// Rows of a pushed chunk an operator keeps.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// Every row.
    All,
    /// These rows, ascending positions in the chunk.
    Rows(Vec<usize>),
}

impl Selection {
    /// The selected positions among `n` rows, ascending.
    pub fn positions(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        let (all, rows) = match self {
            Selection::All => (0..n, &[][..]),
            Selection::Rows(rows) => (0..0, &rows[..]),
        };
        all.chain(rows.iter().copied())
    }

    /// How many of `n` rows are selected.
    pub fn count(&self, n: usize) -> usize {
        match self {
            Selection::All => n,
            Selection::Rows(rows) => rows.len(),
        }
    }
}

/// One signal's interpreted rows in time order, channels coded: what
/// line 8 hands lines 9–11. [`to_sequence`](CodedSequence::to_sequence)
/// builds the `K_s`-schema frame of the rows a caller keeps.
#[derive(Debug, Clone)]
pub struct CodedSequence {
    /// Signal identifier.
    pub signal: Arc<str>,
    /// The rows, in time order.
    rows: Vec<CodedRow>,
    /// Texts by code, shared by every sequence of one builder.
    texts: Arc<[Arc<str>]>,
    /// Channel names by code, shared by every sequence of one builder.
    channels: Arc<[Arc<str>]>,
}

impl CodedSequence {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the sequence holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows as the operators read them, with the text and channel
    /// dictionaries their codes point into.
    pub fn view(&self) -> CodedRows<'_> {
        CodedRows {
            rows: &self.rows,
            texts: &self.texts,
            channels: &self.channels,
        }
    }

    /// The sequence of the `keep` rows, in order: one `K_s`-schema
    /// partition whose `b_id` / `v_text` cells are the rows' codes over
    /// the sequence's dictionaries.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn to_sequence(&self, keep: &Selection) -> Result<SignalSequence> {
        let n = keep.count(self.rows.len());
        let (mut t, mut bus) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (mut num, mut text) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for row in keep.positions(self.rows.len()).map(|i| &self.rows[i]) {
            t.push(row.t());
            bus.push(row.channel().unwrap_or(DictColumn::NULL));
            num.push(row.num());
            text.push(row.text_index().map_or(DictColumn::NULL, |i| i as u32));
        }
        let schema = signal_schema();
        let signal = DictColumn::new(vec![0; n], Arc::from([self.signal.clone()]))?;
        let batch = Batch::new(
            schema.clone(),
            vec![
                Column::Float(t),
                Column::Str(signal),
                Column::Str(DictColumn::new(bus, self.channels.clone())?),
                Column::Float(num),
                Column::Str(DictColumn::new(text, self.texts.clone())?),
            ],
        )?;
        Ok(SignalSequence {
            signal: self.signal.to_string(),
            frame: DataFrame::from_partitions(schema, vec![batch])?,
        })
    }

    /// A sequence's rows in their order (no sort), channels coded by
    /// content: the form the staged functions over frames hand the
    /// operators.
    ///
    /// # Errors
    ///
    /// Fails when a column is missing or mistyped.
    pub fn from_sequence(seq: &SignalSequence) -> Result<CodedSequence> {
        let (mut channels, mut texts) = (DictBuilder::default(), DictBuilder::default());
        let mut coded = Vec::new();
        for rows in seq.rows()? {
            let (mut bus, mut text) = (
                Remap::new(rows.bus.values()),
                Remap::new(rows.text.values()),
            );
            for i in 0..rows.t.len() {
                let bus = bus.code(rows.bus.codes()[i], &mut channels);
                let text = text.code(rows.text.codes()[i], &mut texts);
                coded.push(coded_row(rows.t[i], bus, rows.num[i], text));
            }
        }
        Ok(CodedSequence {
            signal: Arc::from(seq.signal.as_str()),
            rows: coded,
            texts: texts.finish(),
            channels: channels.finish(),
        })
    }
}

/// A row from its cells, channel and text as dictionary codes
/// ([`DictColumn::NULL`] for a null).
#[inline]
fn coded_row(t: Option<f64>, bus: u32, num: Option<f64>, text: u32) -> CodedRow {
    let code = |c: u32| (c != DictColumn::NULL).then_some(c);
    CodedRow::new(t, code(bus), num, code(text).map(|c| c as usize))
}

/// The per-signal row streams of one partition, row group or micro-batch,
/// indexed by signal code: the sink the interpretation kernel emits into
/// when nobody needs `K_s` as a table.
pub(crate) struct SignalRuns {
    signals: Vec<Vec<CodedRow>>,
}

impl SignalRuns {
    fn new(signals: usize) -> SignalRuns {
        SignalRuns {
            signals: vec![Vec::new(); signals],
        }
    }

    #[inline]
    pub(crate) fn push_row(
        &mut self,
        signal: u32,
        t: Option<f64>,
        bus: u32,
        num: Option<f64>,
        text: Option<u32>,
    ) {
        let text = text.map(|c| c as usize);
        self.signals[signal as usize].push(CodedRow::new(t, Some(bus), num, text));
    }
}

/// Builds the per-signal sequences of line 8 incrementally: feed it one
/// partition, row group or micro-batch at a time, then [`finish`]
/// (SequenceBuilder::finish). Two feeders share it — the interpretation
/// kernel emitting `SignalRuns` by signal code, and [`push`]
/// (SequenceBuilder::push) routing the rows of an interpreted `K_s` batch.
///
/// Each signal keeps one stream of [`CodedRow`]s, its rows appended in
/// feed order. At `finish` a stream whose timestamps are already
/// non-decreasing (under `f64::total_cmp`, nulls as NaN) is emitted as is;
/// any other is stable-sorted by that key, so ties keep feed order.
pub struct SequenceBuilder {
    signals: DictBuilder,
    buses: DictBuilder,
    texts: DictBuilder,
    runs: SignalRuns,
}

impl Default for SequenceBuilder {
    fn default() -> Self {
        let none = Arc::default();
        SequenceBuilder::with_dictionaries(&none, &none, &none)
    }
}

impl SequenceBuilder {
    /// A builder whose signal, bus and text codes are the indices of the
    /// given dictionaries (the kernel's).
    pub(crate) fn with_dictionaries(
        signals: &Arc<[Arc<str>]>,
        buses: &Arc<[Arc<str>]>,
        texts: &Arc<[Arc<str>]>,
    ) -> SequenceBuilder {
        SequenceBuilder {
            signals: DictBuilder::with_values(signals),
            buses: DictBuilder::with_values(buses),
            texts: DictBuilder::with_values(texts),
            runs: SignalRuns::new(signals.len()),
        }
    }

    /// An empty sink over this builder's signal codes, for a partition
    /// decoded on another thread; hand it back through [`append`]
    /// (SequenceBuilder::append).
    pub(crate) fn new_runs(&self) -> SignalRuns {
        SignalRuns::new(self.runs.signals.len())
    }

    /// The builder's own sink, for decoding straight into it.
    pub(crate) fn runs_mut(&mut self) -> &mut SignalRuns {
        &mut self.runs
    }

    /// Appends one partition's runs after everything fed so far.
    pub(crate) fn append(&mut self, runs: SignalRuns) {
        for (mine, mut theirs) in self.runs.signals.iter_mut().zip(runs.signals) {
            mine.append(&mut theirs);
        }
    }

    /// Routes the rows of one interpreted `K_s` batch; rows with a null
    /// `s_id` are dropped. Each of the batch's dictionary entries is
    /// recoded once.
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
        let mut signal_codes = Remap::new(names.values());
        let mut bus_codes = Remap::new(buses.values());
        let mut text_codes = Remap::new(texts.values());
        for row in 0..ts.len() {
            let signal = signal_codes.code(names.codes()[row], &mut self.signals);
            if signal == DictColumn::NULL {
                continue;
            }
            let signal = signal as usize;
            if signal == self.runs.signals.len() {
                self.runs.signals.push(Vec::new());
            }
            let bus = bus_codes.code(buses.codes()[row], &mut self.buses);
            let text = text_codes.code(texts.codes()[row], &mut self.texts);
            self.runs.signals[signal].push(coded_row(ts[row], bus, nums[row], text));
        }
        Ok(())
    }

    /// The coded sequences of every signal that received a row, sorted by
    /// name; their codes point into one shared bus dictionary.
    pub fn finish(self) -> Vec<CodedSequence> {
        let (channels, texts) = (self.buses.finish(), self.texts.finish());
        let mut fed: Vec<(Arc<str>, Vec<CodedRow>)> = (self.signals.finish().iter().cloned())
            .zip(self.runs.signals)
            .filter(|(_, rows)| !rows.is_empty())
            .collect();
        fed.sort_by(|a, b| a.0.cmp(&b.0));

        let mut sorted_runs = 0u64;
        let mut out = Vec::with_capacity(fed.len());
        for (signal, mut rows) in fed {
            let key = |row: &CodedRow| row.time_key();
            let monotone = rows
                .windows(2)
                .all(|w| key(&w[0]).total_cmp(&key(&w[1])).is_le());
            if !monotone {
                sorted_runs += 1;
                rows.sort_by(|a, b| key(a).total_cmp(&key(b)));
            }
            out.push(CodedSequence {
                signal,
                rows,
                texts: texts.clone(),
                channels: channels.clone(),
            });
        }
        ivnt_obs::with(|r| {
            r.add("split_runs_monotone_total", out.len() as u64 - sorted_runs);
            r.add("split_runs_sorted_total", sorted_runs);
        });
        out
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
    let seqs = builder.finish();
    seqs.iter()
        .map(|s| s.to_sequence(&Selection::All))
        .collect()
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
