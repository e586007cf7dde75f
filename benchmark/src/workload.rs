//! The benchmark's load: the two journeys, the domains cut from them, and
//! the prepare step that writes inputs and reference fingerprints.
//!
//! The VEH spec and the signal selectors are copies of what `ivnt-bench`
//! uses for Table 6, owned here so the benchmark survives that crate's
//! planned collapse and a change to it cannot move the load.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ivnt_cluster::JobSpec;
use ivnt_core::pipeline::{DomainProfile, Pipeline, RunOptions};
use ivnt_core::rules::RuleSet;
use ivnt_simulator::scenario::{self, BranchHint, DataSetSpec, GeneratedDataSet};
use ivnt_simulator::trace::TraceRecord;
use ivnt_store::{Record, StoreReader, StoreWriter, WriterOptions};

use crate::json::Json;
use crate::oracle::{Fingerprint, Fnv};
use crate::Error;

/// Trace rows of each input journey: ten times the `BENCH_*.json` probes,
/// a thousandth of the paper's journeys.
pub const ROWS: usize = 1_200_000;

/// Executor workers every pipeline is pinned to — the sandbox has two
/// cores, and no workload keeps more than two threads or processes busy.
pub const WORKERS: usize = 2;

/// Layout of `J.ivns` and `S.ivns`: 1024-row chunks, 16 per group.
pub const STORE_LAYOUT: WriterOptions = WriterOptions {
    chunk_rows: 1024,
    chunks_per_group: 16,
    cluster: true,
};

/// The six workloads, in the order they are run and reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    JourneyMem,
    JourneyStore,
    JourneyWide,
    FleetCold,
    LiveIngest,
    ClusterW1,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::JourneyMem,
        Workload::JourneyStore,
        Workload::JourneyWide,
        Workload::FleetCold,
        Workload::LiveIngest,
        Workload::ClusterW1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::JourneyMem => "journey.mem",
            Workload::JourneyStore => "journey.store",
            Workload::JourneyWide => "journey.wide",
            Workload::FleetCold => "fleet.cold",
            Workload::LiveIngest => "live.ingest",
            Workload::ClusterW1 => "cluster.w1",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload reads the VEH journey `J` (all but the
    /// cluster one, which can only name `syn|lig|sta`).
    fn uses_journey(self) -> bool {
        self != Workload::ClusterW1
    }
}

/// The full-vehicle shape behind Table 6: 400 signal types, four per
/// message, every message forwarded over a gateway.
pub fn veh_spec() -> DataSetSpec {
    DataSetSpec {
        name: "VEH".into(),
        n_alpha: 40,
        n_beta: 120,
        n_gamma: 240,
        signals_per_message: 4.0,
        duration_s: 60.0,
        seed: 0x7EB1C1E,
        with_gateway: true,
    }
}

/// `J`'s spec for `--seed`: the seed is an offset on the shape's own.
pub fn journey_spec(seed: u64) -> DataSetSpec {
    let spec = veh_spec();
    let base = spec.seed;
    spec.with_seed(base.wrapping_add(seed))
}

/// `S`'s simulator seed for `--seed`.
pub fn syn_seed(seed: u64) -> u64 {
    DataSetSpec::syn().seed.wrapping_add(seed)
}

/// The cluster job over `store_path` — scenario name and seed are all a
/// worker gets to re-derive the rule tables from.
pub fn cluster_job(seed: u64, store_path: &Path) -> JobSpec {
    JobSpec::new("syn", store_path.display().to_string()).with_seed(syn_seed(seed))
}

/// Generates `spec` long enough for `rows` records and cuts it to exactly
/// `rows`, so every seed measures the same amount of input.
pub fn generate_rows(spec: &DataSetSpec, rows: usize) -> Result<GeneratedDataSet, Error> {
    let mut target = rows + rows / 50;
    loop {
        let mut data = scenario::generate(&spec.clone().with_target_examples(target))?;
        let got = data.trace.len();
        if got >= rows {
            data.trace.truncate(rows);
            return Ok(data);
        }
        // The spec's rate estimate ran high (SYN: ~24 %); rescale.
        target = (target as f64 * rows as f64 / got.max(1) as f64 * 1.02) as usize + 1;
    }
}

/// `U_rel` of a data set with its ground-truth comparability hints — the
/// domain knowledge a real deployment reads from the documentation.
pub fn rule_set(data: &GeneratedDataSet) -> RuleSet {
    let mut u_rel = RuleSet::from_network(&data.network);
    for (signal, (_, comparable)) in &data.signal_classes {
        let _ = u_rel.set_comparable(signal, *comparable);
    }
    u_rel
}

/// `J`'s rule tables without `J`: the network does not depend on the
/// recording's length, so half a second of it is enough.
pub fn journey_rules(seed: u64) -> Result<RuleSet, Error> {
    let data = scenario::generate(&journey_spec(seed).with_duration_s(0.5))?;
    Ok(rule_set(&data))
}

/// The pipeline a domain parameterizes once for its signal subset:
/// unchanged-repeat removal, gateway dedup on, two workers.
pub fn domain_pipeline(u_rel: &RuleSet, name: &str, signals: &[String]) -> Result<Pipeline, Error> {
    let profile = DomainProfile::new(name)
        .with_signals(signals.iter().map(String::as_str))
        .with_workers(WORKERS)
        .with_partitions(WORKERS);
    Ok(Pipeline::new(u_rel.clone(), profile)?)
}

pub fn to_record(r: &TraceRecord) -> Record {
    Record {
        timestamp_us: r.timestamp_us,
        bus: r.bus.clone(),
        message_id: r.message_id,
        payload: r.payload.clone(),
        protocol: r.protocol,
    }
}

/// FNV-1a over every field of every record, in order.
pub fn checksum<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.write_u64(r.timestamp_us);
        h.write_str(&r.bus);
        h.write_u64(u64::from(r.message_id));
        h.write_u64(r.payload.len() as u64);
        h.write(&r.payload);
        h.write(&[ivnt_store::record::protocol_tag(r.protocol)]);
    }
    h.finish()
}

/// `(message id, rows in the trace, signal names)` per catalog message, in
/// message-id order. Both gateway copies count: interpretation touches
/// every channel copy.
pub type MessageTable = Vec<(u32, usize, Vec<String>)>;

/// Counts `data`'s trace once; the selectors below all read the table.
pub fn message_table(data: &GeneratedDataSet) -> MessageTable {
    let mut rows: HashMap<u32, usize> = HashMap::new();
    for r in data.trace.iter() {
        *rows.entry(r.message_id).or_default() += 1;
    }
    let mut table: Vec<(u32, usize, Vec<String>)> = data
        .network
        .catalog()
        .messages()
        .iter()
        .map(|m| {
            (
                m.id(),
                rows.get(&m.id()).copied().unwrap_or(0),
                m.signals().iter().map(|s| s.name().to_string()).collect(),
            )
        })
        .collect();
    table.sort_by_key(|(id, _, _)| *id);
    table
}

/// Selects `n_signals` signals whose carrying messages cover about
/// `target_fraction` of the trace rows — how a real domain's signal subset
/// relates to total traffic in Table 6. Greedy: repeatedly takes the
/// message whose per-signal row cost best fits the remaining budget.
pub fn signals_for_fraction(
    table: &MessageTable,
    n_signals: usize,
    target_fraction: f64,
) -> Vec<String> {
    let total: usize = table.iter().map(|(_, rows, _)| rows).sum();
    let mut selected: Vec<String> = Vec::new();
    let mut covered = 0usize;
    let mut used = vec![false; table.len()];
    while selected.len() < n_signals {
        let needed = n_signals - selected.len();
        let budget = target_fraction * total as f64 - covered as f64;
        let ideal = (budget / needed as f64).max(0.0);
        let best = table
            .iter()
            .enumerate()
            .filter(|(i, (_, _, signals))| !used[*i] && !signals.is_empty())
            .map(|(i, (_, rows, signals))| {
                let per_signal = *rows as f64 / signals.len().min(needed) as f64;
                (i, (per_signal - ideal).abs())
            })
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let Some((i, _)) = best else { break };
        used[i] = true;
        covered += table[i].1;
        selected.extend(table[i].2.iter().take(needed).cloned());
    }
    selected
}

/// Share of trace rows carried by messages holding any of `signals`.
pub fn covered_fraction(table: &MessageTable, signals: &[String]) -> f64 {
    let total: usize = table.iter().map(|(_, rows, _)| rows).sum();
    let covered: usize = table
        .iter()
        .filter(|(_, _, names)| names.iter().any(|n| signals.contains(n)))
        .map(|(_, rows, _)| rows)
        .sum();
    covered as f64 / total.max(1) as f64
}

/// Deals the catalog's slow (β and γ) signals round-robin, in message-id
/// order, into `n` pairwise-disjoint domains: every domain watches
/// different signals of largely the same messages, so the preselection
/// predicates overlap at the chunk level while the signal sets never
/// collide — the shape `ivnt-plan` shares one scan across.
///
/// The 40 fast α signals are left out on purpose: each adds ~39 k rows to
/// every domain's state table (rows × 51 columns), which turns one
/// eight-domain job into ~18 s and the workload into a benchmark of the
/// state pivot instead of the planner (see README, "not covered").
pub fn disjoint_slow_domains(
    data: &GeneratedDataSet,
    table: &MessageTable,
    n: usize,
) -> Vec<Vec<String>> {
    let mut domains = vec![Vec::new(); n.max(1)];
    let slow = table
        .iter()
        .flat_map(|(_, _, signals)| signals.iter().cloned())
        .filter(|s| data.signal_classes.get(s).map(|c| c.0) != Some(BranchHint::Alpha));
    for (j, signal) in slow.enumerate() {
        domains[j % n.max(1)].push(signal);
    }
    domains
}

/// Everything prepare hands to the measuring child, as `meta.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Meta {
    pub seed: u64,
    pub rows: usize,
    /// Checksum of `J`'s records (0 when no requested workload reads `J`).
    pub journey_fnv: u64,
    /// Checksum of `S`'s records (0 unless `cluster.w1` was requested).
    pub syn_fnv: u64,
    /// 9 signals on ≈2.7 % of the rows.
    pub narrow: Vec<String>,
    pub narrow_fraction: f64,
    /// 89 signals on ≈16.5 % of the rows.
    pub wide: Vec<String>,
    pub wide_fraction: f64,
    /// 8 pairwise-disjoint domains.
    pub fleet: Vec<Vec<String>>,
    /// Reference fingerprints by name: `narrow`, `wide`, `live`,
    /// `cluster`, `fleet.0` … `fleet.7`.
    pub references: Vec<(String, Fingerprint)>,
    pub prepare_s: f64,
}

impl Meta {
    pub fn reference(&self, name: &str) -> Result<Fingerprint, Error> {
        self.references
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, fp)| *fp)
            .ok_or_else(|| format!("meta.json holds no reference {name:?}").into())
    }

    pub fn to_json(&self) -> Json {
        let names = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
        Json::obj([
            ("seed", Json::count(self.seed)),
            ("rows", Json::count(self.rows as u64)),
            (
                "journey_fnv",
                Json::str(format!("{:016x}", self.journey_fnv)),
            ),
            ("syn_fnv", Json::str(format!("{:016x}", self.syn_fnv))),
            ("narrow", names(&self.narrow)),
            ("narrow_fraction", Json::Num(self.narrow_fraction)),
            ("wide", names(&self.wide)),
            ("wide_fraction", Json::Num(self.wide_fraction)),
            (
                "fleet",
                Json::Arr(self.fleet.iter().map(|d| names(d)).collect()),
            ),
            (
                "references",
                Json::Obj(
                    self.references
                        .iter()
                        .map(|(n, fp)| (n.clone(), fp.to_json()))
                        .collect(),
                ),
            ),
            ("prepare_s", Json::Num(self.prepare_s)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Meta> {
        let names = |v: &Json| -> Option<Vec<String>> {
            v.as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let hex = |key: &str| u64::from_str_radix(v.get(key)?.as_str()?, 16).ok();
        Some(Meta {
            seed: v.get("seed")?.as_u64()?,
            rows: v.get("rows")?.as_u64()? as usize,
            journey_fnv: hex("journey_fnv")?,
            syn_fnv: hex("syn_fnv")?,
            narrow: names(v.get("narrow")?)?,
            narrow_fraction: v.get("narrow_fraction")?.as_f64()?,
            wide: names(v.get("wide")?)?,
            wide_fraction: v.get("wide_fraction")?.as_f64()?,
            fleet: v
                .get("fleet")?
                .as_arr()?
                .iter()
                .map(names)
                .collect::<Option<_>>()?,
            references: v
                .get("references")?
                .as_obj()?
                .iter()
                .map(|(n, fp)| Some((n.clone(), Fingerprint::from_json(fp)?)))
                .collect::<Option<_>>()?,
            prepare_s: v.get("prepare_s")?.as_f64()?,
        })
    }

    pub fn load(dir: &Path) -> Result<Meta, Error> {
        let text = std::fs::read_to_string(dir.join("meta.json"))?;
        Meta::from_json(&Json::parse(&text)?).ok_or_else(|| "meta.json: missing field".into())
    }
}

pub fn journey_store(dir: &Path) -> PathBuf {
    dir.join("J.ivns")
}

pub fn journey_lines(dir: &Path) -> PathBuf {
    dir.join("J.lines")
}

pub fn syn_store(dir: &Path) -> PathBuf {
    dir.join("S.ivns")
}

fn write_store(path: &Path, records: &[TraceRecord]) -> Result<(), Error> {
    let mut writer = StoreWriter::create(path, STORE_LAYOUT)?;
    for r in records {
        writer.append(&to_record(r))?;
    }
    writer.finish()?.flush()?;
    Ok(())
}

/// Generates the inputs `workloads` need for `seed` into `dir`, computes
/// their reference fingerprints with serial sessions, and writes
/// `meta.json`. Prepare runs in the parent; its cost is printed as
/// `prepare_s` and is not a metric.
pub fn prepare(dir: &Path, seed: u64, workloads: &[Workload]) -> Result<Meta, Error> {
    let t0 = Instant::now();
    std::fs::create_dir_all(dir)?;
    let wants = |w: Workload| workloads.contains(&w);
    let mut meta = Meta {
        seed,
        rows: ROWS,
        journey_fnv: 0,
        syn_fnv: 0,
        narrow: Vec::new(),
        narrow_fraction: 0.0,
        wide: Vec::new(),
        wide_fraction: 0.0,
        fleet: Vec::new(),
        references: Vec::new(),
        prepare_s: 0.0,
    };

    if workloads.iter().any(|w| w.uses_journey()) {
        let data = generate_rows(&journey_spec(seed), ROWS)?;
        meta.journey_fnv = checksum(data.trace.records());
        let table = message_table(&data);
        meta.narrow = signals_for_fraction(&table, 9, 0.027);
        meta.narrow_fraction = covered_fraction(&table, &meta.narrow);
        meta.wide = signals_for_fraction(&table, 89, 0.165);
        meta.wide_fraction = covered_fraction(&table, &meta.wide);
        meta.fleet = disjoint_slow_domains(&data, &table, 8);
        let u_rel = rule_set(&data);

        let reads_store = [
            Workload::JourneyStore,
            Workload::JourneyWide,
            Workload::FleetCold,
        ];
        if reads_store.into_iter().any(wants) {
            write_store(&journey_store(dir), data.trace.records())?;
        }
        if wants(Workload::LiveIngest) {
            let mut out = BufWriter::new(File::create(journey_lines(dir))?);
            for r in data.trace.records() {
                writeln!(out, "{}", ivnt_stream::format_line(&to_record(r)))?;
            }
            out.flush()?;
        }

        let narrow = domain_pipeline(&u_rel, "narrow", &meta.narrow)?;
        if wants(Workload::JourneyMem) || wants(Workload::JourneyStore) {
            let output = narrow
                .session(RunOptions::trace(&data.trace).serial())
                .run()?;
            meta.references
                .push(("narrow".into(), crate::jobs::output_fingerprint(&output)));
        }
        if wants(Workload::JourneyWide) {
            let output = domain_pipeline(&u_rel, "wide", &meta.wide)?
                .session(RunOptions::trace(&data.trace).serial())
                .run()?;
            meta.references
                .push(("wide".into(), crate::jobs::output_fingerprint(&output)));
        }
        if wants(Workload::LiveIngest) {
            let reduced = narrow
                .session(RunOptions::trace(&data.trace).serial())
                .extract_reduced()?;
            meta.references
                .push(("live".into(), crate::jobs::reduced_fingerprint(&reduced)?));
        }
        if wants(Workload::FleetCold) {
            // Each answer's reference is its solo session. Solo over the
            // store, not the trace: eight row-boxed frame builds of `J`
            // would triple prepare, and trace ≡ store is what
            // journey.mem / journey.store already pin.
            let mut reader = StoreReader::open(journey_store(dir))?;
            for (i, domain) in meta.fleet.iter().enumerate() {
                let output = domain_pipeline(&u_rel, &format!("fleet.{i}"), domain)?
                    .session(RunOptions::store(&mut reader).serial())
                    .run()?;
                meta.references.push((
                    format!("fleet.{i}"),
                    crate::jobs::output_fingerprint(&output),
                ));
            }
        }
    }

    if wants(Workload::ClusterW1) {
        let spec = DataSetSpec::syn().with_seed(syn_seed(seed));
        let data = generate_rows(&spec, ROWS)?;
        meta.syn_fnv = checksum(data.trace.records());
        write_store(&syn_store(dir), data.trace.records())?;
        drop(data);
        let pipeline = cluster_job(seed, &syn_store(dir)).pipeline()?;
        let mut reader = StoreReader::open(syn_store(dir))?;
        let frame = pipeline
            .session(RunOptions::store(&mut reader).serial())
            .extract()?
            .frame;
        meta.references
            .push(("cluster".into(), crate::oracle::frame_fingerprint(&frame)));
    }

    meta.prepare_s = t0.elapsed().as_secs_f64();
    std::fs::write(dir.join("meta.json"), meta.to_json().pretty())?;
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> GeneratedDataSet {
        generate_rows(&journey_spec(seed), 20_000).unwrap()
    }

    #[test]
    fn vehicle_shape_has_400_signals() {
        assert_eq!(veh_spec().total_signals(), 400);
    }

    #[test]
    fn input_checksum_is_stable_for_a_seed_and_moves_with_it() {
        let a = small(0);
        assert_eq!(a.trace.len(), 20_000);
        assert_eq!(
            checksum(a.trace.records()),
            checksum(small(0).trace.records())
        );
        assert_ne!(
            checksum(a.trace.records()),
            checksum(small(1).trace.records())
        );
        let syn = DataSetSpec::syn().with_seed(syn_seed(0));
        assert_eq!(generate_rows(&syn, 5_000).unwrap().trace.len(), 5_000);
    }

    #[test]
    fn selectors_hit_their_fractions_and_domains_are_disjoint() {
        let data = small(0);
        let table = message_table(&data);
        let narrow = signals_for_fraction(&table, 9, 0.027);
        let wide = signals_for_fraction(&table, 89, 0.165);
        assert_eq!((narrow.len(), wide.len()), (9, 89));
        let (fn_, fw) = (
            covered_fraction(&table, &narrow),
            covered_fraction(&table, &wide),
        );
        assert!((0.005..0.10).contains(&fn_), "narrow covers {fn_}");
        assert!((0.08..0.30).contains(&fw), "wide covers {fw}");

        let domains = disjoint_slow_domains(&data, &table, 8);
        assert_eq!(domains.iter().map(Vec::len).sum::<usize>(), 360);
        assert!(domains.iter().all(|d| d.len() == 45));
        let mut all: Vec<&String> = domains.iter().flatten().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 360, "domains overlap");
        // The child rebuilds rule tables from a half-second journey: every
        // selected signal must resolve against them.
        let u_rel = journey_rules(0).unwrap();
        for d in domains.iter().chain([&narrow, &wide]) {
            domain_pipeline(&u_rel, "t", d).unwrap();
        }
    }

    #[test]
    fn meta_round_trips() {
        let meta = Meta {
            seed: 3,
            rows: ROWS,
            journey_fnv: u64::MAX - 5,
            syn_fnv: 0,
            narrow: vec!["veh_s0001".into()],
            narrow_fraction: 0.0195,
            wide: vec!["a".into(), "b".into()],
            wide_fraction: 0.1494,
            fleet: vec![vec!["c".into()], vec![]],
            references: vec![(
                "narrow".into(),
                Fingerprint {
                    fnv: 0xdead_beef_0000_0001,
                    bytes: 42,
                },
            )],
            prepare_s: 1.5,
        };
        let text = meta.to_json().pretty();
        assert_eq!(Meta::from_json(&Json::parse(&text).unwrap()), Some(meta));
    }
}
