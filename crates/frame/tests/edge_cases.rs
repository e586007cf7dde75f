//! Edge cases: empty frames, empty join sides, single rows — paths that
//! real pipelines hit whenever a preselection matches nothing.

use ivnt_frame::prelude::*;

fn schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)])
        .unwrap()
        .into_shared()
}

fn empty() -> DataFrame {
    DataFrame::empty(schema())
}

fn one_row() -> DataFrame {
    DataFrame::from_rows(schema(), vec![vec![Value::Int(1), Value::Float(2.0)]]).unwrap()
}

/// A one-row frame whose names do not collide with [`schema`]'s.
fn one_rule() -> DataFrame {
    DataFrame::from_rows(
        Schema::from_pairs([("k2", DataType::Int), ("w", DataType::Str)])
            .unwrap()
            .into_shared(),
        vec![vec![Value::Int(1), Value::from("wpos")]],
    )
    .unwrap()
}

#[test]
fn sort_and_collect_on_empty() {
    let e = empty();
    assert_eq!(e.sort_by(&["k"], &[true]).unwrap().num_rows(), 0);
    assert!(e.collect_rows().unwrap().is_empty());
    assert!(e.column_values("v").unwrap().is_empty());
}

#[test]
fn join_with_empty_right_side() {
    let left = one_row();
    let right = DataFrame::empty(one_rule().schema().clone());
    let inner = left.join(&right, &["k"], &["k2"], JoinType::Inner).unwrap();
    assert_eq!(inner.num_rows(), 0);
    assert_eq!(inner.schema().len(), 3);
    let outer = left.join(&right, &["k"], &["k2"], JoinType::Left).unwrap();
    assert_eq!(outer.num_rows(), 1);
    assert!(outer.collect_rows().unwrap()[0][2].is_null());
}

#[test]
fn join_with_empty_left_side() {
    for join_type in [JoinType::Inner, JoinType::Left] {
        let joined = empty()
            .join(&one_rule(), &["k"], &["k2"], join_type)
            .unwrap();
        assert_eq!(joined.num_rows(), 0);
        assert_eq!(joined.schema().len(), 3);
    }
}

#[test]
fn union_empty_with_nonempty() {
    let u = empty().union(&one_row()).unwrap();
    assert_eq!(u.num_rows(), 1);
    let u = one_row().union(&empty()).unwrap();
    assert_eq!(u.num_rows(), 1);
}

#[test]
fn repartition_empty() {
    let r = empty().repartition(4).unwrap();
    assert_eq!(r.num_rows(), 0);
    // A single empty partition keeps operators working.
    assert!(r.num_partitions() <= 1);
}

#[test]
fn csv_roundtrip_empty() {
    let mut buf = Vec::new();
    ivnt_frame::csv::write_csv(&empty(), &mut buf).unwrap();
    let parsed = ivnt_frame::csv::read_csv(buf.as_slice(), schema()).unwrap();
    assert_eq!(parsed.num_rows(), 0);
}

#[test]
fn single_row_sort() {
    let s = one_row().sort_by(&["v"], &[false]).unwrap();
    assert_eq!(s.num_rows(), 1);
    assert_eq!(s.collect_rows().unwrap(), one_row().collect_rows().unwrap());
}
