//! Property-based tests for the frame engine's relational invariants.

use ivnt_frame::prelude::*;
use proptest::prelude::*;

fn arb_rows() -> impl Strategy<Value = Vec<(i64, f64, bool)>> {
    prop::collection::vec((-1000i64..1000, -1e6f64..1e6, any::<bool>()), 0..200)
}

fn frame_of(rows: &[(i64, f64, bool)], parts: usize) -> DataFrame {
    let schema = Schema::from_pairs([
        ("k", DataType::Int),
        ("x", DataType::Float),
        ("b", DataType::Bool),
    ])
    .unwrap()
    .into_shared();
    DataFrame::from_rows(
        schema,
        rows.iter()
            .map(|&(k, x, b)| vec![Value::Int(k), Value::Float(x), Value::Bool(b)]),
    )
    .unwrap()
    .repartition(parts.max(1))
    .unwrap()
}

/// A small keyed table to join against: two rows per key in `-5..5`.
fn rule_table() -> DataFrame {
    let schema = Schema::from_pairs([("k2", DataType::Int), ("r", DataType::Int)])
        .unwrap()
        .into_shared();
    DataFrame::from_rows(
        schema,
        (-5i64..5).flat_map(|k| {
            [
                vec![Value::Int(k), Value::Int(2 * k)],
                vec![Value::Int(k), Value::Int(2 * k + 1)],
            ]
        }),
    )
    .unwrap()
}

proptest! {
    /// A mask filter over every partition keeps exactly the matching rows.
    #[test]
    fn filter_matches_reference(rows in arb_rows(), parts in 1usize..8) {
        let df = frame_of(&rows, parts);
        let kept: usize = df
            .partitions()
            .iter()
            .map(|b| {
                let keys = b.column_by_name("k").unwrap().as_int_slice().unwrap();
                let mask: Vec<bool> = keys.iter().map(|k| k.unwrap() >= 0).collect();
                b.filter(&mask).unwrap().num_rows()
            })
            .sum();
        let expected = rows.iter().filter(|(k, _, _)| *k >= 0).count();
        prop_assert_eq!(kept, expected);
    }

    /// Repartitioning never changes content or global order.
    #[test]
    fn repartition_is_content_preserving(rows in arb_rows(), a in 1usize..7, b in 1usize..7) {
        let df = frame_of(&rows, a);
        let re = df.repartition(b).unwrap();
        prop_assert_eq!(df.collect_rows().unwrap(), re.collect_rows().unwrap());
    }

    /// Join results are bit-identical for 1 worker and many workers.
    #[test]
    fn parallelism_is_deterministic(rows in arb_rows(), parts in 1usize..8) {
        let rows: Vec<_> = rows.into_iter().map(|(k, x, b)| (k % 7, x, b)).collect();
        let df = frame_of(&rows, parts);
        let join = |workers: usize, join_type: JoinType| {
            df.clone()
                .with_executor(Executor::new(workers))
                .join(&rule_table(), &["k"], &["k2"], join_type)
                .unwrap()
                .collect_rows()
                .unwrap()
        };
        for join_type in [JoinType::Inner, JoinType::Left] {
            prop_assert_eq!(join(1, join_type), join(6, join_type));
        }
    }

    /// Sorting yields a non-decreasing key column and preserves multiset.
    #[test]
    fn sort_orders_and_preserves(rows in arb_rows(), parts in 1usize..8) {
        let df = frame_of(&rows, parts);
        let sorted = df.sort_by(&["k"], &[true]).unwrap();
        let keys: Vec<i64> = sorted
            .column_values("k").unwrap()
            .iter().map(|v| v.as_int().unwrap()).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        let mut orig: Vec<i64> = rows.iter().map(|r| r.0).collect();
        orig.sort_unstable();
        prop_assert_eq!(keys, orig);
    }

    /// Join with a key subset behaves like nested-loop reference on small input.
    #[test]
    fn join_matches_nested_loop(rows in prop::collection::vec((-5i64..5, -5i64..5), 0..40)) {
        let schema_l = Schema::from_pairs([("k", DataType::Int), ("a", DataType::Int)])
            .unwrap().into_shared();
        let schema_r = Schema::from_pairs([("k2", DataType::Int), ("b", DataType::Int)])
            .unwrap().into_shared();
        let left = DataFrame::from_rows(
            schema_l,
            rows.iter().map(|&(k, a)| vec![Value::Int(k), Value::Int(a)]),
        ).unwrap().repartition(3).unwrap();
        let right = DataFrame::from_rows(
            schema_r,
            rows.iter().map(|&(k, a)| vec![Value::Int(k + 1), Value::Int(a)]),
        ).unwrap();
        let joined = left.join(&right, &["k"], &["k2"], JoinType::Inner).unwrap();
        let mut expected = 0usize;
        for &(lk, _) in &rows {
            expected += rows.iter().filter(|&&(rk, _)| rk + 1 == lk).count();
        }
        prop_assert_eq!(joined.num_rows(), expected);
    }

    /// Union is concatenation: both sides' rows, left first, in order.
    #[test]
    fn union_concatenates(rows in arb_rows(), a in 1usize..5, b in 1usize..5) {
        let left = frame_of(&rows, a);
        let right = frame_of(&rows[rows.len() / 2..], b);
        let mut expected = left.collect_rows().unwrap();
        expected.extend(right.collect_rows().unwrap());
        prop_assert_eq!(left.union(&right).unwrap().collect_rows().unwrap(), expected);
    }
}
