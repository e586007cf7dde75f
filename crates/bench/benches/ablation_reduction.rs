//! Ablation: the reduction techniques of Sec. 4.1 — the paper's lossless
//! constraint formalism (unchanged-repeat removal) vs. lossy clustering
//! onto representative levels (the related-work approach of Agarwal et al.
//! [1]) vs. no reduction at all. Timed over the full pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use ivnt_bench::u_rel_with_hints;
use ivnt_core::prelude::*;
use ivnt_simulator::prelude::*;

fn reduction(c: &mut Criterion) {
    let data = generate(&DataSetSpec::syn().with_target_examples(30_000)).expect("generate");
    let u_rel = u_rel_with_hints(&data);

    let mut group = c.benchmark_group("ablation_reduction");
    group.sample_size(10);

    let cases: Vec<(&str, DomainProfile)> = vec![
        (
            "constraints_value_changed",
            DomainProfile::new("constraints"),
        ),
        (
            "cluster_k8",
            DomainProfile::new("cluster").with_reduction(Reduction::Cluster {
                k: 8,
                max_iterations: 25,
            }),
        ),
        (
            "no_reduction",
            DomainProfile::new("none").with_constraints(vec![]),
        ),
    ];
    for (label, profile) in cases {
        let pipeline = Pipeline::new(u_rel.clone(), profile).expect("pipeline");
        group.bench_function(label, |b| {
            b.iter(|| {
                pipeline
                    .session(RunOptions::trace(&data.trace))
                    .run()
                    .expect("run")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, reduction);
criterion_main!(benches);
