//! Circuit-solver microbenchmarks: Newton + block-Gauss-Seidel solve
//! cost versus crossbar size, the analytical model's effective-matrix
//! extraction, and the ideal MVM.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use xbar::{ideal_mvm, AnalyticalModel, ConductanceMatrix, CrossbarCircuit, CrossbarParams};

fn bench_nonlinear_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit/nonlinear_solve");
    for size in [8usize, 16, 32, 64] {
        let params = CrossbarParams::builder(size, size).build().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let g = ConductanceMatrix::random_sparse(&params, 0.3, &mut rng);
        let circuit = CrossbarCircuit::new(&params, &g).unwrap();
        let v = vec![params.v_supply; size];
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| circuit.solve(black_box(&v)).unwrap());
        });
    }
    group.finish();
}

fn bench_analytical_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit/analytical_extraction");
    for size in [8usize, 16, 32] {
        let params = CrossbarParams::builder(size, size).build().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let g = ConductanceMatrix::random_sparse(&params, 0.3, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| AnalyticalModel::new(black_box(&params), black_box(&g)).unwrap());
        });
    }
    group.finish();
}

fn bench_ideal_mvm(c: &mut Criterion) {
    let params = CrossbarParams::builder(64, 64).build().unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let g = ConductanceMatrix::random_sparse(&params, 0.3, &mut rng);
    let v = vec![params.v_supply; 64];
    c.bench_function("circuit/ideal_mvm_64", |b| {
        b.iter(|| ideal_mvm(black_box(&v), black_box(&g)).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_nonlinear_solve, bench_analytical_extraction, bench_ideal_mvm
}
criterion_main!(benches);
