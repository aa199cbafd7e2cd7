use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use regent_apps::stencil::stencil_spec;
use regent_machine::{simulate, MachineConfig, Model, SimOptions};

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("des");
    g.sample_size(10);
    for nodes in [64usize, 512] {
        let machine = MachineConfig::piz_daint(nodes);
        let spec = stencil_spec(nodes, &machine);
        g.bench_with_input(BenchmarkId::new("cr", nodes), &nodes, |b, _| {
            b.iter(|| simulate(Model::Cr, &machine, &spec, 3, &mut SimOptions::default()))
        });
        g.bench_with_input(BenchmarkId::new("implicit", nodes), &nodes, |b, _| {
            b.iter(|| simulate(Model::Implicit, &machine, &spec, 3, &mut SimOptions::default()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sim
}
criterion_main!(benches);
