use criterion::{criterion_group, criterion_main, Criterion};
use regent_apps::stencil::{init_stencil, stencil_program, StencilConfig};
use regent_cr::{control_replicate, CrOptions};
use regent_ir::{interp, Store};
use regent_runtime::{Compiled, ImplicitOptions, RunOptions, execute_implicit, run};

const CFG: StencilConfig = StencilConfig {
    n: 128,
    ntx: 4,
    nty: 2,
    radius: 2,
    steps: 4,
};

fn bench_executors(c: &mut Criterion) {
    c.bench_function("stencil_sequential", |b| {
        b.iter(|| {
            let (prog, h) = stencil_program(CFG);
            let mut store = Store::new(&prog);
            init_stencil(&prog, &mut store, &h);
            interp::run(&prog, &mut store)
        })
    });
    c.bench_function("stencil_implicit_4w", |b| {
        b.iter(|| {
            let (prog, h) = stencil_program(CFG);
            let mut store = Store::new(&prog);
            init_stencil(&prog, &mut store, &h);
            execute_implicit(&prog, &mut store, ImplicitOptions::with_workers(4))
        })
    });
    c.bench_function("stencil_cr_spmd_4s", |b| {
        b.iter(|| {
            let (prog, h) = stencil_program(CFG);
            let mut store = Store::new(&prog);
            init_stencil(&prog, &mut store, &h);
            let spmd = control_replicate(prog, &CrOptions::new(4)).unwrap();
            run(Compiled::Spmd(&spmd), &mut store, &RunOptions::default())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_executors
}
criterion_main!(benches);
