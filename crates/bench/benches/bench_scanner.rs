//! Criterion bench: gadget scanning, full-kernel vs. ISV-bounded — the
//! hot path behind Figure 9.1 (E5).

use criterion::{criterion_group, criterion_main, Criterion};
use persp_kernel::body::emit_kernel;
use persp_kernel::callgraph::{CallGraph, KernelConfig};
use persp_kernel::syscalls::Sysno;
use persp_scanner::{scan_bounded, scan_kernel};
use persp_uarch::machine::Machine;
use std::hint::black_box;

fn setup() -> (CallGraph, Machine) {
    let mut g = CallGraph::generate(KernelConfig::test_small());
    let text = emit_kernel(&mut g);
    let mut m = Machine::new();
    m.map_text(std::sync::Arc::new(text));
    (g, m)
}

fn bench_scans(c: &mut Criterion) {
    let (g, m) = setup();
    let bound = g.live_reachable(&Sysno::ALL[..10]);

    c.bench_function("scanner/full-kernel-sweep", |b| {
        b.iter(|| black_box(scan_kernel(&g, |pc| m.inst_at(pc))));
    });
    c.bench_function("scanner/isv-bounded-sweep", |b| {
        b.iter(|| black_box(scan_bounded(&g, &bound, |pc| m.inst_at(pc))));
    });
}

criterion_group!(benches, bench_scans);
criterion_main!(benches);
