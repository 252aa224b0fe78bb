//! The traced replay must reproduce the runner's measurement byte for
//! byte; checked here on the small kernel.

use perfbench::cells::render;
use perfbench::replay::replay_cell;
use perfbench::trace::{self_by_name, Recorder};
use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use persp_workloads::{apps, lebench, measure_image_uncached, Workload};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;
use std::time::Instant;

fn check(image: &KernelImage, scheme: Scheme, workload: &Workload) {
    let expected = measure_image_uncached(
        scheme,
        image,
        workload,
        PerspectiveConfig::default(),
        CoreConfig::paper_default(),
    )
    .unwrap();
    let mut rec = Recorder::new(Instant::now());
    let replayed = replay_cell(&mut rec, scheme, image, workload).unwrap();
    assert_eq!(
        render(&replayed),
        render(&expected),
        "{} under {scheme}",
        workload.name
    );

    let (spans, counts) = rec.finish();
    let by_name = self_by_name(&spans);
    for name in [
        "runner.cell",
        "workloads.instance_build",
        "uarch.warmup_run",
        "uarch.roi_run",
        "core.isv_build",
    ] {
        assert!(by_name.contains_key(name), "missing span {name}");
    }
    assert_eq!(
        by_name.contains_key("scanner.scan_bounded"),
        scheme == Scheme::PerspectivePlusPlus
    );
    // The counts cover the warmup and the ROI run.
    assert!(counts["uarch.committed_insts"] > expected.stats.committed_insts);
    assert!(counts["uarch.sim_cycles"] > expected.stats.cycles);
    assert!(counts["mem.l1i.hits"] > 0);
}

#[test]
fn replay_matches_the_runner_for_every_scheme() {
    let image = KernelImage::build(KernelConfig::test_small());
    for name in ["getpid", "small-read", "fork"] {
        let w = lebench::by_name(name).unwrap();
        for &scheme in Scheme::ALL {
            check(&image, scheme, &w);
        }
    }
}

#[test]
fn replay_matches_the_runner_on_an_app() {
    let image = KernelImage::build(KernelConfig::test_small());
    let app = apps::by_name("memcached").unwrap();
    for &scheme in Scheme::MAIN {
        check(&image, scheme, &app.workload);
    }
}
