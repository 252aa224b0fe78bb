//! The traced replay of the runner's measurement protocol.
//!
//! The runner's internal steps are private, so the traced run repeats
//! them one public call at a time, with a span around each call:
//!
//! 1. `SimInstance::from_image_core`;
//! 2. `Workload::compile` + `load_text`, `enable_call_trace`, warmup `Core::run`;
//! 3. `take_call_trace` → `trace_to_funcs` → ISV build → `Perspective::install_isv`;
//! 4. `reset_counters`, then `PerspectivePolicy::reset_measurement`;
//! 5. the ROI `Core::run`.
//!
//! The result must serialize byte-for-byte like
//! `runner::measure_image_uncached` for the same cell; the benchmark
//! counts a replay that diverges as a failed cell.

use crate::trace::Recorder;
use persp_kernel::kernel::KernelImage;
use persp_scanner::scanner::scan_bounded;
use persp_uarch::config::CoreConfig;
use persp_uarch::pipeline::Core;
use persp_uarch::{MetricsRegistry, MetricsSource};
use persp_workloads::{trace_to_funcs, Measurement, SimInstance, Workload};
use perspective::isv::Isv;
use perspective::policy::{PerspectiveConfig, PerspectivePolicy};
use perspective::scheme::Scheme;

/// Cycle budget of each run, as in the runner.
const RUN_BUDGET: u64 = 80_000_000;

fn policy(core: &Core) -> Option<&PerspectivePolicy> {
    core.policy()
        .as_any()
        .and_then(|a| a.downcast_ref::<PerspectivePolicy>())
}

/// One `Core::run` inside a span, counting the cycles and instructions it
/// simulated from the core's statistics before and after the call.
fn timed_run(
    rec: &mut Recorder,
    span: &'static str,
    core: &mut Core,
    entry: u64,
) -> Result<(), String> {
    let before = core.stats();
    rec.span(span, |_| core.run(entry, RUN_BUDGET))
        .map_err(|e| e.to_string())?;
    let after = core.stats();
    rec.count("uarch.sim_cycles", after.cycles - before.cycles);
    rec.count(
        "uarch.committed_insts",
        after.committed_insts - before.committed_insts,
    );
    rec.count(
        "uarch.squashed_insts",
        after.squashed_insts - before.squashed_insts,
    );
    Ok(())
}

/// Replay the measurement protocol for one cell, recording spans and
/// counts into `rec`. The whole cell is the `runner.cell` span.
pub fn replay_cell(
    rec: &mut Recorder,
    scheme: Scheme,
    image: &KernelImage,
    workload: &Workload,
) -> Result<Measurement, String> {
    rec.span("runner.cell", |rec| {
        let mut inst = rec.span("workloads.instance_build", |_| {
            SimInstance::from_image_core(
                scheme,
                image,
                PerspectiveConfig::default(),
                CoreConfig::paper_default(),
            )
        });
        let text = inst.text_base();
        let data = inst.data_base();
        rec.span("workloads.compile_load", |_| {
            let prog = workload.compile(text, data);
            inst.core.machine.load_text(prog);
            inst.core.enable_call_trace();
        });
        timed_run(rec, "uarch.warmup_run", &mut inst.core, text)
            .map_err(|e| format!("warmup of {} under {scheme} failed: {e}", workload.name))?;

        let raw = inst.core.take_call_trace();
        let trace = rec.span("workloads.trace_resolve", |_| {
            trace_to_funcs(&image.graph, &raw)
        });
        let isv = rec.span("core.isv_build", |rec| {
            let kernel = inst.kernel.borrow();
            let graph = &kernel.graph;
            match scheme {
                Scheme::PerspectiveStatic => {
                    Some(Isv::static_for(graph, &workload.syscall_profile()))
                }
                Scheme::Perspective => Some(Isv::dynamic_from_funcs(graph, trace)),
                Scheme::PerspectivePlusPlus => {
                    let dynamic = Isv::dynamic_from_funcs(graph, trace);
                    let report = rec.span("scanner.scan_bounded", |_| {
                        scan_bounded(graph, dynamic.funcs(), |pc| inst.core.machine.inst_at(pc))
                    });
                    Some(dynamic.hardened_with_audit(graph, report.flagged_functions()))
                }
                _ => None,
            }
        });
        let isv_funcs = isv.as_ref().map(Isv::num_funcs);
        if let (Some(p), Some(view)) = (&inst.perspective, isv) {
            p.install_isv(inst.asid, view);
        }

        inst.core.policy_mut().reset_counters();
        if let Some(p) = inst
            .core
            .policy_mut()
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<PerspectivePolicy>())
        {
            p.reset_measurement();
        }

        let before = inst.core.stats();
        timed_run(rec, "uarch.roi_run", &mut inst.core, text)
            .map_err(|e| format!("ROI of {} under {scheme} failed: {e}", workload.name))?;
        let stats = inst.core.stats().delta_since(&before);

        let mem = &inst.core.mem;
        let (l1d, l1i, l2) = (mem.l1d_stats(), mem.l1i_stats(), mem.l2_stats());
        rec.count("mem.l1d.hits", l1d.hits);
        rec.count("mem.l1d.misses", l1d.misses);
        rec.count("mem.l1i.hits", l1i.hits);
        rec.count("mem.l1i.misses", l1i.misses);
        rec.count("mem.l2.hits", l2.hits);
        rec.count("mem.l2.misses", l2.misses);
        rec.count("mem.prefetches", mem.prefetch_count());

        let p = policy(&inst.core);
        let mut metrics = MetricsRegistry::new();
        stats.export_metrics("sim", &mut metrics);
        if let Some(p) = p {
            p.export_metrics("policy", &mut metrics);
        }
        inst.kernel.borrow().export_metrics("kernel", &mut metrics);
        Ok(Measurement {
            scheme,
            workload: workload.name,
            stats,
            fences: p.map(PerspectivePolicy::fence_breakdown),
            isv_cache: p.map(PerspectivePolicy::isv_cache_stats),
            dsvmt_cache: p.map(PerspectivePolicy::dsvmt_cache_stats),
            isv_funcs,
            metrics,
        })
    })
}
