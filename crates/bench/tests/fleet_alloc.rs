//! Allocation gate of the fused fleet sweep against the per-trace
//! reference analysis.
//!
//! The counting allocator behind [`rwc_bench::alloc::measure`] is
//! process-global, so any other test thread allocating during a measured
//! region inflates it. This binary therefore holds exactly one test: the
//! two measured regions run back to back with nothing else alive.

use rwc_bench::perf::fleet_arm;
use rwc_bench::Scale;
use rwc_optics::ModulationTable;
use rwc_telemetry::FleetGenerator;
use rwc_util::time::SimDuration;

#[test]
fn fused_sweep_allocates_far_less_than_reference() {
    // A reduced-quick fleet keeps this test fast: 2 fibers, 60 days.
    let mut cfg = Scale::Quick.fleet();
    cfg.n_fibers = 2;
    cfg.horizon = SimDuration::from_days(60);
    let gen = FleetGenerator::new(cfg);
    let table = ModulationTable::paper_default();
    let (fused_acc, fused) = fleet_arm(&gen, &table, 2);
    let (reference_acc, reference) =
        rwc_bench::alloc::measure(|| gen.reference_fleet_analysis(&table));
    assert_eq!(
        serde_json::to_string(&fused_acc).unwrap(),
        serde_json::to_string(&reference_acc).unwrap(),
        "fused arm diverged from the reference"
    );
    // The fused path must allocate far less: no per-link trace clone,
    // no per-call HDR clone.
    assert!(
        fused.alloc_bytes * 2 < reference.bytes,
        "fused {} bytes vs reference {} bytes",
        fused.alloc_bytes,
        reference.bytes
    );
}
