//! Golden digests of `SwanTe` solutions on the `tput` workload.
//!
//! The cells are the `tput` experiment's: a gravity matrix (seed 11) at
//! half the network's static capacity, scaled by the load, solved once on
//! the static topology and once on the graph `augment` builds with a
//! uniform penalty. Each digest is FNV-1a over the bits of `routed`,
//! `edge_flows` and `total`, so any change to the floating-point work of
//! the Garg–Könemann kernel behind `SwanTe` moves it. The digests were
//! recorded from the original virtual-node formulation of the kernel.

use rwc_core::{augment, AugmentConfig, PenaltyPolicy};
use rwc_te::demand::DemandMatrix;
use rwc_te::problem::{TeProblem, TeSolution};
use rwc_te::swan::SwanTe;
use rwc_te::TeAlgorithm;
use rwc_topology::{builders, WanTopology};
use rwc_util::units::Gbps;

fn digest(sol: &TeSolution) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let values = sol.routed.iter().chain(&sol.edge_flows).chain(std::iter::once(&sol.total));
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(static, augmented)` digests of one `tput` cell.
fn cell_digests(wan: &WanTopology, load: f64) -> (u64, u64) {
    let base_volume = wan.total_capacity() * 0.5;
    let dm = DemandMatrix::gravity(wan, Gbps(base_volume.value()), 11).scaled(load);
    let swan = SwanTe::default();
    let static_sol = swan.solve(&TeProblem::from_wan(wan, &dm));
    let cfg = AugmentConfig { penalty: PenaltyPolicy::Uniform(1.0), ..Default::default() };
    let aug = augment(wan, &dm, &cfg, &[]);
    let dynamic_sol = swan.solve(&aug.problem);
    (digest(&static_sol), digest(&dynamic_sol))
}

#[test]
fn swan_abilene_load_1_5_matches_golden_digests() {
    let digests = cell_digests(&builders::abilene(), 1.5);
    assert_eq!(digests, (0xcf7d_d70f_feba_68e8, 0x3fd6_4487_0deb_1d8c));
}

#[test]
fn swan_b4_like_load_2_0_matches_golden_digests() {
    let digests = cell_digests(&builders::b4_like(), 2.0);
    assert_eq!(digests, (0xe111_e464_328f_a987, 0x8cc5_67ee_c79b_a19f));
}
