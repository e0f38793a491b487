//! Fault-tolerance experiment: inject deterministic faults, squeeze the
//! ZEB down to tiny `M`, and measure how much of the software oracle's
//! pair set the degradation ladder still recovers — and that every pair
//! it loses is attributed to a counted overflow (no silent losses).
//!
//! Per `(scene, M)` sweep point, each frame runs three detectors over
//! the *same* faulted trace:
//!
//! 1. the hardware model with the ladder enabled (spares → re-scan →
//!    CPU escalation);
//! 2. the CPU detector over the objects the ladder escalated (the
//!    hybrid-path recovery, [`crate::hybrid`] style);
//! 3. the unbounded software oracle — ground truth for that trace.
//!
//! Quarantined draws (forged ids, NaN geometry) are skipped identically
//! by all three, so the oracle measures what a lossless ZEB would find,
//! not what the corrupted commands pretend to contain.

use crate::runner::RunOptions;
use rbcd_core::software::OracleUnit;
use rbcd_core::{FaultLog, FaultPlan, RbcdConfig, RbcdUnit};
use rbcd_cpu_cd::{CdBody, CpuCollisionDetector, Phase};
use rbcd_gpu::{ObjectId, PipelineMode, Simulator, SimulatorBuilder};
use rbcd_workloads::Scene;
use std::collections::BTreeSet;

/// The ladder configuration the experiment runs: generous re-scan
/// budget and CPU escalation on, so only attribution failures — not
/// configuration choices — can lose pairs.
pub fn ladder_config(plan: &FaultPlan) -> RbcdConfig {
    RbcdConfig {
        ladder_rescans: 4,
        ladder_cpu_fallback: true,
        ..plan.apply_rbcd(RbcdConfig::default())
    }
}

/// One `(scene, M)` sweep point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultCell {
    /// Forced ZEB list capacity.
    pub m: usize,
    /// Faults injected across the clip.
    pub faults: FaultLog,
    /// Draw commands the ingest validation quarantined.
    pub quarantined: u64,
    /// ZEB element overflows (base-capacity pass).
    pub overflows: u64,
    /// FF-Stack drops during scans.
    pub ff_drops: u64,
    /// Tiles that needed no ladder rung.
    pub rung_clean: u64,
    /// Tiles absorbed by the spare pool (rung 1).
    pub rung_spare: u64,
    /// Tiles recovered by re-scanning at doubled capacity (rung 2).
    pub rung_rescan: u64,
    /// Tiles escalated to the CPU detector (rung 3).
    pub rung_cpu: u64,
    /// Total re-insertion passes charged by rung 2.
    pub rescan_passes: u64,
    /// Distinct object escalations (summed over frames).
    pub escalated_objects: u64,
    /// Oracle pair observations (summed per frame).
    pub oracle_pairs: u64,
    /// Oracle pairs the ladder found on the GPU path.
    pub gpu_recovered: u64,
    /// Oracle pairs only the CPU escalation found.
    pub cpu_recovered: u64,
    /// Oracle pairs nobody found.
    pub missing_pairs: u64,
    /// Missing pairs in frames where *no* overflow or FF-Stack drop was
    /// counted — the acceptance criterion demands this stays zero.
    pub silent_losses: u64,
}

impl FaultCell {
    /// Fraction of the oracle's per-frame pairs the ladder recovered
    /// (GPU + CPU escalation). `1.0` for an empty oracle.
    pub fn recovered_fraction(&self) -> f64 {
        if self.oracle_pairs == 0 {
            return 1.0;
        }
        (self.gpu_recovered + self.cpu_recovered) as f64 / self.oracle_pairs as f64
    }
}

/// All sweep points of one scene.
#[derive(Debug, Clone)]
pub struct FaultSceneResult {
    /// Scene alias.
    pub alias: String,
    /// Frames rendered per sweep point.
    pub frames: usize,
    /// One cell per `M` value.
    pub cells: Vec<FaultCell>,
}

/// The whole experiment.
#[derive(Debug, Clone)]
pub struct FaultToleranceResult {
    /// Fault-plan preset name.
    pub plan: String,
    /// Base injection seed.
    pub seed: u64,
    /// Per-scene sweeps.
    pub scenes: Vec<FaultSceneResult>,
}

impl FaultToleranceResult {
    /// The worst recovered fraction across every cell.
    pub fn worst_recovery(&self) -> f64 {
        self.scenes
            .iter()
            .flat_map(|s| s.cells.iter().map(FaultCell::recovered_fraction))
            .fold(1.0, f64::min)
    }

    /// Total silent losses across every cell (must be zero).
    pub fn silent_losses(&self) -> u64 {
        self.scenes.iter().flat_map(|s| s.cells.iter().map(|c| c.silent_losses)).sum()
    }
}

/// Runs the fault-tolerance sweep: for every scene and every `M` in
/// `m_values`, render `frames` faulted frames and account recovery
/// against the software oracle. Deterministic for any `opts.threads`.
pub fn run_fault_tolerance(
    scenes: &[Scene],
    plan_name: &str,
    base_plan: FaultPlan,
    m_values: &[usize],
    opts: &RunOptions,
) -> FaultToleranceResult {
    let scenes = scenes
        .iter()
        .map(|scene| {
            let frames = opts.frames.unwrap_or(scene.frames);
            let cells = m_values
                .iter()
                .map(|&m| {
                    let plan = FaultPlan { forced_m: Some(m), ..base_plan };
                    run_cell(scene, frames, &plan, opts)
                })
                .collect();
            FaultSceneResult { alias: scene.alias.to_string(), frames, cells }
        })
        .collect();
    FaultToleranceResult { plan: plan_name.to_string(), seed: base_plan.seed, scenes }
}

fn run_cell(scene: &Scene, frames: usize, plan: &FaultPlan, opts: &RunOptions) -> FaultCell {
    // The unit's hot path follows the simulator's (one knob switches
    // the whole pipeline, as in `runner::run_gpu`).
    let cfg = RbcdConfig { hot_path: opts.gpu.hot_path, ..ladder_config(plan) };
    let mut cell = FaultCell { m: cfg.list_capacity, ..FaultCell::default() };

    let meshes = scene.collidable_meshes();
    let mut sim = SimulatorBuilder::from_config(opts.gpu.clone())
        .policy(opts.policy)
        .build()
        .expect("benchmark GPU configurations are validated at construction");
    let mut unit = RbcdUnit::new(cfg, opts.gpu.tile_size)
        .expect("the ladder configuration is valid by construction");
    let mut prev = *unit.stats();

    for f in 0..frames {
        let (trace, log) = plan.apply(&scene.frame_trace(f), f as u64);
        cell.faults.accumulate(&log);

        unit.new_frame();
        let gpu_stats =
            sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut unit, opts.threads);
        cell.quarantined += gpu_stats.geometry.draws_quarantined;
        let gpu_pairs: BTreeSet<(ObjectId, ObjectId)> =
            unit.take_contacts().iter().map(|c| c.pair()).collect();
        let escalated = unit.take_escalated();
        cell.escalated_objects += escalated.len() as u64;

        // Hybrid-path recovery: the host re-tests the escalated objects
        // with the exact CPU detector, using the game's authoritative
        // (clean) geometry and this frame's transforms.
        let cpu_pairs = cpu_recover(&escalated, &meshes, &scene.collidable_transforms(f));

        // Ground truth for the same faulted trace: a lossless ZEB.
        let mut oracle = OracleUnit::new();
        let mut oracle_sim = Simulator::new(opts.gpu.clone());
        oracle_sim.render_frame(&trace, PipelineMode::Rbcd, &mut oracle);
        let oracle_pairs = oracle.pairs();

        let stats = *unit.stats();
        let pressured = stats.overflows > prev.overflows || stats.ff_drops > prev.ff_drops;
        prev = stats;

        cell.oracle_pairs += oracle_pairs.len() as u64;
        for pair in &oracle_pairs {
            if gpu_pairs.contains(pair) {
                cell.gpu_recovered += 1;
            } else if cpu_pairs.contains(pair) {
                cell.cpu_recovered += 1;
            } else {
                cell.missing_pairs += 1;
                if !pressured {
                    cell.silent_losses += 1;
                }
            }
        }
    }

    let s = unit.stats();
    cell.overflows = s.overflows;
    cell.ff_drops = s.ff_drops;
    cell.rung_clean = s.rung_clean();
    cell.rung_spare = s.rung_spare;
    cell.rung_rescan = s.rung_rescan;
    cell.rung_cpu = s.rung_cpu;
    cell.rescan_passes = s.rescan_passes;
    cell
}

/// Exact CPU detection over the escalated objects. Ids that don't map
/// to a scene collidable (possible only if a forged id survived the
/// quarantine, which it must not) are ignored; unhullable meshes are
/// skipped like the hybrid path skips them.
fn cpu_recover(
    escalated: &BTreeSet<ObjectId>,
    meshes: &[(ObjectId, std::sync::Arc<rbcd_geometry::Mesh>)],
    transforms: &[rbcd_math::Mat4],
) -> BTreeSet<(ObjectId, ObjectId)> {
    if escalated.len() < 2 {
        return BTreeSet::new();
    }
    let mut bodies = Vec::new();
    let mut models = Vec::new();
    for &id in escalated {
        let index = id.get() as usize;
        if index == 0 || index > meshes.len() {
            continue;
        }
        let (scene_id, mesh) = &meshes[index - 1];
        debug_assert_eq!(*scene_id, id);
        if let Ok(body) = CdBody::from_mesh(id.get() as u32, mesh) {
            bodies.push(body);
            models.push(transforms[index - 1]);
        }
    }
    if bodies.len() < 2 {
        return BTreeSet::new();
    }
    CpuCollisionDetector::new(bodies)
        .detect(&models, Phase::BroadAndNarrow)
        .pairs
        .into_iter()
        .map(|(a, b)| (ObjectId::new(a as u16), ObjectId::new(b as u16)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcd_gpu::GpuConfig;
    use rbcd_math::Viewport;

    fn opts(threads: usize) -> RunOptions {
        RunOptions {
            frames: Some(3),
            gpu: GpuConfig { viewport: Viewport::new(160, 96), ..GpuConfig::default() },
            threads,
            ..RunOptions::default()
        }
    }

    #[test]
    fn ladder_recovers_under_full_fault_injection() {
        let plan = FaultPlan::preset("all", 0xFA07).unwrap();
        let scenes = [rbcd_workloads::shells(), rbcd_workloads::temple()];
        let result = run_fault_tolerance(&scenes, "all", plan, &[2], &opts(1));
        let cell = &result.scenes[0].cells[0];
        assert_eq!(cell.m, 2);
        assert!(cell.faults.total() > 0, "faults must fire: {:?}", cell.faults);
        assert!(cell.quarantined > 0, "bad draws must be quarantined");
        assert!(cell.overflows > 0, "M = 2 must overflow on shells");
        assert!(cell.oracle_pairs > 0);
        assert!(
            result.worst_recovery() >= 0.99,
            "ladder must recover >= 99% of oracle pairs, got {}",
            result.worst_recovery()
        );
        assert_eq!(result.silent_losses(), 0, "every miss must trace to a counted overflow");
    }

    #[test]
    fn fault_cells_run_under_the_policy() {
        // A budget every frame overruns sheds all but the first tile,
        // so a governed cell must find fewer pairs on the GPU path.
        use rbcd_gpu::{FramePolicy, GovernorConfig};
        let plan = FaultPlan::preset("overflow", 7).unwrap();
        let scenes = [rbcd_workloads::shells()];
        let free = run_fault_tolerance(&scenes, "overflow", plan, &[4], &opts(1));
        let gov = GovernorConfig { frame_budget_cycles: 1, ..GovernorConfig::default() };
        let policy = FramePolicy::new().with_governor(Some(gov));
        let governed =
            run_fault_tolerance(&scenes, "overflow", plan, &[4], &RunOptions { policy, ..opts(1) });
        let (a, b) = (&free.scenes[0].cells[0], &governed.scenes[0].cells[0]);
        assert!(b.gpu_recovered < a.gpu_recovered, "{} vs {}", b.gpu_recovered, a.gpu_recovered);
    }

    #[test]
    fn fault_experiment_is_thread_invariant() {
        let plan = FaultPlan::preset("overflow", 7).unwrap();
        let scenes = [rbcd_workloads::shells()];
        let a = run_fault_tolerance(&scenes, "overflow", plan, &[1, 4], &opts(1));
        let b = run_fault_tolerance(&scenes, "overflow", plan, &[1, 4], &opts(4));
        for (ca, cb) in a.scenes[0].cells.iter().zip(&b.scenes[0].cells) {
            assert_eq!(ca.faults, cb.faults);
            assert_eq!(ca.overflows, cb.overflows);
            assert_eq!(ca.ff_drops, cb.ff_drops);
            assert_eq!(
                (ca.rung_clean, ca.rung_spare, ca.rung_rescan, ca.rung_cpu),
                (cb.rung_clean, cb.rung_spare, cb.rung_rescan, cb.rung_cpu),
            );
            assert_eq!(ca.gpu_recovered, cb.gpu_recovered);
            assert_eq!(ca.cpu_recovered, cb.cpu_recovered);
            assert_eq!(ca.missing_pairs, cb.missing_pairs);
        }
    }
}
