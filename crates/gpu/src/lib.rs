//! A tile-based-rendering (TBR) mobile GPU simulator in the style of the
//! ARM Mali-400 MP (Utgard), the baseline of the RBCD paper (§3.1), with
//! throughput/latency timing and per-event energy accounting.
//!
//! The simulator executes [`FrameTrace`]s — lists of [`DrawCommand`]s plus
//! a camera — through two decoupled pipelines:
//!
//! * the **Geometry Pipeline**: vertex processing, primitive assembly,
//!   near-plane clipping, face culling, and per-tile binning via the
//!   Polygon List Builder into the Tile Cache;
//! * the **Raster Pipeline**: per tile, the Tile Fetcher reads binned
//!   primitives, the Rasterizer scan-converts them at 4 fragments/cycle,
//!   the Early-Z test removes occluded fragments, and four Fragment
//!   Processors shade the survivors into on-chip colour/Z buffers.
//!
//! The RBCD unit itself lives in the `rbcd-core` crate and attaches to the
//! rasterizer through the [`ParallelCollision`] trait, exactly mirroring
//! the paper's integration point (Figure 3): the rasterizer forwards every
//! *collisionable* fragment — including tagged-to-be-culled ones — to the
//! unit, while only non-culled fragments proceed to Early-Z.
//!
//! There is one render path. [`render_batch`] renders one frame of each
//! of N sessions; [`Simulator::render_frame_parallel`] is a batch of one
//! and [`Simulator::render_frame`] that batch on one worker. Every
//! [`FramePolicy`] knob applies to all three, and results are
//! bit-identical at any worker count.
//!
//! Timing is throughput/latency-approximate rather than RTL-accurate: per
//! pipeline stage the simulator counts work items against the stage
//! throughputs of the paper's Table 1 and models the ZEB double-buffering
//! stall between the Tile Scheduler and the Z-overlap scan. Energy is
//! `Σ events × per-event energy + leakage × cycles`, with the same
//! component itemisation the paper used with McPAT (§4.1).
//!
//! # Example
//!
//! ```
//! use rbcd_gpu::{Camera, DrawCommand, FrameTrace, GpuConfig, PipelineMode, Simulator};
//! use rbcd_geometry::shapes;
//! use rbcd_math::{Vec3, Viewport};
//!
//! let config = GpuConfig { viewport: Viewport::new(64, 64), ..GpuConfig::default() };
//! let mut sim = Simulator::new(config);
//! let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
//! let trace = FrameTrace::new(camera, vec![DrawCommand::scenery(shapes::cube(1.0))]);
//! let stats = sim.render_frame(&trace, PipelineMode::Baseline, &mut rbcd_gpu::NullCollisionUnit);
//! assert!(stats.raster.fragments_rasterized > 0);
//! ```

#![warn(missing_docs)]

mod broadphase;
mod builder;
mod cache;
mod clip;
mod coherence;
mod collision_unit;
mod command;
mod config;
pub mod energy;
mod frontend;
pub mod imr;
mod parallel;
mod policy;
mod raster;
mod service;
mod sim;
mod stats;

pub use broadphase::BroadPhase;
pub use builder::{GpuConfigError, SimulatorBuilder};
pub use cache::{CacheConfig, CacheModel, CacheStats};
pub use clip::{clip_near, ClippedTris};
pub use collision_unit::{quantize_depth, CollisionFragment, NullCollisionUnit, TileCoord};
pub use command::{
    Camera, CullMode, DrawCommand, Facing, FrameTrace, ObjectId, SceneError, ShaderCost,
};
pub use config::{GovernorConfig, GpuConfig, HotPathMode};
pub use imr::{ImrSimulator, ImrStats};
pub use parallel::ParallelCollision;
pub use policy::FramePolicy;
pub use raster::{
    rasterize_triangle_in_tile, rasterize_triangle_in_tile_masked,
    rasterize_triangle_in_tile_masked_rows, rasterize_triangle_in_tile_masked_sink, Fragment,
    MaskRasterOut, ScreenTriangle,
};
pub use service::{render_batch, BatchJob, ServiceError};
pub use sim::{GovernorFrameReport, PipelineMode, Simulator};
pub use stats::{
    BroadphaseStats, CoherenceStats, FrameStats, GeometryStats, GovernorStats, RasterStats,
};
