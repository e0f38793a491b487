//! The RBCD unit — the paper's contribution.
//!
//! This crate models the hardware block of §3 of *Ultra-Low Power
//! Render-Based Collision Detection for CPU/GPU Systems* (MICRO-48,
//! 2015):
//!
//! * [`Zeb`] — the **Z-depth Extended Buffer**: one fixed-capacity,
//!   depth-sorted list of `(z, object-id, facing)` elements per pixel of
//!   a 16×16 tile, filled by the sorted-insertion network of Figure 4;
//! * [`scan_list`] — the **Z-overlap test** of Figures 5–6: a
//!   front-to-back traversal against the FF-Stack (front-face stack with
//!   matched bits) that reports colliding object pairs;
//! * [`RbcdUnit`] — the complete unit: one insertion unit, one Z-overlap
//!   unit and one or more ZEBs, double-buffered so scanning the previous
//!   tile overlaps rasterizing the next (§3.5). It plugs into the GPU
//!   simulator through [`rbcd_gpu::ParallelCollision`]: per-tile
//!   insertion and scan run on [`ZebTileWorker`]s, and the unit merges
//!   each tile's results in tile order, replaying the ZEB claim and scan
//!   timing. It accounts its own cycles, energy events, and overflows
//!   (Table 3);
//! * [`software`] — a plain-software image-based collision detector
//!   (Shinya–Forgue) used as the validation oracle;
//! * [`detect_frame_collisions`] — a one-call convenience API that runs
//!   a frame through the GPU simulator with an attached unit.
//!
//! # Example
//!
//! ```
//! use rbcd_core::{detect_frame_collisions, RbcdConfig};
//! use rbcd_gpu::{Camera, DrawCommand, FrameTrace, GpuConfig, ObjectId};
//! use rbcd_geometry::shapes;
//! use rbcd_math::{Mat4, Vec3, Viewport};
//!
//! let camera = Camera::perspective(Vec3::new(0.0, 0.0, 6.0), Vec3::ZERO, 1.0, 0.1, 100.0);
//! let a = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1));
//! let b = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(2))
//!     .with_model(Mat4::translation(Vec3::new(0.8, 0.0, 0.0)));
//! let trace = FrameTrace::new(camera, vec![a, b]);
//! let gpu = GpuConfig { viewport: Viewport::new(128, 128), ..GpuConfig::default() };
//! let result = detect_frame_collisions(&trace, &gpu, &RbcdConfig::default());
//! assert!(result.pairs().contains(&(ObjectId::new(1), ObjectId::new(2))));
//! ```

#![warn(missing_docs)]

mod element;
mod error;
pub mod faults;
pub mod governor;
mod pair;
mod parallel;
mod scan;
pub mod sched;
pub mod software;
mod stats;
mod unit;
mod zeb;

pub use element::ZebElement;
pub use error::RbcdError;
pub use faults::{FaultLog, FaultPlan};
pub use governor::{BreakerConfig, BreakerState, CircuitBreaker, DegradedResult, Governor};
pub use pair::ObjectPair;
pub use parallel::{TileCollisions, ZebTileWorker};
pub use scan::{scan_list, scan_list_with, FfStack, ScanOutcome};
pub use stats::RbcdStats;
pub use unit::{
    detect_collision_pass, detect_frame_collisions, ContactPoint, FrameCollisions, RbcdConfig,
    RbcdUnit,
};
pub use zeb::{InsertOutcome, Zeb};
