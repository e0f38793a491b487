//! One front door for the RBCD reproduction.
//!
//! The workspace's functionality is spread across focused crates —
//! `rbcd-gpu` (the Mali-400-style TBR simulator), `rbcd-core` (the RBCD
//! unit and the multi-session scheduler), `rbcd-geometry`, `rbcd-math`,
//! `rbcd-trace` — which keeps dependency edges honest but makes a
//! first-time caller import from five places. This crate is the facade:
//! `use rbcd::prelude::*;` brings the whole public surface into scope,
//! and the underlying crates stay reachable as [`gpu`], [`core`],
//! [`geometry`], [`math`], and [`trace`].
//!
//! # Quickstart: submit sessions, don't build simulators
//!
//! ```
//! use rbcd::prelude::*;
//!
//! // A two-frame motion clip of two touching cubes.
//! let camera = Camera::perspective(Vec3::new(0.0, 0.0, 6.0), Vec3::ZERO, 1.0, 0.1, 100.0);
//! let frame = FrameTrace::new(
//!     camera,
//!     vec![
//!         DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1)),
//!         DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(2))
//!             .with_model(Mat4::translation(Vec3::new(0.8, 0.0, 0.0))),
//!     ],
//! );
//!
//! // Execution knobs travel as one typed FramePolicy.
//! let policy = FramePolicy::new().with_reuse(true);
//! let gpu = GpuConfig { viewport: Viewport::new(96, 96), ..GpuConfig::default() };
//!
//! // Submit to the scheduler; it serves every admitted session over
//! // one shared worker pool, bit-identically to running each solo.
//! let mut sched = Scheduler::new(2, 4);
//! let id = sched
//!     .submit(SessionSpec::new("cubes", vec![frame; 2]).with_gpu(gpu).with_policy(policy))
//!     .expect("queue has room");
//! let reports = sched.run().expect("no worker panics");
//! assert!(reports[id.index()].pairs().contains(&(ObjectId::new(1), ObjectId::new(2))));
//! ```

#![warn(missing_docs)]

pub use rbcd_core as core;
pub use rbcd_geometry as geometry;
pub use rbcd_gpu as gpu;
pub use rbcd_math as math;
pub use rbcd_trace as trace;

/// Everything a typical caller needs, importable in one line.
pub mod prelude {
    pub use rbcd_core::faults::{FaultLog, FaultPlan};
    pub use rbcd_core::sched::{
        AdmissionError, Ledger, Scheduler, SessionId, SessionReport, SessionSpec,
    };
    pub use rbcd_core::{
        detect_frame_collisions, ContactPoint, FrameCollisions, ObjectPair, RbcdConfig, RbcdError,
        RbcdStats, RbcdUnit,
    };
    pub use rbcd_geometry::shapes;
    pub use rbcd_gpu::{
        render_batch, BatchJob, Camera, CollisionBackend, DrawCommand, FramePolicy, FrameStats,
        FrameTrace, GovernorConfig, GpuConfig, GpuConfigError, HotPathMode, ObjectId,
        PipelineMode, ServiceError, Simulator, SimulatorBuilder,
    };
    pub use rbcd_math::{Mat4, Vec3, Viewport};
    pub use rbcd_trace::{CounterScopes, CounterSet, TraceBuffer};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_covers_the_session_surface() {
        use crate::prelude::*;
        // Construction-only smoke: the facade must expose enough to
        // write the quickstart without touching sub-crates.
        let policy = FramePolicy::new().with_reuse(true);
        let sched = Scheduler::new(2, 4);
        let spec = SessionSpec::new("empty", Vec::new()).with_policy(policy);
        assert!(spec.policy.reuse);
        assert_eq!(sched.queued(), 0);
        assert!(sched.ledger().leak_free());
    }
}
