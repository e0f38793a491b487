//! Draw commands and frame traces — the GPU's input.
//!
//! The paper's §3.2 extends the command stream so that draws belonging to
//! collisionable objects carry an object identifier (proposed as an
//! `EXT_debug_marker`-style annotation). Here that is the
//! [`DrawCommand::collidable`] field: `Some(id)` marks the draw as
//! collisionable geometry to be forwarded to the RBCD unit.

use rbcd_geometry::Mesh;
use rbcd_math::{look_at, perspective, Mat4, Vec3};
use std::fmt;
use std::sync::Arc;

/// Identifier of a collisionable object, carried through the pipeline to
/// the RBCD unit.
///
/// The ZEB packs each element into 32 bits (Table 1): a quantized depth,
/// the front/back bit, and this id — hence the id budget is 13 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(u16);

impl ObjectId {
    /// Largest representable id (13 bits).
    pub const MAX: u16 = (1 << 13) - 1;

    /// Creates an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds [`ObjectId::MAX`]: the hardware element
    /// encoding has no room for it. Use [`ObjectId::try_new`] for ids
    /// from untrusted input.
    pub fn new(id: u16) -> Self {
        assert!(id <= Self::MAX, "ObjectId {id} exceeds the 13-bit hardware budget");
        Self(id)
    }

    /// Creates an id, or `None` if it exceeds the 13-bit budget.
    pub fn try_new(id: u16) -> Option<Self> {
        (id <= Self::MAX).then_some(Self(id))
    }

    /// Creates an id without the 13-bit range check — the escape hatch
    /// fault-injection harnesses use to forge out-of-range ids. The
    /// ingest validation ([`DrawCommand::validate`]) catches such ids
    /// before they reach the hardware element encoding.
    pub fn from_raw_unchecked(id: u16) -> Self {
        Self(id)
    }

    /// `true` when the id fits the 13-bit hardware budget.
    pub fn is_valid(self) -> bool {
        self.0 <= Self::MAX
    }

    /// Raw value.
    pub fn get(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<ObjectId> for u16 {
    fn from(id: ObjectId) -> u16 {
        id.0
    }
}

/// A draw command rejected at ingest validation — the typed errors the
/// pipeline reports (and quarantines on) instead of panicking deep in
/// the rasterizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneError {
    /// The collidable object id exceeds the 13-bit hardware budget.
    ObjectIdOutOfRange {
        /// The forged raw id.
        id: u16,
    },
    /// The model matrix contains NaN or infinity.
    NonFiniteModel,
    /// A mesh vertex position contains NaN or infinity.
    NonFiniteMesh,
}

impl fmt::Display for SceneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ObjectIdOutOfRange { id } => {
                write!(f, "object id {id} exceeds the 13-bit hardware budget")
            }
            Self::NonFiniteModel => write!(f, "model matrix has NaN/inf entries"),
            Self::NonFiniteMesh => write!(f, "mesh has NaN/inf vertex positions"),
        }
    }
}

impl std::error::Error for SceneError {}

/// Orientation of a rasterized face relative to the camera.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Facing {
    /// Counter-clockwise in window space: the surface faces the camera —
    /// an *entry* point of the object along the view ray.
    Front,
    /// Clockwise: the surface faces away — an *exit* point.
    Back,
}

impl Facing {
    /// The opposite orientation.
    pub fn flip(self) -> Self {
        match self {
            Self::Front => Self::Back,
            Self::Back => Self::Front,
        }
    }
}

/// Which faces the fixed-function Face Culling stage removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CullMode {
    /// Cull nothing.
    None,
    /// Cull back faces (the OpenGL default for opaque geometry).
    #[default]
    Back,
    /// Cull front faces.
    Front,
}

impl CullMode {
    /// `true` when a face with the given orientation is culled.
    pub fn culls(self, facing: Facing) -> bool {
        matches!(
            (self, facing),
            (Self::Back, Facing::Back) | (Self::Front, Facing::Front)
        )
    }
}

/// Per-draw programmable-stage cost, standing in for the shader programs
/// a real trace would carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShaderCost {
    /// Vertex processor cycles per vertex.
    pub vertex_cycles: u32,
    /// Fragment processor cycles per shaded fragment (includes the
    /// texture path).
    pub fragment_cycles: u32,
}

impl Default for ShaderCost {
    fn default() -> Self {
        // A multi-textured, lit mobile shader of the Mali-400 era
        // (commercial games of the period spend 10–20 fragment-processor
        // cycles per fragment).
        Self { vertex_cycles: 8, fragment_cycles: 14 }
    }
}

/// One draw command: a mesh instance with its transform and pipeline
/// state.
#[derive(Debug, Clone)]
pub struct DrawCommand {
    /// Geometry, shared so workloads can instance meshes cheaply.
    pub mesh: Arc<Mesh>,
    /// Model (object-to-world) transform.
    pub model: Mat4,
    /// `Some(id)` marks collisionable geometry (paper §3.2).
    pub collidable: Option<ObjectId>,
    /// Face-culling state for this draw.
    pub cull: CullMode,
    /// Programmable-stage cost.
    pub shader: ShaderCost,
}

impl DrawCommand {
    /// Non-collisionable scenery with default state.
    pub fn scenery(mesh: impl Into<Arc<Mesh>>) -> Self {
        Self {
            mesh: mesh.into(),
            model: Mat4::IDENTITY,
            collidable: None,
            cull: CullMode::default(),
            shader: ShaderCost::default(),
        }
    }

    /// Collisionable geometry tagged with `id`.
    pub fn collidable(mesh: impl Into<Arc<Mesh>>, id: ObjectId) -> Self {
        Self { collidable: Some(id), ..Self::scenery(mesh) }
    }

    /// Sets the model transform.
    #[must_use]
    pub fn with_model(mut self, model: Mat4) -> Self {
        self.model = model;
        self
    }

    /// Sets the cull mode.
    #[must_use]
    pub fn with_cull(mut self, cull: CullMode) -> Self {
        self.cull = cull;
        self
    }

    /// Sets the shader cost.
    #[must_use]
    pub fn with_shader(mut self, shader: ShaderCost) -> Self {
        self.shader = shader;
        self
    }

    /// Ingest validation: checks the draw for forged object ids and
    /// non-finite transforms or geometry. The simulator quarantines
    /// (skips and counts) draws that fail, instead of feeding garbage to
    /// the rasterizer.
    ///
    /// # Errors
    ///
    /// Returns the first [`SceneError`] found.
    pub fn validate(&self) -> Result<(), SceneError> {
        if let Some(id) = self.collidable {
            if !id.is_valid() {
                return Err(SceneError::ObjectIdOutOfRange { id: id.get() });
            }
        }
        if !(0..4).all(|c| self.model.col(c).is_finite()) {
            return Err(SceneError::NonFiniteModel);
        }
        if !self.mesh.positions_finite() {
            return Err(SceneError::NonFiniteMesh);
        }
        Ok(())
    }
}

/// View and projection state for a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// World-to-eye transform.
    pub view: Mat4,
    /// Eye-to-clip transform.
    pub proj: Mat4,
}

impl Camera {
    /// Perspective camera looking from `eye` towards `target` with +Y up.
    ///
    /// # Panics
    ///
    /// Propagates the panics of [`perspective`] and [`look_at`] on
    /// invalid parameters.
    pub fn perspective(eye: Vec3, target: Vec3, fov_y: f32, near: f32, far: f32) -> Self {
        // Aspect is fixed at WVGA; the simulator rescales x by its actual
        // viewport, so only the vertical field of view matters here.
        Self {
            view: look_at(eye, target, Vec3::Y),
            proj: perspective(fov_y, 800.0 / 480.0, near, far),
        }
    }

    /// Combined view-projection matrix.
    pub fn view_proj(&self) -> Mat4 {
        self.proj * self.view
    }
}

/// Everything the GPU needs to render one frame.
#[derive(Debug, Clone)]
pub struct FrameTrace {
    /// Camera state.
    pub camera: Camera,
    /// Draw commands in submission order.
    pub draws: Vec<DrawCommand>,
}

impl FrameTrace {
    /// Creates a frame trace.
    pub fn new(camera: Camera, draws: Vec<DrawCommand>) -> Self {
        Self { camera, draws }
    }

    /// Total triangles across all draws.
    pub fn triangle_count(&self) -> usize {
        self.draws.iter().map(|d| d.mesh.triangle_count()).sum()
    }

    /// Total vertices across all draws.
    pub fn vertex_count(&self) -> usize {
        self.draws.iter().map(|d| d.mesh.vertex_count()).sum()
    }

    /// Draws carrying a collisionable object id.
    pub fn collidable_draws(&self) -> impl Iterator<Item = &DrawCommand> {
        self.draws.iter().filter(|d| d.collidable.is_some())
    }

    /// Runs [`DrawCommand::validate`] over every draw, returning the
    /// index and error of each rejected one. Empty for a clean trace.
    pub fn validate(&self) -> Vec<(usize, SceneError)> {
        self.draws
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.validate().err().map(|e| (i, e)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcd_geometry::shapes;

    #[test]
    fn object_id_bounds() {
        assert_eq!(ObjectId::new(0).get(), 0);
        assert_eq!(ObjectId::new(ObjectId::MAX).get(), 8191);
        assert_eq!(format!("{}", ObjectId::new(7)), "#7");
    }

    #[test]
    #[should_panic(expected = "13-bit")]
    fn object_id_overflow_panics() {
        let _ = ObjectId::new(ObjectId::MAX + 1);
    }

    #[test]
    fn cull_mode_semantics() {
        assert!(CullMode::Back.culls(Facing::Back));
        assert!(!CullMode::Back.culls(Facing::Front));
        assert!(CullMode::Front.culls(Facing::Front));
        assert!(!CullMode::Front.culls(Facing::Back));
        assert!(!CullMode::None.culls(Facing::Front));
        assert!(!CullMode::None.culls(Facing::Back));
    }

    #[test]
    fn facing_flip() {
        assert_eq!(Facing::Front.flip(), Facing::Back);
        assert_eq!(Facing::Back.flip(), Facing::Front);
    }

    #[test]
    fn draw_command_builders() {
        let mesh = shapes::cube(1.0);
        let d = DrawCommand::collidable(mesh.clone(), ObjectId::new(3))
            .with_model(Mat4::translation(Vec3::X))
            .with_cull(CullMode::None)
            .with_shader(ShaderCost { vertex_cycles: 4, fragment_cycles: 6 });
        assert_eq!(d.collidable, Some(ObjectId::new(3)));
        assert_eq!(d.cull, CullMode::None);
        assert_eq!(d.shader.fragment_cycles, 6);
        let s = DrawCommand::scenery(mesh);
        assert_eq!(s.collidable, None);
        assert_eq!(s.cull, CullMode::Back);
    }

    #[test]
    fn object_id_try_new_and_raw() {
        assert_eq!(ObjectId::try_new(5), Some(ObjectId::new(5)));
        assert_eq!(ObjectId::try_new(ObjectId::MAX + 1), None);
        let forged = ObjectId::from_raw_unchecked(ObjectId::MAX + 1);
        assert!(!forged.is_valid());
        assert!(ObjectId::new(ObjectId::MAX).is_valid());
    }

    #[test]
    fn validate_rejects_forged_ids_and_non_finite_input() {
        let mesh = shapes::cube(1.0);
        assert_eq!(DrawCommand::collidable(mesh.clone(), ObjectId::new(1)).validate(), Ok(()));
        let forged = DrawCommand::collidable(mesh.clone(), ObjectId::new(1));
        let forged = DrawCommand {
            collidable: Some(ObjectId::from_raw_unchecked(ObjectId::MAX + 7)),
            ..forged
        };
        assert_eq!(
            forged.validate(),
            Err(SceneError::ObjectIdOutOfRange { id: ObjectId::MAX + 7 })
        );
        let nan_model = DrawCommand::collidable(mesh.clone(), ObjectId::new(1))
            .with_model(Mat4::uniform_scale(f32::NAN));
        assert_eq!(nan_model.validate(), Err(SceneError::NonFiniteModel));
        // Scenery with a bad matrix is caught too.
        let bad_scenery = DrawCommand::scenery(mesh).with_model(Mat4::uniform_scale(f32::NAN));
        assert_eq!(bad_scenery.validate(), Err(SceneError::NonFiniteModel));
    }

    #[test]
    fn frame_trace_validate_reports_indices() {
        let mesh = Arc::new(shapes::cube(1.0));
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let good = DrawCommand::collidable(mesh.clone(), ObjectId::new(1));
        let bad = DrawCommand::collidable(mesh.clone(), ObjectId::new(2))
            .with_model(Mat4::uniform_scale(f32::INFINITY));
        let trace = FrameTrace::new(camera, vec![good, bad]);
        let errs = trace.validate();
        assert_eq!(errs, vec![(1, SceneError::NonFiniteModel)]);
    }

    #[test]
    fn frame_trace_counters() {
        let cube = Arc::new(shapes::cube(1.0));
        let trace = FrameTrace::new(
            Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0),
            vec![
                DrawCommand::scenery(cube.clone()),
                DrawCommand::collidable(cube.clone(), ObjectId::new(1)),
            ],
        );
        assert_eq!(trace.triangle_count(), 24);
        assert_eq!(trace.vertex_count(), 16);
        assert_eq!(trace.collidable_draws().count(), 1);
    }
}
