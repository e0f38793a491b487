//! Validating, fluent construction of [`Simulator`]s.
//!
//! `Simulator::new(GpuConfig { .. })` accepts any bag of numbers — a
//! zero-sized tile or a zero-throughput rasterizer silently produces a
//! nonsense simulation (or a divide-by-zero panic deep in a pipeline).
//! [`SimulatorBuilder`] is the checked front door: a whole
//! [`GpuConfig`] in ([`SimulatorBuilder::from_config`]), one
//! [`FramePolicy`], and a [`SimulatorBuilder::build`] that rejects
//! degenerate configurations with a typed [`GpuConfigError`].

use crate::cache::CacheConfig;
use crate::config::GpuConfig;
use crate::policy::FramePolicy;
use crate::sim::Simulator;
use std::fmt;

/// A rejected GPU configuration, naming the offending parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum GpuConfigError {
    /// The viewport has a zero dimension.
    ZeroViewport {
        /// Offending width.
        width: u32,
        /// Offending height.
        height: u32,
    },
    /// `tile_size` is zero.
    ZeroTileSize,
    /// `frequency_hz` is zero (cycles could not convert to seconds).
    ZeroFrequency,
    /// A processor or throughput parameter that the timing model
    /// divides by is zero.
    ZeroThroughput(
        /// The parameter's field name.
        &'static str,
    ),
    /// `mem_latency_min` exceeds `mem_latency_max`.
    LatencyInverted {
        /// Configured minimum latency.
        min: u64,
        /// Configured maximum latency.
        max: u64,
    },
    /// `dram_contention` is outside `[0, 1]` or not finite.
    ContentionOutOfRange(
        /// The rejected value.
        f64,
    ),
    /// A cache's geometry is unusable (zero line/ways/size, or a size
    /// smaller than one full set of lines).
    BadCache {
        /// Which cache (`"vertex_cache"`, `"tile_cache"`, `"l2_cache"`).
        cache: &'static str,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A record size the address math multiplies by is zero.
    ZeroRecordBytes(
        /// The parameter's field name.
        &'static str,
    ),
}

impl fmt::Display for GpuConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroViewport { width, height } => {
                write!(f, "viewport {width}x{height} has a zero dimension")
            }
            Self::ZeroTileSize => write!(f, "tile_size must be positive"),
            Self::ZeroFrequency => write!(f, "frequency_hz must be positive"),
            Self::ZeroThroughput(field) => write!(f, "{field} must be positive"),
            Self::LatencyInverted { min, max } => {
                write!(f, "mem_latency_min ({min}) exceeds mem_latency_max ({max})")
            }
            Self::ContentionOutOfRange(v) => {
                write!(f, "dram_contention ({v}) must be a finite value in [0, 1]")
            }
            Self::BadCache { cache, reason } => write!(f, "{cache}: {reason}"),
            Self::ZeroRecordBytes(field) => write!(f, "{field} must be positive"),
        }
    }
}

impl std::error::Error for GpuConfigError {}

/// Fluent, validating constructor for [`Simulator`].
///
/// Hardware shape arrives as one [`GpuConfig`], each field set in the
/// struct literal; execution behaviour — reuse, hot path, broad phase,
/// tracing, governor — arrives as one [`FramePolicy`], fixed for the
/// built simulator's life:
///
/// ```
/// use rbcd_gpu::{FramePolicy, GpuConfig, SimulatorBuilder};
/// use rbcd_math::Viewport;
///
/// let gpu = GpuConfig { viewport: Viewport::new(128, 96), tile_size: 16, ..GpuConfig::default() };
/// let sim = SimulatorBuilder::from_config(gpu)
///     .policy(FramePolicy::new().with_tracing(true))
///     .build()
///     .expect("valid configuration");
/// assert!(sim.tracing_enabled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimulatorBuilder {
    config: GpuConfig,
    policy: FramePolicy,
}

impl SimulatorBuilder {
    /// Starts from the paper's Table 1 defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an existing configuration.
    pub fn from_config(config: GpuConfig) -> Self {
        Self { config, policy: FramePolicy::default() }
    }

    /// Installs the execution policy, replacing any set before. This is
    /// the one place reuse, the hot-path override, the broad phase,
    /// tracing and the governor are configured; the built simulator
    /// runs every frame under it, and only its governor can change
    /// later ([`Simulator::set_governor`]).
    pub fn policy(mut self, policy: FramePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Checks the configuration without building.
    ///
    /// # Errors
    ///
    /// Returns the first [`GpuConfigError`] found, in the declaration
    /// order of [`GpuConfig`]'s fields.
    pub fn validate(&self) -> Result<(), GpuConfigError> {
        let c = &self.config;
        if c.frequency_hz == 0 {
            return Err(GpuConfigError::ZeroFrequency);
        }
        if c.viewport.width == 0 || c.viewport.height == 0 {
            return Err(GpuConfigError::ZeroViewport {
                width: c.viewport.width,
                height: c.viewport.height,
            });
        }
        if c.tile_size == 0 {
            return Err(GpuConfigError::ZeroTileSize);
        }
        for (field, value) in [
            ("vertex_processors", c.vertex_processors as u64),
            ("fragment_processors", c.fragment_processors as u64),
            ("raster_frags_per_cycle", c.raster_frags_per_cycle as u64),
            ("triangles_per_cycle", c.triangles_per_cycle as u64),
            ("memory_parallelism", c.memory_parallelism),
            ("dram_bytes_per_cycle", c.dram_bytes_per_cycle),
        ] {
            if value == 0 {
                return Err(GpuConfigError::ZeroThroughput(field));
            }
        }
        if c.mem_latency_min > c.mem_latency_max {
            return Err(GpuConfigError::LatencyInverted {
                min: c.mem_latency_min,
                max: c.mem_latency_max,
            });
        }
        if !c.dram_contention.is_finite() || !(0.0..=1.0).contains(&c.dram_contention) {
            return Err(GpuConfigError::ContentionOutOfRange(c.dram_contention));
        }
        for (name, cache) in [
            ("vertex_cache", &c.vertex_cache),
            ("tile_cache", &c.tile_cache),
            ("l2_cache", &c.l2_cache),
        ] {
            check_cache(name, cache)?;
        }
        for (field, value) in [
            ("prim_record_bytes", c.prim_record_bytes),
            ("vertex_record_bytes", c.vertex_record_bytes),
        ] {
            if value == 0 {
                return Err(GpuConfigError::ZeroRecordBytes(field));
            }
        }
        Ok(())
    }

    /// Validates and builds the simulator.
    ///
    /// # Errors
    ///
    /// See [`SimulatorBuilder::validate`].
    pub fn build(self) -> Result<Simulator, GpuConfigError> {
        self.validate()?;
        Ok(Simulator::with_policy(self.config, self.policy))
    }
}

fn check_cache(name: &'static str, cache: &CacheConfig) -> Result<(), GpuConfigError> {
    let bad = |reason| Err(GpuConfigError::BadCache { cache: name, reason });
    if cache.line_bytes == 0 {
        return bad("line_bytes must be positive");
    }
    if cache.ways == 0 {
        return bad("ways must be positive");
    }
    if cache.size_bytes == 0 {
        return bad("size_bytes must be positive");
    }
    if cache.size_bytes < cache.line_bytes * cache.ways as u64 {
        return bad("size_bytes must hold at least one full set");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcd_math::Viewport;

    #[test]
    fn default_builder_is_valid() {
        let sim = SimulatorBuilder::new().build().expect("Table 1 defaults are valid");
        assert_eq!(sim.config().tile_size, 16);
        assert!(!sim.tracing_enabled());
    }

    /// A configuration with one field changed from Table 1.
    fn with(change: impl FnOnce(&mut GpuConfig)) -> SimulatorBuilder {
        let mut config = GpuConfig::default();
        change(&mut config);
        SimulatorBuilder::from_config(config)
    }

    #[test]
    fn fluent_setters_apply() {
        let config = GpuConfig {
            viewport: Viewport::new(64, 48),
            tile_size: 8,
            frequency_hz: 100_000_000,
            fragment_processors: 2,
            ..GpuConfig::default()
        };
        let sim = SimulatorBuilder::from_config(config)
            .policy(FramePolicy::new().with_tracing(true).with_reuse(true))
            .build()
            .unwrap();
        let c = sim.config();
        assert_eq!((c.viewport.width, c.viewport.height), (64, 48));
        assert_eq!(c.tile_size, 8);
        assert_eq!(c.frequency_hz, 100_000_000);
        assert_eq!(c.fragment_processors, 2);
        assert!(sim.tracing_enabled());
        assert!(sim.policy().reuse);
    }

    #[test]
    fn rejects_degenerate_configs_with_typed_errors() {
        // `Viewport::new` panics on a zero dimension; the builder must
        // reject one that arrives in a struct literal with a typed error.
        assert_eq!(
            with(|c| c.viewport = Viewport { width: 0, height: 480 }).validate(),
            Err(GpuConfigError::ZeroViewport { width: 0, height: 480 })
        );
        assert_eq!(with(|c| c.tile_size = 0).validate(), Err(GpuConfigError::ZeroTileSize));
        assert_eq!(with(|c| c.frequency_hz = 0).validate(), Err(GpuConfigError::ZeroFrequency));
        assert_eq!(
            with(|c| c.fragment_processors = 0).validate(),
            Err(GpuConfigError::ZeroThroughput("fragment_processors"))
        );
        let inverted = GpuConfig {
            mem_latency_min: 200,
            mem_latency_max: 100,
            ..GpuConfig::default()
        };
        assert_eq!(
            SimulatorBuilder::from_config(inverted).validate(),
            Err(GpuConfigError::LatencyInverted { min: 200, max: 100 })
        );
        let contended = GpuConfig { dram_contention: 1.5, ..GpuConfig::default() };
        assert!(matches!(
            SimulatorBuilder::from_config(contended).validate(),
            Err(GpuConfigError::ContentionOutOfRange(_))
        ));
        let tiny_cache = GpuConfig {
            vertex_cache: CacheConfig { line_bytes: 64, ways: 2, size_bytes: 64 },
            ..GpuConfig::default()
        };
        assert!(matches!(
            SimulatorBuilder::from_config(tiny_cache).validate(),
            Err(GpuConfigError::BadCache { cache: "vertex_cache", .. })
        ));
    }

    #[test]
    fn errors_render_readable_messages() {
        let e = GpuConfigError::LatencyInverted { min: 9, max: 3 };
        assert!(e.to_string().contains("mem_latency_min"));
        let e = GpuConfigError::BadCache { cache: "l2_cache", reason: "ways must be positive" };
        assert!(e.to_string().contains("l2_cache"));
    }

    #[test]
    fn policy_hot_path_overrides_config_only_when_set() {
        use crate::config::HotPathMode;
        let cfg = GpuConfig { hot_path: HotPathMode::Reference, ..GpuConfig::default() };
        let kept = SimulatorBuilder::from_config(cfg.clone())
            .policy(FramePolicy::new())
            .build()
            .unwrap();
        assert_eq!(kept.config().hot_path, HotPathMode::Reference, "None keeps the config's mode");
        assert_eq!(kept.policy().hot_path, Some(HotPathMode::Reference), "resolved mode reported");
        let overridden = SimulatorBuilder::from_config(cfg)
            .policy(FramePolicy::new().with_hot_path(HotPathMode::Mask))
            .build()
            .unwrap();
        assert_eq!(overridden.config().hot_path, HotPathMode::Mask);
        assert_eq!(overridden.policy().hot_path, Some(HotPathMode::Mask));
    }

    #[test]
    fn policy_broadphase_reaches_the_simulator() {
        use crate::broadphase::BroadPhase;
        let default = SimulatorBuilder::new().build().unwrap();
        assert_eq!(default.policy().broadphase, BroadPhase::Off, "Off keeps goldens pinned");
        let pruned = SimulatorBuilder::new()
            .policy(FramePolicy::new().with_broadphase(BroadPhase::On))
            .build()
            .unwrap();
        assert_eq!(pruned.policy().broadphase, BroadPhase::On);
    }

    #[test]
    fn built_simulator_matches_plain_constructor() {
        // The builder is a checked front door, not a different machine:
        // same config in, same simulator out.
        let config = GpuConfig { viewport: Viewport::new(64, 64), ..GpuConfig::default() };
        let via_builder = SimulatorBuilder::from_config(config.clone()).build().unwrap();
        let via_new = Simulator::new(config);
        assert_eq!(via_builder.config(), via_new.config());
        assert_eq!(via_builder.policy(), via_new.policy());
    }
}
