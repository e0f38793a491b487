//! Deterministic observability for the RBCD simulator.
//!
//! Three pieces, all built on *simulated* cycle timestamps (never
//! wall-clock), so every artefact is bit-identical across host thread
//! counts and replayable:
//!
//! * [`CounterSet`] — the typed counter registry: an ordered map of
//!   stable string keys to `u64` activity counters, with a
//!   snapshot/delta API. It subsumes the per-subsystem stats structs
//!   (`GeometryStats`, `RasterStats`, `RbcdStats`) behind one uniform
//!   surface for metrics, reports, and golden tests.
//! * [`TraceBuffer`] — the structured event recorder: frame → geometry
//!   → tile (plus its reuse, broad-phase or shed [`TileMark`]) → ZEB
//!   insert/scan/overflow/ladder-rung events on the simulated timeline,
//!   exported as Chrome trace-event JSON
//!   ([`TraceBuffer::to_chrome_json`], loadable in `chrome://tracing`
//!   or Perfetto) and as per-tile heatmap CSVs
//!   ([`TraceBuffer::heatmap_csv`]).
//! * [`json`] — a minimal JSON parser used to validate exported traces
//!   in tests and the `repro --trace` smoke (the workspace deliberately
//!   carries no serde).
//!
//! The crate is a leaf: it knows nothing about the GPU or the RBCD
//! unit. Producers (`rbcd-gpu`, `rbcd-core`) push plain integers in;
//! consumers (`rbcd-bench`) pull JSON/CSV out.

#![warn(missing_docs)]

mod counters;
mod event;
mod heatmap;
pub mod json;

pub use counters::{CounterScopes, CounterSet};
pub use event::{EventKind, TileMark, TileZebRecord, TraceBuffer, TraceEvent};
pub use heatmap::{HeatGrid, HEATMAP_METRICS};
