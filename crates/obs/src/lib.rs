//! Framework-level observability for the TensorLib generation pipeline.
//!
//! While `tensorlib_hw::trace` makes the *simulated hardware* observable
//! (per-PE counters, event traces, VCD), this crate makes the *generator
//! itself* observable: where wall-time goes between STT enumeration,
//! classification, elaboration, bytecode compilation, simulation, and cost
//! evaluation, and how well a parallel sweep scales.
//!
//! Three pieces:
//!
//! - **Span tracing** ([`span`]): hierarchical RAII spans over a process-wide
//!   monotonic clock, kept on thread-local stacks. Exported as Chrome Trace
//!   Event JSON (loadable in `chrome://tracing` and Perfetto) and as folded
//!   flamegraph stacks ([`Session::to_chrome_trace`],
//!   [`Session::to_folded`]).
//! - **Metrics** ([`counter_add`], [`gauge_max`], [`hist_record`]):
//!   counters, high-watermark gauges, and log2-bucketed histograms. Updates
//!   touch only thread-local state (no locks, no atomics on the hot path);
//!   per-thread shards are merged with commutative operations (sum, max,
//!   bucket-wise sum), so the merged snapshot is identical for any worker
//!   count and any interleaving.
//! - **Run provenance** ([`Provenance`]): a schema-versioned manifest
//!   (seeds, config echo, per-phase wall times, worker count, package
//!   version) embedded in every JSON report the CLI writes.
//!
//! Two further pieces serve long-running campaigns:
//!
//! - **Campaign telemetry** ([`events`]): the append-only `events.jsonl`
//!   event log and atomically-replaced `status.json` snapshot written into
//!   a campaign directory, with wall-clock fields quarantined under
//!   `timing` sub-objects so report byte-determinism is untouched.
//! - **Cross-run history** ([`history`]): the `history.jsonl` index of
//!   completed runs (key metrics + config hash + machine shape) that backs
//!   `tensorlib history --check` regression comparisons.
//!
//! # Zero cost when disabled
//!
//! Recording is off by default. Every entry point first checks one relaxed
//! atomic load and returns immediately when disabled — no thread-local
//! access, no allocation, no clock read. `scripts/perfgate.sh` gates the
//! disabled-mode overhead of the instrumented pipeline under the same <3%
//! ceiling used for the hardware trace and fault layers.
//!
//! # Determinism discipline
//!
//! Traces are meant to be diffable in tests. Three rules make a profiled run
//! reproducible *modulo timestamps* for a fixed worker count:
//!
//! 1. **Stable thread naming**: worker threads are labelled (`w00`, `w01`,
//!    …) by pool slot, never by OS thread id ([`set_thread_context`]).
//! 2. **Deterministic scheduling while profiled**:
//!    `tensorlib_linalg::par` switches from its atomic work-stealing cursor
//!    to round-robin chunk assignment when recording is enabled, so the
//!    span→thread assignment stops depending on scheduler timing.
//! 3. **Sorted emission**: [`Session`] spans are sorted by
//!    `(thread, pool generation, per-thread sequence number)` — a key that
//!    contains no timestamps — before export.
//!
//! Scrub the `ts`/`dur` fields (see [`Session::scrub_timestamps`]) and two
//! traces of the same run compare byte-for-byte.
//!
//! # Examples
//!
//! ```
//! tensorlib_obs::enable();
//! {
//!     let _outer = tensorlib_obs::span("enumerate");
//!     let _inner = tensorlib_obs::span("classify");
//!     tensorlib_obs::counter_add("designs", 3);
//!     tensorlib_obs::hist_record("point_us", 120);
//! }
//! let session = tensorlib_obs::drain();
//! tensorlib_obs::disable();
//! assert_eq!(session.spans.len(), 2);
//! assert_eq!(session.metrics.counters["designs"], 3);
//! let trace = session.to_chrome_trace(None);
//! assert!(trace.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
pub mod events;
pub mod fs;
pub mod history;
pub mod json;
mod manifest;
mod metrics;
mod session;
mod span;

pub use clock::now_micros;
pub use fs::atomic_write;
pub use manifest::{JournalProvenance, Provenance, SCHEMA_VERSION};
pub use metrics::{Histogram, MetricsSnapshot, HIST_BUCKETS};
pub use session::{FinishedSpan, Session};
pub use span::{
    counter_add, disable, drain, enable, flush_thread, gauge_max, hist_record, is_enabled,
    set_thread_context, snapshot, span, SpanGuard,
};
