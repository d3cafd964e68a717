//! # mnc-served — the versioned estimation service
//!
//! A request/response daemon over the MNC estimator: clients ingest named
//! matrices (or pre-built sketches) once, then estimate sparsity for
//! operations and small expression DAGs over them — over HTTP, with the
//! same bit-exact numbers the in-process library produces.
//!
//! The pieces:
//!
//! * [`catalog`] — the **persistent synopsis catalog**: named sketches in
//!   the MNCS wire format under a directory, written atomically, reloaded
//!   on restart so a daemon bounce never rebuilds a sketch;
//! * [`walk`] — request DAGs run through `mnc_expr::walk`, the same walk
//!   `EstimationContext::estimate_root` runs (the bit-identity contract);
//! * [`proto`] — `/v1` JSON parsing/rendering (full-precision floats via
//!   shortest round-trip formatting);
//! * [`gate`] — the bounded worker pool's admission control (`429` +
//!   `Retry-After` under saturation, the hint tracking the measured recent
//!   p99 service time);
//! * [`trace`] — the request-scoped tracing plane: W3C trace IDs on every
//!   response (`x-mnc-trace-id`), per-endpoint RED metrics with the latency
//!   split into queue wait vs service time, and tail-sampled slow-request
//!   capture behind `GET /v1/debug/requests`;
//! * [`sidecar`] + [`shadow`] — the **shadow estimation plane**: alternate
//!   synopses (DMap, Bitset) persisted next to each raw-CSR catalog entry
//!   ingested while shadowing or retaining CSR, and a
//!   bounded background worker that re-runs a sampled fraction of estimates
//!   through the alternate estimators, recording cross-estimator divergence
//!   (and true error where retained CSR gives exact ground truth) into the
//!   accuracy channel, `/metrics`, and `GET /v1/debug/shadow` — never the
//!   hot path;
//! * [`service`] — the [`Handler`](mnc_obsd::Handler) tying it together:
//!   estimates walk the catalog's resident synopses directly, and the
//!   telemetry endpoints are mounted as the health plane.
//!
//! ## Endpoints
//!
//! | Method & path | Purpose |
//! |---|---|
//! | `PUT /v1/matrices/{name}` | ingest CSR JSON (builds the sketch) or raw MNCS bytes |
//! | `GET /v1/matrices` | list catalog entries |
//! | `GET /v1/matrices/{name}` | one entry's metadata |
//! | `GET /v1/matrices/{name}/sketch` | export MNCS bytes |
//! | `DELETE /v1/matrices/{name}` | drop an entry |
//! | `POST /v1/estimate` | estimate an op or DAG over named matrices |
//! | `GET /v1/status` | service counters |
//! | `GET /v1/debug/requests` | tail-captured slow/error requests (JSONL, `?format=chrome`) |
//! | `GET /v1/debug/shadow` | worst cross-estimator divergence exemplars (JSONL) |
//! | `GET /healthz`, `/metrics`, `/flight`, `/attribution` | health plane |
//!
//! Run the daemon with the `mnc-served` binary; see the repository README
//! for a quickstart.

pub mod catalog;
pub mod error;
pub mod gate;
pub mod proto;
pub mod service;
pub mod shadow;
pub mod sidecar;
pub mod trace;
pub mod walk;

pub use catalog::{validate_name, CatalogEntry, StagedPut, SynopsisCatalog};
pub use error::ServiceError;
pub use gate::AdmissionGate;
pub use proto::EstimateRequest;
pub use service::{EstimationService, ServedConfig};
pub use shadow::{ShadowExemplar, ShadowPlane};
pub use sidecar::ShadowSidecar;
pub use trace::{endpoint_of, retry_after_from_p99, CapturedRequest, TracePlane};
pub use walk::{DagSpec, EstimateOutcome, NodeSpec, MAX_DAG_NODES};

// Server plumbing re-exported so embedders need only this crate.
pub use mnc_obsd::{serve_with, ServeOptions, ServerHandle};
