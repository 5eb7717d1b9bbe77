//! The DejaVu proxy and profiling environment.
//!
//! DejaVu interposes a protocol-agnostic proxy between clients and the service
//! in production (§3.2): the proxy duplicates a sampled fraction of requests
//! (at client-session granularity) to a clone VM running in a dedicated
//! profiling environment, and must add only negligible latency to the
//! production path (§4.4 measures ≈ 3 ms). The paper's recent-answer cache,
//! which lets a single middle tier be profiled in isolation (§3.2.1), feeds
//! no experiment here and is not modelled.
//!
//! * [`duplicator`] — request duplication with session-granularity sampling
//!   and the production-path overhead model.
//! * [`profiler`] — the profiling environment: a clone VM that serves the
//!   duplicated requests in isolation and collects the workload signature.
//! * [`overhead`] — network-duplication overhead accounting (≈ 1/n of inbound
//!   traffic).

pub mod duplicator;
pub mod overhead;
pub mod profiler;

pub use duplicator::{DuplicatorStats, ProxyConfig, RequestDuplicator};
pub use overhead::NetworkOverhead;
pub use profiler::{Profiler, ProfilerConfig, ProfilingReport};
