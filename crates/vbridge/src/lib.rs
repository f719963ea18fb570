//! The debugger bridge: Visualinux's stand-in for GDB.
//!
//! `vbridge` attaches to a [`kmem`] memory image the way GDB attaches to a
//! stopped QEMU guest or a KGDB serial target:
//!
//! * every byte flows through [`Target::read`], which *meters virtual
//!   time* according to a [`LatencyProfile`] — the per-packet/per-byte
//!   cost model that reproduces the paper's Table 4 (GDB-QEMU localhost
//!   vs. KGDB on a Raspberry Pi 400, ~50× slower per object);
//! * C expressions in ViewCL's `${...}` escapes are evaluated by
//!   [`eval::Evaluator`] against the type registry (the DWARF stand-in),
//!   supporting `->`/`.`/`[]`, casts, arithmetic, comparisons,
//!   `container_of`, and calls into registered [`HelperFn`]s — the
//!   equivalent of the paper's ~500 lines of GDB scripts that expose
//!   inline kernel functions like `cpu_rq()` and `mte_to_node()`;
//! * an optional snapshot [`BlockCache`] services repeat reads for free
//!   while the kernel stays stopped, coalesces batched reads
//!   ([`Target::read_many`]) into minimal wire spans, accepts prefetch
//!   hints ([`Target::prefetch`]) from container distillers, and fetches
//!   the footprint a walk's [`ReadRecord`] left up front on the pane's
//!   next walk after a resume ([`Target::prefetch_footprint`]), where
//!   the bytes the walk was served are compared in place
//!   ([`Target::unchanged`]) — invalidated wholesale when the session
//!   resumes the target;
//! * the wire below the metering layer is a pluggable [`TargetBackend`]:
//!   [`SimBackend`] serves a live `ksim` image, [`RecordBackend`] wraps
//!   any backend and captures every wire operation into a serializable
//!   [`Capture`] (`.vrec`), and [`ReplayBackend`] serves a capture back
//!   deterministically with zero image access — metering, cache,
//!   coalescing and tracing behave identically over all three.

mod backend;
mod cache;
mod error;
pub mod eval;
mod helpers;
mod planner;
mod profile;
mod record;
mod replay;
mod target;

pub use backend::{BackendError, BackendKind, DirtyInfo, DirtySet, SimBackend, TargetBackend};
pub use cache::{BlockCache, CacheConfig};
pub use error::{BridgeError, ErrorKind, Result};
pub use eval::Evaluator;
pub use helpers::{HelperFn, HelperRegistry};
pub use profile::LatencyProfile;
pub use record::{Capture, RecordBackend, Recorder, WireEvent, VREC_VERSION};
pub use replay::{ReplayBackend, ReplayState};
pub use target::{ReadIndex, ReadPlan, ReadRecord, Target, TargetStats, TOP_LEVEL};
