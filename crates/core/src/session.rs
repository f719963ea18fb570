//! The interactive debugging session and its v-commands (§4).

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

use ksim::workload::{AllTypes, Workload, WorkloadConfig, WorkloadRoots};
use ksim::KernelImage;
use ktypes::Stamp;
use vbridge::{
    BackendKind, BlockCache, BridgeError, CacheConfig, Capture, DirtyInfo, DirtySet,
    HelperRegistry, LatencyProfile, ReadIndex, ReadRecord, RecordBackend, Recorder, ReplayBackend,
    ReplayState, SimBackend, Target, TargetBackend, TargetStats,
};
use vgraph::{BoxId, Graph, GraphStats};
use vpanels::{FocusHit, PaneId, SplitDir};
use vtrace::{SpanKind, TraceSpan, Tracer};

/// Errors surfaced by session operations.
#[derive(Debug)]
pub enum SessionError {
    /// ViewCL parse/evaluation failure.
    ViewCl(viewcl::VclError),
    /// ViewQL failure.
    ViewQl(vql::VqlError),
    /// Pane operation failure.
    Panel(vpanels::PanelError),
    /// vchat synthesis failure.
    Chat(vchat::VchatError),
    /// No such figure / pane.
    NotFound(String),
    /// A wire-capture problem: unloadable/underspecified `.vrec`, an
    /// attach combination that cannot work (recording a replay), or a
    /// failed capture write.
    Capture(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::ViewCl(e) => write!(f, "{e}"),
            SessionError::ViewQl(e) => write!(f, "{e}"),
            SessionError::Panel(e) => write!(f, "{e}"),
            SessionError::Chat(e) => write!(f, "{e}"),
            SessionError::NotFound(what) => write!(f, "not found: {what}"),
            SessionError::Capture(msg) => write!(f, "capture error: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<viewcl::VclError> for SessionError {
    fn from(e: viewcl::VclError) -> Self {
        SessionError::ViewCl(e)
    }
}
impl From<vql::VqlError> for SessionError {
    fn from(e: vql::VqlError) -> Self {
        SessionError::ViewQl(e)
    }
}
impl From<vpanels::PanelError> for SessionError {
    fn from(e: vpanels::PanelError) -> Self {
        SessionError::Panel(e)
    }
}
impl From<vchat::VchatError> for SessionError {
    fn from(e: vchat::VchatError) -> Self {
        SessionError::Chat(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, SessionError>;

/// Cost and size of one `vplot` extraction (the measurements of Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlotStats {
    /// Graph composition.
    pub graph: GraphStats,
    /// Target access totals during extraction.
    pub target: TargetStats,
}

impl PlotStats {
    /// Total virtual extraction time in milliseconds (Table 4 column 1).
    pub fn total_ms(&self) -> f64 {
        self.target.virtual_ns as f64 / 1e6
    }

    /// Cost per plotted kernel object in milliseconds (column 2).
    pub fn ms_per_object(&self) -> f64 {
        if self.graph.kernel_objects == 0 {
            return 0.0;
        }
        self.total_ms() / self.graph.kernel_objects as f64
    }

    /// Cost per KiB of data structure (column 3). "Data structure" here
    /// is the bytes the debugger actually transferred — the quantity the
    /// per-read packet cost is paid against, which is how the paper's
    /// per-KB column scales relative to its per-object column.
    pub fn ms_per_kb(&self) -> f64 {
        if self.target.bytes == 0 {
            return 0.0;
        }
        self.total_ms() / (self.target.bytes as f64 / 1024.0)
    }
}

/// What `vchat` did with a message.
#[derive(Debug, Clone, PartialEq)]
pub struct VChatOutcome {
    /// The synthesized ViewQL program.
    pub viewql: String,
    /// Whether it was applied to the pane.
    pub applied: bool,
}

/// What to plot — the single argument of [`Session::plot`], unifying the
/// three historical entry points (`vplot`, `vplot_figure`, `vplot_auto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlotSpec<'a> {
    /// A ViewCL program.
    Source(&'a str),
    /// A library figure by id (e.g. `"fig7-1"`).
    Figure(&'a str),
    /// Synthesized "naive" ViewCL (§4): every scalar field of `ctype`
    /// for the object at the debugger expression `root`.
    Auto {
        /// The C struct name.
        ctype: &'a str,
        /// Debugger expression evaluating to the object's address.
        root: &'a str,
    },
}

/// Scope of one checker run (the internal entry behind `vcheck` and
/// `vcheck_scoped`).
enum CheckScope<'a> {
    /// Full-image sweep from the well-known root symbols.
    Image,
    /// Only these candidates: (box on the pane, object address, C type).
    Boxes(&'a [(vgraph::BoxId, u64, String)]),
}

/// A box that produced fresh violations: (id, count, first diagnostic).
type Flagged = (vgraph::BoxId, usize, String);

/// Embed a [`WorkloadConfig`] in capture metadata (`meta.workload`).
fn workload_cfg_to_meta(cfg: &WorkloadConfig) -> serde_json::Value {
    use serde_json::{Map, Number, Value};
    let num = |n: u64| Value::Number(Number::from_u64(n));
    let mut w = Map::new();
    w.insert("processes".into(), num(cfg.processes as u64));
    w.insert("extra_threads".into(), num(cfg.extra_threads as u64));
    w.insert(
        "files_per_process".into(),
        num(cfg.files_per_process as u64),
    );
    w.insert("pages_per_file".into(), num(cfg.pages_per_file as u64));
    w.insert("anon_vmas".into(), num(cfg.anon_vmas as u64));
    w.insert("kthreads".into(), num(cfg.kthreads as u64));
    w.insert("seed".into(), num(cfg.seed));
    let mut meta = Map::new();
    meta.insert("workload".into(), Value::Object(w));
    Value::Object(meta)
}

/// Recover the [`WorkloadConfig`] from capture metadata, if present.
fn workload_cfg_from_meta(meta: &serde_json::Value) -> Option<WorkloadConfig> {
    let w = meta.get("workload")?;
    let field = |name: &str| w.get(name).and_then(|v| v.as_u64());
    Some(WorkloadConfig {
        processes: field("processes")? as usize,
        extra_threads: field("extra_threads")? as usize,
        files_per_process: field("files_per_process")? as usize,
        pages_per_file: field("pages_per_file")? as usize,
        anon_vmas: field("anon_vmas")? as usize,
        kthreads: field("kthreads")? as usize,
        seed: field("seed")?,
    })
}

/// What a [`SessionBuilder`] attaches to.
enum BuilderSource {
    /// A live (simulated) kernel image.
    Live(Box<Workload>),
    /// A recorded wire capture, served with zero image access.
    Replay(Box<Capture>),
}

/// Staged construction of a [`Session`] — the one entry surface for
/// every attach flavor:
///
/// ```
/// # use ksim::workload::{build, WorkloadConfig};
/// # use visualinux::Session;
/// let session = Session::builder(build(&WorkloadConfig::default()))
///     .profile(vbridge::LatencyProfile::kgdb_rpi400())
///     .cache(16)
///     .tracing()
///     .attach()
///     .unwrap();
/// # drop(session);
/// ```
///
/// Add `.record(path)` to capture every wire span into a `.vrec` file
/// (written by [`Session::save_recording`]), or start from
/// [`Session::replay`] to serve a capture back without any live image.
pub struct SessionBuilder {
    source: BuilderSource,
    profile: Option<LatencyProfile>,
    cache: Option<CacheConfig>,
    tracing: bool,
    record: Option<PathBuf>,
    scenario: Option<(String, u64)>,
    incremental: bool,
}

impl SessionBuilder {
    /// Set the latency profile. Live sessions default to
    /// [`LatencyProfile::free`]; replay sessions default to the profile
    /// recorded in the capture header.
    pub fn profile(mut self, profile: LatencyProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Enable the snapshot block cache. Accepts a full [`CacheConfig`]
    /// or a bare block size (`.cache(16)`). Replay sessions default to
    /// the cache configuration recorded in the capture header.
    pub fn cache(mut self, cfg: impl Into<CacheConfig>) -> Self {
        self.cache = Some(cfg.into());
        self
    }

    /// Turn on vtrace span recording from the first extraction.
    pub fn tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Record every wire operation; [`Session::save_recording`] writes
    /// the capture to `path`. Only valid for live sessions.
    pub fn record(mut self, path: impl Into<PathBuf>) -> Self {
        self.record = Some(path.into());
        self
    }

    /// Enable incremental re-extraction (vincr). The live image logs
    /// exact mutated byte ranges; across a [`Session::resume`] the
    /// session intersects them with the address spans each retained
    /// pane read — everything the mutation missed is served from its
    /// retained graph, byte-identical and wire-free, and on a cached
    /// session a pane it hit is still kept if its bytes compare equal
    /// (see [`Session::extract_shared`]). Recorded captures tape the
    /// dirty sets (and stamp `meta.incremental`), so replay sessions
    /// follow the same decisions automatically; backends that cannot
    /// report dirty info degrade to that comparison, or to full
    /// re-walks without a cache.
    pub fn incremental(mut self) -> Self {
        self.incremental = true;
        self
    }

    /// Stamp the corpus scenario this session's image was built from.
    /// Recorded capture headers then carry `meta.scenario` and
    /// `meta.scenario_fingerprint`, so a `.vrec` names the exact
    /// [`ksim::corpus::ScenarioSpec`] (content-addressed) it replays.
    pub fn scenario(mut self, spec: &ksim::corpus::ScenarioSpec) -> Self {
        self.scenario = Some((spec.name.clone(), spec.fingerprint()));
        self
    }

    /// Build the session.
    ///
    /// Live attaches cannot fail; replay attaches fail loudly when the
    /// capture lacks an embedded workload config or when `.record` was
    /// requested (a replay session cannot re-record).
    pub fn attach(self) -> Result<Session> {
        let (img, types, roots, cfg, profile, cache, recorder, record_path, replay) =
            match self.source {
                BuilderSource::Live(workload) => {
                    let cfg = workload.cfg.clone();
                    let (img, types, roots) = workload.finish();
                    let recorder = self.record.as_ref().map(|_| Rc::new(Recorder::new()));
                    let profile = self.profile.unwrap_or_else(LatencyProfile::free);
                    (
                        img,
                        types,
                        roots,
                        cfg,
                        profile,
                        self.cache,
                        recorder,
                        self.record,
                        None,
                    )
                }
                BuilderSource::Replay(capture) => {
                    if self.record.is_some() {
                        return Err(SessionError::Capture(
                            "a replay session cannot re-record; copy the .vrec instead".into(),
                        ));
                    }
                    let cfg = workload_cfg_from_meta(&capture.meta).ok_or_else(|| {
                        SessionError::Capture(
                            "capture has no embedded workload config (meta.workload); \
                             cannot rebuild the debug info"
                                .into(),
                        )
                    })?;
                    let profile = self.profile.unwrap_or(capture.profile);
                    let cache = self.cache.or(capture.cache);
                    let (img, types, roots) = ksim::workload::debug_info(&cfg);
                    (
                        img,
                        types,
                        roots,
                        cfg,
                        profile,
                        cache,
                        None,
                        None,
                        Some(ReplayState::new(*capture)),
                    )
                }
            };
        // Replay sessions inherit the scenario identity stamped in the
        // capture header.
        let scenario = self.scenario.or_else(|| {
            replay.as_ref().and_then(|st| {
                st.capture()
                    .scenario()
                    .map(|(name, fp)| (name.to_string(), fp))
            })
        });
        // An incremental capture tapes dirty events before each resume
        // marker; the replay must follow the same refresh decisions to
        // keep its cursor (and counters) in step with the tape.
        let incremental = self.incremental
            || replay.as_ref().is_some_and(|st| {
                st.capture()
                    .meta
                    .get("incremental")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false)
            });
        let mut s = Session {
            img,
            types,
            roots,
            helpers: crate::helpers::registry(),
            profile,
            cache: cache.map(BlockCache::new),
            panes: None,
            stats: HashMap::new(),
            tracer: None,
            traces: RefCell::new(HashMap::new()),
            workload_cfg: cfg,
            recorder,
            record_path,
            replay,
            scenario,
            incremental,
            programs: RefCell::default(),
            reads: ReadRecord::default(),
        };
        if incremental && s.replay.is_none() {
            // The image's write log is the source of exact dirty sets.
            s.img.mem.enable_dirty_tracking();
        }
        if self.tracing {
            s.enable_tracing();
        }
        Ok(s)
    }
}

/// An attached Visualinux debugging session: one kernel image, a helper
/// registry, and a pane tree. Implements the three v-commands.
pub struct Session {
    img: KernelImage,
    /// Registered subsystem type handles.
    pub types: AllTypes,
    /// Interesting root addresses of the attached image.
    pub roots: WorkloadRoots,
    helpers: HelperRegistry,
    profile: LatencyProfile,
    cache: Option<BlockCache>,
    panes: Option<vpanels::Session>,
    stats: HashMap<PaneId, PlotStats>,
    tracer: Option<Rc<Tracer>>,
    /// Per-pane span trees (extraction + later refinements/renders).
    /// Interior-mutable so `&self` render paths can record their spans.
    traces: RefCell<HashMap<PaneId, TraceSpan>>,
    /// The workload config this session's image (or capture) came from.
    workload_cfg: WorkloadConfig,
    /// Wire tape when the session is recording.
    recorder: Option<Rc<Recorder>>,
    /// Where `save_recording` writes the capture.
    record_path: Option<PathBuf>,
    /// Replay cursor when the session serves a capture.
    replay: Option<ReplayState>,
    /// Corpus scenario identity (name, spec fingerprint), when the
    /// session was built from or replays a corpus scenario.
    scenario: Option<(String, u64)>,
    /// Incremental re-extraction (vincr) is on: retained pane graphs
    /// refresh against backend-reported dirty sets between stops.
    incremental: bool,
    /// Parsed ViewCL programs and retained panes by source: a pane
    /// re-extracted on every stop is parsed once, not once per walk.
    programs: RefCell<ProgramCache>,
    /// What the current walk reads, lent to its target.
    reads: ReadRecord,
}

/// A retained pane: the graph its last walk (or patch) produced, what
/// that walk read and was served, and, on an incremental session
/// (vincr), which of its boxes the resumes since then dirtied. Each
/// resume updates every incremental record once, so a dirty-set keep is
/// a check of an empty list.
struct Retained {
    graph: Arc<Graph>,
    stats: GraphStats,
    /// The bytes the walk was served, in the order of the index's served
    /// ranges (`Target::derive`), for a content check after a resume;
    /// empty when none was taken.
    snapshot: Vec<u8>,
    /// The type registry's and symbol table's states the walk ran under.
    tables: (Stamp, Stamp),
    /// What the walk read, by the box whose views read it: the pane's
    /// one range list, which its footprint and snapshot derive from.
    index: ReadIndex,
    /// What a patch of the pane checks its boxes against; `None` when
    /// no patch can stand in for a walk (`Interp::finish`) or a read of
    /// the walk faulted.
    trail: Option<viewcl::Trail>,
    /// The boxes whose reads a resume since the walk dirtied, sorted
    /// (incremental sessions only); `None` once a resume could not say.
    dirtied: Option<Vec<u32>>,
    /// Bytes the resumes since the walk dirtied, summed; `None` once one
    /// of them could not say.
    dirty_bytes: Option<u64>,
}

impl Retained {
    /// Whether a resume since the walk may have changed what it read.
    fn stale(&self) -> bool {
        self.dirtied.as_ref().is_none_or(|boxes| !boxes.is_empty())
    }

    /// The pane is current again.
    fn refreshed(&mut self) {
        self.dirtied.get_or_insert_with(Vec::new).clear();
        self.dirty_bytes = Some(0);
    }
}

/// Most programs, and most source bytes, a session keeps parsed, with
/// their footprints and retained panes. Sources arrive from wire
/// clients, so the cache may not grow without limit; when the next
/// program would pass either bound it starts over, and a larger source
/// is parsed and walked afresh every time. The 21 library figures are
/// 17.6 KB of source in all.
const PROGRAM_CACHE_ENTRIES: usize = 64;
const PROGRAM_CACHE_BYTES: usize = 256 * 1024;

/// Parsed programs keyed by their source (see [`PROGRAM_CACHE_ENTRIES`]).
#[derive(Default)]
struct ProgramCache {
    entries: HashMap<String, Cached>,
    /// Source bytes of the cached programs.
    bytes: usize,
    /// Bytes of the retained panes' snapshots, together at most the
    /// block cache's capacity.
    snapshot_bytes: usize,
}

/// A source's parsed program, what its last walk on a cached session
/// read, and the pane a cached or incremental session keeps.
struct Cached {
    program: Rc<viewcl::Program>,
    /// The bases of the cache blocks the last successful walk used,
    /// sorted, and the cache epoch they were last fetched or walked in.
    footprint: Vec<u64>,
    footprint_epoch: u64,
    kept: Option<Retained>,
}

impl ProgramCache {
    /// Parse `src` into a new entry, or into none past the byte bound.
    /// Parse errors are not cached.
    fn parse(&mut self, src: &str) -> viewcl::Result<Rc<viewcl::Program>> {
        let program = Rc::new(viewcl::parse_program(src)?);
        if src.len() > PROGRAM_CACHE_BYTES {
            return Ok(program);
        }
        if self.entries.len() == PROGRAM_CACHE_ENTRIES
            || self.bytes + src.len() > PROGRAM_CACHE_BYTES
        {
            self.entries.clear();
            self.bytes = 0;
            self.snapshot_bytes = 0;
        }
        self.bytes += src.len();
        let entry = Cached {
            program: Rc::clone(&program),
            footprint: Vec::new(),
            footprint_epoch: 0,
            kept: None,
        };
        self.entries.insert(src.into(), entry);
        Ok(program)
    }
}

impl Session {
    /// Start building a live session over a built workload. See
    /// [`SessionBuilder`] for the knobs.
    pub fn builder(workload: Workload) -> SessionBuilder {
        SessionBuilder {
            source: BuilderSource::Live(Box::new(workload)),
            profile: None,
            cache: None,
            tracing: false,
            record: None,
            scenario: None,
            incremental: false,
        }
    }

    /// Start building a live session from a corpus scenario: build the
    /// spec's workload, apply its declared injections, and stamp the
    /// scenario identity (so recorded captures name their spec). Returns
    /// the builder plus the scenario's ground-truth findings — the
    /// violations a [`Session::vcheck`] sweep must (and may only)
    /// report, ready for `kcheck::Checker::verify_expected`.
    pub fn from_scenario(
        spec: &ksim::corpus::ScenarioSpec,
    ) -> (SessionBuilder, Vec<ksim::corpus::ExpectedFinding>) {
        let built = spec.build();
        let builder = Session::builder(built.workload).scenario(spec);
        (builder, built.expected)
    }

    /// Start building a replay session over a recorded capture: the
    /// attached image holds the types/symbols of the recorded workload
    /// but **zero** target memory — every read is served from the
    /// capture, and any read that escapes it errors loudly.
    pub fn replay(capture: Capture) -> SessionBuilder {
        SessionBuilder {
            source: BuilderSource::Replay(Box::new(capture)),
            profile: None,
            cache: None,
            tracing: false,
            record: None,
            scenario: None,
            incremental: false,
        }
    }

    /// Whether the bridge cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// The session's bridge cache, if enabled.
    pub fn cache(&self) -> Option<&BlockCache> {
        self.cache.as_ref()
    }

    /// Resume the (simulated) kernel: cached target bytes may now be
    /// stale. With exact dirty info (an incremental session over a
    /// backend that reports it) only the mutated blocks drop; otherwise
    /// the cache epoch is bumped and all blocks drop. Plots already on
    /// panes are unaffected — they are snapshots.
    ///
    /// A recording session notes the resume (and any known dirty set)
    /// on the tape; a replay session consumes the matching events (a
    /// divergence here poisons the replay and surfaces at the next
    /// wire read).
    pub fn resume(&mut self) {
        // What changed since the last stop, as observed on the live
        // image's write log (exact when dirty tracking is on).
        let observed = match self.img.mem.take_dirty() {
            Some(ranges) if self.replay.is_none() => {
                DirtyInfo::Known(DirtySet::from_ranges(ranges))
            }
            _ => DirtyInfo::Unknown,
        };
        // Route the observation through the same backend stack that
        // serves reads: a recording wire tapes known sets, a replay
        // wire substitutes the taped set, anything else reports
        // Unknown — the bottom rung of the degradation ladder.
        let info = self.backend().resume_dirty(observed);
        if let Some(c) = &self.cache {
            match info.known() {
                Some(set) => {
                    c.invalidate_spans(set.ranges());
                }
                None => c.bump_epoch(),
            }
        }
        if let Some(r) = &self.recorder {
            r.note_resume();
        }
        if let Some(s) = &self.replay {
            let _ = s.consume_resume();
        }
        if self.incremental {
            let bytes = info.known().map(DirtySet::total_bytes);
            let entries = self.programs.get_mut().entries.values_mut();
            for r in entries.filter_map(|e| e.kept.as_mut()) {
                r.dirty_bytes = r.dirty_bytes.zip(bytes).map(|(a, b)| a + b);
                r.dirtied = match (r.dirtied.take(), info.known()) {
                    (Some(mut boxes), Some(set)) => {
                        r.index.owners_of(set.ranges(), &mut boxes);
                        Some(boxes)
                    }
                    _ => None,
                };
            }
        }
    }

    /// The attached image (read-only).
    pub fn image(&self) -> &KernelImage {
        &self.img
    }

    /// Simulate the kernel running between two stop events: let `mutate`
    /// rewrite the image, then [`Session::resume`] so the bridge cache
    /// drops its now-stale blocks. The next extraction sees the new
    /// machine state; plots already on panes keep their old snapshots.
    ///
    /// A replay session has no image to rewrite — the capture already
    /// contains whatever the recorded kernel did between stops — so the
    /// call errors loudly, naming the backend kind, instead of silently
    /// dropping the mutation and diverging from the tape. Callers
    /// driving a replay should advance it with [`Session::resume`].
    pub fn stop_event(&mut self, mutate: impl FnOnce(&mut KernelImage)) -> vbridge::Result<()> {
        if self.replay.is_some() {
            return Err(BridgeError::Capture(format!(
                "stop_event on a `{}` session: there is no image to mutate — the \
                 capture already contains the recorded kernel's changes; call \
                 resume() to advance the tape instead",
                self.backend_kind().as_str()
            )));
        }
        mutate(&mut self.img);
        self.resume();
        Ok(())
    }

    /// The active latency profile.
    pub fn profile(&self) -> LatencyProfile {
        self.profile
    }

    /// Switch latency profile (affects subsequent plots).
    pub fn set_profile(&mut self, profile: LatencyProfile) {
        self.profile = profile;
    }

    /// Whether incremental re-extraction (vincr) is on.
    pub fn incremental(&self) -> bool {
        self.incremental
    }

    /// Turn on vtrace span recording for this session. Idempotent;
    /// returns the (shared) tracer so callers can read the wire log or
    /// drain finished spans directly.
    pub fn enable_tracing(&mut self) -> Rc<Tracer> {
        if self.tracer.is_none() {
            self.tracer = Some(Rc::new(Tracer::new()));
        }
        self.tracer.clone().expect("just set")
    }

    /// Whether vtrace recording is on.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// The session tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Rc<Tracer>> {
        self.tracer.as_ref()
    }

    /// *vtrace*: the recorded span tree of a pane — a synthetic `pane`
    /// root whose children are the extraction and every traced
    /// refinement/render applied since. `None` when tracing was off or
    /// the pane has no plot.
    pub fn vtrace(&self, pane: PaneId) -> Option<TraceSpan> {
        self.traces.borrow().get(&pane).cloned()
    }

    /// Pop the most recent finished top-level span (e.g. the `extract`
    /// span of a bare [`Session::extract`] call, which has no pane to
    /// land on).
    pub fn take_last_trace(&self) -> Option<TraceSpan> {
        self.tracer.as_ref().and_then(|t| t.take_last_finished())
    }

    /// Export every recorded pane trace as Chrome `trace_event` JSON
    /// (load in `chrome://tracing` or Perfetto; one tid per pane).
    pub fn export_chrome_trace(&self) -> String {
        let traces = self.traces.borrow();
        let mut panes: Vec<(&PaneId, &TraceSpan)> = traces.iter().collect();
        panes.sort_by_key(|(p, _)| p.0);
        vtrace::chrome_trace_with_backend(
            Some(self.backend_kind().as_str()),
            panes.into_iter().map(|(p, s)| (p.0 as u64, s)),
        )
    }

    /// The session's backend stack:
    ///
    /// * replay session → [`ReplayBackend`] (the empty image is never
    ///   read);
    /// * recording session → [`RecordBackend`] over [`SimBackend`];
    /// * plain live session → [`SimBackend`].
    fn backend(&self) -> Box<dyn TargetBackend + '_> {
        match (&self.replay, &self.recorder) {
            (Some(state), _) => Box::new(ReplayBackend::new(state)),
            (None, Some(tape)) => Box::new(RecordBackend::new(
                Box::new(SimBackend::new(&self.img.mem)),
                tape.clone(),
            )),
            (None, None) => Box::new(SimBackend::new(&self.img.mem)),
        }
    }

    /// A bridge target over the session's backend stack. Metering,
    /// caching and tracing live in [`Target`], once, above whichever
    /// backend the session attaches to.
    fn target(&self) -> Target<'_> {
        let mut target = Target::over(
            self.backend(),
            &self.img.types,
            &self.img.symbols,
            self.profile,
        );
        if let Some(cache) = &self.cache {
            target.set_cache(cache);
        }
        if let Some(t) = &self.tracer {
            target.set_tracer(t.clone());
        }
        target
    }

    /// The backend kind the next extraction will meter against.
    pub fn backend_kind(&self) -> BackendKind {
        match (&self.replay, &self.recorder) {
            (Some(_), _) => BackendKind::Replay,
            (None, Some(_)) => BackendKind::Record,
            (None, None) => BackendKind::Sim,
        }
    }

    /// The workload config the attached image (or capture) was built
    /// from.
    pub fn workload_cfg(&self) -> &WorkloadConfig {
        &self.workload_cfg
    }

    /// The corpus scenario this session was built from (name, spec
    /// fingerprint) — stamped by [`SessionBuilder::scenario`] on live
    /// sessions, inherited from the capture header on replay.
    pub fn scenario(&self) -> Option<(&str, u64)> {
        self.scenario.as_ref().map(|(n, fp)| (n.as_str(), *fp))
    }

    /// The replay cursor, when this session serves a capture.
    pub fn replay_state(&self) -> Option<&ReplayState> {
        self.replay.as_ref()
    }

    /// Snapshot the wire tape of a recording session into a [`Capture`]
    /// (`None` when the session is not recording). The capture embeds
    /// the workload config so [`Session::replay`] can rebuild the debug
    /// info; the tape keeps recording — a later snapshot is longer.
    pub fn capture(&self) -> Option<Capture> {
        let tape = self.recorder.as_ref()?;
        let cache = self.cache.as_ref().map(|c| c.config());
        let mut meta = workload_cfg_to_meta(&self.workload_cfg);
        if let serde_json::Value::Object(m) = &mut meta {
            // An incremental session tapes dirty events; replay must
            // follow the same refresh decisions to stay in step.
            if self.incremental {
                m.insert("incremental".into(), serde_json::Value::Bool(true));
            }
            // A capture recorded from a corpus scenario names its spec,
            // content-addressed, so CI can refuse a stale fixture.
            if let Some((name, fp)) = &self.scenario {
                m.insert("scenario".into(), serde_json::Value::String(name.clone()));
                m.insert(
                    "scenario_fingerprint".into(),
                    serde_json::Value::Number(serde_json::Number::from_u64(*fp)),
                );
            }
        }
        Some(tape.capture(BackendKind::Sim, self.profile, cache, meta))
    }

    /// Write the recording to the `.vrec` path given to
    /// [`SessionBuilder::record`]; returns that path.
    pub fn save_recording(&self) -> Result<PathBuf> {
        let path = self.record_path.clone().ok_or_else(|| {
            SessionError::Capture("session is not recording (builder lacked .record(path))".into())
        })?;
        let capture = self
            .capture()
            .expect("record_path implies an active recorder");
        capture
            .save(&path)
            .map_err(|e| SessionError::Capture(format!("cannot write {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Evaluate a ViewCL program against the stopped kernel, producing a
    /// graph, without creating a pane. Returns the graph and its stats.
    pub fn extract(&self, viewcl_src: &str) -> Result<(Graph, PlotStats)> {
        let (graph, stats) = self.extract_shared(viewcl_src)?;
        Ok((Arc::unwrap_or_clone(graph), stats))
    }

    /// [`Session::extract`] without taking the graph over. A pane the
    /// session keeps comes back as its retained allocation itself, so
    /// callers can tell an unchanged pane by `Arc::ptr_eq`. A cached
    /// session keeps a pane on its first walk after a resume when every
    /// byte its last walk was served is unchanged; an incremental one
    /// also keeps, with no fetch, a pane the dirty sets missed.
    pub fn extract_shared(&self, viewcl_src: &str) -> Result<(Arc<Graph>, PlotStats)> {
        self.extract_labeled(viewcl_src, "extract")
    }

    /// [`Session::extract_shared`] with a span label (the figure id for
    /// library plots). The root `extract` span covers the whole
    /// pipeline; parse, prefetch and interp (or patch) get child spans,
    /// distillers nest inside them.
    ///
    /// A cached session remembers each source's *footprint*: the cache
    /// blocks its last successful walk used. On the source's first walk
    /// after a resume it fetches the footprint's absent blocks in merged
    /// spans, so a walk finds them resident instead of paying a round
    /// trip per block.
    ///
    /// A walk's graph depends only on its program, the session's types,
    /// symbols and helpers, and the bytes it reads, and a box's views
    /// only on the bytes they read. So the session keeps the graph
    /// beside a snapshot of the bytes the walk was served and an index
    /// of which box read what. The ladder, for a source with a retained
    /// pane:
    /// * keep: an incremental session keeps a pane the dirty sets since
    ///   its walk missed, with no fetch, if the tables are the ones the
    ///   walk ran under. Otherwise, on the first walk after a resume, the
    ///   footprint is fetched and the pane kept if every byte of its
    ///   snapshot is still there and the tables are the ones the walk
    ///   ran under;
    /// * patch: if the comparison found bytes that changed, or an
    ///   incremental session's dirty sets did, only the views of the
    ///   boxes that read them are evaluated again, and a copy of the
    ///   pane's graph takes them in place ([`viewcl::Interp::patch`]),
    ///   when that stands in for a walk;
    /// * walk: anything else. A plain session's repeat walk within one
    ///   stop walks, as do a pane whose walk faulted, a program with a
    ///   `selectFrom`, a change a virtual box or a top-level statement
    ///   read, and a patch whose boxes would instantiate other boxes.
    fn extract_labeled(&self, viewcl_src: &str, label: &str) -> Result<(Arc<Graph>, PlotStats)> {
        let tracer = self.tracer.as_ref();
        let _root = vtrace::span(tracer, SpanKind::Extract, label);
        // One lookup, held until this walk's graph replaces the pane.
        let mut programs = self.programs.borrow_mut();
        let programs = &mut *programs;
        let (program, mut entry) = {
            let _s = vtrace::span(tracer, SpanKind::Parse, "viewcl::parse");
            match programs.entries.get_mut(viewcl_src) {
                Some(e) => (Rc::clone(&e.program), Some(e)),
                None => {
                    let program = programs.parse(viewcl_src)?;
                    (program, programs.entries.get_mut(viewcl_src))
                }
            }
        };
        let mut target = self.target();
        // What the walk reads gives the entry its footprint, its
        // snapshot and its read index: a pane is retained on a cached or
        // incremental session.
        let retains = self.cache.is_some() || self.incremental;
        if entry.is_some() && retains {
            target.record_reads(&self.reads);
        }
        // Footprints and retained panes live in the program cache, so a
        // source past its byte bound keeps neither.
        let epoch = self.cache.as_ref().map(BlockCache::epoch);
        let tables = self.tables();
        if let Some(e) = entry.as_deref_mut() {
            // vincr: if no resume since the retained graph's walk
            // dirtied a span it read, and the tables are the ones it ran
            // under, serve it as-is, with no fetch.
            let clean = self.incremental
                && e.kept
                    .as_ref()
                    .is_some_and(|r| !r.stale() && r.tables == tables);
            // Otherwise the first walk after a resume fetches the
            // footprint...
            let resumed = match epoch {
                Some(epoch) if !clean && epoch != e.footprint_epoch => {
                    e.footprint_epoch = epoch;
                    true
                }
                _ => false,
            };
            if resumed && !e.footprint.is_empty() {
                let _s = vtrace::span(tracer, SpanKind::Prefetch, "footprint::prefetch");
                target.prefetch_footprint(&e.footprint);
            }
            if let Some(r) = e.kept.as_mut() {
                // ...and keeps the pane if every byte its walk was
                // served is unchanged: a walk now would build the same
                // graph. Else the boxes that read what changed are
                // patched, if the tables hold.
                let boxes = {
                    let _s = vtrace::span_with(tracer, SpanKind::Incr, || {
                        format!("incr::decide {label}")
                    });
                    let bytes = r.dirty_bytes.unwrap_or(0);
                    let mut changed = Vec::new();
                    let compared = resumed
                        && r.tables == tables
                        && target.changed(&r.index, &r.snapshot, &mut changed);
                    if clean || compared && changed.is_empty() {
                        target.note_incr(1, 0, bytes);
                        r.refreshed();
                        let stats = PlotStats {
                            graph: r.stats,
                            target: target.stats(),
                        };
                        return Ok((Arc::clone(&r.graph), stats));
                    }
                    if resumed || self.incremental {
                        target.note_incr(0, 1, bytes);
                    }
                    if compared {
                        let mut boxes = Vec::new();
                        r.index.owners_of(&changed, &mut boxes);
                        Some(boxes)
                    } else if self.incremental {
                        r.dirtied.clone()
                    } else {
                        None
                    }
                };
                if let Some(boxes) = boxes.filter(|_| r.tables == tables) {
                    let held = &mut programs.snapshot_bytes;
                    if let Some((graph, stats)) = self.patch(&target, &program, e, &boxes, held) {
                        let stats = PlotStats {
                            graph: stats,
                            target: target.stats(),
                        };
                        return Ok((graph, stats));
                    }
                    // What the patch read is not what the walk reads.
                    target.record_reads(&self.reads);
                }
            }
        }
        let (graph, trail) = {
            let _s = vtrace::span(tracer, SpanKind::Interp, "interp::run");
            let mut interp = viewcl::Interp::new(&target, &self.helpers);
            interp.run(&program)?;
            let (graph, trail) = interp.finish();
            (Arc::new(graph), trail)
        };
        // The distillers tolerate per-object memory faults (corrupt
        // pointers render as diagnostics), but a capture-level failure
        // means the replay itself is broken: surface it loudly instead
        // of returning a graph riddled with wire errors.
        if let Some(msg) = self.replay.as_ref().and_then(|s| s.poisoned()) {
            return Err(SessionError::Capture(msg));
        }
        let stats = PlotStats {
            graph: GraphStats::of(&graph),
            target: target.stats(),
        };
        if let Some(e) = entry {
            // Only a walk that succeeded replaces the footprint and the
            // retained pane; the old pane's buffers take the new ones.
            let old = e.kept.take().map(|r| (r.snapshot, r.index));
            let (mut snapshot, mut index) = old.unwrap_or_default();
            target.end_walk(&mut index);
            let held = &mut programs.snapshot_bytes;
            self.derive(&target, &index, &mut e.footprint, &mut snapshot, held);
            if self.incremental || !snapshot.is_empty() {
                e.kept = Some(Retained {
                    graph: Arc::clone(&graph),
                    stats: stats.graph,
                    snapshot,
                    tables,
                    trail: trail.filter(|_| !index.faulted()),
                    index,
                    dirtied: Some(Vec::new()),
                    dirty_bytes: Some(0),
                });
            }
        }
        Ok((graph, stats))
    }

    /// Replace a pane's `footprint` and `snapshot` with what its `index`
    /// gives them (`Target::derive`), after a walk and after a patch
    /// alike. `held` counts the bytes of every pane's snapshot, this
    /// one's old bytes included; together they hold at most the block
    /// cache's capacity, and a snapshot that does not fit is left empty.
    fn derive(
        &self,
        target: &Target<'_>,
        index: &ReadIndex,
        footprint: &mut Vec<u64>,
        snapshot: &mut Vec<u8>,
        held: &mut usize,
    ) {
        *held -= snapshot.len();
        target.derive(index, footprint, snapshot);
        let capacity = self.cache.as_ref().map_or(0, |c| {
            let cfg = c.config();
            cfg.max_blocks.saturating_mul(cfg.block_size as usize)
        });
        if *held + snapshot.len() > capacity {
            snapshot.clear();
        }
        *held += snapshot.len();
    }

    /// Patch the pane `e` retains (see [`Session::extract_labeled`]):
    /// evaluate the views of `boxes` (box ids, sorted) again and, if
    /// that stands in for a walk, put them into a copy of the pane's
    /// graph, which becomes the pane. The index takes the boxes' new
    /// reads, when they read other ranges than before, and the
    /// footprint and snapshot are derived from it as after a walk; a
    /// pane whose boxes read again what they read before and that held
    /// no snapshot holds none. `held` counts the bytes of every pane's
    /// snapshot. `None`, with nothing changed, when the pane must be
    /// walked.
    fn patch(
        &self,
        target: &Target<'_>,
        program: &viewcl::Program,
        e: &mut Cached,
        boxes: &[u32],
        held: &mut usize,
    ) -> Option<(Arc<Graph>, GraphStats)> {
        let (r, footprint) = (e.kept.as_mut()?, &mut e.footprint);
        let trail = r.trail.as_ref()?;
        let ids: Vec<BoxId> = boxes.iter().map(|&b| BoxId(b)).collect();
        let _s = vtrace::span_with(self.tracer.as_ref(), SpanKind::Patch, || {
            format!("interp::patch {} of {} boxes", ids.len(), r.graph.len())
        });
        let faults = target.stats().faults;
        let mut interp = viewcl::Interp::new(target, &self.helpers);
        let views = interp.patch(program, &r.graph, trail, &ids)?;
        let poisoned = self.replay.as_ref().is_some_and(|s| s.poisoned().is_some());
        if poisoned || target.stats().faults != faults {
            return None;
        }
        let same = r.index.matches(&self.reads, boxes);
        if !same {
            r.index.replace(&self.reads, boxes);
        }
        if !same || !r.snapshot.is_empty() {
            self.derive(target, &r.index, footprint, &mut r.snapshot, held);
        }
        let mut graph = Graph::clone(&r.graph);
        for (&id, views) in ids.iter().zip(views) {
            graph.get_mut(id).views = views;
        }
        let stats = GraphStats::of(&graph);
        let graph = Arc::new(graph);
        target.note_patch(ids.len() as u64);
        r.graph = Arc::clone(&graph);
        r.stats = stats;
        r.refreshed();
        Some((graph, stats))
    }

    /// The states of the type registry and symbol table a walk runs
    /// under.
    fn tables(&self) -> (Stamp, Stamp) {
        (self.img.types.stamp(), self.img.symbols.stamp())
    }

    /// Fold a finished top-level span into the pane's trace record,
    /// creating the synthetic per-pane root on first use.
    fn absorb_into_pane(&self, pane: PaneId, span: TraceSpan) {
        let mut traces = self.traces.borrow_mut();
        match traces.get_mut(&pane) {
            Some(root) => root.absorb(span),
            None => {
                let mut root =
                    TraceSpan::synthetic(SpanKind::Pane, format!("pane-{}", pane.0), span.start_ns);
                root.absorb(span);
                traces.insert(pane, root);
            }
        }
    }

    /// Move the tracer's most recent finished span onto `pane`.
    fn record_trace(&self, pane: PaneId) {
        if let Some(span) = self.take_last_trace() {
            self.absorb_into_pane(pane, span);
        }
    }

    /// *vplot*: extract an object graph per `spec` and display it on a
    /// new primary pane (the first plot creates the pane tree; later
    /// plots split). The single entry point behind the historical
    /// `vplot` / `vplot_figure` / `vplot_auto` trio.
    pub fn plot(&mut self, spec: PlotSpec<'_>) -> Result<PaneId> {
        match spec {
            PlotSpec::Source(src) => self.plot_labeled(src, "extract"),
            PlotSpec::Figure(id) => {
                let fig = crate::figures::by_id(id)
                    .ok_or_else(|| SessionError::NotFound(format!("figure `{id}`")))?;
                self.plot_labeled(fig.viewcl, &format!("extract {id}"))
            }
            PlotSpec::Auto { ctype, root } => {
                let src = self.synthesize_viewcl(ctype, root)?;
                self.plot_labeled(&src, "extract")
            }
        }
    }

    fn plot_labeled(&mut self, viewcl_src: &str, label: &str) -> Result<PaneId> {
        let (graph, stats) = self.extract_labeled(viewcl_src, label)?;
        let pane = self.adopt_graph(Arc::unwrap_or_clone(graph), Some(stats))?;
        self.record_trace(pane);
        Ok(pane)
    }

    /// Generate the naive ViewCL program used by [`PlotSpec::Auto`]
    /// (public so callers can inspect or edit it first).
    pub fn synthesize_viewcl(&self, ctype: &str, root_expr: &str) -> Result<String> {
        let ty = self
            .img
            .types
            .find(ctype)
            .ok_or_else(|| SessionError::NotFound(format!("type `{ctype}`")))?;
        let def = self
            .img
            .types
            .struct_def(ty)
            .ok_or_else(|| SessionError::NotFound(format!("struct `{ctype}`")))?;
        let mut items = String::new();
        for f in &def.fields {
            use ktypes::TypeKind;
            match &self.img.types.get(f.ty).kind {
                TypeKind::Prim(p) if p.size() > 0 => {
                    items.push_str(&format!(
                        "    Text {}
",
                        f.name
                    ));
                }
                TypeKind::Enum(_) => {
                    items.push_str(&format!(
                        "    Text {}
",
                        f.name
                    ));
                }
                TypeKind::Pointer(_) => {
                    items.push_str(&format!(
                        "    Text<raw_ptr> {}
",
                        f.name
                    ));
                }
                TypeKind::Array { elem, .. }
                    if matches!(
                        self.img.types.get(*elem).kind,
                        TypeKind::Prim(ktypes::Prim::Char)
                    ) =>
                {
                    items.push_str(&format!(
                        "    Text<string> {}
",
                        f.name
                    ));
                }
                _ => {} // nested aggregates are beyond a naive plot
            }
        }
        Ok(format!(
            "define Auto as Box<{ctype}> [
{items}]
root = Auto(${{{root_expr}}})
plot @root
"
        ))
    }

    /// *vctrl*: pick boxes from a pane into a new secondary pane.
    pub fn vctrl_select(
        &mut self,
        origin: PaneId,
        dir: SplitDir,
        picks: Vec<vgraph::BoxId>,
    ) -> Result<PaneId> {
        Ok(self.panes_mut()?.select(origin, dir, picks)?)
    }

    /// Display an already-extracted graph on a new primary pane (the
    /// receive path of the wire protocol: the GDB side extracted and
    /// shipped the graph; re-extracting would double the metered cost).
    /// `vplot` pushes and [`Session::plot`] land here; subscriptions don't.
    pub fn adopt_graph(&mut self, graph: Graph, stats: Option<PlotStats>) -> Result<PaneId> {
        let pane = match &mut self.panes {
            None => {
                self.panes = Some(vpanels::Session::new(graph));
                PaneId(0)
            }
            Some(session) => {
                let last = session.layout.last_leaf();
                session.split(last, SplitDir::Horizontal, graph)?
            }
        };
        if let Some(s) = stats {
            self.stats.insert(pane, s);
        }
        Ok(pane)
    }

    /// *vctrl*: apply a ViewQL program to a pane.
    pub fn vctrl_refine(&mut self, pane: PaneId, viewql: &str) -> Result<()> {
        match self.tracer.clone() {
            None => self.panes_mut()?.refine(pane, viewql)?,
            Some(t) => {
                // One Query span per program; the engine adds one Clause
                // span per statement inside it.
                let mut engine = vql::Engine::new();
                engine.set_tracer(t.clone());
                let res = {
                    let _s =
                        vtrace::span(Some(&t), SpanKind::Query, format!("viewql pane-{}", pane.0));
                    self.panes_mut()
                        .and_then(|p| Ok(p.refine_with(pane, viewql, &mut engine)?))
                };
                self.record_trace(pane);
                res?;
            }
        }
        Ok(())
    }

    /// *vctrl*: split a pane with a fresh plot.
    pub fn vctrl_split(&mut self, pane: PaneId, dir: SplitDir, viewcl_src: &str) -> Result<PaneId> {
        let (graph, stats) = self.extract(viewcl_src)?;
        let new = self.panes_mut()?.split(pane, dir, graph)?;
        self.stats.insert(new, stats);
        self.record_trace(new);
        Ok(new)
    }

    /// *vctrl*: the focus operation — search an address in all panes.
    pub fn focus(&self, addr: u64) -> Vec<FocusHit> {
        match &self.panes {
            Some(s) => s.focus(addr),
            None => Vec::new(),
        }
    }

    /// *vchat*: synthesize ViewQL from natural language against the
    /// pane's plot schema and (optionally) apply it.
    pub fn vchat(&mut self, pane: PaneId, message: &str, apply: bool) -> Result<VChatOutcome> {
        let graph = self
            .panes
            .as_ref()
            .and_then(|s| s.graph_of(pane))
            .ok_or_else(|| SessionError::NotFound(format!("pane {pane:?}")))?;
        let schema = vchat::Schema::of(graph);
        let synth = vchat::Synthesizer::new(schema);
        let viewql = synth.synthesize(message)?;
        if apply {
            self.vctrl_refine(pane, &viewql)?;
        }
        Ok(VChatOutcome {
            viewql,
            applied: apply,
        })
    }

    /// The single checker entry point behind [`Session::vcheck`] and
    /// [`Session::vcheck_scoped`]: build one target over the session's
    /// backend stack and run the invariant checkers at the requested
    /// scope. Returns the report plus, for the scoped flavor, the boxes
    /// that produced fresh violations (id, count, first diagnostic).
    fn run_checkers(&self, scope: CheckScope<'_>) -> (kcheck::Report, Vec<Flagged>) {
        let target = self.target();
        match scope {
            CheckScope::Image => {
                let _s = vtrace::span(self.tracer.as_ref(), SpanKind::Check, "vcheck sweep");
                (kcheck::sweep(&target), Vec::new())
            }
            CheckScope::Boxes(objs) => {
                let checker = kcheck::Checker::new(&target);
                let mut report = kcheck::Report::default();
                let mut flagged: Vec<Flagged> = Vec::new();
                for (id, addr, ctype) in objs {
                    let before = report.violations.len();
                    let path = format!("{ctype}@{addr:#x}");
                    checker.check_object(*addr, ctype, &path, &mut report);
                    let fresh = report.violations.len() - before;
                    if fresh > 0 {
                        flagged.push((*id, fresh, report.violations[before].detail.clone()));
                    }
                }
                (report, flagged)
            }
        }
    }

    /// *vcheck*: run the kernel data-structure invariant checkers over
    /// the whole image — a full sweep from the well-known root symbols
    /// (`init_task`, `runqueues`, `super_blocks`, `slab_caches`).
    pub fn vcheck(&self) -> kcheck::Report {
        self.run_checkers(CheckScope::Image).0
    }

    /// *vcheck* scoped by a ViewQL query: execute `viewql` against the
    /// pane's plot, run the invariant checkers only on the objects the
    /// last `SELECT` binds (so `REACHABLE(...)` scopes a whole subplot),
    /// and annotate each violating box on the pane with a `violations`
    /// attribute carrying the count and first diagnostic.
    pub fn vcheck_scoped(&mut self, pane: PaneId, viewql: &str) -> Result<kcheck::Report> {
        let stmts = vql::parse(viewql)?;
        let var = stmts
            .iter()
            .rev()
            .find_map(|s| match s {
                vql::Stmt::Select { var, .. } => Some(var.clone()),
                _ => None,
            })
            .ok_or_else(|| SessionError::NotFound("vcheck: no SELECT in query".into()))?;
        // Run the query on a scratch copy: UPDATE statements inside a
        // vcheck query must not restyle the displayed plot.
        let mut scratch = self.graph(pane)?.clone();
        let mut engine = vql::Engine::new();
        engine.run(&mut scratch, viewql)?;
        let sel = engine
            .var(&var)
            .ok_or_else(|| SessionError::NotFound(format!("vcheck: selection `{var}`")))?;

        let objs: Vec<(vgraph::BoxId, u64, String)> = sel
            .boxes()
            .into_iter()
            .map(|id| {
                let b = scratch.get(id);
                (id, b.addr, b.ctype.to_string())
            })
            .filter(|(_, addr, ctype)| *addr != 0 && !ctype.is_empty())
            .collect();
        let (report, flagged) = self.run_checkers(CheckScope::Boxes(&objs));
        if !flagged.is_empty() {
            if let Some(g) = self.panes.as_mut().and_then(|s| s.graph_of_mut(pane)) {
                for (id, count, detail) in flagged {
                    let attrs = &mut g.get_mut(id).attrs;
                    attrs.set("violations", serde_json::json!(count));
                    attrs.set("vcheck", serde_json::json!(detail));
                }
            }
        }
        Ok(report)
    }

    /// The graph displayed on a pane.
    pub fn graph(&self, pane: PaneId) -> Result<&Graph> {
        self.panes
            .as_ref()
            .and_then(|s| s.graph_of(pane))
            .ok_or_else(|| SessionError::NotFound(format!("pane {pane:?}")))
    }

    /// Extraction stats of a plotted pane.
    pub fn plot_stats(&self, pane: PaneId) -> Option<PlotStats> {
        self.stats.get(&pane).copied()
    }

    /// Render a pane, recording a `render` span on the pane's trace.
    /// Renders read no target memory, so the span is zero-cost in wire
    /// terms — it exists to complete the pipeline attribution.
    fn render_traced<R>(&self, pane: PaneId, name: &str, f: impl FnOnce(&Graph) -> R) -> Result<R> {
        let graph = self.graph(pane)?;
        match &self.tracer {
            None => Ok(f(graph)),
            Some(t) => {
                let t = t.clone();
                let out = {
                    let _s = vtrace::span(Some(&t), SpanKind::Render, name);
                    f(graph)
                };
                // Only a top-level render lands back on the pane; nested
                // spans (inside an open extract) stay with their parent.
                if let Some(span) = t.take_last_finished() {
                    self.absorb_into_pane(pane, span);
                }
                Ok(out)
            }
        }
    }

    /// Render a pane as text.
    pub fn render_text(&self, pane: PaneId) -> Result<String> {
        self.render_traced(pane, "render::text", vrender::to_text)
    }

    /// Render a pane as Graphviz DOT.
    pub fn render_dot(&self, pane: PaneId) -> Result<String> {
        self.render_traced(pane, "render::dot", vrender::to_dot)
    }

    /// Render a pane as SVG.
    pub fn render_svg(&self, pane: PaneId) -> Result<String> {
        self.render_traced(pane, "render::svg", vrender::to_svg)
    }

    /// Persist the pane tree.
    pub fn save_panes(&self) -> Option<String> {
        self.panes.as_ref().map(|s| s.save())
    }

    fn panes_mut(&mut self) -> Result<&mut vpanels::Session> {
        self.panes
            .as_mut()
            .ok_or_else(|| SessionError::NotFound("no panes (plot something first)".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::workload::{build, WorkloadConfig};

    fn session() -> Session {
        Session::builder(build(&WorkloadConfig::default()))
            .attach()
            .expect("live attach")
    }

    #[test]
    fn vplot_figure_and_render() {
        let mut s = session();
        let pane = s.plot(PlotSpec::Figure("fig7-1")).unwrap();
        let text = s.render_text(pane).unwrap();
        assert!(text.contains("RQ"));
        assert!(text.contains("worker-0"));
        let stats = s.plot_stats(pane).unwrap();
        assert!(stats.graph.objects > 3);
    }

    #[test]
    fn vctrl_refine_applies_viewql() {
        let mut s = session();
        let pane = s.plot(PlotSpec::Figure("fig3-4")).unwrap();
        s.vctrl_refine(
            pane,
            "a = SELECT task_struct FROM * WHERE mm == NULL\nUPDATE a WITH collapsed: true",
        )
        .unwrap();
        let g = s.graph(pane).unwrap();
        let collapsed = g.boxes().iter().filter(|b| b.attrs.collapsed).count();
        assert!(collapsed >= 6, "kthreads collapsed, got {collapsed}");
    }

    #[test]
    fn vchat_round_trip() {
        let mut s = session();
        let pane = s.plot(PlotSpec::Figure("fig3-4")).unwrap();
        let out = s
            .vchat(pane, "shrink tasks that have no address space", true)
            .unwrap();
        assert!(out.viewql.contains("mm == NULL"), "{}", out.viewql);
        let g = s.graph(pane).unwrap();
        assert!(g.boxes().iter().any(|b| b.attrs.collapsed));
    }

    #[test]
    fn multiple_plots_split_panes_and_focus_finds_shared_objects() {
        let mut s = session();
        let p1 = s.plot(PlotSpec::Figure("fig3-4")).unwrap();
        let p2 = s.plot(PlotSpec::Figure("fig7-1")).unwrap();
        assert_ne!(p1, p2);
        // A runnable leader appears in both the parent tree and the
        // scheduler tree (paper Figure 2).
        let leader = s.roots.leaders[0];
        let hits = s.focus(leader);
        let panes: std::collections::HashSet<_> = hits.iter().map(|h| h.pane).collect();
        assert!(panes.len() >= 2, "expected hits in both panes: {hits:?}");
    }

    #[test]
    fn vplot_auto_synthesizes_naive_viewcl() {
        let mut s = session();
        let src = s
            .synthesize_viewcl("vm_area_struct", "find_vma(current_task->mm, 0x400000)")
            .unwrap();
        assert!(src.contains("Text vm_start"), "{src}");
        assert!(src.contains("Text<raw_ptr> vm_file"), "{src}");
        let pane = s
            .plot(PlotSpec::Auto {
                ctype: "vm_area_struct",
                root: "find_vma(current_task->mm, 0x400000)",
            })
            .unwrap();
        let g = s.graph(pane).unwrap();
        assert_eq!(&*g.get(g.roots[0]).ctype, "vm_area_struct");
        // The naive plot shows the real field values.
        assert_eq!(g.get(g.roots[0]).member_raw("vm_start", g), Some(0x400000));
        assert!(matches!(
            s.plot(PlotSpec::Auto {
                ctype: "no_such_type",
                root: "0"
            }),
            Err(SessionError::NotFound(_))
        ));
    }

    #[test]
    fn vctrl_select_creates_secondary_pane() {
        let mut s = session();
        let pane = s.plot(PlotSpec::Figure("fig7-1")).unwrap();
        let first = s.graph(pane).unwrap().roots[0];
        let sec = s
            .vctrl_select(pane, SplitDir::Vertical, vec![first])
            .unwrap();
        assert_ne!(sec, pane);
        // The secondary pane resolves its origin's graph.
        assert!(s.graph(sec).is_ok());
    }

    #[test]
    fn lock_state_in_one_line_of_viewcl() {
        // §5.1: "we can visualize the lock state within a single line of
        // ViewCL" — the EMOJI decorator over a spinlock word.
        let mut s = session();
        let pane = s
            .plot(PlotSpec::Source(
                r#"
define MMLock as Box<mm_struct> [
    Text<emoji:lock> page_table_lock: page_table_lock.locked
]
m = MMLock(${current_task->mm})
plot @m
"#,
            ))
            .unwrap();
        let g = s.graph(pane).unwrap();
        match g.get(g.roots[0]).item("page_table_lock").unwrap() {
            vgraph::Item::Text { value, .. } => assert_eq!(value, "🔓"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn program_cache_stays_bounded_and_extracts_as_uncached() {
        let fields = ["pid", "tgid", "prio", "comm", "se.vruntime", "flags"];
        let source = |i: usize| {
            format!(
                "define T{i} as Box<task_struct> [ Text {} ]\nt = T{i}(${{&init_task}})\nplot @t",
                fields[i % fields.len()]
            )
        };
        // An incremental session keeps each walk's pane in the entry of
        // its source, so the retained panes share the cache's bound.
        for incremental in [false, true] {
            let attach = || {
                let b = Session::builder(build(&WorkloadConfig::default()));
                let b = if incremental { b.incremental() } else { b };
                b.attach().expect("live attach")
            };
            let cached = attach();
            let uncached = session();
            for i in 0..1_000 {
                let src = source(i);
                let (got, _) = cached.extract(&src).unwrap();
                *uncached.programs.borrow_mut() = ProgramCache::default();
                let (want, _) = uncached.extract(&src).unwrap();
                assert_eq!(got.to_json(), want.to_json(), "source {i}");
                let cache = cached.programs.borrow();
                assert!(cache.entries.len() <= PROGRAM_CACHE_ENTRIES);
                assert!(cache.bytes <= PROGRAM_CACHE_BYTES);
                assert_eq!(cache.bytes, cache.entries.keys().map(String::len).sum());
                let kept = cache.entries.values().filter(|e| e.kept.is_some()).count();
                assert_eq!(kept, if incremental { cache.entries.len() } else { 0 });
            }
            // Hits extract what the misses that filled them did.
            for i in 990..1_000 {
                assert!(cached.programs.borrow().entries.contains_key(&source(i)));
                let (got, stats) = cached.extract(&source(i)).unwrap();
                assert_eq!(stats.target.vincr_hits, u64::from(incremental));
                *uncached.programs.borrow_mut() = ProgramCache::default();
                let (want, _) = uncached.extract(&source(i)).unwrap();
                assert_eq!(got.to_json(), want.to_json(), "source {i}");
            }
            // The 21 library figures fit at once.
            let s = attach();
            for fig in crate::figures::all() {
                s.extract(fig.viewcl).unwrap();
            }
            assert_eq!(s.programs.borrow().entries.len(), 21);
            // A program past the byte bound is parsed and walked afresh
            // every time, never kept.
            let big = format!(
                "{}{}",
                "// padding\n".repeat(PROGRAM_CACHE_BYTES / 11 + 1),
                source(0)
            );
            let (want, _) = s.extract(&source(0)).unwrap();
            for _ in 0..2 {
                let (got, stats) = s.extract(&big).unwrap();
                assert_eq!(got.to_json(), want.to_json());
                assert_eq!(stats.target.vincr_hits, 0);
            }
            assert!(!s.programs.borrow().entries.contains_key(&big));
        }
    }

    #[test]
    fn a_kept_pane_is_handed_out_as_its_retained_allocation() {
        let mut s = Session::builder(build(&WorkloadConfig::default()))
            .incremental()
            .attach()
            .expect("live attach");
        let src = crate::figures::by_id("fig3-4").expect("figure").viewcl;
        let (walked, _) = s.extract_shared(src).unwrap();
        s.stop_event(|_| {}).unwrap();
        let (kept, stats) = s.extract_shared(src).unwrap();
        assert_eq!(stats.target.vincr_hits, 1);
        assert!(Arc::ptr_eq(&walked, &kept));
    }

    #[test]
    fn snapshots_stay_within_the_cache_capacity() {
        // 16 blocks of 256 bytes: 4 KiB for every snapshot together.
        let cfg = vbridge::CacheConfig {
            max_blocks: 16,
            ..vbridge::CacheConfig::default()
        };
        let mut s = Session::builder(build(&WorkloadConfig::default()))
            .cache(cfg)
            .attach()
            .expect("live attach");
        let uncached = session();
        let walk = |s: &Session| -> Vec<(Arc<Graph>, TargetStats)> {
            let walks = crate::figures::all()
                .iter()
                .map(|fig| {
                    let (graph, stats) = s.extract_shared(fig.viewcl).unwrap();
                    let (want, _) = uncached.extract(fig.viewcl).unwrap();
                    assert_eq!(graph.to_json(), want.to_json(), "{}", fig.id);
                    (graph, stats.target)
                })
                .collect();
            let programs = s.programs.borrow();
            let held = programs.entries.values().filter_map(|e| e.kept.as_ref());
            let held: usize = held.map(|r| r.snapshot.len()).sum();
            assert_eq!(programs.snapshot_bytes, held);
            assert!(held <= 16 * 256, "{held} bytes held");
            walks
        };
        let first = walk(&s);
        s.resume();
        let (mut kept, mut walked) = (0, 0);
        for ((before, _), (after, stats)) in first.iter().zip(walk(&s)) {
            let held = Arc::ptr_eq(before, &after);
            assert_eq!(held, stats.vincr_hits == 1);
            kept += usize::from(held);
            walked += usize::from(!held);
        }
        // Some walks fitted and were kept; the others kept no snapshot.
        assert!(kept > 0 && walked > 0, "{kept} kept, {walked} walked");
    }

    #[test]
    fn cached_session_plots_identically_and_cheaper() {
        let fig = crate::figures::by_id("fig3-4").unwrap();
        let uncached = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::kgdb_rpi400())
            .attach()
            .unwrap();
        let mut cached = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::kgdb_rpi400())
            .cache(vbridge::CacheConfig::default())
            .attach()
            .unwrap();
        assert!(cached.cache_enabled() && !uncached.cache_enabled());
        let (g_plain, s_plain) = uncached.extract(fig.viewcl).unwrap();
        let (g_cold, s_cold) = cached.extract(fig.viewcl).unwrap();
        assert_eq!(g_plain.to_json(), g_cold.to_json());
        assert!(s_cold.target.virtual_ns < s_plain.target.virtual_ns);
        // Warm re-extraction: the snapshot has not changed, so nearly
        // everything comes from cache.
        let (g_warm, s_warm) = cached.extract(fig.viewcl).unwrap();
        assert_eq!(g_plain.to_json(), g_warm.to_json());
        assert!(s_warm.target.reads < s_cold.target.reads);
        assert!(s_warm.target.cache_hits > 0);
        // Resuming the kernel drops every cached block.
        cached.resume();
        assert!(cached.cache().unwrap().is_empty());
        let (_, s_cold2) = cached.extract(fig.viewcl).unwrap();
        assert!(s_cold2.target.cache_misses > 0);
    }

    /// What a walk of `src` on `img` derives on a fresh target with a
    /// cache of `cfg`.
    struct Derived {
        graph: String,
        index: ReadIndex,
        footprint: Vec<u64>,
        snapshot: Vec<u8>,
        /// The bytes a snapshot of the walk holds when it holds any: the
        /// image's, at the index's served ranges; none if a read faulted.
        served: Vec<u8>,
    }

    /// Walk `src` on `img` as a fresh cached session would, and derive
    /// its pane's index, footprint and snapshot. `None` if the walk
    /// fails.
    fn walk_and_derive(img: &KernelImage, cfg: vbridge::CacheConfig, src: &str) -> Option<Derived> {
        let cache = BlockCache::new(cfg);
        let reads = ReadRecord::default();
        let free = LatencyProfile::free();
        let mut target = Target::with_cache(&img.mem, &img.types, &img.symbols, free, &cache);
        target.record_reads(&reads);
        let helpers = crate::helpers::registry();
        let program = viewcl::parse_program(src).ok()?;
        let mut interp = viewcl::Interp::new(&target, &helpers);
        interp.run(&program).ok()?;
        let graph = interp.finish().0.to_json();
        let mut index = ReadIndex::default();
        target.end_walk(&mut index);
        let (mut footprint, mut snapshot) = (Vec::new(), Vec::new());
        target.derive(&index, &mut footprint, &mut snapshot);
        let mut served = Vec::new();
        for (addr, len) in index.served().filter(|_| !index.faulted()) {
            let at = served.len();
            served.resize(at + len as usize, 0);
            img.mem.read(addr, &mut served[at..]).expect("served");
        }
        Some(Derived {
            graph,
            index,
            footprint,
            snapshot,
            served,
        })
    }

    /// Extract the 21 figures on every session, then check that each
    /// pane a session retains carries the index, footprint and
    /// snapshot a walk of its source on the same image derives. With
    /// the default cache nothing is evicted and every snapshot fits;
    /// a smaller cache may hold no snapshot for a pane. Returns each
    /// session's extraction stats, by figure.
    fn check_retained(
        sessions: &[(&str, vbridge::CacheConfig, Session)],
        at: &str,
    ) -> Vec<Vec<TargetStats>> {
        let mut fresh: HashMap<(usize, &str), Option<Derived>> = HashMap::new();
        let mut stats = Vec::new();
        for (name, cfg, s) in sessions {
            let got: Vec<_> = crate::figures::all()
                .iter()
                .map(|fig| s.extract_shared(fig.viewcl).map(|(_, st)| st.target))
                .collect();
            let exact = *cfg == vbridge::CacheConfig::default();
            let programs = s.programs.borrow();
            for (fig, got) in crate::figures::all().iter().zip(&got) {
                let want = fresh
                    .entry((cfg.max_blocks, fig.viewcl))
                    .or_insert_with(|| walk_and_derive(&s.img, *cfg, fig.viewcl));
                let at = format!("{at}: {name} {}", fig.id);
                assert_eq!(got.is_ok(), want.is_some(), "{at}: walks as afresh");
                // A walk that fails replaces no pane.
                let (Some(want), Some(e)) = (want, programs.entries.get(fig.viewcl)) else {
                    continue;
                };
                let Some(r) = &e.kept else { continue };
                assert_eq!(r.graph.to_json(), want.graph, "{at}: graph");
                assert!(r.index == want.index, "{at}: index");
                assert_eq!(e.footprint, want.footprint, "{at}: footprint");
                let held =
                    |snapshot: &[u8]| snapshot == want.served || !exact && snapshot.is_empty();
                assert!(held(&want.snapshot), "{at}: fresh snapshot");
                assert!(held(&r.snapshot), "{at}: snapshot");
            }
            stats.push(got.into_iter().map(Result::unwrap_or_default).collect());
        }
        stats
    }

    #[test]
    fn a_patched_pane_carries_what_a_walk_derives() {
        let small = vbridge::CacheConfig {
            max_blocks: 16,
            ..vbridge::CacheConfig::default()
        };
        for seed in [1u64, 42] {
            let cfg = WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            };
            let attach = |cache: vbridge::CacheConfig, incremental: bool| {
                let b = Session::builder(build(&cfg)).cache(cache);
                let b = if incremental { b.incremental() } else { b };
                b.attach().expect("live attach")
            };
            let default = vbridge::CacheConfig::default();
            let mut sessions = [
                ("plain", default, attach(default, false)),
                ("incremental", default, attach(default, true)),
                ("plain 16 blocks", small, attach(small, false)),
                ("incremental 16 blocks", small, attach(small, true)),
            ];
            let stop = |sessions: &mut [(&str, _, Session)], f: &dyn Fn(&mut KernelImage)| {
                for (_, _, s) in sessions.iter_mut() {
                    s.stop_event(f).expect("a live session takes stops");
                }
            };
            check_retained(&sessions, &format!("seed {seed}, first walk"));
            let roots = sessions[0].2.roots.clone();
            for step in 1..=3 {
                stop(&mut sessions, &|img: &mut KernelImage| {
                    ksim::tick::tick(img, &roots, step);
                });
                check_retained(&sessions, &format!("seed {seed}, tick {step}"));
            }
            if seed != 1 {
                continue;
            }
            // A longer name: the task's box reads a longer string, so a
            // patch takes its new ranges and derives the pane again.
            let img = sessions[0].2.image();
            let task_struct = img.types.find("task_struct").expect("task_struct");
            let (comm, _) = img.types.field_path(task_struct, "comm").expect("comm");
            let comm = roots.leaders[0] + comm;
            let longer = format!("{:x<15}\0", img.mem.read_cstr(comm, 16).expect("a name"));
            stop(&mut sessions, &|img: &mut KernelImage| {
                img.mem.write(comm, longer.as_bytes());
            });
            let stats = check_retained(&sessions, "a longer name");
            let fig3_4 = crate::figures::all().iter().position(|f| f.id == "fig3-4");
            let fig3_4 = fig3_4.expect("fig3-4");
            for ((name, _, s), stats) in sessions.iter().zip(stats) {
                let patched = stats[fig3_4].reevaluated > 0;
                assert_eq!(patched, *name != "plain 16 blocks", "{name}");
                if *name == "incremental 16 blocks" {
                    // Its 40 blocks pass the cap: no footprint.
                    let programs = s.programs.borrow();
                    let src = crate::figures::all()[fig3_4].viewcl;
                    assert!(programs.entries[src].footprint.is_empty());
                }
            }
            // Seeded random bytes in ranges the figures' walks are
            // served, two stops a figure, each putting back first the
            // bytes the stop before it wrote.
            let ranges: Vec<Vec<(u64, u64)>> = crate::figures::all()
                .iter()
                .map(|fig| {
                    let img = sessions[0].2.image();
                    let want = walk_and_derive(img, default, fig.viewcl).expect("walks");
                    want.index.served().collect()
                })
                .collect();
            let mut seed = 0x5eed_u64;
            let mut next = move || {
                // SplitMix64.
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut undo: Option<(u64, Vec<u8>)> = None;
            for (i, ranges) in ranges.iter().cycle().take(2 * ranges.len()).enumerate() {
                let (start, len) = ranges[next() as usize % ranges.len()];
                let at = start + next() % len;
                let n = (1 + next() % 8).min(start + len - at) as usize;
                let bytes: Vec<u8> = (0..n).map(|_| next() as u8).collect();
                // What the bytes are once the last stop's are put back.
                let mut old = vec![0; n];
                sessions[0]
                    .2
                    .image()
                    .mem
                    .read(at, &mut old)
                    .expect("served");
                let back = undo.take();
                if let Some((addr, was)) = &back {
                    for (k, b) in old.iter_mut().enumerate() {
                        let back = (at + k as u64).checked_sub(*addr);
                        *b = back
                            .and_then(|j| was.get(j as usize))
                            .copied()
                            .unwrap_or(*b);
                    }
                }
                stop(&mut sessions, &|img: &mut KernelImage| {
                    if let Some((addr, was)) = &back {
                        img.mem.write(*addr, was);
                    }
                    img.mem.write(at, &bytes);
                });
                undo = Some((at, old));
                check_retained(&sessions, &format!("random stop {i}"));
            }
        }
    }

    #[test]
    fn vcheck_clean_image_reports_nothing() {
        let s = session();
        let report = s.vcheck();
        assert!(report.is_clean(), "{}", report.summary());
        assert!(report.checkers_run > 10);
    }

    #[test]
    fn vcheck_scoped_flags_and_annotates_corrupted_selection() {
        let mut w = build(&WorkloadConfig::default());
        ksim::faults::inject(&mut w, ksim::faults::FaultKind::MaplePivotCorrupt, 1);
        let mut s = Session::builder(w).attach().unwrap();
        let pane = s.plot(PlotSpec::Figure("fig3-4")).unwrap();
        let report = s
            .vcheck_scoped(pane, "v = SELECT mm_struct FROM *")
            .unwrap();
        assert!(report.count_of("maple") >= 1, "{}", report.summary());
        let g = s.graph(pane).unwrap();
        let annotated = g
            .boxes()
            .iter()
            .filter(|b| b.attrs.extra.contains_key("violations"))
            .count();
        assert!(annotated >= 1, "the violating mm box is annotated");
        // A clean selection of the same plot stays unannotated.
        let clean = s
            .vcheck_scoped(pane, "t = SELECT task_struct FROM * WHERE mm == NULL")
            .unwrap();
        assert!(clean.is_clean(), "{}", clean.summary());
    }

    #[test]
    fn unknown_figure_errors() {
        let mut s = session();
        assert!(matches!(
            s.plot(PlotSpec::Figure("fig0-0")),
            Err(SessionError::NotFound(_))
        ));
    }

    #[test]
    fn plot_stats_rates_are_zero_not_nan_on_empty_plots() {
        // A plot with no kernel objects and no wire traffic must report
        // 0 ms/object and 0 ms/KB, not NaN/inf from a zero denominator.
        let empty = PlotStats {
            graph: GraphStats::default(),
            target: TargetStats::default(),
        };
        assert_eq!(empty.total_ms(), 0.0);
        assert_eq!(empty.ms_per_object(), 0.0);
        assert_eq!(empty.ms_per_kb(), 0.0);
        // Nonzero time over zero objects (e.g. every chase faulted away)
        // still may not divide by zero.
        let timed = PlotStats {
            graph: GraphStats::default(),
            target: TargetStats {
                virtual_ns: 1_000_000,
                ..TargetStats::default()
            },
        };
        assert!(timed.ms_per_object().is_finite());
        assert!(timed.ms_per_kb().is_finite());
        assert_eq!(timed.ms_per_object(), 0.0);
        assert_eq!(timed.ms_per_kb(), 0.0);
    }

    #[test]
    fn vtrace_reconciles_with_target_stats() {
        let mut s = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::kgdb_rpi400())
            .attach()
            .unwrap();
        assert!(!s.tracing_enabled());
        assert!(s.vtrace(PaneId(0)).is_none());
        s.enable_tracing();
        assert!(s.tracing_enabled());

        let pane = s.plot(PlotSpec::Figure("fig3-4")).unwrap();
        let _ = s.render_text(pane).unwrap();
        s.vctrl_refine(
            pane,
            "a = SELECT task_struct FROM * WHERE mm == NULL\nUPDATE a WITH collapsed: true",
        )
        .unwrap();

        let trace = s.vtrace(pane).expect("pane trace recorded");
        trace.check_well_formed().unwrap();

        // The trace includes the extraction plus the (wire-silent) render
        // and refine; its counters must reconcile with TargetStats
        // exactly — same clock, mirrored increments, telescoping sums.
        let target = s.plot_stats(pane).unwrap().target;
        let tot = trace.totals();
        assert_eq!(tot.packets, target.reads);
        assert_eq!(tot.bytes, target.bytes);
        assert_eq!(tot.virtual_ns, target.virtual_ns);
        assert_eq!(tot.cache_hits, target.cache_hits);
        assert_eq!(tot.faults, target.faults);
        assert_eq!(trace.leaf_totals(), tot);

        // The span tree shows the whole pipeline: extract with parse +
        // interp children, distiller spans inside interp, plus the render
        // and refine recorded afterwards.
        let kinds: Vec<SpanKind> = trace.flatten().iter().map(|sp| sp.kind).collect();
        for want in [
            SpanKind::Extract,
            SpanKind::Parse,
            SpanKind::Interp,
            SpanKind::Distill,
            SpanKind::Render,
            SpanKind::Query,
        ] {
            assert!(kinds.contains(&want), "missing {want:?} in {kinds:?}");
        }

        // Chrome export is valid JSON with one event per span.
        let chrome = s.export_chrome_trace();
        let v: serde_json::Value = serde_json::from_str(&chrome).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), trace.flatten().len());
    }

    #[test]
    fn record_replay_round_trip_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("vrec-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.vrec");
        let mut rec = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::kgdb_rpi400())
            .cache(vbridge::CacheConfig::default())
            .record(&path)
            .attach()
            .unwrap();
        assert_eq!(rec.backend_kind(), BackendKind::Record);
        let fig = crate::figures::by_id("fig3-4").unwrap();
        let (g_live, s_live) = rec.extract(fig.viewcl).unwrap();
        rec.resume();
        let (_, s_live2) = rec.extract(fig.viewcl).unwrap();
        let saved = rec.save_recording().unwrap();
        assert_eq!(saved, path);

        let cap = Capture::load(&path).unwrap();
        let mut rep = Session::replay(cap).attach().unwrap();
        assert_eq!(rep.backend_kind(), BackendKind::Replay);
        // The replay rebuilt profile, cache and workload config from the
        // capture header — and attached to zero bytes of target memory.
        assert_eq!(rep.profile(), LatencyProfile::kgdb_rpi400());
        assert!(rep.cache_enabled());
        assert_eq!(rep.workload_cfg(), &WorkloadConfig::default());
        assert_eq!(rep.image().mem.mapped_pages(), 0);

        let (g_rep, s_rep) = rep.extract(fig.viewcl).unwrap();
        rep.resume();
        let (_, s_rep2) = rep.extract(fig.viewcl).unwrap();
        assert_eq!(g_live.to_json(), g_rep.to_json());
        // Counters are byte-identical; only the backend identity moves
        // from Record to Replay.
        assert_eq!(
            s_rep.target,
            TargetStats {
                backend: BackendKind::Replay,
                ..s_live.target
            }
        );
        assert_eq!(
            s_rep2.target,
            TargetStats {
                backend: BackendKind::Replay,
                ..s_live2.target
            }
        );
        assert_eq!(rep.replay_state().unwrap().remaining(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_ignores_an_execution_mode_in_old_capture_headers() {
        let rec = Session::builder(build(&WorkloadConfig::default()))
            .record("never-saved.vrec")
            .attach()
            .unwrap();
        let fig = crate::figures::by_id("fig12-3").unwrap();
        let (g_live, s_live) = rec.extract(fig.viewcl).unwrap();
        let json = rec.capture().unwrap().to_json();
        assert!(!json.contains("exec_mode"), "new headers carry no mode");
        // Older captures named the mode they were recorded under.
        let old = json.replacen(r#""meta":{"#, r#""meta":{"exec_mode":"plan","#, 1);
        let cap = Capture::from_json(&old).unwrap();
        let mode = cap.meta.get("exec_mode").and_then(|v| v.as_str());
        assert_eq!(mode, Some("plan"));
        let rep = Session::replay(cap).attach().unwrap();
        let (g_rep, s_rep) = rep.extract(fig.viewcl).unwrap();
        assert_eq!(g_live.to_json(), g_rep.to_json());
        assert_eq!(
            (s_rep.target.reads, s_rep.target.bytes),
            (s_live.target.reads, s_live.target.bytes)
        );
        assert_eq!(rep.replay_state().unwrap().remaining(), 0);
    }

    #[test]
    fn replay_rejects_bad_captures_loudly() {
        // Recording a replay is a contradiction.
        let cap = Capture {
            version: vbridge::VREC_VERSION,
            origin: BackendKind::Sim,
            profile: LatencyProfile::free(),
            cache: None,
            meta: workload_cfg_to_meta(&WorkloadConfig::default()),
            events: Vec::new(),
        };
        let err = match Session::replay(cap.clone()).record("nowhere.vrec").attach() {
            Err(e) => e,
            Ok(_) => panic!("recording a replay must fail"),
        };
        assert!(matches!(err, SessionError::Capture(_)), "{err}");

        // A capture without an embedded workload config cannot rebuild
        // the debug info.
        let mut no_meta = cap.clone();
        no_meta.meta = serde_json::Value::Null;
        let err = match Session::replay(no_meta).attach() {
            Err(e) => e,
            Ok(_) => panic!("meta-less capture must fail"),
        };
        assert!(err.to_string().contains("workload config"), "{err}");

        // Reading past the capture (here: an empty one) errors loudly
        // with a diagnostic instead of touching the (empty) image.
        let rep = Session::replay(cap).attach().unwrap();
        let fig = crate::figures::by_id("fig3-4").unwrap();
        let err = rep.extract(fig.viewcl).unwrap_err();
        assert!(err.to_string().contains("capture exhausted"), "{err}");
    }

    #[test]
    fn save_recording_requires_a_recording_session() {
        let s = session();
        assert_eq!(s.backend_kind(), BackendKind::Sim);
        assert!(s.capture().is_none());
        let err = s.save_recording().unwrap_err();
        assert!(matches!(err, SessionError::Capture(_)), "{err}");
    }

    #[test]
    fn workload_cfg_meta_round_trips() {
        let cfg = WorkloadConfig {
            processes: 7,
            seed: u64::MAX,
            ..WorkloadConfig::default()
        };
        let meta = workload_cfg_to_meta(&cfg);
        assert_eq!(workload_cfg_from_meta(&meta), Some(cfg));
        assert_eq!(workload_cfg_from_meta(&serde_json::Value::Null), None);
    }
}
