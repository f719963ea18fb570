//! Declarative scenario + CVE corpus generation.
//!
//! A [`ScenarioSpec`] is *data*: a name, a [`WorkloadConfig`] that dials
//! the population scale (thousands of tasks, deep maple trees, large
//! page caches and fd tables — all from one seeded RNG, so every spec is
//! deterministic), and a list of [`InjectionSpec`]s that declare bug
//! state the way KernJC declares vulnerable environments — as a spec,
//! not code. The two hand-built CVE case studies
//! ([`crate::scenarios::inject_stackrot`] /
//! [`crate::scenarios::inject_dirty_pipe`]) are re-expressed here as
//! corpus entries and their injectors delegate to [`apply`].
//!
//! Every spec round-trips through JSON ([`ScenarioSpec::to_json`] /
//! [`ScenarioSpec::from_json`]) and carries a stable
//! [`ScenarioSpec::fingerprint`] that capture headers embed, so a
//! `.vrec` names exactly which corpus member it was recorded from.
//!
//! Building a spec ([`ScenarioSpec::build`]) yields the mutated
//! [`Workload`] *plus* the ground truth: the [`ExpectedFinding`]s a
//! `kcheck` sweep must report — the injected fault is found, nothing
//! else is flagged. The corpus harness in `kgen` turns those into
//! `kcheck::Expected` assertions.

use serde_json::{Map, Number, Value};

use crate::faults::{self, FaultKind, InjectedFault};
use crate::maple;
use crate::pipe::PIPE_BUF_FLAG_CAN_MERGE;
use crate::rcu;
use crate::scenarios::{DirtyPipe, StackRot};
use crate::workload::{self, Workload, WorkloadConfig};

/// One declared bug injection — the data form of what used to be a
/// hand-written `inject_*` function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectionSpec {
    /// One fault from the seeded corpus ([`crate::faults`]).
    Fault {
        /// The corruption to plant.
        kind: FaultKind,
        /// Victim-selection seed.
        seed: u64,
    },
    /// The StackRot state (CVE-2023-3269): a maple node simultaneously
    /// in the tree and on the RCU callback list.
    StackRot {
        /// Also expire the grace period: run the deferred free so the
        /// tree holds a dangling pointer into slab poison.
        expire_grace: bool,
    },
    /// The Dirty Pipe state (CVE-2022-0847): a pipe buffer aliasing a
    /// page-cache page with `PIPE_BUF_FLAG_CAN_MERGE` set. Structurally
    /// clean — `kcheck` must flag *nothing* (the ground truth is the
    /// scenario-level witness, not a checker violation).
    DirtyPipe,
}

/// A complete, deterministic, serializable scenario recipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Corpus-unique name (also the fixture file stem).
    pub name: String,
    /// Population dials, seeded — equal configs build identical images.
    pub workload: WorkloadConfig,
    /// Bug state to plant after the build, in order.
    pub injections: Vec<InjectionSpec>,
}

/// One ground-truth finding a built scenario promises `kcheck` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedFinding {
    /// The checker class that must fire (`kcheck::ViolationKind::class`).
    pub class: &'static str,
    /// Exact violation address when the checker reports the mutated
    /// address itself; `None` when the damage surfaces elsewhere on the
    /// structure.
    pub addr: Option<u64>,
}

/// What applying one [`InjectionSpec`] actually did.
#[derive(Debug, Clone)]
pub enum AppliedInjection {
    /// A corpus fault landed.
    Fault(InjectedFault),
    /// The StackRot state landed.
    StackRot(StackRot),
    /// The Dirty Pipe state landed.
    DirtyPipe(DirtyPipe),
}

/// A built scenario: the (possibly corrupted) workload plus the ground
/// truth contract.
pub struct BuiltScenario {
    /// The image, with every injection applied.
    pub workload: Workload,
    /// Per-injection outcomes, in spec order.
    pub applied: Vec<AppliedInjection>,
    /// Every finding a full `kcheck` sweep must report — and the only
    /// classes it may report.
    pub expected: Vec<ExpectedFinding>,
}

impl ScenarioSpec {
    /// Tasks the workload will populate (1 swapper + kthreads + user
    /// processes with their extra threads) — the scale rung this spec
    /// sits on.
    pub fn tasks(&self) -> usize {
        1 + self.workload.kthreads + self.workload.processes * (1 + self.workload.extra_threads)
    }

    /// Build the workload and apply every injection, collecting the
    /// ground truth.
    pub fn build(&self) -> BuiltScenario {
        let mut w = workload::build(&self.workload);
        let mut applied = Vec::new();
        let mut expected = Vec::new();
        for inj in &self.injections {
            let (a, mut e) = apply(&mut w, inj);
            applied.push(a);
            expected.append(&mut e);
        }
        BuiltScenario {
            workload: w,
            applied,
            expected,
        }
    }

    /// Serialize to a stable JSON document (field order fixed, so equal
    /// specs serialize to equal bytes).
    pub fn to_json(&self) -> String {
        let injections: Vec<Value> = self
            .injections
            .iter()
            .map(|inj| {
                let mut m = Map::new();
                match inj {
                    InjectionSpec::Fault { kind, seed } => {
                        m.insert("fault".into(), Value::String(kind.name().into()));
                        m.insert("seed".into(), Value::Number(Number::from_u64(*seed)));
                    }
                    InjectionSpec::StackRot { expire_grace } => {
                        m.insert("stackrot".into(), Value::Bool(true));
                        m.insert("expire_grace".into(), Value::Bool(*expire_grace));
                    }
                    InjectionSpec::DirtyPipe => {
                        m.insert("dirty_pipe".into(), Value::Bool(true));
                    }
                }
                Value::Object(m)
            })
            .collect();
        let mut doc = Map::new();
        doc.insert("name".into(), Value::String(self.name.clone()));
        doc.insert("workload".into(), self.workload.to_json());
        doc.insert("injections".into(), Value::Array(injections));
        serde_json::to_string(&Value::Object(doc)).expect("spec serialization cannot fail")
    }

    /// Parse a spec serialized by [`ScenarioSpec::to_json`].
    pub fn from_json(s: &str) -> Result<ScenarioSpec, String> {
        let doc: Value = serde_json::from_str(s).map_err(|e| format!("spec is not JSON: {e}"))?;
        let name = doc
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or("spec lacks a name")?
            .to_string();
        let workload =
            WorkloadConfig::from_json(doc.get("workload").ok_or("spec lacks a workload")?)?;
        let mut injections = Vec::new();
        let listed = doc.get("injections").and_then(Value::as_array);
        for inj in listed.into_iter().flatten() {
            if let Some(fault) = inj.get("fault").and_then(|v| v.as_str()) {
                let kind = FaultKind::from_name(fault)
                    .ok_or_else(|| format!("unknown fault kind `{fault}`"))?;
                let seed = inj.get("seed").and_then(|v| v.as_u64()).unwrap_or(0);
                injections.push(InjectionSpec::Fault { kind, seed });
            } else if inj.get("stackrot").is_some() {
                let expire_grace = inj
                    .get("expire_grace")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false);
                injections.push(InjectionSpec::StackRot { expire_grace });
            } else if inj.get("dirty_pipe").is_some() {
                injections.push(InjectionSpec::DirtyPipe);
            } else {
                return Err(format!("unrecognized injection: {inj:?}"));
            }
        }
        Ok(ScenarioSpec {
            name,
            workload,
            injections,
        })
    }

    /// A stable content fingerprint (FNV-1a over the serialized spec):
    /// equal fingerprints mean "this capture / session was built from
    /// this exact scenario". Embedded in `.vrec` capture headers.
    pub fn fingerprint(&self) -> u64 {
        fnv64(self.to_json().as_bytes())
    }
}

impl WorkloadConfig {
    /// The dials as a JSON object keyed by field name, in declaration
    /// order: how a spec and a capture's metadata embed a config.
    pub fn to_json(&self) -> Value {
        let mut w = Map::new();
        let dial = |n: usize| Value::Number(Number::from_u64(n as u64));
        w.insert("processes".into(), dial(self.processes));
        w.insert("extra_threads".into(), dial(self.extra_threads));
        w.insert("files_per_process".into(), dial(self.files_per_process));
        w.insert("pages_per_file".into(), dial(self.pages_per_file));
        w.insert("anon_vmas".into(), dial(self.anon_vmas));
        w.insert("kthreads".into(), dial(self.kthreads));
        w.insert("seed".into(), Value::Number(Number::from_u64(self.seed)));
        Value::Object(w)
    }

    /// Parse a config [`WorkloadConfig::to_json`] wrote.
    pub fn from_json(w: &Value) -> Result<WorkloadConfig, String> {
        let field = |f: &str| {
            w.get(f)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("workload lacks `{f}`"))
        };
        Ok(WorkloadConfig {
            processes: field("processes")? as usize,
            extra_threads: field("extra_threads")? as usize,
            files_per_process: field("files_per_process")? as usize,
            pages_per_file: field("pages_per_file")? as usize,
            anon_vmas: field("anon_vmas")? as usize,
            kthreads: field("kthreads")? as usize,
            seed: field("seed")?,
        })
    }
}

/// FNV-1a, 64-bit: stable across processes (unlike `DefaultHasher`'s
/// unspecified keys), so scenario and session-spec fingerprints are
/// reproducible in fixtures and bench output.
pub fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Apply one injection to a built workload, returning what happened and
/// the ground-truth findings it adds. This is the single bug-injection
/// entry point; the legacy `scenarios::inject_*` functions are thin
/// wrappers over it.
pub fn apply(w: &mut Workload, inj: &InjectionSpec) -> (AppliedInjection, Vec<ExpectedFinding>) {
    match inj {
        InjectionSpec::Fault { kind, seed } => {
            let f = faults::inject(w, *kind, *seed);
            let expected = vec![ExpectedFinding {
                class: f.class(),
                // These checkers report the exact mutated address; the
                // others surface the damage on a neighbouring node/slot.
                addr: match kind {
                    FaultKind::RefcountAbsurd
                    | FaultKind::RefcountZero
                    | FaultKind::PidLinkStale => Some(f.addr),
                    _ => None,
                },
            }];
            (AppliedInjection::Fault(f), expected)
        }
        InjectionSpec::StackRot { expire_grace } => {
            let sr = apply_stackrot(w);
            if *expire_grace {
                expire_stackrot(w, &sr);
            }
            // call_rcu alone already corrupts the node's pivot area
            // (exactly like ma_free_rcu); expiring adds full poison.
            let expected = vec![ExpectedFinding {
                class: "maple",
                addr: None,
            }];
            (AppliedInjection::StackRot(sr), expected)
        }
        InjectionSpec::DirtyPipe => {
            let dp = apply_dirty_pipe(w);
            (AppliedInjection::DirtyPipe(dp), Vec::new())
        }
    }
}

/// The built-in corpus: every scenario the replay matrix, property tests
/// and `corpus_bench` cover. Three clean scale rungs (~100 / ~1k / ~10k
/// tasks) prove scoped extraction stays sublinear; the fault entries
/// re-express the CVE case studies and the newer fault kinds as data.
pub fn corpus() -> Vec<ScenarioSpec> {
    let base = WorkloadConfig::default();
    let spec =
        |name: &str, workload: WorkloadConfig, injections: Vec<InjectionSpec>| ScenarioSpec {
            name: name.into(),
            workload,
            injections,
        };
    vec![
        // Clean scale rungs. Beyond raw task count they widen the other
        // dials too: deeper maple trees (anon_vmas) and larger per-file
        // page caches, so "sublinear" is not an artifact of one axis.
        spec(
            "clean-100",
            WorkloadConfig {
                processes: 47,
                anon_vmas: 6,
                ..base.clone()
            },
            vec![],
        ),
        spec(
            "clean-1k",
            WorkloadConfig {
                processes: 500,
                files_per_process: 4,
                pages_per_file: 12,
                anon_vmas: 8,
                ..base.clone()
            },
            vec![],
        ),
        spec(
            "clean-10k",
            WorkloadConfig {
                processes: 5000,
                ..base.clone()
            },
            vec![],
        ),
        // Declarative bug injections (one per checker class).
        spec(
            "uaf-list",
            base.clone(),
            vec![InjectionSpec::Fault {
                kind: FaultKind::ListNodePoison,
                seed: 0xa11,
            }],
        ),
        spec(
            "refcount-leak",
            base.clone(),
            vec![InjectionSpec::Fault {
                kind: FaultKind::RefcountZero,
                seed: 0x0f1,
            }],
        ),
        spec(
            "dangling-rb",
            base.clone(),
            vec![InjectionSpec::Fault {
                kind: FaultKind::RbNodeDangle,
                seed: 0x1b,
            }],
        ),
        spec(
            "xarray-corrupt",
            base.clone(),
            vec![InjectionSpec::Fault {
                kind: FaultKind::XarraySlotGarbage,
                seed: 0xa7,
            }],
        ),
        spec(
            "stale-pid",
            WorkloadConfig {
                processes: 9,
                ..base.clone()
            },
            vec![InjectionSpec::Fault {
                kind: FaultKind::PidLinkStale,
                seed: 0x91d,
            }],
        ),
        spec(
            "maple-dangle",
            base.clone(),
            vec![InjectionSpec::Fault {
                kind: FaultKind::MapleEnodeDangle,
                seed: 0x3a,
            }],
        ),
        // The two hand-built CVE case studies, now corpus data.
        spec(
            "cve-2023-3269-stackrot",
            base.clone(),
            vec![InjectionSpec::StackRot { expire_grace: true }],
        ),
        spec(
            "cve-2022-0847-dirty-pipe",
            base,
            vec![InjectionSpec::DirtyPipe],
        ),
    ]
}

/// Look up a corpus scenario by name.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    corpus().into_iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------
// CVE state constructors (moved here from `scenarios`, which now wraps
// them — the corpus is the single source of bug-injection logic).

/// Build the StackRot state in process 0's address space (see
/// [`crate::scenarios`] for the CVE background).
pub(crate) fn apply_stackrot(w: &mut Workload) -> StackRot {
    let t = w.types;
    let kb = &mut w.kb;
    let leader = w.roots.leaders[0];
    let (mm_off, _) = kb.types.field_path(t.task.task_struct, "mm").unwrap();
    let mm = kb.mem.read_uint(leader + mm_off, 8).unwrap();
    let (root_off, _) = kb
        .types
        .field_path(t.mm.mm_struct, "mm_mt.ma_root")
        .unwrap();
    let root = kb.mem.read_uint(mm + root_off, 8).unwrap();
    assert!(maple::xa_is_node(root), "expected a multi-node tree");

    // Find the first leaf under the root.
    let mut enode = root;
    while !maple::ma_is_leaf(maple::mte_node_type(enode)) {
        let node = maple::mte_to_node(enode);
        // arange_64 slots start after parent + 9 pivots.
        let slot0 = node + 8 + 8 * (maple::MAPLE_ARANGE64_SLOTS - 1);
        enode = kb.mem.read_uint(slot0, 8).unwrap();
    }
    let victim = maple::mte_to_node(enode);

    // The node's union rcu_head lives at offset 8 (after `pad`).
    let (rcu_off, _) = kb.types.field_path(t.maple.maple_node, "prcu.rcu").unwrap();
    let rcu_head = victim + rcu_off;

    // CPU 0 defers the free; note this *corrupts* the node's slot[0..2]
    // area exactly like ma_free_rcu does in the real kernel.
    let rcu_state = rcu::RcuState {
        base: kb.symbols.lookup("rcu_data").unwrap().addr,
        size: kb.types.size_of(t.rcu.rcu_data),
    };
    rcu::call_rcu(kb, &t.rcu, &rcu_state, 0, rcu_head, "mt_free_rcu");

    StackRot {
        mm,
        victim_node: victim,
        rcu_head,
        free_cpu: 0,
        reader_cpu: 1,
    }
}

/// Expire the RCU grace period for a StackRot victim: pop the callback
/// and slab-poison the node, arming the use-after-free.
pub(crate) fn expire_stackrot(w: &mut Workload, sr: &StackRot) {
    let t = w.types;
    let kb = &mut w.kb;
    // Pop the callback from the freeing CPU's list (rcu_do_batch).
    let rcu_state = rcu::RcuState {
        base: kb.symbols.lookup("rcu_data").unwrap().addr,
        size: kb.types.size_of(t.rcu.rcu_data),
    };
    let rd = rcu_state.cpu(sr.free_cpu);
    let (head_off, _) = kb.types.field_path(t.rcu.rcu_data, "cblist.head").unwrap();
    let next = kb.mem.read_uint(sr.rcu_head, 8).unwrap_or(0);
    let head = kb.mem.read_uint(rd + head_off, 8).unwrap();
    if head == sr.rcu_head {
        kb.mem.write_uint(rd + head_off, 8, next);
    }
    // kmem_cache_free with SLAB poisoning: the node's 256 bytes are
    // overwritten with POISON_FREE (0x6b), like a debug kernel recycling
    // the object. (Unmapping the page would also fault the *neighboring*
    // slab objects, which a recycled slab page does not do.)
    kb.mem.write(sr.victim_node, &[0x6b; 256]);
}

/// Build the Dirty Pipe state: `splice` moved a page of `test.txt` into
/// process 0's pipe ring zero-copy, and `copy_page_to_iter_pipe` left
/// `PIPE_BUF_FLAG_CAN_MERGE` set.
pub(crate) fn apply_dirty_pipe(w: &mut Workload) -> DirtyPipe {
    let t = w.types;
    let kb = &mut w.kb;
    let file = w.roots.test_txt_file;
    assert_ne!(file, 0, "workload must have opened test.txt");

    // First page of the file's page cache.
    let (f_mapping_off, _) = kb.types.field_path(t.vfs.file, "f_mapping").unwrap();
    let mapping = kb.mem.read_uint(file + f_mapping_off, 8).unwrap();
    let (i_pages_off, _) = kb.types.field_path(t.vfs.address_space, "i_pages").unwrap();
    let page = crate::pagecache::xa_load(kb, &t.page, mapping + i_pages_off, 0);
    assert_ne!(page, 0, "test.txt must have a cached page");

    // Overwrite the pipe's buffer 0: zero-copy alias + CAN_MERGE.
    let pipe = w.roots.pipes[0];
    let (bufs_off, _) = kb.types.field_path(t.pipe.pipe_inode_info, "bufs").unwrap();
    let ring = kb.mem.read_uint(pipe + bufs_off, 8).unwrap();
    {
        let mut wbuf = kb.obj(ring, t.pipe.pipe_buffer);
        wbuf.set("page", page).unwrap();
        wbuf.set("offset", 0).unwrap();
        wbuf.set("len", 4096).unwrap();
        wbuf.set("flags", PIPE_BUF_FLAG_CAN_MERGE).unwrap();
    }

    DirtyPipe {
        file,
        shared_page: page,
        pipe,
        buf_index: 0,
        task: w.roots.leaders[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_the_promised_shape() {
        let specs = corpus();
        assert!(specs.len() >= 8, "corpus must hold >= 8 scenarios");
        let clean = specs.iter().filter(|s| s.injections.is_empty()).count();
        assert!(clean >= 3, "need >= 3 clean scale rungs");
        let mut kinds: Vec<&str> = specs
            .iter()
            .flat_map(|s| s.injections.iter())
            .map(|inj| match inj {
                InjectionSpec::Fault { kind, .. } => kind.name(),
                InjectionSpec::StackRot { .. } => "stackrot",
                InjectionSpec::DirtyPipe => "dirty-pipe",
            })
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert!(
            kinds.len() >= 5,
            "need >= 5 distinct fault kinds: {kinds:?}"
        );
        // Names are unique — they double as fixture file stems.
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "scenario names must be unique");
    }

    #[test]
    fn every_spec_round_trips_through_json() {
        for spec in corpus() {
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json).unwrap();
            assert_eq!(back, spec, "round-trip must be lossless: {json}");
            assert_eq!(
                back.fingerprint(),
                spec.fingerprint(),
                "fingerprints are content-stable"
            );
        }
        // Distinct specs have distinct fingerprints.
        let fps: std::collections::HashSet<u64> =
            corpus().iter().map(|s| s.fingerprint()).collect();
        assert_eq!(fps.len(), corpus().len());
    }

    #[test]
    fn build_is_deterministic_and_applies_in_order() {
        let spec = by_name("uaf-list").unwrap();
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.expected, b.expected);
        match (&a.applied[0], &b.applied[0]) {
            (AppliedInjection::Fault(x), AppliedInjection::Fault(y)) => {
                assert_eq!(x.addr, y.addr);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scale_rungs_hit_their_populations() {
        assert_eq!(by_name("clean-100").unwrap().tasks(), 101);
        assert_eq!(by_name("clean-1k").unwrap().tasks(), 1007);
        assert_eq!(by_name("clean-10k").unwrap().tasks(), 10007);
    }

    #[test]
    fn generated_roots_survive_a_tick() {
        // The tick mutator must work over any generated population, not
        // just the paper's 5x2 default.
        let spec = by_name("stale-pid").unwrap();
        let built = ScenarioSpec {
            injections: vec![],
            ..spec
        }
        .build();
        let (mut img, _, roots) = built.workload.finish();
        let r1 = crate::tick::tick(&mut img, &roots, 1);
        let r2 = crate::tick::tick(&mut img, &roots, 2);
        assert_eq!(r1.ran, roots.leaders[0]);
        assert!(r2.vruntime > r1.vruntime);
    }

    #[test]
    fn bad_specs_fail_loudly() {
        assert!(ScenarioSpec::from_json("not json").is_err());
        assert!(ScenarioSpec::from_json("{}").is_err());
        let json = r#"{"name":"x","workload":{"processes":1,"extra_threads":0,
            "files_per_process":1,"pages_per_file":1,"anon_vmas":1,"kthreads":0,
            "seed":1},"injections":[{"fault":"no-such-kind"}]}"#;
        assert!(ScenarioSpec::from_json(json)
            .unwrap_err()
            .contains("no-such-kind"));
    }
}
