//! Patched panes: when a stop changes what some boxes of a retained
//! pane read, a cached or incremental session evaluates only those
//! boxes' views again and puts them into a copy of the pane (a patch),
//! or walks the pane in full when a patch cannot stand in for a walk.
//! Three sessions take every stop — plain cached, incremental cached and
//! incremental uncached (whose patches come from the dirty sets) — and
//! every figure each extracts must be byte-identical to a fresh
//! uncached walk of the same state, or fail with the same error:
//!
//! * tick stops change only text: every tick patches fig3-4 (2 of its
//!   22 boxes) and fig7-1 (2 of 7) on every session, and nothing falls
//!   back, at seeds 1 and 42;
//! * a relinked child list and a repointed link change what fig3-4's
//!   boxes instantiate: it falls back;
//! * a read a virtual box owns (fig7-1's RQ `nr_running`) and a
//!   top-level read (`current_task`, which fig9-2 and others read)
//!   cannot be patched: those panes fall back;
//! * a box whose text shows a `where` binding is patched with the
//!   binding evaluated again;
//! * 210 stops each write seeded random bytes into a range one figure's
//!   walk was served (undoing the last stop's bytes first): panes patch
//!   or fall back, and both happen.
//!
//! Run with `--nocapture` to print the counts.

use ksim::workload::{build, WorkloadConfig};
use ksim::KernelImage;
use vbridge::{BlockCache, CacheConfig, LatencyProfile, ReadIndex, ReadRecord, Target};
use visualinux::{figures, Session};

/// What one extraction did with its pane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Served the retained graph.
    Kept,
    /// Evaluated this many boxes again.
    Patched(u64),
    /// Walked, although a graph was retained.
    FellBack,
    /// Walked with no graph retained, or failed as the fresh walk did.
    Walked,
}

/// The sessions under test and the fresh one they must match.
struct Sessions {
    under: Vec<(&'static str, Session)>,
    fresh: Session,
}

impl Sessions {
    fn attach(cfg: &WorkloadConfig) -> Sessions {
        let kgdb = || Session::builder(build(cfg)).profile(LatencyProfile::kgdb_rpi400());
        let cached = CacheConfig::default();
        let under = vec![
            ("plain", kgdb().cache(cached).attach().expect("attach")),
            (
                "incremental",
                kgdb().cache(cached).incremental().attach().expect("attach"),
            ),
            (
                "incremental uncached",
                kgdb().incremental().attach().expect("attach"),
            ),
        ];
        let fresh = Session::builder(build(cfg)).attach().expect("attach");
        let sessions = Sessions { under, fresh };
        sessions.extract_all("the first walk");
        sessions
    }

    /// Take the same stop on every session.
    fn stop(&mut self, mutate: &dyn Fn(&mut KernelImage)) {
        for (_, s) in &mut self.under {
            s.stop_event(mutate)
                .expect("a live session takes stop events");
        }
        self.fresh.stop_event(mutate).expect("live");
    }

    /// Extract every figure on every session, check each against the
    /// fresh walk, and return what each session did, by figure.
    fn extract_all(&self, at: &str) -> Vec<Vec<Outcome>> {
        let want: Vec<_> = figures::all()
            .iter()
            .map(|fig| {
                self.fresh
                    .extract(fig.viewcl)
                    .map(|(g, _)| g.to_json())
                    .map_err(|e| e.to_string())
            })
            .collect();
        self.under
            .iter()
            .map(|(name, s)| {
                figures::all()
                    .iter()
                    .zip(&want)
                    .map(|(fig, want)| {
                        let got = s.extract_shared(fig.viewcl);
                        let got_json = got.as_ref().map(|(g, _)| g.to_json());
                        let got_json = got_json.map_err(|e| e.to_string());
                        assert_eq!(&got_json, want, "{at}: {name} {}", fig.id);
                        match got.map(|(_, stats)| stats.target) {
                            Ok(t) if t.vincr_hits == 1 => Outcome::Kept,
                            Ok(t) if t.reevaluated > 0 => Outcome::Patched(t.reevaluated),
                            Ok(t) if t.vincr_rewalks == 1 => Outcome::FellBack,
                            _ => Outcome::Walked,
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Position of figure `id` in library order.
fn fig(id: &str) -> usize {
    let at = figures::all().iter().position(|f| f.id == id);
    at.unwrap_or_else(|| panic!("figure {id}"))
}

/// The offset of `path` in C struct `ty`.
fn offset(img: &KernelImage, ty: &str, path: &str) -> u64 {
    let ty = img.types.find(ty).expect("type");
    img.types.field_path(ty, path).expect("field").0
}

#[test]
fn tick_stops_patch_two_boxes_of_the_two_task_panes() {
    for seed in [1u64, 42] {
        let cfg = WorkloadConfig {
            seed,
            ..WorkloadConfig::default()
        };
        let mut sessions = Sessions::attach(&cfg);
        let roots = sessions.fresh.roots.clone();
        for step in 1..=4 {
            sessions.stop(&|img: &mut KernelImage| {
                ksim::tick::tick(img, &roots, step);
            });
            let at = format!("seed {seed}, tick {step}");
            for (outcomes, (name, s)) in sessions.extract_all(&at).iter().zip(&sessions.under) {
                for (f, outcome) in figures::all().iter().zip(outcomes) {
                    let want = match f.id {
                        "fig3-4" | "fig7-1" => Outcome::Patched(2),
                        _ => Outcome::Kept,
                    };
                    assert_eq!(*outcome, want, "{at}: {name} {}", f.id);
                }
                // The patched panes are 22 and 7 boxes.
                let boxes = |id: &str| {
                    let src = figures::by_id(id).expect("figure").viewcl;
                    s.extract_shared(src).expect("extracts").0.len()
                };
                assert_eq!((boxes("fig3-4"), boxes("fig7-1")), (22, 7), "{at}");
            }
        }
    }
}

#[test]
fn a_relinked_list_or_a_repointed_link_falls_back() {
    let cfg = WorkloadConfig::default();
    let mut sessions = Sessions::attach(&cfg);
    let roots = sessions.fresh.roots.clone();
    let img = sessions.fresh.image();
    let children = offset(img, "task_struct", "children");
    let mm = offset(img, "task_struct", "mm");
    // A parent with at least two children: swap the first two.
    let read = |img: &KernelImage, addr: u64| img.mem.read_uint(addr, 8).expect("mapped");
    let parent = roots
        .all_tasks
        .iter()
        .copied()
        .find(|&t| {
            let head = t + children;
            let first = read(img, head);
            first != head && read(img, first) != head
        })
        .expect("a task with two children");
    let swap = move |img: &mut KernelImage| {
        let head = parent + children;
        let a = img.mem.read_uint(head, 8).unwrap();
        let b = img.mem.read_uint(a, 8).unwrap();
        let c = img.mem.read_uint(b, 8).unwrap();
        // head <-> a <-> b <-> c  becomes  head <-> b <-> a <-> c.
        for (node, next, prev) in [(head, b, 0), (b, a, head), (a, c, b), (c, 0, a)] {
            if next != 0 {
                img.mem.write_uint(node, 8, next);
            }
            if prev != 0 {
                img.mem.write_uint(node + 8, 8, prev);
            }
        }
    };
    // Two user tasks with address spaces of their own: the first comes
    // to show the second's.
    let (t1, t2) = (roots.leaders[0], roots.leaders[1]);
    let repoint = move |img: &mut KernelImage| {
        let other = img.mem.read_uint(t2 + mm, 8).unwrap();
        img.mem.write_uint(t1 + mm, 8, other);
    };
    let fig3_4 = fig("fig3-4");
    for (what, stop) in [
        ("relinked children", &swap as &dyn Fn(&mut KernelImage)),
        ("repointed mm", &repoint),
    ] {
        sessions.stop(stop);
        for (outcomes, (name, _)) in sessions.extract_all(what).iter().zip(&sessions.under) {
            assert_eq!(outcomes[fig3_4], Outcome::FellBack, "{what}: {name}");
        }
    }
}

#[test]
fn a_read_of_a_virtual_box_or_the_top_level_falls_back() {
    let cfg = WorkloadConfig::default();
    let mut sessions = Sessions::attach(&cfg);
    let roots = sessions.fresh.roots.clone();
    let img = sessions.fresh.image();
    // fig7-1's `Box RQ [ Text nr_running: … ]` is a virtual box.
    let nr_running = roots.rq_base + offset(img, "rq", "nr_running");
    let current = img
        .symbols
        .lookup("current_task")
        .expect("current_task")
        .addr;
    let other = roots.leaders[1];
    let bump = move |img: &mut KernelImage| {
        let n = img.mem.read_uint(nr_running, 4).unwrap();
        img.mem.write_uint(nr_running, 4, n + 1);
    };
    let switch = move |img: &mut KernelImage| {
        img.mem.write_uint(current, 8, other);
    };
    let stops = [
        (
            "RQ nr_running",
            &bump as &dyn Fn(&mut KernelImage),
            "fig7-1",
        ),
        ("current_task", &switch, "fig9-2"),
    ];
    for (what, stop, falls_back) in stops {
        sessions.stop(stop);
        for (outcomes, (name, _)) in sessions.extract_all(what).iter().zip(&sessions.under) {
            let id = falls_back;
            assert_eq!(outcomes[fig(id)], Outcome::FellBack, "{what}: {name} {id}");
            let patched = outcomes.iter().filter(|o| matches!(o, Outcome::Patched(_)));
            assert_eq!(patched.count(), 0, "{what}: {name} {outcomes:?}");
        }
    }
}

/// Every task, each showing its vruntime through a `where` binding.
const BOUND: &str = r#"
define Task as Box<task_struct> [
    Text pid
    Text vruntime: @vr
] where {
    vr = ${@this.se.vruntime}
}
tasks = List(${&init_task.tasks}).forEach |n| {
    yield Task<task_struct.tasks>(@n)
}
plot @tasks
"#;

#[test]
fn a_patch_evaluates_where_bindings_again() {
    let cfg = WorkloadConfig::default();
    let mut sessions = Sessions::attach(&cfg);
    let roots = sessions.fresh.roots.clone();
    for (_, s) in &sessions.under {
        s.extract_shared(BOUND).expect("the program extracts");
    }
    for step in 1..=3 {
        sessions.stop(&|img: &mut KernelImage| {
            ksim::tick::tick(img, &roots, step);
        });
        let (want, _) = sessions.fresh.extract(BOUND).expect("the program extracts");
        for (name, s) in &sessions.under {
            let (got, stats) = s.extract_shared(BOUND).expect("the program extracts");
            // The tick changed one task's vruntime.
            assert_eq!(stats.target.reevaluated, 1, "tick {step}: {name}");
            assert_eq!(got.to_json(), want.to_json(), "tick {step}: {name}");
        }
    }
}

/// The ranges a walk of `src` on `session`'s image is served, merged:
/// the ranges whose bytes a snapshot holds.
fn served(session: &Session, src: &str) -> Vec<(u64, u64)> {
    let img = session.image();
    let cache = BlockCache::new(CacheConfig::default());
    let record = ReadRecord::default();
    let free = LatencyProfile::free();
    let mut target = Target::with_cache(&img.mem, &img.types, &img.symbols, free, &cache);
    target.record_reads(&record);
    let helpers = visualinux::helpers::registry();
    let program = viewcl::parse_program(src).expect("a figure parses");
    let mut interp = viewcl::Interp::new(&target, &helpers);
    let _ = interp.run(&program);
    let mut index = ReadIndex::default();
    target.end_walk(&mut index);
    index.served().collect()
}

/// A small seeded generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn random_bytes_in_served_ranges_patch_or_fall_back() {
    let cfg = WorkloadConfig::default();
    let mut sessions = Sessions::attach(&cfg);
    let all = figures::all();
    let ranges: Vec<Vec<(u64, u64)>> = all
        .iter()
        .map(|f| served(&sessions.fresh, f.viewcl))
        .collect();
    let mut rng = Rng(0x5eed);
    // The bytes the last stop overwrote, to put back first.
    let mut undo: Option<(u64, Vec<u8>)> = None;
    let (mut patched, mut fell_back, mut kept) = (0, 0, 0);
    let mut patched_boxes = 0;
    for stop in 0..210 {
        let f = stop % all.len();
        let (start, len) = ranges[f][rng.below(ranges[f].len() as u64) as usize];
        let at = start + rng.below(len);
        let n = (1 + rng.below(8)).min(start + len - at) as usize;
        let bytes: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
        // What the bytes are once the last stop's are put back.
        let mut old = vec![0u8; n];
        sessions
            .fresh
            .image()
            .mem
            .read(at, &mut old)
            .expect("served");
        if let Some((addr, bytes)) = &undo {
            for (i, b) in old.iter_mut().enumerate() {
                if let Some(back) = (at + i as u64).checked_sub(*addr) {
                    *b = bytes.get(back as usize).copied().unwrap_or(*b);
                }
            }
        }
        let back = undo.replace((at, old));
        sessions.stop(&|img: &mut KernelImage| {
            if let Some((addr, old)) = &back {
                img.mem.write(*addr, old);
            }
            img.mem.write(at, &bytes);
        });
        let what = format!("stop {stop}: {n} bytes at {at:#x} ({})", all[f].id);
        for outcomes in sessions.extract_all(&what) {
            for o in outcomes {
                match o {
                    Outcome::Patched(boxes) => {
                        patched += 1;
                        patched_boxes += boxes;
                    }
                    Outcome::FellBack => fell_back += 1,
                    Outcome::Kept => kept += 1,
                    Outcome::Walked => {}
                }
            }
        }
    }
    println!(
        "210 random stops: {patched} patches ({patched_boxes} boxes), \
         {fell_back} fallbacks, {kept} keeps"
    );
    assert!(
        patched > 0 && fell_back > 0,
        "{patched} patched, {fell_back} fell back"
    );
}
