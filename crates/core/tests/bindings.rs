//! A name a program bound is never trusted beyond the tables it was
//! bound against.
//!
//! Programs are parsed once per session and keep, next to each name,
//! what the name resolved to. A stop may change the type registry or the
//! symbol table, and one parsed program may run against two images; in
//! both cases the next walk must equal a walk of a fresh parse.

use ksim::workload::{build, WorkloadConfig};
use ksim::KernelImage;
use vbridge::{LatencyProfile, Target};
use visualinux::{figures, helpers, Session};

/// A walk of `program` over `img`: the graph's JSON, or the error.
fn walk(img: &KernelImage, program: &viewcl::Program) -> Result<String, String> {
    let target = Target::new(&img.mem, &img.types, &img.symbols, LatencyProfile::free());
    let helpers = helpers::registry();
    let mut interp = viewcl::Interp::new(&target, &helpers);
    match interp.run(program) {
        Ok(()) => Ok(interp.into_graph().to_json()),
        Err(e) => Err(e.to_string()),
    }
}

#[test]
fn a_constant_defined_at_a_stop_shadows_the_symbol_a_cached_program_bound() {
    let src = "b = Box [ Text j: ${jiffies} ]\nplot @b";
    let cfg = WorkloadConfig::default();
    let define = |img: &mut KernelImage| img.types.define_const("jiffies", 4242);
    let mut cached = Session::builder(build(&cfg)).attach().expect("live attach");
    let (before, _) = cached.extract(src).expect("the symbol extracts");
    cached.stop_event(define).expect("a live session stops");
    let (after, _) = cached.extract(src).expect("the constant extracts");
    let mut fresh = Session::builder(build(&cfg)).attach().expect("live attach");
    fresh.stop_event(define).expect("a live session stops");
    let (want, _) = fresh.extract(src).expect("the constant extracts");
    assert_eq!(after.to_json(), want.to_json());
    assert_ne!(before.to_json(), after.to_json(), "the constant shows");
    assert!(after.to_json().contains("4242"));
}

#[test]
fn one_parsed_program_walks_two_images_as_fresh_parses_do() {
    let images: Vec<KernelImage> = [1, 42]
        .into_iter()
        .map(|seed| {
            let cfg = WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            };
            build(&cfg).finish().0
        })
        .collect();
    for fig in figures::all() {
        let program = viewcl::parse_program(fig.viewcl).expect("a library figure parses");
        for round in 0..2 {
            for (img, seed) in images.iter().zip([1, 42]) {
                let fresh = viewcl::parse_program(fig.viewcl).expect("it parses again");
                assert_eq!(
                    walk(img, &program),
                    walk(img, &fresh),
                    "{} at seed {seed}, round {round}",
                    fig.id
                );
            }
        }
    }
}
