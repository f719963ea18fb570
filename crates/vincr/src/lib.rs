//! Incremental pane re-extraction between stops: retired.
//!
//! The keep → patch → walk ladder this crate once decided lives in
//! `visualinux::Session` (`crates/core/src/session.rs`): at every resume
//! the session asks each retained pane's read index which of its boxes
//! read a byte the backend reports dirty (`vbridge::ReadIndex::owners_of`),
//! and a pane none of whose boxes did is kept with no fetch. DESIGN.md
//! §16 describes the ladder and its proofs.
//!
//! The package stays, empty, because the benchmark's own lock file
//! (`perfbench/Cargo.lock`) lists it; it can go when that file is next
//! regenerated.
