//! ViewCL — the View Construction Language (paper §2.2, §4.1).
//!
//! ViewCL programs declare *what to plot*: `Box` definitions prune a C
//! struct down to the fields of interest (with multiple inheritable
//! views), dot-paths flatten indirection chains, and container
//! constructors (`List`, `RBTree`, `Array`, `XArray`, `HList`) distill
//! node-pointer structures into sequences/sets. Evaluating a program over
//! a [`vbridge::Target`] traverses the live object graph and produces a
//! [`vgraph::Graph`] for ViewQL and the visualizer.
//!
//! The concrete syntax follows the paper's listings:
//!
//! ```text
//! define Task as Box<task_struct> [
//!     Text pid, comm
//!     Text ppid: parent.pid
//!     Text<string> state: ${task_state(@this)}
//!     Text se.vruntime
//! ]
//! root = ${cpu_rq(0)->cfs.tasks_timeline}
//! sched_tree = RBTree(@root).forEach |node| {
//!     yield Task<task_struct.se.run_node>(@node)
//! }
//! plot @sched_tree
//! ```

mod ast;
mod decor;
mod interp;
mod lexer;
mod parser;
mod stdlib;

pub use ast::*;
pub use decor::{Decorator, FlagSets};
pub use interp::{Interp, Trail, Value};
pub use parser::parse_program;

/// Errors produced while parsing or evaluating ViewCL.
#[derive(Debug, Clone, PartialEq)]
pub enum VclError {
    /// Lexing/parsing failed.
    Parse {
        /// 1-based source line.
        line: u32,
        /// Byte offset of the offending token/character.
        pos: usize,
        /// Description.
        msg: String,
    },
    /// Evaluation failed.
    Eval(String),
    /// A box would nest deeper than the interpreter's cap, as one that
    /// links each element of a long kernel list to the next does. Unlike
    /// other evaluation errors, it is not plotted as a null link.
    TooDeep {
        /// The box definition.
        def: String,
        /// The address of the box that would nest too deep.
        addr: u64,
        /// How many boxes may nest.
        cap: usize,
    },
    /// A bridge (target/expression) operation failed.
    Bridge(vbridge::BridgeError),
}

impl std::fmt::Display for VclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VclError::Parse { line, pos, msg } => write!(
                f,
                "viewcl parse error {} (line {line}): {msg}",
                vtrace::diag::at_byte(*pos)
            ),
            VclError::Eval(m) => write!(f, "viewcl evaluation error: {m}"),
            VclError::TooDeep { def, addr, cap } => write!(
                f,
                "viewcl evaluation error: box `{def}` at {addr:#x} would nest \
                 deeper than {cap} boxes"
            ),
            VclError::Bridge(e) => write!(f, "viewcl: {e}"),
        }
    }
}

impl std::error::Error for VclError {}

impl From<vbridge::BridgeError> for VclError {
    fn from(e: vbridge::BridgeError) -> Self {
        VclError::Bridge(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, VclError>;

/// Count the non-blank, non-comment source lines of a ViewCL program —
/// the LoC metric of the paper's Table 2.
pub fn loc_of(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}
