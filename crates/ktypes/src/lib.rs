//! C type system and layout engine for the simulated kernel image.
//!
//! `ktypes` plays the role DWARF debug info plays for GDB: it describes the
//! in-memory layout of every kernel object (structs, unions, enums, arrays,
//! pointers, bitfields) so that the debugger bridge can evaluate C
//! expressions like `p->mm->mm_mt.ma_root` against raw target memory.
//!
//! Layouts follow the System V x86-64 ABI rules used by the Linux kernel:
//! little-endian, 8-byte pointers, natural alignment, struct size rounded up
//! to the maximum member alignment.

mod bind;
mod decode;
mod layout;
mod prim;
mod registry;
mod ty;
mod value;

pub use bind::{Name, Stamp};
pub use decode::{read_int, read_uint, write_int, BitField};
pub use layout::StructBuilder;
pub use prim::Prim;
pub use registry::{EnumConst, TypeRegistry};
pub use ty::{EnumDef, Field, StructDef, Type, TypeId, TypeKind};
pub use value::CValue;

/// Size of a pointer on the simulated target (x86-64), in bytes.
pub const PTR_SIZE: u64 = 8;

/// Errors produced by the type system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A named type was not found in the registry.
    UnknownType(String),
    /// A field path component does not exist on the given struct/union.
    UnknownField { ty: String, field: String },
    /// A field access was attempted on a non-aggregate type.
    NotAggregate(String),
    /// An operation required an integer type.
    NotInteger(String),
    /// An operation required a pointer type.
    NotPointer(String),
    /// Array index out of range.
    IndexOutOfRange { len: usize, index: usize },
    /// An enum constant was not found.
    UnknownEnumConst(String),
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeError::UnknownType(n) => write!(f, "unknown type `{n}`"),
            TypeError::UnknownField { ty, field } => {
                write!(f, "type `{ty}` has no field `{field}`")
            }
            TypeError::NotAggregate(n) => write!(f, "type `{n}` is not a struct or union"),
            TypeError::NotInteger(n) => write!(f, "type `{n}` is not an integer type"),
            TypeError::NotPointer(n) => write!(f, "type `{n}` is not a pointer type"),
            TypeError::IndexOutOfRange { len, index } => {
                write!(f, "index {index} out of range for array of length {len}")
            }
            TypeError::UnknownEnumConst(n) => write!(f, "unknown enum constant `{n}`"),
        }
    }
}

impl std::error::Error for TypeError {}

/// Convenience result alias for type-system operations.
pub type Result<T> = std::result::Result<T, TypeError>;
