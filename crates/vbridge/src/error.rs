//! Bridge error type.

use crate::backend::BackendError;

/// Stable classification of a [`BridgeError`].
///
/// `kind()` gives callers a match-friendly tag that stays stable even as
/// variants grow payload fields; dashboards and tests should branch on
/// this rather than on `Display` text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// A target memory access failed.
    Mem,
    /// A type-system operation failed.
    Type,
    /// A C expression failed to parse.
    Parse,
    /// A C expression parsed but could not be evaluated.
    Eval,
    /// An identifier did not resolve.
    UnknownIdent,
    /// A called function is not a registered helper.
    UnknownHelper,
    /// The wire backend itself failed (e.g. replay divergence).
    Capture,
}

impl ErrorKind {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Mem => "mem",
            ErrorKind::Type => "type",
            ErrorKind::Parse => "parse",
            ErrorKind::Eval => "eval",
            ErrorKind::UnknownIdent => "unknown-ident",
            ErrorKind::UnknownHelper => "unknown-helper",
            ErrorKind::Capture => "capture",
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How much of a malformed C expression a parse error echoes. The text
/// can come from any wire client, so a longer one is cut here and the
/// error's byte offset says where in it the parser stopped.
pub(crate) const PARSE_ECHO_BYTES: usize = 64;

/// Errors surfaced while debugging the target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeError {
    /// A target memory access failed (e.g. a dangling pointer).
    Mem(kmem::MemError),
    /// A type-system operation failed.
    Type(ktypes::TypeError),
    /// A C expression failed to parse.
    Parse {
        /// The offending expression text, or as much of it as the error
        /// echoes: past [`PARSE_ECHO_BYTES`], one more character, which
        /// shows the text was cut.
        expr: String,
        /// Byte offset of the error within `expr`.
        at: usize,
        /// What went wrong.
        msg: String,
    },
    /// A C expression parsed but could not be evaluated.
    Eval(String),
    /// An identifier did not resolve to a symbol, constant or binding.
    UnknownIdent(String),
    /// A called function is not a registered helper.
    UnknownHelper(String),
    /// The wire backend failed: a replay read diverged from or ran past
    /// its capture. Distinct from [`BridgeError::Mem`] — the *target*
    /// did not fault, the tooling did.
    Capture(String),
}

impl BridgeError {
    /// The stable [`ErrorKind`] of this error.
    pub fn kind(&self) -> ErrorKind {
        match self {
            BridgeError::Mem(_) => ErrorKind::Mem,
            BridgeError::Type(_) => ErrorKind::Type,
            BridgeError::Parse { .. } => ErrorKind::Parse,
            BridgeError::Eval(_) => ErrorKind::Eval,
            BridgeError::UnknownIdent(_) => ErrorKind::UnknownIdent,
            BridgeError::UnknownHelper(_) => ErrorKind::UnknownHelper,
            BridgeError::Capture(_) => ErrorKind::Capture,
        }
    }
}

impl std::fmt::Display for BridgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgeError::Mem(e) => write!(f, "target memory error: {e}"),
            BridgeError::Type(e) => write!(f, "type error: {e}"),
            BridgeError::Parse { expr, at, msg } => {
                if expr.len() <= PARSE_ECHO_BYTES {
                    write!(f, "parse error in `{expr}`: {msg}")
                } else {
                    write!(
                        f,
                        "parse error in `{}…` {}: {msg}",
                        &expr[..expr.floor_char_boundary(PARSE_ECHO_BYTES)],
                        vtrace::diag::at_byte(*at)
                    )
                }
            }
            BridgeError::Eval(msg) => write!(f, "evaluation error: {msg}"),
            BridgeError::UnknownIdent(n) => write!(f, "unknown identifier `{n}`"),
            BridgeError::UnknownHelper(n) => write!(f, "unknown helper function `{n}`"),
            BridgeError::Capture(msg) => write!(f, "capture error: {msg}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<kmem::MemError> for BridgeError {
    fn from(e: kmem::MemError) -> Self {
        BridgeError::Mem(e)
    }
}

impl From<ktypes::TypeError> for BridgeError {
    fn from(e: ktypes::TypeError) -> Self {
        BridgeError::Type(e)
    }
}

impl From<BackendError> for BridgeError {
    fn from(e: BackendError) -> Self {
        match e {
            BackendError::Mem(m) => BridgeError::Mem(m),
            BackendError::Capture(msg) => BridgeError::Capture(msg),
        }
    }
}

/// Result alias for bridge operations.
pub type Result<T> = std::result::Result<T, BridgeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_stable_kind() {
        let cases: Vec<(BridgeError, ErrorKind)> = vec![
            (
                BridgeError::Mem(kmem::MemError::Unmapped { addr: 0 }),
                ErrorKind::Mem,
            ),
            (
                BridgeError::Parse {
                    expr: "x".into(),
                    at: 0,
                    msg: "bad".into(),
                },
                ErrorKind::Parse,
            ),
            (BridgeError::Eval("e".into()), ErrorKind::Eval),
            (
                BridgeError::UnknownIdent("i".into()),
                ErrorKind::UnknownIdent,
            ),
            (
                BridgeError::UnknownHelper("h".into()),
                ErrorKind::UnknownHelper,
            ),
            (BridgeError::Capture("c".into()), ErrorKind::Capture),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind, "{err}");
        }
    }

    #[test]
    fn parse_errors_echo_at_most_64_bytes() {
        let short = "a".repeat(64);
        let e = BridgeError::Parse {
            expr: short.clone(),
            at: 3,
            msg: "bad".into(),
        };
        assert_eq!(e.to_string(), format!("parse error in `{short}`: bad"));
        // The cut lands on a character boundary: `é` spans bytes 63–64.
        let long = format!("{}é{}", "a".repeat(63), "b".repeat(2 << 20));
        let e = BridgeError::Parse {
            expr: long,
            at: 1_000_000,
            msg: "bad".into(),
        };
        assert_eq!(
            e.to_string(),
            format!("parse error in `{}…` at byte 1000000: bad", "a".repeat(63))
        );
    }

    #[test]
    fn backend_errors_convert_preserving_payload() {
        let e: BridgeError = BackendError::Mem(kmem::MemError::Unmapped { addr: 7 }).into();
        assert_eq!(e, BridgeError::Mem(kmem::MemError::Unmapped { addr: 7 }));
        let e: BridgeError = BackendError::Capture("boom".into()).into();
        assert_eq!(e.kind(), ErrorKind::Capture);
        assert!(format!("{e}").contains("boom"));
    }
}
