//! Names bound once.
//!
//! A debugger resolves the same names over and over: every evaluation
//! of `p->se.vruntime` looks up the field `se` of `p`'s type, and every
//! `(struct task_struct *)x` finds the type by name. A parsed expression
//! keeps each name it uses as a [`Name`], which remembers what the name
//! last resolved to together with the [`Stamp`]s of the type registry
//! and symbol table it was resolved against. The tables are mutable (a
//! stop may define a symbol) and one parsed program may run against two
//! images, so a binding is reused only while both stamps still match.

use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One state of a mutable name table ([`crate::TypeRegistry`], or the
/// symbol table built on it). Stamps are unique in the process and a
/// table takes a fresh one on every mutation, so two tables, or two
/// states of one table, never share a stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp(u64);

impl Stamp {
    /// A stamp no table has had before.
    pub fn fresh() -> Stamp {
        // Uniqueness needs only the atomic increment; the counter
        // publishes no other data, so `Relaxed` suffices.
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Stamp(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Default for Stamp {
    fn default() -> Stamp {
        Stamp::fresh()
    }
}

/// A name as written in a program, with a cache of what it resolved to:
/// a `T` and the (type registry, symbol table) stamps it was resolved
/// under. The cache is invisible: `Debug`, `Clone` and `==` see only the
/// text, so parsed programs print and compare as before. It is boxed,
/// so a name is no larger than a `String` and the syntax trees that
/// hold names stay as small as they were.
pub struct Name<T> {
    text: Arc<str>,
    bound: Cell<Option<Box<Binding<T>>>>,
}

/// A cached binding and the table states it was made under.
struct Binding<T> {
    types: Stamp,
    symbols: Stamp,
    value: T,
}

impl<T> Name<T> {
    /// An unbound name.
    pub fn new(text: impl Into<Arc<str>>) -> Name<T> {
        Name {
            text: text.into(),
            bound: Cell::new(None),
        }
    }

    /// The shared text, for callers that keep the name (graph labels).
    pub fn text(&self) -> &Arc<str> {
        &self.text
    }

    /// Remember `value` as the binding under these table states,
    /// replacing the one before in place.
    pub fn bind(&self, types: Stamp, symbols: Stamp, value: T) {
        let binding = Binding {
            types,
            symbols,
            value,
        };
        let slot = match self.bound.take() {
            Some(mut old) => {
                *old = binding;
                old
            }
            None => Box::new(binding),
        };
        self.bound.set(Some(slot));
    }
}

impl<T: Clone> Name<T> {
    /// The binding made under exactly these table states, if any.
    pub fn bound(&self, types: Stamp, symbols: Stamp) -> Option<T> {
        let cached = self.bound.take();
        let hit = match &cached {
            Some(b) if b.types == types && b.symbols == symbols => Some(b.value.clone()),
            _ => None,
        };
        self.bound.set(cached);
        hit
    }

    /// The binding made under these table states, or else `resolve`'s
    /// answer, bound for next time. A failure is not bound, so a name
    /// that does not resolve fails again each time it is asked for.
    pub fn get_or_resolve<E>(
        &self,
        types: Stamp,
        symbols: Stamp,
        resolve: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        if let Some(value) = self.bound(types, symbols) {
            return Ok(value);
        }
        let value = resolve()?;
        self.bind(types, symbols, value.clone());
        Ok(value)
    }
}

impl<T> Deref for Name<T> {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

impl<T> fmt::Debug for Name<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text, f)
    }
}

impl<T> fmt::Display for Name<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl<T> Clone for Name<T> {
    fn clone(&self) -> Name<T> {
        Name {
            text: Arc::clone(&self.text),
            bound: Cell::new(None),
        }
    }
}

impl<T> PartialEq for Name<T> {
    fn eq(&self, other: &Name<T>) -> bool {
        self.text == other.text
    }
}

impl<T> PartialEq<&str> for Name<T> {
    fn eq(&self, other: &&str) -> bool {
        &*self.text == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_unique() {
        let (a, b) = (Stamp::fresh(), Stamp::default());
        assert_ne!(a, b);
    }

    #[test]
    fn a_binding_holds_only_under_its_stamps() {
        let (t1, t2, s) = (Stamp::fresh(), Stamp::fresh(), Stamp::fresh());
        let name: Name<u32> = Name::new("pid");
        assert_eq!(name.bound(t1, s), None);
        name.bind(t1, s, 7);
        assert_eq!(name.bound(t1, s), Some(7));
        assert_eq!(name.bound(t2, s), None, "another type registry");
        assert_eq!(name.bound(t1, t2), None, "another symbol table");
        name.bind(t2, s, 9);
        assert_eq!(name.bound(t1, s), None, "one binding is kept");
    }

    #[test]
    fn a_failure_is_not_bound() {
        let (t, s) = (Stamp::fresh(), Stamp::fresh());
        let name: Name<u32> = Name::new("x");
        assert_eq!(name.get_or_resolve(t, s, || Err("no x")), Err("no x"));
        assert_eq!(name.get_or_resolve(t, s, || Ok::<_, ()>(3)), Ok(3));
        assert_eq!(name.get_or_resolve(t, s, || Err("unused")), Ok(3));
    }

    #[test]
    fn the_cache_is_invisible() {
        let (t, s) = (Stamp::fresh(), Stamp::fresh());
        let a: Name<u32> = Name::new("comm");
        let b = a.clone();
        a.bind(t, s, 1);
        assert_eq!(a, b);
        assert_eq!(a, "comm");
        assert_eq!(format!("{a:?}"), format!("{:?}", "comm"));
        assert_eq!(a.clone().bound(t, s), None);
        assert_eq!(
            std::mem::size_of::<Name<(u64, u64, u64)>>(),
            std::mem::size_of::<String>()
        );
    }
}
