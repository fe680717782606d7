//! Interned identifier types for database objects, temporary variables and
//! transaction parameters.
//!
//! The paper distinguishes three name spaces:
//!
//! * database **objects** `x, y, z, ...` (the only state visible across
//!   transactions),
//! * **temporary variables** `x̂, ŷ, ...` local to a transaction,
//! * integer **parameters** `p, p0, ...` supplied at invocation time.
//!
//! All three are cheap-to-clone wrappers around reference-counted strings so
//! they can be used freely as map keys throughout the analysis and protocol
//! layers.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates a new identifier from anything string-like.
            pub fn new(name: impl AsRef<str>) -> Self {
                Self(Arc::from(name.as_ref()))
            }

            /// Returns the identifier text.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        // Sound: the derives above compare, order and hash the text alone.
        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self::new(s)
            }
        }
    };
}

id_type!(
    /// The name of a database object (`Obj` in the paper).
    ///
    /// Objects hold integer values; objects not present in a database have
    /// the default value `0`.
    ObjId
);

id_type!(
    /// A temporary program variable (`x̂` in the paper), local to a single
    /// transaction execution and never stored in the database.
    TempVar
);

id_type!(
    /// A formal integer parameter of a transaction.
    ParamId
);

impl ObjId {
    /// Builds the object id used to store slot `index` of the bounded array
    /// `base` (Appendix A: an array `a` of length `n` is the object set
    /// `{a0, a1, ..., a_{n-1}}`).
    pub fn array_slot(base: &str, index: usize) -> Self {
        Self::new(format!("{base}[{index}]"))
    }

    /// Builds the per-site delta object `d<x><site>` introduced by the
    /// remote-write transformation of Appendix B.
    pub fn delta(base: &ObjId, site: usize) -> Self {
        Self::new(format!("δ{}@{}", base.as_str(), site))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_compare_by_content() {
        assert_eq!(ObjId::new("x"), ObjId::from("x"));
        assert_ne!(ObjId::new("x"), ObjId::new("y"));
        assert_eq!(TempVar::new("t").as_str(), "t");
    }

    #[test]
    fn ids_hash_by_content() {
        let mut set = HashSet::new();
        set.insert(ObjId::new("x"));
        set.insert(ObjId::new("x"));
        set.insert(ObjId::new("y"));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_is_plain_name() {
        assert_eq!(ObjId::new("stock").to_string(), "stock");
        assert_eq!(ParamId::new("itemid").to_string(), "itemid");
    }

    #[test]
    fn array_slot_and_delta_naming() {
        let a3 = ObjId::array_slot("a", 3);
        assert_eq!(a3.as_str(), "a[3]");
        let d = ObjId::delta(&ObjId::new("x"), 2);
        assert_eq!(d.as_str(), "δx@2");
        assert_ne!(ObjId::delta(&ObjId::new("x"), 1), d);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [ObjId::new("b"), ObjId::new("a"), ObjId::new("c")];
        v.sort();
        let names: Vec<_> = v.iter().map(|o| o.as_str().to_string()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
