//! Integer databases with finite support (Section 2.1).
//!
//! A database `D` is a map from objects to integers with finite support:
//! objects not explicitly present have the default value `0`.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::ObjId;

/// A database: a finite map from [`ObjId`] to `i64`, all other objects being
/// implicitly `0`.
///
/// Ordered storage (`BTreeMap`) keeps iteration deterministic, which matters
/// for reproducible protocol runs and benchmarks.
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Database {
    entries: BTreeMap<ObjId, i64>,
}

impl Database {
    /// Creates an empty database (all objects 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a database from `(object, value)` pairs.
    pub fn from_pairs<I, K>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, i64)>,
        K: Into<ObjId>,
    {
        let mut db = Self::new();
        for (k, v) in pairs {
            db.set(k.into(), v);
        }
        db
    }

    /// The value of `obj` (0 if absent).
    pub fn get(&self, obj: &ObjId) -> i64 {
        self.entries.get(obj).copied().unwrap_or(0)
    }

    /// The value of the object called `name` (0 if absent), without
    /// building an [`ObjId`] for the lookup.
    pub fn get_by_name(&self, name: &str) -> i64 {
        self.entries.get(name).copied().unwrap_or(0)
    }

    /// Sets the value of `obj`. Setting an object to `0` removes it from the
    /// support so that databases compare equal regardless of how zeros were
    /// produced.
    pub fn set(&mut self, obj: ObjId, value: i64) {
        if value == 0 {
            self.entries.remove(&obj);
        } else {
            self.entries.insert(obj, value);
        }
    }

    /// Adds `delta` to the value of `obj`.
    pub fn add(&mut self, obj: ObjId, delta: i64) {
        let new = self.get(&obj) + delta;
        self.set(obj, new);
    }

    /// Returns true if the object is explicitly present (has a non-zero
    /// value).
    pub fn contains(&self, obj: &ObjId) -> bool {
        self.entries.contains_key(obj)
    }

    /// The number of objects in the support.
    pub fn support_len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when no object has a non-zero value.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the support in object order.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjId, i64)> {
        self.entries.iter().map(|(k, v)| (k, *v))
    }

    /// The objects in the support, in order.
    pub fn objects(&self) -> impl Iterator<Item = &ObjId> {
        self.entries.keys()
    }

    /// Merges `other` into `self`: every object in `other`'s support
    /// overwrites the corresponding value in `self`. Used when sites
    /// exchange updated objects during the protocol's cleanup phase.
    pub fn merge_from(&mut self, other: &Database) {
        for (k, v) in other.iter() {
            self.set(k.clone(), v);
        }
    }

    /// Restricts the database to objects satisfying the predicate — the
    /// `Π_i(D)` projection used in the proof of Theorem 3.8.
    pub fn project(&self, mut keep: impl FnMut(&ObjId) -> bool) -> Database {
        Database {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// Returns the set of objects on which `self` and `other` differ.
    pub fn diff(&self, other: &Database) -> Vec<ObjId> {
        let mut out = Vec::new();
        for (k, v) in self.iter() {
            if other.get(k) != v {
                out.push(k.clone());
            }
        }
        for (k, _) in other.iter() {
            if !self.contains(k) && other.get(k) != self.get(k) {
                out.push(k.clone());
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (k, v) in self.iter() {
            map.entry(&k.as_str(), &v);
        }
        map.finish()
    }
}

impl<K: Into<ObjId>> FromIterator<(K, i64)> for Database {
    fn from_iter<T: IntoIterator<Item = (K, i64)>>(iter: T) -> Self {
        Self::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_objects_default_to_zero() {
        let db = Database::new();
        assert_eq!(db.get(&ObjId::new("x")), 0);
        assert!(db.is_empty());
    }

    #[test]
    fn zero_writes_keep_support_canonical() {
        let mut a = Database::from_pairs([("x", 5)]);
        a.set(ObjId::new("x"), 0);
        let b = Database::new();
        assert_eq!(a, b);
        assert_eq!(a.support_len(), 0);
    }

    #[test]
    fn add_accumulates() {
        let mut db = Database::new();
        db.add(ObjId::new("x"), 3);
        db.add(ObjId::new("x"), -1);
        assert_eq!(db.get(&ObjId::new("x")), 2);
    }

    #[test]
    fn merge_overwrites_only_support() {
        let mut a = Database::from_pairs([("x", 1), ("y", 2)]);
        let b = Database::from_pairs([("y", 7), ("z", 9)]);
        a.merge_from(&b);
        assert_eq!(a.get(&ObjId::new("x")), 1);
        assert_eq!(a.get(&ObjId::new("y")), 7);
        assert_eq!(a.get(&ObjId::new("z")), 9);
    }

    #[test]
    fn projection_restricts_support() {
        let db = Database::from_pairs([("a", 1), ("b", 2), ("c", 3)]);
        let p = db.project(|o| o.as_str() != "b");
        assert_eq!(p.get(&ObjId::new("a")), 1);
        assert_eq!(p.get(&ObjId::new("b")), 0);
        assert_eq!(p.get(&ObjId::new("c")), 3);
    }

    #[test]
    fn diff_is_symmetric_set_of_changed_objects() {
        let a = Database::from_pairs([("x", 1), ("y", 2)]);
        let b = Database::from_pairs([("y", 2), ("z", 4)]);
        let d = a.diff(&b);
        let names: Vec<_> = d.iter().map(|o| o.as_str().to_string()).collect();
        assert_eq!(names, vec!["x", "z"]);
        assert_eq!(a.diff(&a), Vec::<ObjId>::new());
    }
}
