//! Field spaces: the per-element payload schema of a region tree.
//!
//! A Regent region stores one or more named fields per element (§2.1).
//! Tasks request privileges per region (and in full Regent per field); we
//! track fields explicitly so physical instances can be laid out per
//! field and privileges can be field-granular.

use std::fmt;

/// Identifier of a field within a field space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u32);

impl fmt::Debug for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// The primitive type of a field.
///
/// Two types suffice for the evaluated applications: `F64` for physics
/// state and `I64` for mesh connectivity (element pointers, which also
/// feed image/preimage partition operators).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FieldType {
    /// 64-bit float.
    F64,
    /// 64-bit signed integer (element pointers / connectivity).
    I64,
}

/// Definition of a single field.
#[derive(Clone, Debug)]
pub struct FieldDef {
    /// Human-readable name (unique within the field space).
    pub name: String,
    /// Primitive type.
    pub ty: FieldType,
}

/// An ordered collection of field definitions shared by every region in
/// one region tree.
#[derive(Clone, Debug, Default)]
pub struct FieldSpace {
    fields: Vec<FieldDef>,
}

impl FieldSpace {
    /// Creates an empty field space.
    pub fn new() -> Self {
        FieldSpace::default()
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn of(fields: &[(&str, FieldType)]) -> Self {
        let mut fs = FieldSpace::new();
        for (name, ty) in fields {
            fs.add(name, *ty);
        }
        fs
    }

    /// Adds a field, returning its id.
    ///
    /// # Panics
    /// If a field with the same name already exists.
    pub fn add(&mut self, name: &str, ty: FieldType) -> FieldId {
        assert!(self.lookup(name).is_none(), "duplicate field name {name:?}");
        let id = FieldId(self.fields.len() as u32);
        self.fields.push(FieldDef {
            name: name.to_string(),
            ty,
        });
        id
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the space has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Finds a field by name.
    pub fn lookup(&self, name: &str) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| FieldId(i as u32))
    }

    /// Iterates `(id, def)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, &FieldDef)> {
        self.fields
            .iter()
            .enumerate()
            .map(|(i, d)| (FieldId(i as u32), d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut fs = FieldSpace::new();
        let a = fs.add("voltage", FieldType::F64);
        let b = fs.add("node_ptr", FieldType::I64);
        assert_ne!(a, b);
        assert_eq!(fs.lookup("voltage"), Some(a));
        assert_eq!(fs.lookup("charge"), None);
        assert_eq!(
            fs.iter().nth(1).map(|(id, d)| (id, d.ty)),
            Some((b, FieldType::I64))
        );
        assert_eq!(fs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_name_panics() {
        let mut fs = FieldSpace::new();
        fs.add("x", FieldType::F64);
        fs.add("x", FieldType::F64);
    }

    #[test]
    fn of_constructor() {
        let fs = FieldSpace::of(&[("a", FieldType::F64), ("b", FieldType::I64)]);
        assert_eq!(fs.iter().count(), 2);
        assert!(!fs.is_empty());
    }
}
