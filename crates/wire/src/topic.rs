//! Interned topic names.
//!
//! Routing tables and partition maps refer to topics millions of times
//! per run; carrying `String`s through them costs an allocation and a
//! full compare per hop. A [`TopicTable`] interns each distinct topic
//! name once and hands out a dense [`TopicId`] (`u32`) that is `Copy`,
//! hashes in one instruction, and indexes straight into per-topic
//! state. This is deliberately a *local* table (one per broker, not a
//! process-wide registry): wire messages still carry the topic string,
//! so two brokers never need to agree on numbering.

use simcore::FastMap;

/// Dense handle for an interned topic name, valid only with the
/// [`TopicTable`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicId(pub u32);

/// An interning table mapping topic names to dense [`TopicId`]s.
///
/// Ids are assigned in first-intern order starting at 0, so a table fed
/// topics in a deterministic order is itself deterministic — which the
/// simulator relies on for byte-identical replays.
#[derive(Debug, Default, Clone)]
pub struct TopicTable {
    by_name: FastMap<String, TopicId>,
    names: Vec<String>,
}

impl TopicTable {
    /// Empty table.
    pub fn new() -> Self {
        TopicTable::default()
    }

    /// Intern `name`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, name: &str) -> TopicId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = TopicId(u32::try_from(self.names.len()).expect("fewer than 2^32 topics"));
        self.by_name.insert(name.to_owned(), id);
        self.names.push(name.to_owned());
        id
    }

    /// Look up an already-interned name without inserting.
    pub fn get(&self, name: &str) -> Option<TopicId> {
        self.by_name.get(name).copied()
    }

    /// The name behind `id`, if this table issued it.
    pub fn name(&self, id: TopicId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of distinct topics interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no topic has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = TopicTable::new();
        let a = t.intern("power.monitor");
        let b = t.intern("power.alerts");
        assert_eq!(a, TopicId(0));
        assert_eq!(b, TopicId(1));
        assert_eq!(t.intern("power.monitor"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(a), Some("power.monitor"));
        assert_eq!(t.get("power.alerts"), Some(b));
        assert_eq!(t.get("missing"), None);
        assert_eq!(t.name(TopicId(9)), None);
    }

    #[test]
    fn empty_table() {
        let t = TopicTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
