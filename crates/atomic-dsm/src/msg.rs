//! Protocol messages of the atomic (strong-consistency) baseline.

use std::mem;

use memcore::{Location, PageId, Value, WriteId};
use simnet::Tagged;

/// One slot of a transferred page.
pub type SlotData<V> = (V, WriteId);

/// Messages of the invalidate-on-write owner protocol (after Li & Hudak's
/// write-invalidate shared virtual memory, simplified to fixed ownership).
///
/// The causal protocol's message types are a strict subset; `Inval` (and
/// `InvalAck` when acknowledged invalidation is enabled) is the extra
/// traffic strong consistency pays — the heart of the paper's §4.1
/// message-count comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum AMsg<V> {
    /// Fetch a page from its owner (adds the reader to the copyset).
    Read {
        /// The requested page.
        page: PageId,
    },
    /// The owner's current page contents.
    ReadReply {
        /// The page transferred.
        page: PageId,
        /// Per-location values and write tags.
        slots: Vec<SlotData<V>>,
    },
    /// Ask the owner to perform a write.
    Write {
        /// The location written.
        loc: Location,
        /// The value written.
        value: V,
        /// The unique tag of this write.
        wid: WriteId,
        /// Whether the writer holds a cached copy (so the owner keeps it
        /// in the copyset for the updated page).
        has_copy: bool,
    },
    /// The owner's confirmation that the write is globally visible.
    WriteReply {
        /// The location written.
        loc: Location,
        /// The tag of the confirmed write.
        wid: WriteId,
        /// The value written (echoed so the writer can cache it).
        value: V,
    },
    /// Invalidate any cached copy of `page`.
    Inval {
        /// The page to drop.
        page: PageId,
    },
    /// Acknowledgement of an `Inval` (only in acknowledged mode).
    InvalAck {
        /// The page that was dropped.
        page: PageId,
    },
}

impl<V> AMsg<V> {
    /// `true` for messages owners service.
    pub fn is_request(&self) -> bool {
        matches!(self, AMsg::Read { .. } | AMsg::Write { .. })
    }
}

impl<V: Value> Tagged for AMsg<V> {
    fn kind(&self) -> &'static str {
        match self {
            AMsg::Read { .. } => "READ",
            AMsg::ReadReply { .. } => "R_REPLY",
            AMsg::Write { .. } => "WRITE",
            AMsg::WriteReply { .. } => "W_REPLY",
            AMsg::Inval { .. } => "INVAL",
            AMsg::InvalAck { .. } => "INVAL_ACK",
        }
    }

    fn wire_size(&self) -> Option<usize> {
        let value_size = mem::size_of::<V>();
        Some(match self {
            AMsg::Read { .. } | AMsg::Inval { .. } | AMsg::InvalAck { .. } => 1 + 4,
            AMsg::ReadReply { slots, .. } => 1 + 4 + 4 + slots.len() * (value_size + 12),
            AMsg::Write { .. } => 1 + 4 + value_size + 12 + 1,
            AMsg::WriteReply { .. } => 1 + 4 + 12 + value_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcore::{NodeId, Word};

    #[test]
    fn kinds_are_distinct() {
        let msgs: Vec<AMsg<Word>> = vec![
            AMsg::Read {
                page: PageId::new(0),
            },
            AMsg::ReadReply {
                page: PageId::new(0),
                slots: vec![],
            },
            AMsg::Write {
                loc: Location::new(0),
                value: Word::Int(1),
                wid: WriteId::new(NodeId::new(0), 0),
                has_copy: false,
            },
            AMsg::WriteReply {
                loc: Location::new(0),
                wid: WriteId::new(NodeId::new(0), 0),
                value: Word::Int(1),
            },
            AMsg::Inval {
                page: PageId::new(0),
            },
            AMsg::InvalAck {
                page: PageId::new(0),
            },
        ];
        let kinds: Vec<_> = msgs.iter().map(|m| m.kind()).collect();
        let mut dedup = kinds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), kinds.len());
        assert!(msgs[0].is_request());
        assert!(msgs[2].is_request());
        assert!(!msgs[4].is_request());
        assert!(msgs.iter().all(|m| m.wire_size().is_some()));
    }
}
