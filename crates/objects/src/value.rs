//! The cell value type objects store in shared-memory locations.
//!
//! Every typed object encodes its state into plain causal registers
//! holding [`ObjVal`] cells; the protocol underneath moves cells without
//! interpreting them, so objects ride every gated layer (pipelining,
//! batching, failover, interest scoping, durability) unchanged. The
//! [`Wire`](simnet::codec::Wire) implementation gives cells a realistic
//! byte representation on the real transports, exactly as
//! [`memcore::Word`] has — registers keep their own type, so the paper's
//! Figure-4 traffic is untouched.

use std::fmt;

use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};

/// One shared-memory cell of a typed object.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ObjVal {
    /// The free marker `λ` — doubles as the paper's initial value 0.
    #[default]
    Free,
    /// A monotone event count (one PN-counter component cell).
    Count(u64),
    /// A set element or queue item.
    Item(i64),
    /// A map binding `(key, value)`.
    Entry(i64, i64),
}

impl ObjVal {
    /// `true` iff the cell is free (or still holds the initial value).
    #[must_use]
    pub fn is_free(&self) -> bool {
        matches!(self, ObjVal::Free)
    }

    /// The count payload, treating `Free` as 0 (the initial count).
    ///
    /// Returns `None` for non-count cells.
    #[must_use]
    pub fn as_count(&self) -> Option<u64> {
        match self {
            ObjVal::Free => Some(0),
            ObjVal::Count(n) => Some(*n),
            _ => None,
        }
    }

    /// The item payload, or `None` for anything else.
    #[must_use]
    pub fn as_item(&self) -> Option<i64> {
        match self {
            ObjVal::Item(v) => Some(*v),
            _ => None,
        }
    }

    /// The binding payload, or `None` for anything else.
    #[must_use]
    pub fn as_entry(&self) -> Option<(i64, i64)> {
        match self {
            ObjVal::Entry(key, val) => Some((*key, *val)),
            _ => None,
        }
    }
}

// Hand-rolled (de)serialization in the same tagged shape the derive
// produces for single-payload variants: the two-field `Entry` carries
// its payload as one `(key, val)` tuple.
impl Serialize for ObjVal {
    fn to_value(&self) -> Value {
        match self {
            ObjVal::Free => Value::Str("Free".into()),
            ObjVal::Count(n) => Value::Map(vec![("Count".into(), n.to_value())]),
            ObjVal::Item(v) => Value::Map(vec![("Item".into(), v.to_value())]),
            ObjVal::Entry(key, val) => Value::Map(vec![("Entry".into(), (*key, *val).to_value())]),
        }
    }
}

impl Deserialize for ObjVal {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(tag) if tag == "Free" => Ok(ObjVal::Free),
            Value::Map(entries) if entries.len() == 1 => match entries[0].0.as_str() {
                "Count" => Ok(ObjVal::Count(u64::from_value(&entries[0].1)?)),
                "Item" => Ok(ObjVal::Item(i64::from_value(&entries[0].1)?)),
                "Entry" => {
                    let (key, val) = <(i64, i64)>::from_value(&entries[0].1)?;
                    Ok(ObjVal::Entry(key, val))
                }
                _ => Err(DeError::msg("unknown variant of ObjVal")),
            },
            _ => Err(DeError::msg("expected ObjVal")),
        }
    }
}

impl fmt::Display for ObjVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjVal::Free => write!(f, "λ"),
            ObjVal::Count(n) => write!(f, "#{n}"),
            ObjVal::Item(v) => write!(f, "{v}"),
            ObjVal::Entry(key, val) => write!(f, "{key}→{val}"),
        }
    }
}

simnet::wire_enum! {
    impl[] for ObjVal {
        0 => Free,
        1 => Count(n),
        2 => Item(v),
        3 => Entry(key, val),
    }
}

#[cfg(test)]
mod tests {
    use bytes::BytesMut;
    use simnet::codec::{CodecError, Wire};

    use super::*;

    #[test]
    fn default_is_free() {
        assert_eq!(ObjVal::default(), ObjVal::Free);
        assert!(ObjVal::Free.is_free());
        assert!(!ObjVal::Item(1).is_free());
    }

    #[test]
    fn payload_accessors() {
        assert_eq!(ObjVal::Free.as_count(), Some(0));
        assert_eq!(ObjVal::Count(4).as_count(), Some(4));
        assert_eq!(ObjVal::Item(9).as_count(), None);
        assert_eq!(ObjVal::Item(9).as_item(), Some(9));
        assert_eq!(ObjVal::Entry(1, 2).as_entry(), Some((1, 2)));
        assert_eq!(ObjVal::Free.as_item(), None);
    }

    #[test]
    fn wire_round_trips_every_variant() {
        for v in [
            ObjVal::Free,
            ObjVal::Count(42),
            ObjVal::Item(-7),
            ObjVal::Entry(3, -4),
        ] {
            let mut buf = BytesMut::new();
            v.encode(&mut buf);
            assert_eq!(buf.len(), v.encoded_len());
            let mut cursor = &buf[..];
            assert_eq!(ObjVal::decode(&mut cursor).unwrap(), v);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn wire_rejects_bad_discriminant() {
        assert!(matches!(
            ObjVal::decode(&mut &[9u8][..]),
            Err(CodecError::BadDiscriminant(9))
        ));
    }

    #[test]
    fn display_notation() {
        assert_eq!(ObjVal::Free.to_string(), "λ");
        assert_eq!(ObjVal::Count(3).to_string(), "#3");
        assert_eq!(ObjVal::Item(5).to_string(), "5");
        assert_eq!(ObjVal::Entry(1, 2).to_string(), "1→2");
    }
}
