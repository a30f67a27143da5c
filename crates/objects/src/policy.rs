//! Per-type merge/conflict policies.
//!
//! The §4.2 dictionary resolves its one conflict (a delete racing the
//! owner's re-insert) with the engine's *owner-favored* write policy.
//! Typed objects generalize the idea to read-side resolution: when a
//! query observes **concurrent bindings** for the same logical key in
//! different rows, a [`MergePolicy`] decides which value the object
//! reports. Three canonical policies ship:
//!
//! * [`PolicyKind::OwnerWins`] — the binding in the key's *home row*
//!   (`key mod n`) wins, generalizing the paper's "writes by the owner
//!   are always favored"; other rows' bindings are shadows.
//! * [`PolicyKind::LastWriter`] — the binding with the greatest write
//!   tag `(seq, writer)` wins: a deterministic total order on writes,
//!   the classic last-writer-wins register lifted to maps.
//! * [`PolicyKind::Commutative`] — bindings are folded with a
//!   commutative, associative, idempotent merge (`max`), so the answer
//!   is independent of observation order — the CRDT-style resolution.
//!
//! Every canonical policy is a pure, observation-order-independent
//! function of the candidate set; the per-object oracle re-derives the
//! same answer spec-side ([`PolicyKind::resolve`]) and flags any runtime
//! that disagrees. [`BrokenFirstObserved`] is a deliberately
//! order-*dependent* policy used by the mutation tests to prove the
//! oracle rejects such an implementation.

use memcore::WriteId;

/// One concurrently-visible binding for a key: which row holds it, the
/// write that installed it, and the bound value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// The grid row (owner process) holding the binding.
    pub row: usize,
    /// The write that installed the binding.
    pub wid: WriteId,
    /// The bound value.
    pub val: i64,
}

/// A conflict-resolution policy over concurrent bindings.
///
/// Implementations must be pure functions of `(key, candidates)`; the
/// canonical ones are also independent of candidate *order*, which is
/// exactly the property the sequential-spec oracle checks.
pub trait MergePolicy: Send + Sync + 'static {
    /// Policy name, surfaced in oracle reports.
    fn name(&self) -> &'static str;

    /// Picks the value the object reports for `key`.
    ///
    /// `candidates` is non-empty and listed in the order the query
    /// observed them (row-major scan order for the shipped clients).
    fn resolve(&self, key: i64, candidates: &[Candidate]) -> i64;
}

/// The canonical policy alphabet, shared by runtime and oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// The key's home row (`key mod n`, for an `n`-row grid) wins;
    /// absent a home binding, fall back to [`PolicyKind::LastWriter`].
    OwnerWins {
        /// Rows in the grid (the modulus for the home row).
        rows: usize,
    },
    /// Greatest write tag `(seq, writer)` wins.
    LastWriter,
    /// Fold all bound values with `max`.
    Commutative,
}

impl PolicyKind {
    /// The specification-side resolution: a pure, order-independent
    /// function of the candidate set. The oracle calls this; the
    /// canonical runtime policies delegate to it, so an honest runtime
    /// always agrees with its spec.
    #[must_use]
    pub fn resolve(self, key: i64, candidates: &[Candidate]) -> i64 {
        assert!(
            !candidates.is_empty(),
            "resolve needs at least one candidate"
        );
        match self {
            PolicyKind::OwnerWins { rows } => {
                let home = key.rem_euclid(rows as i64) as usize;
                match candidates.iter().find(|c| c.row == home) {
                    Some(c) => c.val,
                    None => PolicyKind::LastWriter.resolve(key, candidates),
                }
            }
            PolicyKind::LastWriter => {
                candidates
                    .iter()
                    .max_by_key(|c| (c.wid.seq(), c.wid.writer().map_or(0, |n| n.index())))
                    .expect("non-empty")
                    .val
            }
            PolicyKind::Commutative => candidates.iter().map(|c| c.val).max().expect("non-empty"),
        }
    }

    /// The policy's name (matches the runtime wrapper's
    /// [`MergePolicy::name`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::OwnerWins { .. } => "owner-wins",
            PolicyKind::LastWriter => "last-writer-by-tag",
            PolicyKind::Commutative => "commutative-merge",
        }
    }
}

impl MergePolicy for PolicyKind {
    fn name(&self) -> &'static str {
        PolicyKind::name(*self)
    }

    fn resolve(&self, key: i64, candidates: &[Candidate]) -> i64 {
        PolicyKind::resolve(*self, key, candidates)
    }
}

/// A deliberately broken policy: reports whichever binding the query
/// happened to observe *first*. Order-dependent, so different processes
/// (or the same process before and after a refresh) disagree with the
/// declared specification — built for the oracle mutation tests, which
/// must reject it.
#[derive(Clone, Copy, Debug, Default)]
pub struct BrokenFirstObserved;

impl MergePolicy for BrokenFirstObserved {
    fn name(&self) -> &'static str {
        "broken-first-observed"
    }

    fn resolve(&self, _key: i64, candidates: &[Candidate]) -> i64 {
        candidates[0].val
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcore::NodeId;

    fn cand(row: usize, writer: u32, seq: u64, val: i64) -> Candidate {
        Candidate {
            row,
            wid: WriteId::new(NodeId::new(writer), seq),
            val,
        }
    }

    #[test]
    fn owner_wins_prefers_home_row() {
        let p = PolicyKind::OwnerWins { rows: 3 };
        let c = [cand(0, 0, 9, 10), cand(2, 2, 1, 99)];
        // key 2's home row is 2.
        assert_eq!(p.resolve(2, &c), 99);
        // key 1 has no home binding: falls back to last writer (seq 9).
        assert_eq!(p.resolve(1, &c), 10);
    }

    #[test]
    fn last_writer_picks_greatest_tag() {
        let p = PolicyKind::LastWriter;
        let c = [cand(0, 0, 3, 7), cand(1, 1, 5, 8)];
        assert_eq!(p.resolve(0, &c), 8);
        // Ties on seq break by writer index, deterministically.
        let tie = [cand(0, 0, 5, 7), cand(1, 1, 5, 8)];
        assert_eq!(p.resolve(0, &tie), 8);
    }

    #[test]
    fn commutative_is_order_independent() {
        let p = PolicyKind::Commutative;
        let a = [cand(0, 0, 0, 3), cand(1, 1, 0, 9)];
        let b = [cand(1, 1, 0, 9), cand(0, 0, 0, 3)];
        assert_eq!(p.resolve(0, &a), p.resolve(0, &b));
        assert_eq!(p.resolve(0, &a), 9);
    }

    #[test]
    fn broken_policy_depends_on_observation_order() {
        let a = [cand(0, 0, 0, 3), cand(1, 1, 0, 9)];
        let b = [cand(1, 1, 0, 9), cand(0, 0, 0, 3)];
        assert_ne!(
            BrokenFirstObserved.resolve(0, &a),
            BrokenFirstObserved.resolve(0, &b)
        );
    }
}
