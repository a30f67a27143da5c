//! Model equivalence: the inline small-vector `VectorClock` must be
//! observationally identical to the reference `Vec<u64>` semantics it
//! replaced — merge (component-wise max), the dominance comparison,
//! concurrency, and construction — across 10k random pairs, with lengths
//! straddling the 16→17-process inline→heap spill boundary.

use std::cmp::Ordering;

use proptest::prelude::*;
use vclock::{VectorClock, INLINE_PROCESSES};

/// The reference model: the operations as the old `Vec<u64>`-backed
/// implementation wrote them, verbatim.
mod model {
    use std::cmp::Ordering;

    pub fn update(a: &[u64], b: &[u64]) -> Vec<u64> {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (*x).max(*y)).collect()
    }

    pub fn compare(a: &[u64], b: &[u64]) -> Option<Ordering> {
        if a.len() != b.len() {
            return None;
        }
        let mut less = false;
        let mut greater = false;
        for (x, y) in a.iter().zip(b) {
            match x.cmp(y) {
                Ordering::Less => less = true,
                Ordering::Greater => greater = true,
                Ordering::Equal => {}
            }
        }
        match (less, greater) {
            (false, false) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (true, true) => None,
        }
    }
}

/// Component vectors with lengths clustered around the spill boundary:
/// 0..=16 stays inline, 17.. spills to the heap.
fn components() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        proptest::collection::vec(0u64..8, 0..INLINE_PROCESSES + 1),
        proptest::collection::vec(0u64..8, INLINE_PROCESSES..INLINE_PROCESSES + 8),
    ]
}

/// Same-length pairs, so merge is defined (mismatched lengths are covered
/// separately below): draw the second vector at maximum width and cut it
/// to the first one's length.
fn pair() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    let widest = INLINE_PROCESSES + 8;
    (
        components(),
        proptest::collection::vec(0u64..8, widest..widest + 1),
    )
        .prop_map(|(a, mut b)| {
            b.truncate(a.len());
            (a, b)
        })
}

fn hash_of(vt: &VectorClock) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    vt.hash(&mut h);
    h.finish()
}

proptest! {
    // 2_500 cases x 4 properties = 10k (pair, operation) checks.
    #![proptest_config(ProptestConfig::with_cases(2_500))]

    /// Merge agrees with the component-wise-max reference model.
    #[test]
    fn merge_matches_model((a, b) in pair()) {
        let want = VectorClock::from(model::update(&a, &b));
        let mut va = VectorClock::from(a);
        va.update(&VectorClock::from(b));
        prop_assert_eq!(&va, &want);
    }

    /// Comparison, dominance and concurrency agree with the model.
    #[test]
    fn comparison_matches_model((a, b) in pair()) {
        let want = model::compare(&a, &b);
        let va = VectorClock::from(a);
        let vb = VectorClock::from(b);
        prop_assert_eq!(va.partial_cmp(&vb), want);
        prop_assert_eq!(va.dominated_by(&vb), want == Some(Ordering::Less));
        prop_assert_eq!(va.concurrent(&vb), want.is_none());
    }

    /// Mismatched lengths: unordered, never panicking (except `update`,
    /// whose panic contract is pinned by a unit test in the crate).
    #[test]
    fn length_mismatch_is_unordered(a in components(), b in components()) {
        if a.len() != b.len() {
            let va = VectorClock::from(a);
            let vb = VectorClock::from(b);
            prop_assert_eq!(va.partial_cmp(&vb), None);
            prop_assert!(va.concurrent(&vb));
            prop_assert!(!va.dominated_by(&vb));
        }
    }

    /// Every accessor sees exactly the component vector: construction
    /// round-trips (iterator, Vec, sparse entries, `clone_from` over a
    /// clock of any other width) across the spill boundary, and equality
    /// is representation-blind.
    #[test]
    fn construction_round_trips(a in components(), b in components()) {
        let vt: VectorClock = a.iter().copied().collect();
        prop_assert_eq!(vt.is_inline(), a.len() <= INLINE_PROCESSES);
        prop_assert_eq!(vt.as_slice(), a.as_slice());
        prop_assert_eq!(vt.len(), a.len());

        let from_vec = VectorClock::from(a.clone());
        prop_assert_eq!(&vt, &from_vec);
        let back: Vec<u64> = vt.clone().into();
        prop_assert_eq!(back, a.clone());

        // The sparse projection behind `Stamp`'s sparse encoding is lossless.
        prop_assert_eq!(VectorClock::from_sparse_entries(a.len(), vt.nonzero()), vt.clone());

        // Copying in place leaves nothing of the overwritten clock visible.
        let mut over = VectorClock::from(b);
        over.clone_from(&vt);
        prop_assert_eq!(over.is_inline(), vt.is_inline());
        prop_assert_eq!(over.as_slice(), a.as_slice());
        prop_assert_eq!(hash_of(&over), hash_of(&vt));
        prop_assert_eq!(over.to_string(), vt.to_string());
    }
}

#[test]
fn spill_boundary_is_exact() {
    // 16 processes inline, 17 heap — and the two behave identically
    // right at the edge.
    let at: VectorClock = (1..=INLINE_PROCESSES as u64).collect();
    let over: VectorClock = (1..=INLINE_PROCESSES as u64 + 1).collect();
    assert!(at.is_inline());
    assert!(!over.is_inline());
    assert_eq!(at.len(), INLINE_PROCESSES);
    assert_eq!(over.len(), INLINE_PROCESSES + 1);
    // A 16-clock and a 17-clock never compare.
    assert_eq!(at.partial_cmp(&over), None);
    // Growing a 16-clock's worth of components by one more spills, and
    // merge still matches the model at both widths.
    for vt in [&at, &over] {
        let doubled = VectorClock::from(model::update(vt.as_slice(), vt.as_slice()));
        assert_eq!(&doubled, vt);
    }
}
