//! Property-based tests for the vector-clock lattice.

use proptest::prelude::*;
use std::cmp::Ordering;
use vclock::VectorClock;

const N: usize = 5;

fn clock() -> impl Strategy<Value = VectorClock> {
    proptest::collection::vec(0u64..16, N).prop_map(VectorClock::from)
}

/// The join of two clocks, leaving both operands as they were.
fn join(a: &VectorClock, b: &VectorClock) -> VectorClock {
    let mut j = a.clone();
    j.update(b);
    j
}

proptest! {
    /// `update` is the lattice join: idempotent, commutative, associative.
    #[test]
    fn update_is_a_join(a in clock(), b in clock(), c in clock()) {
        prop_assert_eq!(join(&a, &a), a.clone());
        prop_assert_eq!(join(&a, &b), join(&b, &a));
        prop_assert_eq!(join(&join(&a, &b), &c), join(&a, &join(&b, &c)));
    }

    /// The join dominates (or equals) both operands.
    #[test]
    fn join_is_an_upper_bound(a in clock(), b in clock()) {
        let j = join(&a, &b);
        prop_assert!(a <= j);
        prop_assert!(b <= j);
    }

    /// The join is the *least* upper bound.
    #[test]
    fn join_is_least(a in clock(), b in clock(), u in clock()) {
        if a <= u && b <= u {
            prop_assert!(join(&a, &b) <= u);
        }
    }

    /// Increment strictly advances the clock.
    #[test]
    fn increment_strictly_dominates(a in clock(), i in 0usize..N) {
        let mut b = a.clone();
        b.increment(i);
        prop_assert!(a < b);
        prop_assert!(a.dominated_by(&b));
    }

    /// partial_cmp is antisymmetric and consistent with dominated_by.
    #[test]
    fn ordering_is_consistent(a in clock(), b in clock()) {
        match a.partial_cmp(&b) {
            Some(Ordering::Less) => {
                prop_assert_eq!(b.partial_cmp(&a), Some(Ordering::Greater));
                prop_assert!(a.dominated_by(&b));
            }
            Some(Ordering::Greater) => {
                prop_assert_eq!(b.partial_cmp(&a), Some(Ordering::Less));
                prop_assert!(b.dominated_by(&a));
            }
            Some(Ordering::Equal) => prop_assert_eq!(&a, &b),
            None => {
                prop_assert!(a.concurrent(&b));
                prop_assert!(b.concurrent(&a));
            }
        }
    }

    /// Comparison agrees with the component-wise definition in the paper.
    #[test]
    fn ordering_matches_componentwise_definition(a in clock(), b in clock()) {
        let le = a.iter().zip(b.iter()).all(|(x, y)| x <= y);
        let strict = a.iter().zip(b.iter()).any(|(x, y)| x < y);
        prop_assert_eq!(a.dominated_by(&b), le && strict);
    }

    /// Dominance is transitive.
    #[test]
    fn dominance_is_transitive(a in clock(), b in clock(), c in clock()) {
        if a < b && b < c {
            prop_assert!(a < c);
        }
    }
}
