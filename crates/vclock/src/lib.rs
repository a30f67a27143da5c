//! Vector timestamps for causal distributed shared memory.
//!
//! The ICDCS'91 owner protocol captures the evolving partial order of events
//! with one vector timestamp per processor (citing Mattern). This crate
//! provides exactly the three operations the protocol needs — `increment`,
//! `update` (component-wise max) and comparison — plus the derived notions
//! the paper uses throughout: *dominance* (`VT < VT'`) and *concurrency*
//! (neither dominates).
//!
//! # Representation
//!
//! Clocks are the protocol's most-copied data structure: one rides in every
//! message, one stamps every cached page. A clock covering up to
//! [`INLINE_PROCESSES`] processes is stored entirely inline (no heap
//! allocation — cloning is a `memcpy`); larger systems spill to a heap
//! vector transparently. Every operation goes through the same slice-based
//! loops regardless of representation.
//!
//! # Examples
//!
//! ```
//! use vclock::VectorClock;
//!
//! let mut a = VectorClock::new(3);
//! let mut b = VectorClock::new(3);
//! a.increment(0); // a = [1, 0, 0]
//! b.increment(1); // b = [0, 1, 0]
//! assert!(a.concurrent(&b));
//!
//! b.update(&a);   // b = [1, 1, 0]
//! assert!(a < b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The largest process count stored inline (stack-allocated); clocks for
/// bigger systems spill to the heap.
///
/// Sixteen covers every cluster size in the paper's evaluation (and every
/// workload in this repository) with a 136-byte clock — small enough to
/// copy freely, large enough that the heap path only runs in the spill
/// tests.
pub const INLINE_PROCESSES: usize = 16;

/// Storage for the components: inline array up to [`INLINE_PROCESSES`],
/// heap vector above. Invariant: `Heap` is only used for
/// `len > INLINE_PROCESSES`, so equal component sequences always share a
/// representation (derived comparisons would be wrong otherwise; ours go
/// through slices anyway). Entries of an inline `buf` past `len` are
/// never read: every access goes through the `len`-long slice, and
/// `clone_from` leaves them stale.
#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [u64; INLINE_PROCESSES],
    },
    Heap(Vec<u64>),
}

/// A vector timestamp over a fixed number of processes.
///
/// Comparison follows the paper: `VT < VT'` iff every component of `VT` is
/// `<=` the corresponding component of `VT'` and at least one is strictly
/// less. Two clocks where neither relation holds (and which are not equal)
/// are *concurrent*; [`PartialOrd::partial_cmp`] returns `None` for them.
///
/// # Examples
///
/// ```
/// use vclock::VectorClock;
///
/// let mut vt = VectorClock::new(2);
/// vt.increment(0);
/// assert_eq!(vt.get(0), 1);
/// assert_eq!(vt.get(1), 0);
/// ```
pub struct VectorClock {
    repr: Repr,
}

impl Clone for VectorClock {
    fn clone(&self) -> Self {
        VectorClock {
            repr: self.repr.clone(),
        }
    }

    /// Copies `source` in place: an inline clock copies only the live
    /// components, and a spilled clock overwritten by one of the same
    /// spill reuses its buffer, so a stored stamp is refreshed without
    /// allocating.
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.repr, &source.repr) {
            (Repr::Inline { len, buf }, Repr::Inline { len: n, buf: src }) => {
                *len = *n;
                buf[..*n as usize].copy_from_slice(&src[..*n as usize]);
            }
            (Repr::Heap(dst), Repr::Heap(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

/// Compares two component slices in the paper's dominance order.
///
/// This is the single comparison loop behind [`VectorClock`]: index-free,
/// no bounds checks after the length test, early exit on the first proof
/// of concurrency.
fn compare_components(a: &[u64], b: &[u64]) -> Option<Ordering> {
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
        if less && greater {
            return None;
        }
    }
    match (less, greater) {
        (false, false) => Some(Ordering::Equal),
        (true, false) => Some(Ordering::Less),
        (false, true) => Some(Ordering::Greater),
        (true, true) => None,
    }
}

impl VectorClock {
    /// Creates the zero clock for a system of `n` processes.
    ///
    /// The zero clock is the writestamp of the paper's distinguished initial
    /// writes, causally preceding every real operation.
    ///
    /// # Examples
    ///
    /// ```
    /// let vt = vclock::VectorClock::new(4);
    /// assert!(vt.is_zero());
    /// ```
    #[must_use]
    pub fn new(n: usize) -> Self {
        if n <= INLINE_PROCESSES {
            VectorClock {
                repr: Repr::Inline {
                    len: n as u8,
                    buf: [0; INLINE_PROCESSES],
                },
            }
        } else {
            VectorClock {
                repr: Repr::Heap(vec![0; n]),
            }
        }
    }

    /// Creates a clock from explicit components.
    ///
    /// # Examples
    ///
    /// ```
    /// let vt = vclock::VectorClock::from_components([1, 0, 2]);
    /// assert_eq!(vt.get(2), 2);
    /// ```
    #[must_use]
    pub fn from_components<I: IntoIterator<Item = u64>>(components: I) -> Self {
        let mut buf = [0u64; INLINE_PROCESSES];
        let mut len = 0usize;
        let mut iter = components.into_iter();
        for c in iter.by_ref() {
            if len == INLINE_PROCESSES {
                // Spill: move what we have to the heap and drain the rest.
                let mut vec = Vec::with_capacity(INLINE_PROCESSES * 2);
                vec.extend_from_slice(&buf);
                vec.push(c);
                vec.extend(iter);
                return VectorClock {
                    repr: Repr::Heap(vec),
                };
            }
            buf[len] = c;
            len += 1;
        }
        VectorClock {
            repr: Repr::Inline {
                len: len as u8,
                buf,
            },
        }
    }

    /// Creates a clock by copying a component slice.
    fn from_slice(components: &[u64]) -> Self {
        if components.len() <= INLINE_PROCESSES {
            let mut buf = [0u64; INLINE_PROCESSES];
            buf[..components.len()].copy_from_slice(components);
            VectorClock {
                repr: Repr::Inline {
                    len: components.len() as u8,
                    buf,
                },
            }
        } else {
            VectorClock {
                repr: Repr::Heap(components.to_vec()),
            }
        }
    }

    /// Number of processes this clock covers.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Returns `true` if the clock covers zero processes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if the components live inline (no heap allocation).
    #[must_use]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// Returns `true` if every component is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.as_slice().iter().all(|&c| c == 0)
    }

    /// The `i`th component.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        self.as_slice()[i]
    }

    /// Adds one to the `i`th component — the paper's
    /// `increment(VT_i)` performed by processor `P_i` on every write attempt.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn increment(&mut self, i: usize) {
        self.as_mut_slice()[i] += 1;
    }

    /// Component-wise maximum in place — the paper's `update(VT, VT')`.
    ///
    /// # Panics
    ///
    /// Panics if the two clocks cover different numbers of processes.
    pub fn update(&mut self, other: &VectorClock) {
        let mine = self.as_mut_slice();
        let other = other.as_slice();
        assert_eq!(
            mine.len(),
            other.len(),
            "vector clocks cover different process counts"
        );
        for (a, b) in mine.iter_mut().zip(other) {
            *a = (*a).max(*b);
        }
    }

    /// `true` iff neither clock dominates the other and they differ:
    /// the writes they stamp are concurrent.
    ///
    /// # Examples
    ///
    /// ```
    /// use vclock::VectorClock;
    /// let a = VectorClock::from_components([1, 0]);
    /// let b = VectorClock::from_components([0, 1]);
    /// assert!(a.concurrent(&b));
    /// assert!(!a.concurrent(&a));
    /// ```
    #[must_use]
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        compare_components(self.as_slice(), other.as_slice()).is_none()
    }

    /// `true` iff `self < other` in the paper's dominance order.
    ///
    /// Equivalent to `self.partial_cmp(other) == Some(Ordering::Less)` but
    /// reads like the pseudocode's `M_i[y].VT < VT'`.
    #[must_use]
    pub fn dominated_by(&self, other: &VectorClock) -> bool {
        matches!(
            compare_components(self.as_slice(), other.as_slice()),
            Some(Ordering::Less)
        )
    }

    /// Iterates over the components in process order.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, u64> {
        self.as_slice().iter()
    }

    /// Borrows the raw components.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Borrows the raw components mutably.
    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Iterates over the nonzero components as `(process, count)` pairs in
    /// process order — the sparse projection of this clock.
    ///
    /// In an interest-scoped deployment a process's clock is nonzero only
    /// for processes in the interest closure of the pages it has touched,
    /// so this iterator is the share-graph-sized view of an O(n) stamp.
    #[inline]
    pub fn nonzero(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.as_slice()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u32, c))
    }

    /// Number of nonzero components.
    #[inline]
    #[must_use]
    pub fn nonzero_count(&self) -> usize {
        self.as_slice().iter().filter(|&&c| c != 0).count()
    }

    /// Reconstructs a dense clock of `n` processes from sparse
    /// `(process, count)` entries; unlisted components are zero.
    ///
    /// # Panics
    ///
    /// Panics if an entry names a process `>= n`.
    #[must_use]
    pub fn from_sparse_entries<I: IntoIterator<Item = (u32, u64)>>(n: usize, entries: I) -> Self {
        let mut vt = VectorClock::new(n);
        let slots = vt.as_mut_slice();
        for (i, c) in entries {
            slots[i as usize] = c;
        }
        vt
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for VectorClock {}

impl Hash for VectorClock {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the component slice (same prefix as `[u64]`'s impl), so
        // inline and spilled clocks with equal components hash equally.
        self.as_slice().hash(state);
    }
}

impl PartialOrd for VectorClock {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        compare_components(self.as_slice(), other.as_slice())
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VT{:?}", self.as_slice())
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<u64>> for VectorClock {
    fn from(components: Vec<u64>) -> Self {
        if components.len() > INLINE_PROCESSES {
            VectorClock {
                repr: Repr::Heap(components),
            }
        } else {
            VectorClock::from_slice(&components)
        }
    }
}

impl From<VectorClock> for Vec<u64> {
    fn from(vt: VectorClock) -> Self {
        match vt.repr {
            Repr::Inline { len, buf } => buf[..len as usize].to_vec(),
            Repr::Heap(v) => v,
        }
    }
}

impl<const N: usize> From<[u64; N]> for VectorClock {
    fn from(components: [u64; N]) -> Self {
        VectorClock::from_slice(&components)
    }
}

impl FromIterator<u64> for VectorClock {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        VectorClock::from_components(iter)
    }
}

impl<'a> IntoIterator for &'a VectorClock {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_clock_is_zero() {
        let vt = VectorClock::new(3);
        assert!(vt.is_zero());
        assert_eq!(vt.len(), 3);
        assert!(!vt.is_empty());
        assert!(VectorClock::new(0).is_empty());
    }

    #[test]
    fn increment_bumps_single_component() {
        let mut vt = VectorClock::new(3);
        vt.increment(1);
        assert_eq!(vt.as_slice(), &[0, 1, 0]);
        vt.increment(1);
        assert_eq!(vt.as_slice(), &[0, 2, 0]);
    }

    #[test]
    fn update_takes_componentwise_max() {
        let mut a = VectorClock::from_components([3, 0, 5]);
        let b = VectorClock::from_components([1, 4, 5]);
        a.update(&b);
        assert_eq!(a.as_slice(), &[3, 4, 5]);
    }

    #[test]
    fn comparison_matches_paper_definition() {
        let a = VectorClock::from_components([1, 2]);
        let b = VectorClock::from_components([1, 3]);
        assert!(a < b);
        assert!(b > a);
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
        assert_eq!(a.partial_cmp(&a), Some(Ordering::Equal));
    }

    #[test]
    fn concurrent_clocks_are_unordered() {
        let a = VectorClock::from_components([2, 0]);
        let b = VectorClock::from_components([0, 2]);
        assert!(a.concurrent(&b));
        assert!(b.concurrent(&a));
        assert_eq!(a.partial_cmp(&b), None);
        assert!(!a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
    }

    #[test]
    fn equal_clocks_are_not_concurrent() {
        let a = VectorClock::from_components([1, 1]);
        assert!(!a.concurrent(&a.clone()));
    }

    #[test]
    fn clocks_of_different_lengths_do_not_compare() {
        let a = VectorClock::new(2);
        let b = VectorClock::new(3);
        assert_eq!(a.partial_cmp(&b), None);
    }

    #[test]
    #[should_panic(expected = "different process counts")]
    fn update_panics_on_length_mismatch() {
        let mut a = VectorClock::new(2);
        a.update(&VectorClock::new(3));
    }

    #[test]
    fn display_is_compact() {
        let a = VectorClock::from_components([1, 0, 2]);
        assert_eq!(a.to_string(), "[1,0,2]");
        assert_eq!(format!("{a:?}"), "VT[1, 0, 2]");
    }

    #[test]
    fn clone_from_reuses_a_spilled_buffer() {
        // Values across widths are `model_equivalence.rs`'s job; this pins
        // that a spilled stamp is refreshed without a new allocation.
        let n = INLINE_PROCESSES + 1;
        let mut spilled = VectorClock::new(n);
        let buffer = spilled.as_slice().as_ptr();
        let mut source = VectorClock::new(n);
        source.increment(n - 1);
        spilled.clone_from(&source);
        assert_eq!(spilled, source);
        assert_eq!(spilled.as_slice().as_ptr(), buffer, "heap buffer reused");
    }

    #[test]
    fn conversions_round_trip() {
        let v = vec![1u64, 2, 3];
        let vt = VectorClock::from(v.clone());
        let back: Vec<u64> = vt.clone().into();
        assert_eq!(v, back);
        let collected: VectorClock = v.iter().copied().collect();
        assert_eq!(collected, vt);
        assert_eq!(VectorClock::from([1u64, 2, 3]), vt);
    }

    #[test]
    fn figure4_writestamp_flow() {
        // A non-local write per Figure 4: writer increments, owner updates,
        // writer updates with the owner's reply. The resulting stamp must
        // dominate both parties' prior stamps.
        let mut writer = VectorClock::from_components([2, 0, 1]);
        let mut owner = VectorClock::from_components([0, 3, 1]);
        writer.increment(0); // w_i's increment
        let sent = writer.clone();
        owner.update(&sent); // owner's update on WRITE receipt
        let reply = owner.clone();
        writer.update(&reply); // writer's second update
        assert!(sent <= writer);
        assert!(reply <= writer || reply == writer);
        assert_eq!(writer.as_slice(), &[3, 3, 1]);
    }

    #[test]
    fn small_clocks_stay_inline_and_large_spill() {
        assert!(VectorClock::new(INLINE_PROCESSES).is_inline());
        assert!(!VectorClock::new(INLINE_PROCESSES + 1).is_inline());
        let exact: VectorClock = (0..INLINE_PROCESSES as u64).collect();
        assert!(exact.is_inline());
        assert_eq!(exact.len(), INLINE_PROCESSES);
        let spilled: VectorClock = (0..INLINE_PROCESSES as u64 + 1).collect();
        assert!(!spilled.is_inline());
        assert_eq!(spilled.len(), INLINE_PROCESSES + 1);
        assert_eq!(spilled.get(INLINE_PROCESSES), INLINE_PROCESSES as u64);
    }

    #[test]
    fn inline_and_spilled_agree_across_representations() {
        // A heap-repr clock that would fit inline cannot arise from the
        // public constructors, but equality/hash must still be slice-based:
        // compare an inline clock against one built via the spill path.
        let inline = VectorClock::from_slice(&[1, 2, 3]);
        let via_vec = VectorClock::from(vec![1, 2, 3]);
        assert_eq!(inline, via_vec);
        assert_eq!(inline.partial_cmp(&via_vec), Some(Ordering::Equal));

        use std::collections::hash_map::DefaultHasher;
        let h = |vt: &VectorClock| {
            let mut s = DefaultHasher::new();
            vt.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&inline), h(&via_vec));
    }

    #[test]
    fn nonzero_projects_and_reconstructs() {
        let vt = VectorClock::from_components([0, 3, 0, 0, 7]);
        let pairs: Vec<(u32, u64)> = vt.nonzero().collect();
        assert_eq!(pairs, vec![(1, 3), (4, 7)]);
        assert_eq!(vt.nonzero_count(), 2);
        assert_eq!(VectorClock::from_sparse_entries(5, pairs), vt);
        assert!(VectorClock::new(4).nonzero().next().is_none());
    }
}
