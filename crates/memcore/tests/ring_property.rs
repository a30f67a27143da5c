//! Property tests for consistent-hash ownership: the two claims that make
//! the ring worth having over round-robin — pages spread evenly across
//! members (virtual nodes smooth the arcs), and membership growth moves
//! only O(pages/n) assignments — plus the contract the failover layer
//! leans on (epoch succession is a permutation of the membership).

use memcore::{HashRingOwners, NodeId, OwnerMap, PageId};

const PAGES: usize = 4096;
const VNODES: u32 = 64;

fn assignment(ring: &HashRingOwners) -> Vec<NodeId> {
    (0..PAGES)
        .map(|p| ring.owner_of_page(PageId::new(p as u32)))
        .collect()
}

/// Uniform distribution, chi-squared style: with `VNODES` virtual nodes
/// the per-member page count concentrates around `PAGES / n`; we pin the
/// normalized chi-square statistic and a hard min/max band. The bounds are
/// loose enough to be seed-independent (the hash is fixed, so this is
/// really pinning the quality of the mixer) but tight enough that a
/// broken ring — e.g. un-salted page hashing colliding with vnode points,
/// or a sort bug collapsing arcs — fails immediately.
#[test]
fn pages_distribute_uniformly_across_members() {
    for n in [4u32, 16, 64] {
        let ring = HashRingOwners::new(n, 1, VNODES);
        let mut counts = vec![0u64; n as usize];
        for owner in assignment(&ring) {
            counts[owner.index()] += 1;
        }
        let expected = PAGES as f64 / n as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // Normalized by degrees of freedom; a true uniform multinomial
        // gives E[chi2/(n-1)] = 1, and vnode smoothing keeps the observed
        // value the same order. 4.0 is many standard deviations out.
        let normalized = chi2 / (n as f64 - 1.0);
        assert!(
            normalized < 4.0,
            "n={n}: chi2/dof = {normalized:.2}, counts {counts:?}"
        );
        let (lo, hi) = (
            *counts.iter().min().unwrap() as f64,
            *counts.iter().max().unwrap() as f64,
        );
        assert!(
            lo > expected / 2.0 && hi < expected * 2.0,
            "n={n}: page counts outside [expected/2, 2*expected]: {counts:?}"
        );
    }
}

/// Minimal reshuffle on join: going from n to n+1 members moves at most
/// 2·pages/n assignments, and every moved page moves *to* the new node
/// (consistent hashing's defining property — existing arcs only shrink).
#[test]
fn join_moves_at_most_two_over_n_of_the_pages() {
    for n in [8u32, 16, 64] {
        let before = assignment(&HashRingOwners::new(n, 1, VNODES));
        let after = assignment(&HashRingOwners::new(n + 1, 1, VNODES));
        let moved: Vec<usize> = (0..PAGES).filter(|&p| before[p] != after[p]).collect();
        let bound = 2 * PAGES / n as usize;
        assert!(
            moved.len() <= bound,
            "n={n}->{}: {} pages moved, bound {bound}",
            n + 1,
            moved.len()
        );
        // Some pages must move (the new node owns a nonempty share)...
        assert!(!moved.is_empty(), "n={n}: new node owns nothing");
        // ...and every move lands on the joining node.
        for &p in &moved {
            assert_eq!(
                after[p],
                NodeId::new(n),
                "page {p} moved to an old member on join"
            );
        }
    }
}

/// The same bound read as a leave: shrinking n+1 to n only re-homes the
/// leaver's pages (the symmetric difference is exactly the join set).
#[test]
fn leave_rehomes_only_the_leavers_pages() {
    let n = 16u32;
    let big = assignment(&HashRingOwners::new(n + 1, 1, VNODES));
    let small = assignment(&HashRingOwners::new(n, 1, VNODES));
    for p in 0..PAGES {
        if big[p] != NodeId::new(n) {
            assert_eq!(
                big[p], small[p],
                "page {p} moved although its owner did not leave"
            );
        }
    }
}

/// Epoch succession is a permutation: for any page the first n epochs
/// visit n distinct members, epoch 0 is the static owner, and succession
/// is stable across equal rings (computed-never-stored requires every
/// node to derive the same walk).
#[test]
fn epoch_succession_is_a_stable_permutation() {
    let n = 16u32;
    let a = HashRingOwners::new(n, 1, VNODES);
    let b = HashRingOwners::new(n, 1, VNODES);
    for p in (0..PAGES).step_by(61) {
        let page = PageId::new(p as u32);
        let walk: Vec<NodeId> = (0..n).map(|e| a.owner_at_epoch(page, e)).collect();
        assert_eq!(walk[0], a.owner_of_page(page));
        let mut sorted = walk.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            n as usize,
            "page {p}: succession repeats early"
        );
        for e in 0..n {
            assert_eq!(a.owner_at_epoch(page, e), b.owner_at_epoch(page, e));
            // Succession wraps modulo n.
            assert_eq!(a.owner_at_epoch(page, e), a.owner_at_epoch(page, e + n));
        }
    }
}

/// The round-robin default keeps the failover layer's historical formula:
/// `owner_at_epoch` on a non-ring map is `(static + e) mod n`, so swapping
/// the trait method into `failover::owner_at` changed no behavior there.
#[test]
fn default_owner_at_epoch_matches_failover_formula() {
    let rr = memcore::RoundRobinOwners::new(5, 2);
    for p in 0..40usize {
        let page = PageId::new(p as u32);
        for e in 0..11u32 {
            let want = (rr.owner_of_page(page).index() as u32 + e) % 5;
            assert_eq!(rr.owner_at_epoch(page, e), NodeId::new(want));
        }
    }
}
