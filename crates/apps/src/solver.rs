//! The synchronous iterative linear solver of Figure 6.
//!
//! `n` worker processes each own one component of the solution vector plus
//! two handshake flags; a coordinator process cycles the barrier. The same
//! code runs unchanged on causal and atomic memory — the paper's central
//! programming claim — and the message-count experiment (E6) measures the
//! paper's `2n + 6` (causal) vs `≥ 3n + 5` (atomic) per processor per
//! phase.
//!
//! Memory layout (page size 1, explicit ownership):
//!
//! | locations | variable | owner |
//! |---|---|---|
//! | `i` | `x_i` | worker `P_i` |
//! | `n + i` | `complete_i` | worker `P_i` |
//! | `2n + i` | `changed_i` | worker `P_i` |
//! | `3n + i·n + j` | `A[i][j]` | coordinator (constant) |
//! | `3n + n² + i` | `b_i` | coordinator (constant) |
//!
//! The coordinator is node `n`.

use memcore::{Location, MemoryError, NodeId, PageId, SharedMemory, Word};

use crate::system::LinearSystem;

/// The solver's shared-memory layout for `n` workers plus a coordinator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolverLayout {
    n: usize,
}

impl SolverLayout {
    /// Layout for `n` workers.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (the paper's counting argument needs at least two
    /// workers).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "solver needs at least two workers");
        SolverLayout { n }
    }

    /// Number of workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.n
    }

    /// Total processes (workers + coordinator).
    #[must_use]
    pub fn nodes(&self) -> u32 {
        (self.n + 1) as u32
    }

    /// The coordinator's node id.
    #[must_use]
    pub fn coordinator(&self) -> NodeId {
        NodeId::new(self.n as u32)
    }

    /// Location of `x_i`.
    #[must_use]
    pub fn x(&self, i: usize) -> Location {
        Location::new(i as u32)
    }

    /// Location of `complete_i`.
    #[must_use]
    pub fn complete(&self, i: usize) -> Location {
        Location::new((self.n + i) as u32)
    }

    /// Location of `changed_i`.
    #[must_use]
    pub fn changed(&self, i: usize) -> Location {
        Location::new((2 * self.n + i) as u32)
    }

    /// Location of `A[i][j]`.
    #[must_use]
    pub fn a(&self, i: usize, j: usize) -> Location {
        Location::new((3 * self.n + i * self.n + j) as u32)
    }

    /// Location of `b_i`.
    #[must_use]
    pub fn b(&self, i: usize) -> Location {
        Location::new((3 * self.n + self.n * self.n + i) as u32)
    }

    /// The initialization flag: the coordinator sets it true once `A` and
    /// `b` are published; workers wait for it before their first read.
    /// (Needed on replicated memories, where an early local read would
    /// otherwise see the initial zeros.)
    #[must_use]
    pub fn ready(&self) -> Location {
        Location::new((3 * self.n + self.n * self.n + self.n) as u32)
    }

    /// Total locations in the namespace.
    #[must_use]
    pub fn locations(&self) -> u32 {
        (3 * self.n + self.n * self.n + self.n + 1) as u32
    }

    /// Per-page owner table: worker `P_i` owns `x_i` and its flags; the
    /// coordinator owns `A` and `b`.
    #[must_use]
    pub fn owner_table(&self) -> Vec<NodeId> {
        let mut table = Vec::with_capacity(self.locations() as usize);
        // x block, complete block, changed block: P_i owns slot i of each.
        for _block in 0..3 {
            for i in 0..self.n {
                table.push(NodeId::new(i as u32));
            }
        }
        let coord = self.coordinator();
        // A, b and the ready flag belong to the coordinator.
        for _ in 0..(self.n * self.n + self.n + 1) {
            table.push(coord);
        }
        table
    }

    /// The pages holding `A` and `b` (candidates for constant marking —
    /// the paper's footnote-2 enhancement). The ready flag is excluded:
    /// it changes.
    #[must_use]
    pub fn const_pages(&self) -> Vec<PageId> {
        (3 * self.n..self.ready().index())
            .map(|l| PageId::new(l as u32))
            .collect()
    }

    /// Explicit owner map for this layout (page size 1).
    #[must_use]
    pub fn owners(&self) -> memcore::ExplicitOwners {
        memcore::ExplicitOwners::new(self.nodes(), 1, self.owner_table())
    }
}

/// Publishes `A` and `b` into shared memory (run on the coordinator's
/// handle before starting the workers).
///
/// # Errors
///
/// Propagates memory errors.
pub fn publish_system<M: SharedMemory<Word>>(
    mem: &M,
    layout: &SolverLayout,
    system: &LinearSystem,
) -> Result<(), MemoryError> {
    let n = layout.workers();
    for i in 0..n {
        for j in 0..n {
            mem.write(layout.a(i, j), Word::Float(system.a(i, j)))?;
        }
        mem.write(layout.b(i), Word::Float(system.b(i)))?;
    }
    mem.write(layout.ready(), Word::Bool(true))?;
    Ok(())
}

/// Runs worker `i` of the Figure-6 synchronous solver for `phases`
/// iterations on any shared memory. Blocking; intended for one thread per
/// worker. All inputs (`A`, `b`, the vector) come from shared memory;
/// the worker carries no out-of-band state.
///
/// # Errors
///
/// Propagates memory errors.
///
/// # Panics
///
/// Panics if the memory returns a non-float where the layout stores
/// floats.
pub fn run_worker<M: SharedMemory<Word>>(
    mem: &M,
    layout: &SolverLayout,
    i: usize,
    phases: usize,
) -> Result<f64, MemoryError> {
    let n = layout.workers();
    let t = |w: Word| w.as_float().expect("solver locations hold floats");
    let is_false = |v: &Word| v.as_bool() == Some(false);

    // Wait for the coordinator to finish publishing A and b.
    mem.wait_until(layout.ready(), |v: &Word| v.as_bool() == Some(true))?;

    let mut a_row = vec![0.0; n];
    let mut x = vec![0.0; n];
    for _phase in 0..phases {
        // Read this row of A and b from shared memory (cache hits when
        // their pages are marked constant — the footnote-2 enhancement).
        for (j, slot) in a_row.iter_mut().enumerate() {
            *slot = t(mem.read(layout.a(i, j))?);
        }
        let b_i = t(mem.read(layout.b(i))?);

        // Read the previous iteration's vector. Own component is local;
        // others may be cached or fetched.
        for (j, slot) in x.iter_mut().enumerate() {
            *slot = t(mem.read(layout.x(j))?);
        }
        let mut sum = b_i;
        for (j, (&a, &xv)) in a_row.iter().zip(&x).enumerate() {
            if j != i {
                sum -= a * xv;
            }
        }
        let t_i = sum / a_row[i];

        // Handshake 1: signal computation complete, await release.
        mem.write(layout.complete(i), Word::Bool(true))?;
        mem.wait_until(layout.complete(i), is_false)?;

        // Publish the new value.
        mem.write(layout.x(i), Word::Float(t_i))?;

        // Handshake 2: signal copy complete, await next phase (the
        // coordinator resets changed_i to false).
        mem.write(layout.changed(i), Word::Bool(true))?;
        mem.wait_until(layout.changed(i), is_false)?;
    }
    mem.read(layout.x(i)).map(t)
}

/// Runs the coordinator of the Figure-6 solver for `phases` iterations.
///
/// # Errors
///
/// Propagates memory errors.
pub fn run_coordinator<M: SharedMemory<Word>>(
    mem: &M,
    layout: &SolverLayout,
    phases: usize,
) -> Result<(), MemoryError> {
    let n = layout.workers();
    let is_true = |v: &Word| v.as_bool() == Some(true);
    for _phase in 0..phases {
        // Wait for every worker to finish computing, then release them to
        // overwrite the global vector.
        for i in 0..n {
            mem.wait_until(layout.complete(i), is_true)?;
        }
        for i in 0..n {
            mem.write(layout.complete(i), Word::Bool(false))?;
        }
        // Wait for every worker to have copied, then release them into
        // the next phase.
        for i in 0..n {
            mem.wait_until(layout.changed(i), is_true)?;
        }
        for i in 0..n {
            mem.write(layout.changed(i), Word::Bool(false))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcore::OwnerMap;

    #[test]
    fn layout_locations_are_disjoint_and_dense() {
        let layout = SolverLayout::new(4);
        let mut seen = std::collections::HashSet::new();
        for i in 0..4 {
            assert!(seen.insert(layout.x(i)));
            assert!(seen.insert(layout.complete(i)));
            assert!(seen.insert(layout.changed(i)));
            assert!(seen.insert(layout.b(i)));
            for j in 0..4 {
                assert!(seen.insert(layout.a(i, j)));
            }
        }
        assert!(seen.insert(layout.ready()));
        assert_eq!(seen.len(), layout.locations() as usize);
        assert!(seen.iter().all(|l| l.index() < layout.locations() as usize));
    }

    #[test]
    fn ownership_matches_the_papers_assumption() {
        // "Assume that P_i owns x_i and the handshake bits complete_i and
        // changed_i."
        let layout = SolverLayout::new(3);
        let owners = layout.owners();
        for i in 0..3 {
            let p = NodeId::new(i as u32);
            assert_eq!(owners.owner_of(layout.x(i)), p);
            assert_eq!(owners.owner_of(layout.complete(i)), p);
            assert_eq!(owners.owner_of(layout.changed(i)), p);
            assert_eq!(owners.owner_of(layout.b(i)), layout.coordinator());
        }
        assert_eq!(owners.owner_of(layout.a(2, 1)), layout.coordinator());
    }

    #[test]
    fn const_pages_cover_exactly_a_and_b() {
        let layout = SolverLayout::new(3);
        let pages = layout.const_pages();
        assert_eq!(pages.len(), 9 + 3);
        assert_eq!(pages[0].index(), layout.a(0, 0).index());
        assert_eq!(pages.last().unwrap().index(), layout.b(2).index());
    }

    #[test]
    #[should_panic(expected = "at least two workers")]
    fn single_worker_layout_panics() {
        let _ = SolverLayout::new(1);
    }
}
