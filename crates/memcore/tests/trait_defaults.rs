//! Contract tests for [`SharedMemory`]'s default methods against a mock
//! memory, independent of any engine.

use std::sync::Mutex;

use memcore::{Location, MemoryError, NodeId, SharedMemory};

/// A single-location mock that counts discards and serves a scripted
/// sequence of values (one per read).
struct MockMemory {
    values: Mutex<Vec<i64>>,
    discards: Mutex<u32>,
}

impl MockMemory {
    fn new(values: Vec<i64>) -> Self {
        MockMemory {
            values: Mutex::new(values),
            discards: Mutex::new(0),
        }
    }

    fn discards(&self) -> u32 {
        *self.discards.lock().unwrap()
    }
}

impl SharedMemory<i64> for MockMemory {
    fn node(&self) -> NodeId {
        NodeId::new(0)
    }

    fn read(&self, _loc: Location) -> Result<i64, MemoryError> {
        let mut values = self.values.lock().unwrap();
        if values.len() > 1 {
            Ok(values.remove(0))
        } else {
            values.first().copied().ok_or(MemoryError::Shutdown)
        }
    }

    fn write(&self, _loc: Location, value: i64) -> Result<(), MemoryError> {
        self.values.lock().unwrap().push(value);
        Ok(())
    }

    fn discard(&self, _loc: Location) {
        *self.discards.lock().unwrap() += 1;
    }
}

#[test]
fn read_fresh_discards_then_reads() {
    let mem = MockMemory::new(vec![7]);
    assert_eq!(mem.read_fresh(Location::new(0)).unwrap(), 7);
    assert_eq!(mem.discards(), 1);
}

#[test]
fn wait_until_discards_before_every_retry() {
    // Values 1, 2, 3 then steady 4: the wait must poll through them,
    // discarding each time, and return the first satisfying value.
    let mem = MockMemory::new(vec![1, 2, 3, 4]);
    let got = mem.wait_until(Location::new(0), |v| *v >= 3).unwrap();
    assert_eq!(got, 3);
    assert_eq!(mem.discards(), 3, "one discard per attempt");
}

#[test]
fn wait_until_returns_immediately_when_satisfied() {
    let mem = MockMemory::new(vec![9]);
    assert_eq!(mem.wait_until(Location::new(0), |v| *v == 9).unwrap(), 9);
    assert_eq!(mem.discards(), 1);
}

#[test]
fn wait_until_propagates_errors() {
    let mem = MockMemory::new(vec![]);
    assert_eq!(
        mem.wait_until(Location::new(0), |_| true),
        Err(MemoryError::Shutdown)
    );
}
