//! Serde round-trips for the workspace's data structures (C-SERDE): an
//! execution recorded from one run can be serialized, archived and checked
//! later.

use causal_spec::paper;
use causal_spec::{check_causal, Execution};
use memcore::{NetStats, NodeId, StatsSnapshot, Word};

#[test]
fn executions_serialize_and_check_identically() {
    let exec = paper::figure2();
    let json = serde_json::to_string(&exec).expect("serialize");
    let back: Execution<i64> = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, exec);
    let a = check_causal(&exec).unwrap();
    let b = check_causal(&back).unwrap();
    assert_eq!(a, b);
    assert!(a.is_correct());
}

#[test]
fn stats_snapshots_round_trip() {
    let stats = NetStats::new(2);
    stats.record(NodeId::new(0), "READ");
    stats.record(NodeId::new(1), "W_REPLY");
    stats.record(NodeId::new(1), "W_REPLY");
    let snap = stats.snapshot();
    let json = serde_json::to_string(&snap).expect("serialize");
    let back: StatsSnapshot = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, snap);
    assert_eq!(back.total(), 3);
}

#[test]
fn words_round_trip() {
    for w in [
        Word::Zero,
        Word::Int(-4),
        Word::Bool(true),
        Word::Float(2.5),
    ] {
        let json = serde_json::to_string(&w).expect("serialize");
        let back: Word = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, w);
    }
}

#[test]
fn recorded_engine_execution_survives_archival() {
    // Record a real run, archive it as JSON, recheck from the archive.
    use causal_dsm::CausalCluster;
    use memcore::{Location, Recorder, SharedMemory};
    let recorder: Recorder<Word> = Recorder::new(2);
    let cluster = CausalCluster::<Word>::builder(2, 2)
        .recorder(recorder.clone())
        .build()
        .unwrap();
    cluster
        .handle(0)
        .write(Location::new(0), Word::Int(1))
        .unwrap();
    let _ = cluster.handle(1).read(Location::new(0)).unwrap();
    let exec = Execution::from_recorder(&recorder);
    let archived = serde_json::to_string_pretty(&exec).unwrap();
    let restored: Execution<Word> = serde_json::from_str(&archived).unwrap();
    assert!(check_causal(&restored).unwrap().is_correct());
}
