//! E3 — the separations that place causal memory strictly between causal
//! broadcasting and sequential consistency.

use causalmem::causal::CausalConfig;
use causalmem::sim::witness::figure3_broadcast_witness;
use causalmem::sim::{broadcast_sim, causal_sim, RunLimits, Script, SimOpts};
use causalmem::sim::{ClientOp, SimDriver};
use causalmem::spec::paper;
use causalmem::spec::{check_causal, Execution};
use memcore::{Location, Recorder, Word};

#[test]
fn e3_broadcast_memory_admits_figure3() {
    let exec = figure3_broadcast_witness();
    let report = check_causal(&exec).expect("well formed");
    assert!(
        !report.is_correct(),
        "the broadcast memory produced an execution causal memory forbids"
    );
    // The violation is the paper's: P3's r(x)2 with 2 ∉ α.
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].read, paper::figure3_violating_read());
}

#[test]
fn e3_transcribed_figure3_is_rejected() {
    let report = check_causal(&paper::figure3()).unwrap();
    assert!(!report.is_correct());
}

/// The owner protocol, by contrast, cannot produce Figure 3: run the same
/// program shape under many random schedules and verify every recorded
/// execution satisfies Definition 2 (so in particular never Figure 3).
#[test]
fn e3_owner_protocol_never_produces_causal_violations_on_fig3_shape() {
    let (x, y, z) = (Location::new(0), Location::new(1), Location::new(2));
    for seed in 0..50u64 {
        let recorder: Recorder<Word> = Recorder::new(3);
        // 3 nodes, 3 locations, round-robin: P0 owns x, P1 owns y, P2 owns z.
        let config = CausalConfig::<Word>::builder(3, 3).build();
        let mut sim = causal_sim(
            &config,
            SimOpts {
                latency: Box::new(causalmem::simnet::latency::Uniform::new(1, 20)),
                seed,
                recorder: Some(recorder.clone()),
                ..SimOpts::default()
            },
        );
        // P0 plays Figure 3's P1; P1 plays P2; P2 plays P3 — with fresh
        // reads so values actually flow.
        sim.set_client(
            0,
            Script::new(vec![
                ClientOp::Write(x, Word::Int(5)),
                ClientOp::Write(y, Word::Int(3)),
            ]),
        );
        sim.set_client(
            1,
            Script::new(vec![
                ClientOp::Write(x, Word::Int(2)),
                ClientOp::ReadFresh(y),
                ClientOp::ReadFresh(x),
                ClientOp::Write(z, Word::Int(4)),
            ]),
        );
        sim.set_client(
            2,
            Script::new(vec![ClientOp::ReadFresh(z), ClientOp::ReadFresh(x)]),
        );
        let report = sim.run(RunLimits::default());
        assert!(report.all_done, "seed {seed}: {report:?}");
        let exec = Execution::from_recorder(&recorder);
        let verdict = check_causal(&exec).expect("well formed");
        assert!(
            verdict.is_correct(),
            "seed {seed}: owner protocol violated causal memory:\n{verdict}"
        );
    }
}

/// Sanity: the broadcast replica memory still yields *causally ordered*
/// deliveries — same-sender updates can never be reordered, so a
/// FIFO-violating outcome is impossible even there.
#[test]
fn broadcast_same_sender_updates_stay_ordered() {
    for seed in 0..20u64 {
        let recorder: Recorder<Word> = Recorder::new(2);
        let mut sim = broadcast_sim::<Word>(
            2,
            1,
            SimOpts {
                latency: Box::new(causalmem::simnet::latency::Uniform::new(1, 10)),
                seed,
                recorder: Some(recorder.clone()),
                ..SimOpts::default()
            },
        );
        let loc = Location::new(0);
        sim.set_client(
            0,
            Script::new(vec![
                ClientOp::Write(loc, Word::Int(1)),
                ClientOp::Write(loc, Word::Int(2)),
            ]),
        );
        let report = sim.run(RunLimits::default());
        assert!(report.all_done);
        // After both deliveries the replica must hold the second write.
        let final_value = sim.driver(1).peek(loc).unwrap();
        assert_eq!(final_value, Word::Int(2), "seed {seed}");
    }
}
