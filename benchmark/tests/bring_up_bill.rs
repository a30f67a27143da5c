//! The traced bring-up is a copy of `NetCluster::bring_up` with the seam
//! wrappers put in. This pins the copy to the original: the same op
//! stream must cost the same protocol messages, the same envelopes and —
//! where no batching decision depends on timing — the same wire bytes on
//! both, so a drift in either shows here rather than as a per-layer
//! number that describes another configuration.

use dsm_benchmark::run::{bill, Options};
use dsm_benchmark::workload::Workload;

#[test]
fn traced_and_shipped_bring_up_send_the_same_bill() {
    for workload in Workload::ALL {
        if workload.clients().len() > 1 {
            // Two racing clients decide the bill, not the bring-up.
            continue;
        }
        let opts = Options {
            workload,
            seed: 0xB111,
            seconds: 1,
        };
        let (shipped, shipped_failed) = bill(&opts, false, 1500).expect("shipped bring-up");
        let (traced, traced_failed) = bill(&opts, true, 1500).expect("traced bring-up");
        let name = workload.name();
        assert_eq!(
            (shipped_failed, traced_failed),
            (0, 0),
            "{name}: ops failed"
        );
        assert_eq!(
            shipped.protocol_msgs(),
            traced.protocol_msgs(),
            "{name}: protocol messages"
        );
        for kind in ["READ", "R_REPLY", "WRITE", "W_REPLY"] {
            assert_eq!(
                shipped.msgs_of_kind(kind),
                traced.msgs_of_kind(kind),
                "{name}: {kind} messages"
            );
        }
        assert_eq!(
            shipped.metadata_bytes, traced.metadata_bytes,
            "{name}: timestamp bytes"
        );
        if workload.net_options().batching {
            // How many writes share an envelope depends on when replies
            // arrive, so envelope and byte counts differ run to run.
            continue;
        }
        assert_eq!(shipped.envelopes, traced.envelopes, "{name}: envelopes");
        assert_eq!(shipped.wire.frames, traced.wire.frames, "{name}: frames");
        assert_eq!(shipped.wire.bytes, traced.wire.bytes, "{name}: wire bytes");
    }
}
