//! The traced run must describe the run it claims to: on `remote_rt` the
//! timeline's segments add up to the op span, every segment is there,
//! and wrapping the seams costs little enough that the traced cluster is
//! still the cluster the end-to-end numbers come from.

use dsm_benchmark::run::{per_layer, Options};
use dsm_benchmark::workload::Workload;

#[test]
fn remote_rt_segments_sum_to_the_op_span_and_tracing_is_cheap() {
    let opts = Options {
        workload: Workload::RemoteRt,
        seed: 0x7E57,
        seconds: 6,
    };
    let out = per_layer(&opts, None).expect("traced run");
    assert_eq!(out.failed, 0, "{:?}", out.failures);
    let value = |name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    };
    let span = value("client.traced_op_ns");
    assert!(span > 0.0);
    let segments = [
        "engine.issue_ns",
        "mesh.send_ns",
        "mesh.recv_wake_ns",
        "engine.serve_ns",
        "engine.absorb_ns",
        "engine.complete_wake_ns",
    ];
    let mut sum = 0.0;
    for name in segments {
        let ns = value(name);
        assert!(ns >= 0.0, "{name} = {ns}");
        sum += ns;
    }
    assert!(
        (sum / span - 1.0).abs() <= 0.05,
        "segments sum to {sum} ns, op span is {span} ns"
    );
    assert_eq!(value("simnet.msgs_per_op"), 2.0);
    let overhead = value("client.trace_overhead_share");
    assert!(overhead <= 0.15, "tracing costs {overhead} of throughput");
}
