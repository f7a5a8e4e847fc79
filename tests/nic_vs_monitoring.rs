//! Cross-probe consistency (the invariant behind paper Fig 2/3): the
//! simulated NIC counters see exactly the inter-node subset of what the
//! introspection library records, plus per-message protocol headers.

use mim_core::{Flags, Monitoring};
use mim_mpisim::{schedule, SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

/// A global PML hook recording every wire event — the full stream the NIC
/// counters are fed from (the monitoring library's sessions only see the
/// subset between their start and suspend, so they are compared separately).
struct Recorder {
    events: mim_util::sync::Mutex<Vec<(usize, usize, u64)>>, // (src_core, dst_core, bytes)
}

impl mim_mpisim::PmlHook for Recorder {
    fn on_send(&self, ev: &mim_mpisim::PmlEvent) {
        self.events.lock().push((ev.src_core, ev.dst_core, ev.bytes));
    }
}

#[test]
fn nic_equals_cross_node_monitored_traffic() {
    let np = 16;
    let machine = Machine::cluster(2, 1, 8);
    let header = 64u64;
    let mut cfg = UniverseConfig::new(machine.clone(), Placement::packed(np));
    cfg.nic_header_bytes = header;
    let u = Universe::new(cfg);
    let recorder = std::sync::Arc::new(Recorder { events: mim_util::sync::Mutex::new(Vec::new()) });
    u.add_global_hook(recorder.clone());
    let data = u.launch(|rank| {
        let world = rank.comm_world();
        let me = world.rank();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        // Ring + a broadcast: a mix of intra- and inter-node messages.
        rank.send(&world, (me + 1) % np, 0, &vec![0u8; 100 * (me + 1)]);
        rank.recv::<u8>(&world, SrcSel::Rank((me + np - 1) % np), TagSel::Any);
        let mut v = if me == 3 { vec![9u8; 7000] } else { vec![] };
        rank.bcast(&world, 3, &mut v);
        mon.suspend(id).unwrap();
        let d = mon.allgather_data(rank, id, Flags::ALL_COMM).unwrap();
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
        d
    });
    // 1. NIC counters == cross-node subset of the full PML stream + headers.
    let mut expect_bytes = [0u64; 2];
    let mut expect_msgs = [0u64; 2];
    for &(src_core, dst_core, bytes) in recorder.events.lock().iter() {
        if machine.crosses_network(src_core, dst_core) {
            let node = machine.node_of_core(src_core);
            expect_bytes[node] += bytes + header;
            expect_msgs[node] += 1;
        }
    }
    for node in 0..2 {
        assert_eq!(u.nic().xmit_bytes(node), expect_bytes[node], "node {node} bytes");
        assert_eq!(u.nic().xmit_msgs(node), expect_msgs[node], "node {node} msgs");
        assert_eq!(u.nic().port_xmit_data(node), expect_bytes[node] / 4);
    }
    // 2. The session's matrix is a subset of the full stream (the stream
    // also carries the session's own control traffic: start barrier, data
    // gathers).
    let d = &data[0];
    let stream_total: u64 = recorder.events.lock().iter().map(|&(_, _, b)| b).sum();
    assert!(d.sizes.total() <= stream_total);
    // The user traffic itself is fully present.
    let ring_bytes: u64 = (1..=np as u64).map(|k| 100 * k).sum();
    assert!(d.sizes.total() >= ring_bytes + 7000 * (np as u64 - 1));
}

#[test]
fn intra_node_job_is_invisible_to_the_nic() {
    let machine = Machine::cluster(2, 2, 8); // 16 cores per node
    let u = Universe::new(UniverseConfig::new(machine, Placement::packed(8)));
    // Heavy all-to-all (128 bytes per pair), but everyone lives on node 0.
    let alltoall = schedule::alltoall_pairwise(8, 128);
    u.launch(|rank| schedule::execute(rank, &rank.comm_world(), &alltoall));
    assert_eq!(u.nic().xmit_bytes(0), 0);
    assert_eq!(u.nic().xmit_bytes(1), 0);
}

#[test]
fn event_log_totals_match_counters() {
    let machine = Machine::cluster(2, 1, 4);
    let u = Universe::new(UniverseConfig::new(machine, Placement::packed(8)));
    u.nic().enable_event_log();
    u.launch(|rank| {
        let world = rank.comm_world();
        let me = world.rank();
        rank.send(&world, (me + 4) % 8, 0, &vec![1u8; 512]); // always cross-node
        rank.recv::<u8>(&world, SrcSel::Any, TagSel::Any);
    });
    let log = u.nic().take_event_log();
    let total: u64 = log.iter().map(|e| e.wire_bytes).sum();
    assert_eq!(total, u.nic().xmit_bytes(0) + u.nic().xmit_bytes(1));
    assert_eq!(log.len() as u64, u.nic().xmit_msgs(0) + u.nic().xmit_msgs(1));
    // Timestamps are sorted.
    for w in log.windows(2) {
        assert!(w[0].vtime_ns <= w[1].vtime_ns);
    }
}
