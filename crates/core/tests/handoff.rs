//! Ladder conformance for the paper's Figure 9: inter-VMSC handoff.
//!
//! The behavioral handoff tests (voice keeps flowing, anchor keeps the
//! H.323 leg) live in the workspace-level `tests/handoff.rs`; this file
//! asserts the *message sequence* step by step, like the Figure 4/5/6
//! ladders in `registration.rs` and `calls.rs`, so a reordering of the
//! MAP dialogue fails loudly with the rendered ladder.

use vgprs_core::{VgprsZone, VgprsZoneConfig, Vmsc};
use vgprs_gsm::{Bts, MobileStation, MsState};
use vgprs_h323::H323Terminal;
use vgprs_sim::{Interface, Network, NodeId, SimDuration, SimTime};
use vgprs_wire::{CallId, CellId, Command, Imsi, Ipv4Addr, Lai, Message, Msisdn, TransportAddr};

struct Rig {
    net: Network<Message>,
    anchor_vmsc: NodeId,
    target_vmsc: NodeId,
    ms: NodeId,
    term: NodeId,
}

/// Two vGPRS zones joined by an E-interface trunk, with an MS camped on
/// zone 1 that also hears zone 2's cell, and an H.323 terminal in zone 1.
fn two_zone_rig() -> Rig {
    let mut net = Network::new(42);
    let mut zone1 = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    let zone2 = VgprsZone::build(
        &mut net,
        VgprsZoneConfig {
            name: "tw2".into(),
            lai: Lai::new(466, 92, 2),
            cell: CellId(2),
            msrn_prefix: "8869991".into(),
            pool: (Ipv4Addr::from_octets(10, 201, 0, 0), 16),
            gk_addr: TransportAddr::new(Ipv4Addr::from_octets(10, 2, 0, 2), 1719),
            ..VgprsZoneConfig::taiwan()
        },
    );
    let lat = zone1.latency;
    net.connect(zone1.vmsc, zone2.vmsc, Interface::E, lat.e);
    net.node_mut::<Vmsc>(zone1.vmsc)
        .expect("vmsc1")
        .add_neighbor_cell(CellId(2), zone2.vmsc);

    let imsi = Imsi::parse("466920000000001").expect("valid");
    let ms = zone1.add_subscriber(
        &mut net,
        "ms1",
        imsi,
        0xABCD,
        Msisdn::parse("886912000001").expect("valid"),
    );
    let term = zone1.add_terminal(
        &mut net,
        "term1",
        Msisdn::parse("886220001111").expect("valid"),
    );
    net.connect(ms, zone2.bts, Interface::Um, lat.um);
    net.node_mut::<Bts>(zone2.bts)
        .expect("bts2")
        .register_ms(ms, imsi);
    net.node_mut::<MobileStation>(ms)
        .expect("ms")
        .add_neighbor(CellId(2), zone2.bts);

    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    assert_eq!(
        net.node::<Vmsc>(zone1.vmsc).expect("vmsc1").registered_count(),
        1,
        "precondition: MS registered in zone 1"
    );
    Rig {
        net,
        anchor_vmsc: zone1.vmsc,
        target_vmsc: zone2.vmsc,
        ms,
        term,
    }
}

#[test]
fn figure9_intervmsc_handoff_ladder() {
    let mut r = two_zone_rig();
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: Msisdn::parse("886220001111").expect("valid"),
        }),
    );
    r.net.run_until(SimTime::from_micros(8_000_000));
    assert_eq!(
        r.net.node::<MobileStation>(r.ms).expect("ms").state(),
        MsState::Active,
        "precondition: call connected before the move"
    );
    r.net.trace_mut().clear();

    // Mid-call, the MS reports zone 2's cell as stronger.
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::MoveToCell { cell: CellId(2) }),
    );
    r.net.run_until(SimTime::from_micros(12_000_000));

    // Paper Figure 9 / Section 5 step order.
    assert!(
        r.net.trace().contains_subsequence(&[
            "Um_Measurement_Report",      // MS: target cell is stronger
            "MAP_Prepare_Handover",       // anchor VMSC → target VMSC
            "MAP_Prepare_Handover_ack",   // circuit + handover ref allocated
            "A_Handover_Command",         // anchor tells the MS via old cell
            "Um_Handover_Command",
            "Um_Handover_Complete",       // MS arrives on the target cell
            "A_Handover_Complete",
            "MAP_Send_End_Signal",        // target VMSC → anchor VMSC
            "A_Channel_Release",          // anchor frees the old channel…
            "MAP_Send_End_Signal_ack",    // …and closes the MAP dialogue
        ]),
        "inter-VMSC handoff ladder mismatch; got:\n{}",
        vgprs_sim::LadderDiagram::new(r.net.trace()).render()
    );

    // Anchor keeps the H.323 leg, target took the radio leg.
    assert_eq!(r.net.stats().counter("vmsc.handover_anchored"), 1);
    assert_eq!(r.net.stats().counter("vmsc.handover_target_completed"), 1);
    let handset = r.net.node::<MobileStation>(r.ms).expect("ms");
    assert_eq!(handset.handoffs_completed, 1);
    assert_eq!(handset.state(), MsState::Active, "call survives the handoff");

    // The visitor call record at the target carries the real subscriber,
    // not a placeholder: the E-trunk leg is attributable.
    let target = r.net.node::<Vmsc>(r.target_vmsc).expect("vmsc2");
    assert_eq!(target.active_calls(), 1);

    // Voice still reaches both parties after the handoff.
    let frames_at_move = handset.frames_received;
    let term_at_move = r.net.node::<H323Terminal>(r.term).expect("term").frames_received;
    r.net.run_until(SimTime::from_micros(16_000_000));
    let handset = r.net.node::<MobileStation>(r.ms).expect("ms");
    let terminal = r.net.node::<H323Terminal>(r.term).expect("term");
    assert!(
        handset.frames_received > frames_at_move + 50,
        "downlink voice continues through anchor → E-trunk → target"
    );
    assert!(
        terminal.frames_received > term_at_move + 50,
        "uplink voice continues through target → E-trunk → anchor"
    );
    let anchor = r.net.node::<Vmsc>(r.anchor_vmsc).expect("vmsc1");
    assert_eq!(anchor.active_calls(), 1, "anchor still owns the H.323 leg");
}

#[test]
fn figure9_handoff_to_unknown_cell_is_refused() {
    let mut r = two_zone_rig();
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: Msisdn::parse("886220001111").expect("valid"),
        }),
    );
    r.net.run_until(SimTime::from_micros(8_000_000));
    r.net.trace_mut().clear();
    // A measurement report for a cell no neighbor VMSC serves: the
    // anchor must not start a MAP dialogue.
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::MoveToCell { cell: CellId(99) }),
    );
    r.net.run_until(SimTime::from_micros(10_000_000));
    assert_eq!(r.net.stats().counter("vmsc.handover_unknown_cell"), 1);
    assert_eq!(r.net.trace().count_label("MAP_Prepare_Handover"), 0);
    assert_eq!(
        r.net.node::<MobileStation>(r.ms).expect("ms").state(),
        MsState::Active,
        "call unaffected"
    );
}
