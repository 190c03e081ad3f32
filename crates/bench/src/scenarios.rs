//! Reusable experiment scenarios.
//!
//! Every figure/claim reproduction builds its network through these
//! functions so the integration tests, the `harness` binary and the
//! Criterion benches all measure exactly the same systems.

use vgprs_core::{GsmZone, GsmZoneConfig, LatencyProfile, VgprsZone, VgprsZoneConfig, Vmsc};
use vgprs_gsm::MobileStation;
use vgprs_h323::H323Terminal;
use vgprs_pstn::{PstnPhone, PstnSwitch, TrunkClass};
use vgprs_sim::{Interface, Network, NodeId, SimDuration, SimTime};
use vgprs_tr22973::{TrZone, TrZoneConfig};
use vgprs_wire::{CallId, CellId, Command, Imsi, Lai, Message, Msisdn};

/// A single vGPRS zone with one registered MS and one H.323 terminal —
/// the world of Figures 1–6.
pub struct SingleZone {
    /// The network.
    pub net: Network<Message>,
    /// Zone handles.
    pub zone: VgprsZone,
    /// The mobile station.
    pub ms: NodeId,
    /// The MS's identity.
    pub ms_imsi: Imsi,
    /// The MS's number.
    pub ms_msisdn: Msisdn,
    /// The wireline H.323 terminal.
    pub term: NodeId,
    /// The terminal's alias.
    pub term_alias: Msisdn,
}

impl SingleZone {
    /// Builds the zone and registers both endpoints.
    pub fn build(seed: u64) -> SingleZone {
        let mut net = Network::new(seed);
        let mut zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
        let ms_imsi = Imsi::parse("466920000000001").expect("valid");
        let ms_msisdn = Msisdn::parse("886912000001").expect("valid");
        let term_alias = Msisdn::parse("886220001111").expect("valid");
        let ms = zone.add_subscriber(&mut net, "ms1", ms_imsi, 0xABCD, ms_msisdn);
        let term = zone.add_terminal(&mut net, "term1", term_alias);
        net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
        net.run_until_quiescent();
        SingleZone {
            net,
            zone,
            ms,
            ms_imsi,
            ms_msisdn,
            term,
            term_alias,
        }
    }

    /// Places an MS→terminal call and runs until both talk, returning the
    /// post-dial delay (dial → ringback) in milliseconds.
    pub fn call_from_ms(&mut self, call: CallId, talk_for: SimDuration) -> f64 {
        self.net.inject(
            SimDuration::ZERO,
            self.ms,
            Message::Cmd(Command::Dial {
                call,
                called: self.term_alias,
            }),
        );
        let deadline = self.net.now() + SimDuration::from_secs(5) + talk_for;
        self.net.run_until(deadline);
        self.net
            .stats()
            .histogram("ms.post_dial_delay_ms")
            .map(|h| h.mean())
            .unwrap_or(f64::NAN)
    }

    /// Hangs up from the MS side and drains the release.
    pub fn hangup_from_ms(&mut self) {
        self.net
            .inject(SimDuration::ZERO, self.ms, Message::Cmd(Command::Hangup));
        self.net.run_until_quiescent();
    }
}

/// The measured outcome of one roaming-call scenario (Figures 7–8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TromboningReport {
    /// Did the call reach the roamer and connect?
    pub connected: bool,
    /// International trunk seizures across all switches.
    pub international_trunks: usize,
    /// Local trunk seizures across all switches.
    pub local_trunks: usize,
    /// Total trunk cost after 60 s of conversation (cost units).
    pub trunk_cost_60s: f64,
    /// Post-dial delay at the calling phone (ms), if ringback was heard.
    pub post_dial_delay_ms: Option<f64>,
}

/// Figure 7: subscriber `x` (home: UK) roams to Hong Kong under a
/// *classic* GSM visited network; `y` in Hong Kong calls `x`'s UK number.
///
/// Classic GSM call delivery routes via the UK GMSC and back — two
/// international trunks.
pub fn tromboning_classic(seed: u64) -> TromboningReport {
    let mut net = Network::new(seed);
    let lat = LatencyProfile::default();

    // Two national PSTNs joined by an international trunk group.
    let hk_switch = net.add_node("hk.pstn", PstnSwitch::new("hk"));
    let uk_switch = net.add_node("uk.pstn", PstnSwitch::new("uk"));
    net.connect(hk_switch, uk_switch, Interface::Isup, lat.isup_international);

    // Home network (UK): provides x's HLR and the GMSC role.
    let uk = GsmZone::build(
        &mut net,
        GsmZoneConfig {
            name: "uk".into(),
            country_code: "44".into(),
            home_prefix: "447".into(),
            msrn_prefix: "449990".into(),
            lai: Lai::new(234, 15, 1),
            cell: CellId(10),
            tch_capacity: 32,
            auth_on_access: true,
            latency: lat,
        },
        uk_switch,
    );
    // Visited network (HK), classic GSM.
    let hk = GsmZone::build(
        &mut net,
        GsmZoneConfig {
            name: "hk".into(),
            country_code: "852".into(),
            home_prefix: "8529".into(),
            msrn_prefix: "8529990".into(),
            lai: Lai::new(454, 0, 1),
            cell: CellId(20),
            tch_capacity: 32,
            auth_on_access: true,
            latency: lat,
        },
        hk_switch,
    );
    // Roamer dialogue path: HK VLR ↔ UK HLR (international SS7).
    net.connect(hk.vlr, uk.hlr, Interface::D, lat.ss7_international);
    net.node_mut::<vgprs_gsm::Vlr>(hk.vlr)
        .expect("hk vlr")
        .add_hlr_route("234", uk.hlr);

    // x: UK subscriber, roaming in HK.
    let x_imsi = Imsi::parse("234150000000001").expect("valid");
    let x_msisdn = Msisdn::parse("447700900123").expect("valid");
    net.node_mut::<vgprs_gsm::Hlr>(uk.hlr)
        .expect("uk hlr")
        .provision(x_imsi, 0xCAFE, vgprs_wire::SubscriberProfile::full(x_msisdn));
    let x = hk.add_roamer(&mut net, "x", x_imsi, 0xCAFE, x_msisdn);

    // y: a fixed-line phone in HK.
    let y_msisdn = Msisdn::parse("85221230001").expect("valid");
    let y = net.add_node("hk.y", PstnPhone::new(y_msisdn, hk_switch));
    net.connect(y, hk_switch, Interface::Isup, lat.isup);

    // Routing tables.
    {
        let s = net.node_mut::<PstnSwitch>(hk_switch).expect("hk switch");
        s.add_route("44", uk_switch, TrunkClass::International);
        s.add_route("85221230001", y, TrunkClass::Local);
        s.add_route("8529990", hk.msc, TrunkClass::Local);
    }
    {
        let s = net.node_mut::<PstnSwitch>(uk_switch).expect("uk switch");
        s.add_route("447", uk.msc, TrunkClass::National);
        s.add_route("852", hk_switch, TrunkClass::International);
    }

    // x registers in HK; then y calls x's UK number.
    net.inject(SimDuration::ZERO, x, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    let call = CallId(900);
    net.inject(
        SimDuration::ZERO,
        y,
        Message::Cmd(Command::Dial {
            call,
            called: x_msisdn,
        }),
    );
    net.run_until(net.now() + SimDuration::from_secs(65));

    let connected = net
        .node::<MobileStation>(x)
        .map(|m| m.calls_connected > 0)
        .unwrap_or(false);
    summarize_trunks(&net, &[hk_switch, uk_switch], call, connected)
}

/// Figure 8: the same roaming call, but the visited network runs vGPRS
/// with a local gatekeeper and an H.323/PSTN gateway. When `x` is
/// registered locally the call never leaves Hong Kong; when not, the
/// gateway falls back to the international PSTN (crankback).
pub fn tromboning_vgprs(seed: u64, roamer_registered: bool) -> TromboningReport {
    let mut net = Network::new(seed);
    let lat = LatencyProfile::default();

    let hk_switch = net.add_node("hk.pstn", PstnSwitch::new("hk"));
    let uk_switch = net.add_node("uk.pstn", PstnSwitch::new("uk"));
    net.connect(hk_switch, uk_switch, Interface::Isup, lat.isup_international);

    // Home network (UK) stays classic: it holds x's HLR.
    let uk = GsmZone::build(
        &mut net,
        GsmZoneConfig {
            name: "uk".into(),
            country_code: "44".into(),
            home_prefix: "447".into(),
            msrn_prefix: "449990".into(),
            lai: Lai::new(234, 15, 1),
            cell: CellId(10),
            tch_capacity: 32,
            auth_on_access: true,
            latency: lat,
        },
        uk_switch,
    );

    // Visited network (HK) runs vGPRS.
    let mut hk = VgprsZone::build(
        &mut net,
        VgprsZoneConfig {
            name: "hk".into(),
            country_code: "852".into(),
            msrn_prefix: "8529990".into(),
            lai: Lai::new(454, 0, 1),
            cell: CellId(20),
            ..VgprsZoneConfig::taiwan()
        },
    );
    net.connect(hk.vlr, uk.hlr, Interface::D, lat.ss7_international);
    net.node_mut::<vgprs_gsm::Vlr>(hk.vlr)
        .expect("hk vlr")
        .add_hlr_route("234", uk.hlr);

    let x_imsi = Imsi::parse("234150000000001").expect("valid");
    let x_msisdn = Msisdn::parse("447700900123").expect("valid");
    net.node_mut::<vgprs_gsm::Hlr>(uk.hlr)
        .expect("uk hlr")
        .provision(x_imsi, 0xCAFE, vgprs_wire::SubscriberProfile::full(x_msisdn));
    let x = hk.add_roamer(&mut net, "x", x_imsi, 0xCAFE, x_msisdn);

    let y_msisdn = Msisdn::parse("85221230001").expect("valid");
    let y = net.add_node("hk.y", PstnPhone::new(y_msisdn, hk_switch));
    net.connect(y, hk_switch, Interface::Isup, lat.isup);

    // The HK telco hands 44-prefixed calls to its VoIP gateway first
    // (Figure 8, step (1)); "44" also routes internationally as the
    // crankback fallback.
    let _gw = hk.add_gateway(&mut net, hk_switch, "447");
    {
        let s = net.node_mut::<PstnSwitch>(hk_switch).expect("hk switch");
        s.add_route("44", uk_switch, TrunkClass::International);
        s.add_route("85221230001", y, TrunkClass::Local);
    }
    {
        let s = net.node_mut::<PstnSwitch>(uk_switch).expect("uk switch");
        s.add_route("447", uk.msc, TrunkClass::National);
        s.add_route("852", hk_switch, TrunkClass::International);
    }

    if roamer_registered {
        net.inject(SimDuration::ZERO, x, Message::Cmd(Command::PowerOn));
        net.run_until_quiescent();
    }
    let call = CallId(900);
    net.inject(
        SimDuration::ZERO,
        y,
        Message::Cmd(Command::Dial {
            call,
            called: x_msisdn,
        }),
    );
    net.run_until(net.now() + SimDuration::from_secs(65));

    let connected = net
        .node::<MobileStation>(x)
        .map(|m| m.calls_connected > 0)
        .unwrap_or(false);
    summarize_trunks(&net, &[hk_switch, uk_switch], call, connected)
}

fn summarize_trunks(
    net: &Network<Message>,
    switches: &[NodeId],
    call: CallId,
    connected: bool,
) -> TromboningReport {
    // Call legs carry their own (renamed) identifiers through the GMSC,
    // exactly as in real networks; the scenario has a single call, so
    // totalling the ledgers per trunk class captures all of its legs.
    let _ = call;
    let mut international = 0;
    let mut local = 0;
    let mut cost = 0.0;
    for &sw in switches {
        let ledger = net
            .node::<PstnSwitch>(sw)
            .expect("switch")
            .ledger();
        for entry in ledger.entries() {
            match entry.class {
                TrunkClass::International => international += 1,
                TrunkClass::Local => local += 1,
                TrunkClass::National => {}
            }
            cost += entry.cost(net.now());
        }
    }
    TromboningReport {
        connected,
        international_trunks: international,
        local_trunks: local,
        trunk_cost_60s: cost,
        post_dial_delay_ms: net
            .stats()
            .histogram("phone.post_dial_delay_ms")
            .map(|h| h.mean()),
    }
}

/// The measured outcome of the inter-system handoff scenario (Figure 9).
#[derive(Clone, Copy, Debug)]
pub struct HandoffReport {
    /// The MS completed the handoff.
    pub handoffs_completed: u64,
    /// Frames the MS heard before the handoff.
    pub frames_before: u64,
    /// Frames the MS heard after the handoff (voice continuity).
    pub frames_after: u64,
    /// Frames the terminal heard after the handoff (uplink continuity).
    pub term_frames_after: u64,
}

/// Figure 9: an MS in a call through a VMSC moves into a cell served by a
/// neighboring *classic* GSM MSC. The VMSC stays in the path as the
/// anchor; voice continues over an inter-MSC trunk.
pub fn intersystem_handoff(seed: u64) -> HandoffReport {
    let mut net = Network::new(seed);
    let lat = LatencyProfile::default();

    let mut zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    // Neighboring classic MSC (same country) with its own BSC/BTS.
    let pstn = net.add_node("tw.pstn", PstnSwitch::new("tw"));
    let neighbor = GsmZone::build(
        &mut net,
        GsmZoneConfig {
            name: "tw2".into(),
            country_code: "886".into(),
            home_prefix: "8869".into(),
            msrn_prefix: "8869991".into(),
            lai: Lai::new(466, 92, 2),
            cell: CellId(2),
            tch_capacity: 32,
            auth_on_access: true,
            latency: lat,
        },
        pstn,
    );
    // E interface between the two MSCs; the VMSC knows cell 2's owner.
    net.connect(zone.vmsc, neighbor.msc, Interface::E, lat.e);
    net.node_mut::<Vmsc>(zone.vmsc)
        .expect("vmsc")
        .add_neighbor_cell(CellId(2), neighbor.msc);

    let ms_imsi = Imsi::parse("466920000000001").expect("valid");
    let ms_msisdn = Msisdn::parse("886912000001").expect("valid");
    let term_alias = Msisdn::parse("886220001111").expect("valid");
    let ms = zone.add_subscriber(&mut net, "ms1", ms_imsi, 0xABCD, ms_msisdn);
    let term = zone.add_terminal(&mut net, "term1", term_alias);
    // The MS can also hear the neighbor's cell.
    net.connect(ms, neighbor.bts, Interface::Um, lat.um);
    net.node_mut::<vgprs_gsm::Bts>(neighbor.bts)
        .expect("neighbor bts")
        .register_ms(ms, ms_imsi);
    net.node_mut::<MobileStation>(ms)
        .expect("ms")
        .add_neighbor(CellId(2), neighbor.bts);

    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: term_alias,
        }),
    );
    // Talk for a while before moving.
    net.run_until(SimTime::from_micros(10_000_000));
    let frames_before = net.node::<MobileStation>(ms).expect("ms").frames_received;
    let term_frames_before = net.node::<H323Terminal>(term).expect("term").frames_received;

    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::MoveToCell { cell: CellId(2) }),
    );
    net.run_until(SimTime::from_micros(20_000_000));

    let handset = net.node::<MobileStation>(ms).expect("ms");
    let terminal = net.node::<H323Terminal>(term).expect("term");
    HandoffReport {
        handoffs_completed: handset.handoffs_completed,
        frames_before,
        frames_after: handset.frames_received - frames_before,
        term_frames_after: terminal.frames_received - term_frames_before,
    }
}

/// Section 7's closing claim: "inter-system handoff between two VMSCs
/// follows the same procedure". Identical to [`intersystem_handoff`] but
/// the neighboring cell belongs to a *second VMSC* (its own GPRS core and
/// H.323 zone), not a classic MSC.
pub fn intervmsc_handoff(seed: u64) -> HandoffReport {
    let mut net = Network::new(seed);
    let lat = LatencyProfile::default();

    let mut zone1 = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    let zone2 = VgprsZone::build(
        &mut net,
        VgprsZoneConfig {
            name: "tw2".into(),
            lai: Lai::new(466, 92, 2),
            cell: CellId(2),
            msrn_prefix: "8869991".into(),
            pool: (vgprs_wire::Ipv4Addr::from_octets(10, 201, 0, 0), 16),
            gk_addr: vgprs_wire::TransportAddr::new(
                vgprs_wire::Ipv4Addr::from_octets(10, 2, 0, 2),
                1719,
            ),
            ..VgprsZoneConfig::taiwan()
        },
    );
    net.connect(zone1.vmsc, zone2.vmsc, Interface::E, lat.e);
    net.node_mut::<Vmsc>(zone1.vmsc)
        .expect("vmsc1")
        .add_neighbor_cell(CellId(2), zone2.vmsc);

    let ms_imsi = Imsi::parse("466920000000001").expect("valid");
    let ms = zone1.add_subscriber(
        &mut net,
        "ms1",
        ms_imsi,
        0xABCD,
        Msisdn::parse("886912000001").expect("valid"),
    );
    let term_alias = Msisdn::parse("886220001111").expect("valid");
    let term = zone1.add_terminal(&mut net, "term1", term_alias);
    net.connect(ms, zone2.bts, Interface::Um, lat.um);
    net.node_mut::<vgprs_gsm::Bts>(zone2.bts)
        .expect("bts2")
        .register_ms(ms, ms_imsi);
    net.node_mut::<MobileStation>(ms)
        .expect("ms")
        .add_neighbor(CellId(2), zone2.bts);

    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: term_alias,
        }),
    );
    net.run_until(SimTime::from_micros(10_000_000));
    let frames_before = net.node::<MobileStation>(ms).expect("ms").frames_received;
    let term_before = net.node::<H323Terminal>(term).expect("term").frames_received;
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::MoveToCell { cell: CellId(2) }),
    );
    net.run_until(SimTime::from_micros(20_000_000));
    let handset = net.node::<MobileStation>(ms).expect("ms");
    let terminal = net.node::<H323Terminal>(term).expect("term");
    HandoffReport {
        handoffs_completed: handset.handoffs_completed,
        frames_before,
        frames_after: handset.frames_received - frames_before,
        term_frames_after: terminal.frames_received - term_before,
    }
}

/// Figure 9 with windowed delay measurement: mean downlink frame delay
/// at the MS before vs. after the handoff (the C5 measurement).
pub fn intersystem_handoff_windowed(seed: u64) -> crate::experiments::C5Report {
    // Identical world to `intersystem_handoff`, but we snapshot the MS's
    // voice-delay histogram at the handoff boundary.
    let mut net = Network::new(seed);
    let lat = LatencyProfile::default();
    let mut zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    let pstn = net.add_node("tw.pstn", PstnSwitch::new("tw"));
    let neighbor = GsmZone::build(
        &mut net,
        GsmZoneConfig {
            name: "tw2".into(),
            country_code: "886".into(),
            home_prefix: "8869".into(),
            msrn_prefix: "8869991".into(),
            lai: Lai::new(466, 92, 2),
            cell: CellId(2),
            tch_capacity: 32,
            auth_on_access: true,
            latency: lat,
        },
        pstn,
    );
    net.connect(zone.vmsc, neighbor.msc, Interface::E, lat.e);
    net.node_mut::<Vmsc>(zone.vmsc)
        .expect("vmsc")
        .add_neighbor_cell(CellId(2), neighbor.msc);
    let ms_imsi = Imsi::parse("466920000000001").expect("valid");
    let ms = zone.add_subscriber(
        &mut net,
        "ms1",
        ms_imsi,
        0xABCD,
        Msisdn::parse("886912000001").expect("valid"),
    );
    let term_alias = Msisdn::parse("886220001111").expect("valid");
    let _term = zone.add_terminal(&mut net, "term1", term_alias);
    net.connect(ms, neighbor.bts, Interface::Um, lat.um);
    net.node_mut::<vgprs_gsm::Bts>(neighbor.bts)
        .expect("bts")
        .register_ms(ms, ms_imsi);
    net.node_mut::<MobileStation>(ms)
        .expect("ms")
        .add_neighbor(CellId(2), neighbor.bts);

    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: term_alias,
        }),
    );
    net.run_until(SimTime::from_micros(10_000_000));
    let (n1, s1) = histogram_sum(&net, "ms.voice_e2e_ms");
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::MoveToCell { cell: CellId(2) }),
    );
    net.run_until(SimTime::from_micros(20_000_000));
    let (n2, s2) = histogram_sum(&net, "ms.voice_e2e_ms");
    let before = if n1 > 0 { s1 / n1 as f64 } else { f64::NAN };
    let after = if n2 > n1 {
        (s2 - s1) / (n2 - n1) as f64
    } else {
        f64::NAN
    };
    crate::experiments::C5Report {
        handoffs: net.node::<MobileStation>(ms).expect("ms").handoffs_completed,
        delay_before_ms: before,
        delay_after_ms: after,
    }
}

fn histogram_sum(net: &Network<Message>, name: &str) -> (u64, f64) {
    net.stats()
        .histogram(name)
        .map(|h| (h.count(), h.sum()))
        .unwrap_or((0, 0.0))
}

/// A TR 22.973 zone with one TR MS and a terminal — the baseline world.
pub struct TrSingleZone {
    /// The network.
    pub net: Network<Message>,
    /// Zone handles.
    pub zone: TrZone,
    /// The TR mobile.
    pub ms: NodeId,
    /// Its number.
    pub ms_msisdn: Msisdn,
    /// The wireline terminal.
    pub term: NodeId,
    /// Its alias.
    pub term_alias: Msisdn,
}

impl TrSingleZone {
    /// Builds and registers both endpoints.
    pub fn build(seed: u64) -> TrSingleZone {
        let mut net = Network::new(seed);
        let mut zone = TrZone::build(&mut net, TrZoneConfig::taiwan());
        let ms_msisdn = Msisdn::parse("886912000001").expect("valid");
        let term_alias = Msisdn::parse("886220001111").expect("valid");
        let ms = zone.add_tr_ms(
            &mut net,
            "trms1",
            Imsi::parse("466920000000001").expect("valid"),
            ms_msisdn,
        );
        let term = zone.add_terminal(&mut net, "term1", term_alias);
        net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
        net.run_until_quiescent();
        TrSingleZone {
            net,
            zone,
            ms,
            ms_msisdn,
            term,
            term_alias,
        }
    }
}
