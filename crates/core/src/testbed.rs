//! Full-network construction: wire every element of the paper's
//! Figure 2(b) (and the classic-GSM baseline of Figure 7) into a
//! [`Network`] with realistic per-interface latencies.
//!
//! The builders here are what the examples, the integration tests and the
//! benchmark harness all share, so every experiment runs on an
//! identically-constructed network.

use vgprs_gprs::{Ggsn, IpRouter, Sgsn};
use vgprs_gsm::{
    Bsc, BscConfig, Bts, BtsConfig, GsmMsc, Hlr, MobileStation, MsConfig, MscConfig, Vlr,
    VlrConfig,
};
use vgprs_h323::{Gatekeeper, GatekeeperConfig, GatewayConfig, H323Terminal, PstnGateway,
    TerminalConfig};
use vgprs_pstn::{PstnSwitch, TrunkClass};
use vgprs_sim::{Interface, Network, NodeId, SimDuration};
use vgprs_wire::{
    CellId, Imsi, Ipv4Addr, Lai, Message, Msisdn, PointCode, SubscriberProfile, TransportAddr,
};

use crate::vmsc::{Vmsc, VmscConfig};

/// Per-interface one-way latencies used when wiring links.
#[derive(Clone, Copy, Debug)]
pub struct LatencyProfile {
    /// MS ↔ BTS radio interface.
    pub um: SimDuration,
    /// BTS ↔ BSC.
    pub abis: SimDuration,
    /// BSC ↔ MSC/VMSC.
    pub a: SimDuration,
    /// Domestic SS7 (B/C/D interfaces).
    pub ss7: SimDuration,
    /// International SS7 (roamer's VLR ↔ home HLR).
    pub ss7_international: SimDuration,
    /// BSC/VMSC ↔ SGSN.
    pub gb: SimDuration,
    /// SGSN ↔ GGSN.
    pub gn: SimDuration,
    /// LAN segments in the H.323 zone (and Gi).
    pub lan: SimDuration,
    /// Domestic ISUP trunks.
    pub isup: SimDuration,
    /// International ISUP trunks.
    pub isup_international: SimDuration,
    /// Inter-MSC E interface.
    pub e: SimDuration,
}

impl Default for LatencyProfile {
    /// Values representative of a year-2000 national network.
    fn default() -> Self {
        LatencyProfile {
            um: SimDuration::from_millis(5),
            abis: SimDuration::from_millis(2),
            a: SimDuration::from_millis(2),
            ss7: SimDuration::from_millis(5),
            ss7_international: SimDuration::from_millis(60),
            gb: SimDuration::from_millis(5),
            gn: SimDuration::from_millis(3),
            lan: SimDuration::from_millis(1),
            isup: SimDuration::from_millis(5),
            isup_international: SimDuration::from_millis(70),
            e: SimDuration::from_millis(5),
        }
    }
}

/// Configuration for one vGPRS serving network (Figure 2(b)).
#[derive(Clone, Debug)]
pub struct VgprsZoneConfig {
    /// Name prefix for the nodes ("tw" → "tw.vmsc", …).
    pub name: String,
    /// Country code of this network's numbers.
    pub country_code: String,
    /// Location area broadcast by the zone's cell.
    pub lai: Lai,
    /// The serving cell.
    pub cell: CellId,
    /// Roaming-number prefix minted by the VLR.
    pub msrn_prefix: String,
    /// GGSN PDP address pool.
    pub pool: (Ipv4Addr, u8),
    /// Gatekeeper transport address (inside the pool's LAN space).
    pub gk_addr: TransportAddr,
    /// Gatekeeper admission budget (units of 100 bit/s).
    pub gk_bandwidth: u32,
    /// Traffic channels at the BSC.
    pub tch_capacity: usize,
    /// Shared packet-channel rate at the BTS.
    pub pdch_bps: u64,
    /// Authenticate on every access, not just registration.
    pub auth_on_access: bool,
    /// Run the VMSC in the paper's idle-deactivation ablation mode.
    pub deactivate_idle_contexts: bool,
    /// Arm VMSC recovery guard timers (RAS/ARQ retry, setup supervision).
    /// Off by default so fault-free runs keep their historical event
    /// streams bit-identical.
    pub resilience: bool,
    /// Overload control: VMSC paging-request throttle, pages per
    /// simulated second (`0` = unlimited, the historical behavior).
    pub paging_rate_per_s: u32,
    /// Overload control: gatekeeper ARJ load-shed threshold as a
    /// fraction of the admission budget (`0.0` = disabled).
    pub gk_shed_utilization: f64,
    /// Overload control: SGSN PDP-activation admission rate per
    /// simulated second (`0` = unlimited).
    pub pdp_rate_per_s: u32,
    /// Link latencies.
    pub latency: LatencyProfile,
}

impl VgprsZoneConfig {
    /// A Taiwan-flavored default zone matching the paper's authors.
    pub fn taiwan() -> Self {
        VgprsZoneConfig {
            name: "tw".into(),
            country_code: "886".into(),
            lai: Lai::new(466, 92, 1),
            cell: CellId(1),
            msrn_prefix: "8869990".into(),
            pool: (Ipv4Addr::from_octets(10, 200, 0, 0), 16),
            gk_addr: TransportAddr::new(Ipv4Addr::from_octets(10, 1, 0, 2), 1719),
            gk_bandwidth: 1_000_000,
            tch_capacity: 64,
            pdch_bps: 40_000,
            auth_on_access: true,
            deactivate_idle_contexts: false,
            resilience: false,
            paging_rate_per_s: 0,
            gk_shed_utilization: 0.0,
            pdp_rate_per_s: 0,
            latency: LatencyProfile::default(),
        }
    }
}

/// Handles to every element of a built vGPRS zone.
#[derive(Clone, Debug)]
pub struct VgprsZone {
    /// Home location register (with AuC).
    pub hlr: NodeId,
    /// Visitor location register.
    pub vlr: NodeId,
    /// The VoIP MSC.
    pub vmsc: NodeId,
    /// Base station controller.
    pub bsc: NodeId,
    /// Base transceiver station.
    pub bts: NodeId,
    /// Serving GPRS support node.
    pub sgsn: NodeId,
    /// Gateway GPRS support node.
    pub ggsn: NodeId,
    /// The PSDN router connecting Gi with the H.323 zone.
    pub router: NodeId,
    /// The H.323 gatekeeper.
    pub gk: NodeId,
    /// The gatekeeper's address (for terminals joining the zone).
    pub gk_addr: TransportAddr,
    /// The zone's location area.
    pub lai: Lai,
    /// The zone's cell.
    pub cell: CellId,
    /// Latencies (reused when adding elements later).
    pub latency: LatencyProfile,
    name: String,
    next_host: u16,
}

impl VgprsZone {
    /// Builds the zone inside `net`.
    pub fn build(net: &mut Network<Message>, cfg: VgprsZoneConfig) -> VgprsZone {
        let n = |suffix: &str| format!("{}.{}", cfg.name, suffix);
        let lat = cfg.latency;

        // H.323 zone + packet core.
        let router = net.add_node(&n("router"), IpRouter::new());
        let gk = net.add_node(
            &n("gk"),
            Gatekeeper::new(
                GatekeeperConfig {
                    addr: cfg.gk_addr,
                    bandwidth_budget: cfg.gk_bandwidth,
                    shed_utilization: cfg.gk_shed_utilization,
                },
                router,
            ),
        );
        let ggsn = net.add_node(&n("ggsn"), Ggsn::new(cfg.pool.0, cfg.pool.1));
        let sgsn = net.add_node(
            &n("sgsn"),
            Sgsn::new(PointCode(50), ggsn).with_admission_rate(cfg.pdp_rate_per_s),
        );

        // GSM side.
        let hlr = net.add_node(&n("hlr"), Hlr::new());
        // The VMSC must exist before VLR/BSC reference it; create in order.
        // VLR needs the VMSC id; VMSC needs the VLR id. Create the VLR
        // first against a dummy, then the VMSC, then patch the VLR.
        let vlr = net.add_node(
            &n("vlr"),
            Vlr::new(
                VlrConfig {
                    point_code: PointCode(10),
                    msrn_prefix: cfg.msrn_prefix.clone(),
                    auth_on_access: cfg.auth_on_access,
                },
                hlr, // patched below
                hlr,
            ),
        );
        let vmsc = net.add_node(
            &n("vmsc"),
            Vmsc::new(
                VmscConfig {
                    country_code: cfg.country_code.clone(),
                    gk: cfg.gk_addr,
                    deactivate_idle_contexts: cfg.deactivate_idle_contexts,
                    resilience: cfg.resilience,
                    paging_rate_per_s: cfg.paging_rate_per_s,
                },
                vlr,
                sgsn,
            ),
        );
        net.node_mut::<Vlr>(vlr)
            .expect("just created")
            .set_msc(vmsc);
        let bsc = net.add_node(
            &n("bsc"),
            Bsc::new(
                BscConfig {
                    tch_capacity: cfg.tch_capacity,
                },
                vmsc,
            ),
        );
        let bts = net.add_node(
            &n("bts"),
            Bts::new(
                BtsConfig {
                    cell: cfg.cell,
                    pdch_bps: cfg.pdch_bps,
                    ..BtsConfig::default()
                },
                bsc,
            ),
        );
        net.node_mut::<Bsc>(bsc)
            .expect("just created")
            .register_bts(bts, cfg.cell);
        net.node_mut::<Vmsc>(vmsc)
            .expect("just created")
            .register_bsc(bsc);

        // Links (Figure 2(a)): A, B, C, D, Gb, Gn, Gi, LAN.
        net.connect(bts, bsc, Interface::Abis, lat.abis);
        net.connect(bsc, vmsc, Interface::A, lat.a);
        net.connect(vmsc, vlr, Interface::B, lat.ss7);
        net.connect(vmsc, hlr, Interface::C, lat.ss7);
        net.connect(vlr, hlr, Interface::D, lat.ss7);
        net.connect(vmsc, sgsn, Interface::Gb, lat.gb);
        net.connect(sgsn, ggsn, Interface::Gn, lat.gn);
        net.connect(ggsn, router, Interface::Gi, lat.lan);
        net.connect(gk, router, Interface::Lan, lat.lan);

        // IP routing: the GGSN owns its pool; the GK is a LAN host.
        {
            let r = net.node_mut::<IpRouter>(router).expect("just created");
            r.add_prefix(cfg.pool.0, cfg.pool.1, ggsn);
            r.add_host(cfg.gk_addr.ip, gk);
        }
        net.node_mut::<Ggsn>(ggsn)
            .expect("just created")
            .set_router(router);

        VgprsZone {
            hlr,
            vlr,
            vmsc,
            bsc,
            bts,
            sgsn,
            ggsn,
            router,
            gk,
            gk_addr: cfg.gk_addr,
            lai: cfg.lai,
            cell: cfg.cell,
            latency: lat,
            name: cfg.name,
            next_host: 10,
        }
    }

    /// Provisions a subscriber in this zone's HLR and creates its MS,
    /// camped on the zone's cell.
    pub fn add_subscriber(
        &self,
        net: &mut Network<Message>,
        label: &str,
        imsi: Imsi,
        ki: u64,
        msisdn: Msisdn,
    ) -> NodeId {
        net.node_mut::<Hlr>(self.hlr)
            .expect("zone HLR")
            .provision(imsi, ki, SubscriberProfile::full(msisdn));
        self.add_roamer(net, label, imsi, ki, msisdn)
    }

    /// Creates an MS camped on this zone *without* provisioning the local
    /// HLR — the subscriber's home HLR is elsewhere (roaming; wire the
    /// VLR with [`Vlr::add_hlr_route`] first).
    pub fn add_roamer(
        &self,
        net: &mut Network<Message>,
        label: &str,
        imsi: Imsi,
        ki: u64,
        msisdn: Msisdn,
    ) -> NodeId {
        let ms = net.add_node(
            &format!("{}.{}", self.name, label),
            MobileStation::new(MsConfig::new(imsi, ki, msisdn, self.lai), self.bts),
        );
        net.connect(ms, self.bts, Interface::Um, self.latency.um);
        net.node_mut::<Bts>(self.bts)
            .expect("zone BTS")
            .register_ms(ms, imsi);
        ms
    }

    /// Adds an H.323 terminal on the zone's LAN and registers its routes.
    ///
    /// Call this on the *original* zone handle: the method advances an
    /// internal address counter, and a cloned handle forks that counter
    /// (two zones handing out the same 10.x address would misroute).
    pub fn add_terminal(
        &mut self,
        net: &mut Network<Message>,
        label: &str,
        alias: Msisdn,
    ) -> NodeId {
        let addr = TransportAddr::new(self.next_lan_host(), 1720);
        let term = net.add_node(
            &format!("{}.{}", self.name, label),
            H323Terminal::new(TerminalConfig::new(alias, addr, self.gk_addr), self.router),
        );
        net.connect(term, self.router, Interface::Lan, self.latency.lan);
        net.node_mut::<IpRouter>(self.router)
            .expect("zone router")
            .add_host(addr.ip, term);
        term
    }

    /// Claims the next LAN host address, spread over 10.1.x.y so a zone
    /// can host tens of thousands of endpoints (population-scale load
    /// runs). Panics when the 16-bit host space is spent: wrapping would
    /// hand out duplicate addresses, the gatekeeper's among them.
    fn next_lan_host(&mut self) -> Ipv4Addr {
        self.next_host = self.next_host.checked_add(1).unwrap_or_else(|| {
            panic!(
                "zone {}: LAN host addresses exhausted (10.1.x.y)",
                self.name
            )
        });
        Ipv4Addr::from_octets(10, 1, (self.next_host >> 8) as u8, self.next_host as u8)
    }

    /// Adds an H.323/PSTN gateway on the zone's LAN, trunked into
    /// `switch`, and routes `prefix` from the switch to it as the
    /// *preferred* (local) route — the Figure 8 configuration.
    pub fn add_gateway(
        &mut self,
        net: &mut Network<Message>,
        switch: NodeId,
        preferred_prefix: &str,
    ) -> NodeId {
        let addr = TransportAddr::new(self.next_lan_host(), 1720);
        let gw = net.add_node(
            &format!("{}.gw", self.name),
            PstnGateway::new(
                GatewayConfig {
                    addr,
                    gk: self.gk_addr,
                },
                self.router,
                switch,
            ),
        );
        net.connect(gw, self.router, Interface::Lan, self.latency.lan);
        net.connect(gw, switch, Interface::Isup, self.latency.isup);
        net.node_mut::<IpRouter>(self.router)
            .expect("zone router")
            .add_host(addr.ip, gw);
        net.node_mut::<PstnSwitch>(switch)
            .expect("switch")
            .add_route(preferred_prefix, gw, TrunkClass::Local);
        gw
    }
}

/// Configuration for a classic GSM network (the baseline of Figure 7).
#[derive(Clone, Debug)]
pub struct GsmZoneConfig {
    /// Name prefix for the nodes.
    pub name: String,
    /// Country code.
    pub country_code: String,
    /// Prefix of this network's subscriber numbers (GMSC role).
    pub home_prefix: String,
    /// Roaming-number prefix.
    pub msrn_prefix: String,
    /// Location area.
    pub lai: Lai,
    /// Serving cell.
    pub cell: CellId,
    /// Traffic channels.
    pub tch_capacity: usize,
    /// Authenticate on every access.
    pub auth_on_access: bool,
    /// Latencies.
    pub latency: LatencyProfile,
}

/// Handles to a built classic GSM zone.
#[derive(Clone, Debug)]
pub struct GsmZone {
    /// Home location register.
    pub hlr: NodeId,
    /// Visitor location register.
    pub vlr: NodeId,
    /// The classic circuit-switched MSC.
    pub msc: NodeId,
    /// Base station controller.
    pub bsc: NodeId,
    /// Base transceiver station.
    pub bts: NodeId,
    /// Location area.
    pub lai: Lai,
    /// Cell.
    pub cell: CellId,
    /// Latencies.
    pub latency: LatencyProfile,
    name: String,
}

impl GsmZone {
    /// Builds the zone and trunks its MSC into `pstn_switch`.
    pub fn build(
        net: &mut Network<Message>,
        cfg: GsmZoneConfig,
        pstn_switch: NodeId,
    ) -> GsmZone {
        let n = |suffix: &str| format!("{}.{}", cfg.name, suffix);
        let lat = cfg.latency;
        let hlr = net.add_node(&n("hlr"), Hlr::new());
        let vlr = net.add_node(
            &n("vlr"),
            Vlr::new(
                VlrConfig {
                    point_code: PointCode(20),
                    msrn_prefix: cfg.msrn_prefix.clone(),
                    auth_on_access: cfg.auth_on_access,
                },
                hlr, // patched below
                hlr,
            ),
        );
        let msc = net.add_node(
            &n("msc"),
            GsmMsc::new(
                MscConfig {
                    country_code: cfg.country_code.clone(),
                    home_prefix: cfg.home_prefix.clone(),
                    msrn_prefix: cfg.msrn_prefix.clone(),
                },
                vlr,
                hlr,
            ),
        );
        net.node_mut::<Vlr>(vlr).expect("just created").set_msc(msc);
        let bsc = net.add_node(
            &n("bsc"),
            Bsc::new(
                BscConfig {
                    tch_capacity: cfg.tch_capacity,
                },
                msc,
            ),
        );
        let bts = net.add_node(
            &n("bts"),
            Bts::new(
                BtsConfig {
                    cell: cfg.cell,
                    pdch_bps: 40_000,
                    ..BtsConfig::default()
                },
                bsc,
            ),
        );
        net.node_mut::<Bsc>(bsc)
            .expect("just created")
            .register_bts(bts, cfg.cell);
        {
            let m = net.node_mut::<GsmMsc>(msc).expect("just created");
            m.register_bsc(bsc);
            m.set_pstn(pstn_switch);
        }

        net.connect(bts, bsc, Interface::Abis, lat.abis);
        net.connect(bsc, msc, Interface::A, lat.a);
        net.connect(msc, vlr, Interface::B, lat.ss7);
        net.connect(msc, hlr, Interface::C, lat.ss7);
        net.connect(vlr, hlr, Interface::D, lat.ss7);
        net.connect(msc, pstn_switch, Interface::Isup, lat.isup);

        GsmZone {
            hlr,
            vlr,
            msc,
            bsc,
            bts,
            lai: cfg.lai,
            cell: cfg.cell,
            latency: lat,
            name: cfg.name,
        }
    }

    /// Provisions a subscriber in this zone's HLR and creates its MS.
    pub fn add_subscriber(
        &self,
        net: &mut Network<Message>,
        label: &str,
        imsi: Imsi,
        ki: u64,
        msisdn: Msisdn,
    ) -> NodeId {
        net.node_mut::<Hlr>(self.hlr)
            .expect("zone HLR")
            .provision(imsi, ki, SubscriberProfile::full(msisdn));
        self.add_roamer(net, label, imsi, ki, msisdn)
    }

    /// Creates an MS camped on this zone whose home HLR is elsewhere.
    pub fn add_roamer(
        &self,
        net: &mut Network<Message>,
        label: &str,
        imsi: Imsi,
        ki: u64,
        msisdn: Msisdn,
    ) -> NodeId {
        let ms = net.add_node(
            &format!("{}.{}", self.name, label),
            MobileStation::new(MsConfig::new(imsi, ki, msisdn, self.lai), self.bts),
        );
        net.connect(ms, self.bts, Interface::Um, self.latency.um);
        net.node_mut::<Bts>(self.bts)
            .expect("zone BTS")
            .register_ms(ms, imsi);
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgprs_zone_builds_and_is_quiescent() {
        let mut net = Network::new(1);
        let zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
        net.run_until_quiescent();
        assert!(net.node::<Vmsc>(zone.vmsc).is_some());
        assert!(net.node::<Gatekeeper>(zone.gk).is_some());
        assert_eq!(net.trace().len(), 0, "an empty zone is silent");
    }

    /// The LAN counter refuses to wrap: the last 10.1.255.255 host is
    /// handed out, the one after it panics naming the zone, for
    /// terminals and gateways alike.
    #[test]
    fn lan_host_counter_fails_loudly_at_its_end() {
        let mut net = Network::new(1);
        let mut zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
        zone.next_host = u16::MAX - 1;
        let last = zone.add_terminal(&mut net, "last", Msisdn::parse("886900000001").unwrap());
        assert!(net.node::<H323Terminal>(last).is_some());
        assert_eq!(zone.next_host, u16::MAX);
        let name = zone.name.clone();
        let term = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            zone.clone()
                .add_terminal(&mut net, "wrapped", Msisdn::parse("886900000002").unwrap())
        }));
        let sw = net.add_node("pstn", PstnSwitch::new("pstn"));
        let gw = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            zone.clone().add_gateway(&mut net, sw, "886")
        }));
        for outcome in [term, gw] {
            let msg = outcome.expect_err("counter wrapped silently");
            let msg = msg
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(msg.contains(&name) && msg.contains("exhausted"), "{msg}");
        }
    }

    #[test]
    fn gsm_zone_builds() {
        let mut net = Network::new(1);
        let sw = net.add_node("pstn", PstnSwitch::new("pstn"));
        let cfg = GsmZoneConfig {
            name: "uk".into(),
            country_code: "44".into(),
            home_prefix: "447".into(),
            msrn_prefix: "449990".into(),
            lai: Lai::new(234, 15, 1),
            cell: CellId(10),
            tch_capacity: 32,
            auth_on_access: true,
            latency: LatencyProfile::default(),
        };
        let zone = GsmZone::build(&mut net, cfg, sw);
        net.run_until_quiescent();
        assert!(net.node::<GsmMsc>(zone.msc).is_some());
    }
}
