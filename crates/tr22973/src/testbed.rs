//! Builder for a TR 22.973-style network: the same GPRS core and H.323
//! zone as a vGPRS deployment, but *no VMSC* — the MSs are H.323
//! terminals themselves and everything rides the packet radio path.

use vgprs_gprs::{Ggsn, IpRouter, Sgsn};
use vgprs_gsm::{Bsc, BscConfig, Bts, BtsConfig};
use vgprs_h323::{Gatekeeper, GatekeeperConfig, H323Terminal, TerminalConfig};
use vgprs_sim::{Interface, Network, NodeId};
use vgprs_wire::{CellId, Imsi, Ipv4Addr, Message, Msisdn, PointCode, TransportAddr};

pub use vgprs_core::LatencyProfile;

use crate::ms::{H323Ms, TrMsConfig};

/// Configuration for one TR 22.973 zone.
#[derive(Clone, Debug)]
pub struct TrZoneConfig {
    /// Node-name prefix.
    pub name: String,
    /// Serving cell.
    pub cell: CellId,
    /// GGSN PDP address pool; static addresses are carved from
    /// `pool.0 | 0x0000_64xx`.
    pub pool: (Ipv4Addr, u8),
    /// Gatekeeper address.
    pub gk_addr: TransportAddr,
    /// Gatekeeper bandwidth budget.
    pub gk_bandwidth: u32,
    /// Shared packet channel rate at the BTS — the contended resource
    /// behind the paper's real-time argument.
    pub pdch_bps: u64,
    /// Link latencies.
    pub latency: LatencyProfile,
}

impl TrZoneConfig {
    /// Defaults mirroring `VgprsZoneConfig::taiwan`
    /// so C1/C2 comparisons hold
    /// everything but the architecture constant.
    pub fn taiwan() -> Self {
        TrZoneConfig {
            name: "tr".into(),
            cell: CellId(1),
            pool: (Ipv4Addr::from_octets(10, 200, 0, 0), 16),
            gk_addr: TransportAddr::new(Ipv4Addr::from_octets(10, 1, 0, 2), 1719),
            gk_bandwidth: 1_000_000,
            pdch_bps: 40_000,
            latency: LatencyProfile::default(),
        }
    }
}

/// Handles to a built TR zone.
#[derive(Clone, Debug)]
pub struct TrZone {
    /// Base transceiver station (shared PDCH).
    pub bts: NodeId,
    /// Base station controller (PCU).
    pub bsc: NodeId,
    /// Serving GPRS support node.
    pub sgsn: NodeId,
    /// Gateway GPRS support node.
    pub ggsn: NodeId,
    /// PSDN router.
    pub router: NodeId,
    /// Gatekeeper (receives IMSIs in this architecture).
    pub gk: NodeId,
    /// The gatekeeper's address.
    pub gk_addr: TransportAddr,
    /// Latencies.
    pub latency: LatencyProfile,
    pool_base: Ipv4Addr,
    name: String,
    next_static: u8,
    next_host: u8,
}

impl TrZone {
    /// Builds the zone inside `net`.
    pub fn build(net: &mut Network<Message>, cfg: TrZoneConfig) -> TrZone {
        let n = |suffix: &str| format!("{}.{}", cfg.name, suffix);
        let lat = cfg.latency;
        let router = net.add_node(&n("router"), IpRouter::new());
        let gk = net.add_node(
            &n("gk"),
            Gatekeeper::new(
                GatekeeperConfig {
                    addr: cfg.gk_addr,
                    bandwidth_budget: cfg.gk_bandwidth,
                    shed_utilization: 0.0,
                },
                router,
            ),
        );
        let ggsn = net.add_node(&n("ggsn"), Ggsn::new(cfg.pool.0, cfg.pool.1));
        let sgsn = net.add_node(&n("sgsn"), Sgsn::new(PointCode(51), ggsn));
        // The BSC's circuit side is unused here (no MSC in the VoIP path);
        // its PCU points at the SGSN.
        let bsc = net.add_node(
            &n("bsc"),
            Bsc::new(BscConfig { tch_capacity: 0 }, sgsn),
        );
        net.node_mut::<Bsc>(bsc).expect("just created").set_sgsn(sgsn);
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

        net.connect(bts, bsc, Interface::Abis, lat.abis);
        net.connect(bsc, sgsn, Interface::Gb, lat.gb);
        net.connect(sgsn, ggsn, Interface::Gn, lat.gn);
        net.connect(ggsn, router, Interface::Gi, lat.lan);
        net.connect(gk, router, Interface::Lan, lat.lan);
        {
            let r = net.node_mut::<IpRouter>(router).expect("just created");
            r.add_prefix(cfg.pool.0, cfg.pool.1, ggsn);
            r.add_host(cfg.gk_addr.ip, gk);
        }
        net.node_mut::<Ggsn>(ggsn)
            .expect("just created")
            .set_router(router);

        TrZone {
            bts,
            bsc,
            sgsn,
            ggsn,
            router,
            gk,
            gk_addr: cfg.gk_addr,
            latency: lat,
            pool_base: cfg.pool.0,
            name: cfg.name,
            next_static: 0,
            next_host: 10,
        }
    }

    /// Adds a TR mobile station: provisions its static PDP address at the
    /// GGSN and camps it on the zone's cell.
    pub fn add_tr_ms(
        &mut self,
        net: &mut Network<Message>,
        label: &str,
        imsi: Imsi,
        msisdn: Msisdn,
    ) -> NodeId {
        self.next_static += 1;
        let static_addr = Ipv4Addr(self.pool_base.0 | 0x0000_6400 | u32::from(self.next_static));
        net.node_mut::<Ggsn>(self.ggsn)
            .expect("zone GGSN")
            .provision_static(imsi, static_addr, self.sgsn);
        let ms = net.add_node(
            &format!("{}.{}", self.name, label),
            H323Ms::new(
                TrMsConfig::new(imsi, msisdn, static_addr, self.gk_addr),
                self.bts,
            ),
        );
        net.connect(ms, self.bts, Interface::Um, self.latency.um);
        net.node_mut::<Bts>(self.bts)
            .expect("zone BTS")
            .register_ms(ms, imsi);
        ms
    }

    /// Adds a wireline H.323 terminal on the zone's LAN.
    pub fn add_terminal(
        &mut self,
        net: &mut Network<Message>,
        label: &str,
        alias: Msisdn,
    ) -> NodeId {
        self.next_host += 1;
        let addr = TransportAddr::new(Ipv4Addr::from_octets(10, 1, 0, self.next_host), 1720);
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
}
