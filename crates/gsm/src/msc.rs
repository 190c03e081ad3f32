//! The classic circuit-switched GSM MSC (and GMSC).
//!
//! This node is the *baseline* the paper's VMSC replaces. It terminates
//! the A interface toward its BSCs, orchestrates registration and call
//! control with its VLR, interrogates the HLR when acting as a gateway
//! MSC, runs ISUP toward the PSTN, and anchors inter-MSC handoffs over
//! the E interface — the behavior needed for the tromboning baseline
//! (Figure 7) and as the handoff peer of a VMSC (Figure 9).

use std::collections::HashMap;

use vgprs_sim::{Context, Interface, Node, NodeId};
use vgprs_wire::{
    CallId, Cause, CellId, Cic, ConnRef, Dtap, Imsi, IsupKind, IsupMessage, MapMessage, Message,
    MsIdentity, Msisdn,
};

/// How long to wait for a paging response before clearing the call.
const PAGING_TIMEOUT: vgprs_sim::SimDuration = vgprs_sim::SimDuration::from_secs(10);
/// Timer-tag namespace bit for paging supervision.
const TAG_PAGING: u64 = 1 << 62;

/// Configuration for a [`GsmMsc`].
#[derive(Clone, Debug)]
pub struct MscConfig {
    /// Country code of the serving network (international-call detection).
    pub country_code: String,
    /// Digit prefix of this network's subscriber numbers. An IAM for such
    /// a number makes this MSC act as the GMSC (HLR interrogation).
    pub home_prefix: String,
    /// Digit prefix of the roaming numbers minted by the co-located VLR.
    pub msrn_prefix: String,
}

/// Why a radio transaction exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Purpose {
    Registration,
    MoService,
    MtCall(CallId),
}

#[derive(Debug)]
struct ConnState {
    imsi: Option<Imsi>,
    call: Option<CallId>,
    purpose: Purpose,
}

/// Which legs a call currently has.
#[derive(Debug)]
struct CallState {
    /// Radio leg, while the MS is served by this MSC.
    conn: Option<ConnRef>,
    /// Trunk leg toward the PSTN.
    trunk: Option<(NodeId, Cic)>,
    /// Second trunk leg (transit/GMSC calls), toward the destination.
    trunk_out: Option<(NodeId, Cic)>,
    /// Inter-MSC leg after handoff (anchor side) or toward the anchor
    /// (target side).
    e_leg: Option<(NodeId, Cic)>,
    /// True while this MSC is the handoff target for the call.
    target_role: bool,
    /// The renamed call id used on the outgoing (GMSC-forwarded) leg.
    /// Call legs have independent identifiers, exactly as real networks
    /// treat them; without the rename, a call that transits this node
    /// twice (GMSC + serving MSC in one) would collide with itself.
    out_call: Option<CallId>,
    called: Option<Msisdn>,
    calling: Option<Msisdn>,
    answered: bool,
}

impl CallState {
    fn new() -> Self {
        CallState {
            conn: None,
            trunk: None,
            trunk_out: None,
            e_leg: None,
            target_role: false,
            out_call: None,
            called: None,
            calling: None,
            answered: false,
        }
    }
}

/// A handoff this MSC prepared as target, awaiting the MS's arrival.
#[derive(Debug)]
struct PendingTargetHandoff {
    call: CallId,
    anchor: NodeId,
    cic: Cic,
}

/// The classic GSM MSC node.
#[derive(Debug)]
pub struct GsmMsc {
    config: MscConfig,
    vlr: NodeId,
    hlr: NodeId,
    bscs: Vec<NodeId>,
    /// The PSTN switch this MSC trunks into.
    pstn: Option<NodeId>,
    /// Neighbor MSCs by the cells they serve (for inter-MSC handoff).
    neighbor_cells: HashMap<CellId, NodeId>,
    conns: HashMap<ConnRef, ConnState>,
    conn_of_bsc: HashMap<ConnRef, NodeId>,
    calls: HashMap<CallId, CallState>,
    /// MT calls waiting for a paging response, by subscriber.
    paging: HashMap<Imsi, CallId>,
    /// GMSC transit calls waiting for the HLR's routing info, by MSISDN.
    pending_sri: HashMap<Msisdn, CallId>,
    /// MT calls waiting for the VLR to resolve the MSRN.
    pending_incoming: HashMap<Msisdn, CallId>,
    /// Calls by the trunk circuit that carries them, per trunk peer.
    cic_index: HashMap<(NodeId, Cic), CallId>,
    /// Handoffs prepared as target, by handover reference.
    target_handoffs: HashMap<u32, PendingTargetHandoff>,
    next_cic: u16,
    next_ho_ref: u32,
    next_leg_call: u64,
}

impl GsmMsc {
    /// Creates an MSC wired to its VLR and HLR.
    pub fn new(config: MscConfig, vlr: NodeId, hlr: NodeId) -> Self {
        GsmMsc {
            config,
            vlr,
            hlr,
            bscs: Vec::new(),
            pstn: None,
            neighbor_cells: HashMap::new(),
            conns: HashMap::new(),
            conn_of_bsc: HashMap::new(),
            calls: HashMap::new(),
            paging: HashMap::new(),
            pending_sri: HashMap::new(),
            pending_incoming: HashMap::new(),
            cic_index: HashMap::new(),
            target_handoffs: HashMap::new(),
            next_cic: 0,
            next_ho_ref: 0,
            next_leg_call: 0,
        }
    }

    /// Registers a subordinate BSC.
    pub fn register_bsc(&mut self, bsc: NodeId) {
        if !self.bscs.contains(&bsc) {
            self.bscs.push(bsc);
        }
    }

    /// Attaches the PSTN trunk.
    pub fn set_pstn(&mut self, pstn: NodeId) {
        self.pstn = Some(pstn);
    }

    /// Declares that `cell` is served by the neighboring MSC `msc`
    /// (reachable over an E-interface link).
    pub fn add_neighbor_cell(&mut self, cell: CellId, msc: NodeId) {
        self.neighbor_cells.insert(cell, msc);
    }

    /// Number of calls currently tracked.
    pub fn active_calls(&self) -> usize {
        self.calls.len()
    }

    fn alloc_cic(&mut self) -> Cic {
        self.next_cic += 1;
        Cic(self.next_cic)
    }

    /// Allocates a fresh call id for an outgoing (forwarded) leg.
    fn alloc_leg_call(&mut self, ctx: &Context<'_, Message>) -> CallId {
        self.next_leg_call += 1;
        CallId((u64::from(ctx.id().index()) << 40) | 0x0100_0000_0000 | self.next_leg_call)
    }

    /// The canonical call owning the circuit `(from, cic)`, falling back
    /// to the message's own call id for legs this node did not index.
    fn canonical_call(&self, from: NodeId, cic: Cic, fallback: CallId) -> CallId {
        self.cic_index.get(&(from, cic)).copied().unwrap_or(fallback)
    }

    /// The call id to stamp on messages leaving via the given leg.
    fn leg_call_id(&self, state: &CallState, leg: (NodeId, Cic)) -> Option<CallId> {
        if state.trunk_out == Some(leg) {
            state.out_call
        } else {
            None
        }
    }

    fn send_a(&self, ctx: &mut Context<'_, Message>, conn: ConnRef, dtap: Dtap) {
        if let Some(&bsc) = self.conn_of_bsc.get(&conn) {
            ctx.send(bsc, Message::a(conn, dtap));
        }
    }

    fn page_all(&self, ctx: &mut Context<'_, Message>, imsi: Imsi) {
        for &bsc in &self.bscs {
            ctx.send(
                bsc,
                Message::a(
                    ConnRef::CONNECTIONLESS,
                    Dtap::Paging {
                        imsi,
                        identity: MsIdentity::Imsi(imsi),
                    },
                ),
            );
        }
    }

    fn is_international(&self, called: &Msisdn) -> bool {
        !called.has_country_code(&self.config.country_code)
    }

    /// Starts the radio-release handshake toward the MS.
    fn clear_radio(&mut self, ctx: &mut Context<'_, Message>, call: CallId, cause: Cause) {
        if let Some(conn) = self.calls.get(&call).and_then(|c| c.conn) {
            self.send_a(ctx, conn, Dtap::Disconnect { call, cause });
        }
    }

    /// Releases the trunk legs of a call with REL.
    fn clear_trunks(&mut self, ctx: &mut Context<'_, Message>, call: CallId, cause: Cause) {
        let Some(state) = self.calls.get(&call) else {
            return;
        };
        for leg in [state.trunk, state.trunk_out, state.e_leg]
            .into_iter()
            .flatten()
        {
            let leg_call = self.leg_call_id(state, leg).unwrap_or(call);
            ctx.send(
                leg.0,
                Message::Isup(IsupMessage {
                    cic: leg.1,
                    call: leg_call,
                    kind: IsupKind::Rel { cause },
                }),
            );
        }
    }

    fn drop_call(&mut self, call: CallId) {
        if let Some(state) = self.calls.remove(&call) {
            for leg in [state.trunk, state.trunk_out, state.e_leg]
                .into_iter()
                .flatten()
            {
                self.cic_index.remove(&leg);
            }
            if let Some(conn) = state.conn {
                if let Some(cs) = self.conns.get_mut(&conn) {
                    cs.call = None;
                }
            }
        }
    }

    // ----------------------------------------------------------------
    // A interface (radio side)
    // ----------------------------------------------------------------
    fn handle_a(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        conn: ConnRef,
        dtap: Dtap,
    ) {
        self.conn_of_bsc.insert(conn, from);
        match dtap {
            Dtap::LocationUpdateRequest { identity, lai } => {
                self.conns.insert(
                    conn,
                    ConnState {
                        imsi: None,
                        call: None,
                        purpose: Purpose::Registration,
                    },
                );
                ctx.count("msc.registrations_started");
                ctx.send(
                    self.vlr,
                    Message::Map(MapMessage::UpdateLocationArea {
                        conn,
                        identity,
                        lai,
                    }),
                );
            }
            Dtap::CmServiceRequest { identity } => {
                self.conns.insert(
                    conn,
                    ConnState {
                        imsi: None,
                        call: None,
                        purpose: Purpose::MoService,
                    },
                );
                ctx.send(
                    self.vlr,
                    Message::Map(MapMessage::ProcessAccessRequest { conn, identity }),
                );
            }
            Dtap::PagingResponse { identity } => {
                let imsi = match identity {
                    MsIdentity::Imsi(i) => i,
                    MsIdentity::Tmsi(_) => {
                        ctx.count("msc.page_response_tmsi_unsupported");
                        return;
                    }
                };
                let Some(call) = self.paging.remove(&imsi) else {
                    ctx.count("msc.page_response_unexpected");
                    return;
                };
                self.conns.insert(
                    conn,
                    ConnState {
                        imsi: Some(imsi),
                        call: Some(call),
                        purpose: Purpose::MtCall(call),
                    },
                );
                if let Some(cs) = self.calls.get_mut(&call) {
                    cs.conn = Some(conn);
                }
                ctx.send(
                    self.vlr,
                    Message::Map(MapMessage::ProcessAccessRequest { conn, identity }),
                );
            }
            Dtap::AuthenticationResponse { sres } => {
                if let Some(imsi) = self.conns.get(&conn).and_then(|c| c.imsi) {
                    ctx.send(
                        self.vlr,
                        Message::Map(MapMessage::AuthenticateAck { conn, imsi, sres }),
                    );
                } else {
                    // identity not yet resolved: remember the response came
                    // in; the VLR keyed the dialogue by conn, so pass a
                    // placeholder query through the pending auth below.
                    ctx.count("msc.auth_response_before_identity");
                    self.forward_auth_response(ctx, conn, sres);
                }
            }
            Dtap::CipherModeComplete => {
                if let Some(imsi) = self.conns.get(&conn).and_then(|c| c.imsi) {
                    ctx.send(
                        self.vlr,
                        Message::Map(MapMessage::StartCipheringAck { conn, imsi }),
                    );
                }
            }
            Dtap::Setup { call, called } => {
                let Some(cs) = self.conns.get_mut(&conn) else {
                    return;
                };
                let Some(imsi) = cs.imsi else {
                    ctx.count("msc.setup_without_access");
                    return;
                };
                cs.call = Some(call);
                let mut call_state = CallState::new();
                call_state.conn = Some(conn);
                call_state.called = Some(called);
                self.calls.insert(call, call_state);
                let international = self.is_international(&called);
                ctx.count("msc.mo_calls");
                // Paper step 2.2: authorize with the VLR.
                ctx.send(
                    self.vlr,
                    Message::Map(MapMessage::SendInfoForOutgoingCall {
                        conn,
                        imsi,
                        called,
                        international,
                    }),
                );
            }
            Dtap::ChannelAssignmentComplete => {
                let Some(call) = self.conns.get(&conn).and_then(|c| c.call) else {
                    return;
                };
                let purpose = self.conns.get(&conn).map(|c| c.purpose);
                match purpose {
                    Some(Purpose::MtCall(_)) => {
                        // Incoming call: deliver the setup to the MS.
                        let calling = self.calls.get(&call).and_then(|c| c.calling);
                        self.send_a(ctx, conn, Dtap::MtSetup { call, calling });
                    }
                    _ => {
                        // Outgoing call: proceed and seize the trunk.
                        self.send_a(ctx, conn, Dtap::CallProceeding { call });
                        self.seize_outgoing_trunk(ctx, call);
                    }
                }
            }
            Dtap::ChannelAssignmentFailure { cause } => {
                if let Some(call) = self.conns.get(&conn).and_then(|c| c.call) {
                    ctx.count("msc.assignment_blocked");
                    self.clear_trunks(ctx, call, cause);
                    self.send_a(ctx, conn, Dtap::Disconnect { call, cause });
                }
            }
            Dtap::Alerting { call } => {
                // MT call: the MS is ringing; tell the caller.
                if let Some(state) = self.calls.get(&call) {
                    if let Some((peer, cic)) = state.trunk {
                        ctx.send(
                            peer,
                            Message::Isup(IsupMessage {
                                cic,
                                call,
                                kind: IsupKind::Acm,
                            }),
                        );
                    }
                }
            }
            Dtap::Connect { call } => {
                if let Some(state) = self.calls.get_mut(&call) {
                    state.answered = true;
                    if let Some((peer, cic)) = state.trunk {
                        ctx.send(
                            peer,
                            Message::Isup(IsupMessage {
                                cic,
                                call,
                                kind: IsupKind::Anm,
                            }),
                        );
                    }
                    ctx.count("msc.mt_calls_answered");
                    self.send_a(ctx, conn, Dtap::ConnectAck { call });
                }
            }
            Dtap::ConnectAck { .. } => {
                ctx.count("msc.mo_calls_connected");
            }
            Dtap::Disconnect { call, cause } => {
                // MS hangs up: release trunks and finish the radio handshake.
                ctx.count("msc.ms_initiated_release");
                self.clear_trunks(ctx, call, cause);
                self.send_a(ctx, conn, Dtap::Release { call });
            }
            Dtap::Release { call } => {
                // MS answered our Disconnect.
                self.send_a(ctx, conn, Dtap::ReleaseComplete { call });
                self.send_a(ctx, conn, Dtap::ChannelRelease);
                self.drop_call(call);
            }
            Dtap::ReleaseComplete { call } => {
                self.send_a(ctx, conn, Dtap::ChannelRelease);
                self.drop_call(call);
            }
            Dtap::MeasurementReport { cell } | Dtap::HandoverRequired { cell } => {
                self.start_handover(ctx, conn, cell);
            }
            Dtap::HandoverComplete { ho_ref } => {
                // We are the TARGET: the MS arrived on our cell.
                let Some(pending) = self.target_handoffs.remove(&ho_ref) else {
                    ctx.count("msc.handover_complete_unknown_ref");
                    return;
                };
                let call = pending.call;
                let mut state = CallState::new();
                state.conn = Some(conn);
                state.e_leg = Some((pending.anchor, pending.cic));
                state.target_role = true;
                self.calls.insert(call, state);
                self.cic_index.insert((pending.anchor, pending.cic), call);
                self.conns.insert(
                    conn,
                    ConnState {
                        imsi: None,
                        call: Some(call),
                        purpose: Purpose::MtCall(call),
                    },
                );
                ctx.count("msc.handover_target_completed");
                ctx.send(
                    pending.anchor,
                    Message::Map(MapMessage::SendEndSignal { call }),
                );
            }
            Dtap::VoiceFrame {
                call,
                seq,
                origin_us,
            } => {
                self.relay_voice_from_radio(ctx, call, seq, origin_us);
            }
            _ => ctx.count("msc.unhandled_dtap"),
        }
    }

    /// Uplink auth response arriving before the conn's IMSI is known: the
    /// VLR keyed the pending auth by conn, so a conn-only ack suffices;
    /// look up any pending registration for the conn instead of the IMSI.
    fn forward_auth_response(&self, ctx: &mut Context<'_, Message>, conn: ConnRef, sres: u32) {
        // Without an IMSI the ack cannot name the subscriber; the VLR
        // correlates by conn, so send with a placeholder IMSI. (The VLR
        // looks the dialogue up by conn via its pending table.)
        // In practice the IMSI is known from the initial request in every
        // flow, so this is only a safety net.
        let _ = (ctx, conn, sres);
    }

    fn seize_outgoing_trunk(&mut self, ctx: &mut Context<'_, Message>, call: CallId) {
        let Some(pstn) = self.pstn else {
            ctx.count("msc.no_trunk_route");
            self.clear_radio(ctx, call, Cause::NoRouteToDestination);
            return;
        };
        let cic = self.alloc_cic();
        let Some(state) = self.calls.get_mut(&call) else {
            return;
        };
        state.trunk = Some((pstn, cic));
        let called = state.called.expect("MO call has dialed digits");
        let calling = state.calling;
        self.cic_index.insert((pstn, cic), call);
        ctx.count("msc.trunks_seized");
        ctx.send(
            pstn,
            Message::Isup(IsupMessage {
                cic,
                call,
                kind: IsupKind::Iam { called, calling },
            }),
        );
    }

    fn start_handover(&mut self, ctx: &mut Context<'_, Message>, conn: ConnRef, cell: CellId) {
        let Some(call) = self.conns.get(&conn).and_then(|c| c.call) else {
            ctx.count("msc.handover_without_call");
            return;
        };
        let Some(imsi) = self.conns.get(&conn).and_then(|c| c.imsi) else {
            ctx.count("msc.handover_without_imsi");
            return;
        };
        let Some(&target) = self.neighbor_cells.get(&cell) else {
            ctx.count("msc.handover_unknown_cell");
            return;
        };
        ctx.count("msc.handovers_started");
        ctx.send(
            target,
            Message::Map(MapMessage::PrepareHandover { call, imsi, cell }),
        );
    }

    // ----------------------------------------------------------------
    // ISUP (trunk side)
    // ----------------------------------------------------------------
    fn handle_isup(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: IsupMessage) {
        let IsupMessage { cic, call, kind } = msg;
        // Circuits, not call ids, identify trunk legs: the same call may
        // touch this node twice (GMSC + serving MSC roles).
        let call = if matches!(kind, IsupKind::Iam { .. }) {
            call
        } else {
            self.canonical_call(from, cic, call)
        };
        match kind {
            IsupKind::Iam { called, calling } => {
                self.cic_index.insert((from, cic), call);
                if called.digits().starts_with(&self.config.msrn_prefix) {
                    // MT call delivery: resolve the roaming number.
                    let mut state = CallState::new();
                    state.trunk = Some((from, cic));
                    state.calling = calling;
                    self.calls.insert(call, state);
                    self.pending_incoming.insert(called, call);
                    ctx.count("msc.mt_calls");
                    ctx.send(
                        self.vlr,
                        Message::Map(MapMessage::SendInfoForIncomingCall { msrn: called }),
                    );
                } else if called.digits().starts_with(&self.config.home_prefix) {
                    // GMSC role: interrogate the HLR (tromboning, Fig. 7).
                    let mut state = CallState::new();
                    state.trunk = Some((from, cic));
                    state.called = Some(called);
                    state.calling = calling;
                    self.calls.insert(call, state);
                    self.pending_sri.insert(called, call);
                    ctx.count("msc.gmsc_interrogations");
                    ctx.send(
                        self.hlr,
                        Message::Map(MapMessage::SendRoutingInformation { msisdn: called }),
                    );
                } else {
                    ctx.count("msc.iam_unroutable");
                    ctx.send(
                        from,
                        Message::Isup(IsupMessage {
                            cic,
                            call,
                            kind: IsupKind::Rel {
                                cause: Cause::NoRouteToDestination,
                            },
                        }),
                    );
                }
            }
            IsupKind::Acm | IsupKind::Anm => {
                let answered = matches!(kind, IsupKind::Anm);
                let Some(state) = self.calls.get_mut(&call) else {
                    return;
                };
                if answered {
                    state.answered = true;
                }
                if let Some(conn) = state.conn {
                    let dtap = if answered {
                        Dtap::Connect { call }
                    } else {
                        Dtap::Alerting { call }
                    };
                    self.send_a(ctx, conn, dtap);
                } else if state.trunk_out == Some((from, cic)) {
                    // Transit: progress arrived on the forwarded leg;
                    // relay to the originating leg under its own id.
                    if let Some((peer, in_cic)) = state.trunk {
                        ctx.send(
                            peer,
                            Message::Isup(IsupMessage {
                                cic: in_cic,
                                call,
                                kind,
                            }),
                        );
                    }
                }
            }
            IsupKind::Rel { cause } => {
                ctx.send(
                    from,
                    Message::Isup(IsupMessage {
                        cic,
                        call,
                        kind: IsupKind::Rlc,
                    }),
                );
                // Propagate to the other legs (each under its own id).
                if let Some(state) = self.calls.get(&call) {
                    let other_trunks: Vec<(NodeId, Cic, CallId)> =
                        [state.trunk, state.trunk_out, state.e_leg]
                            .into_iter()
                            .flatten()
                            .filter(|(peer, c)| !(*peer == from && *c == cic))
                            .map(|leg| {
                                let id = self.leg_call_id(state, leg).unwrap_or(call);
                                (leg.0, leg.1, id)
                            })
                            .collect();
                    for (peer, c, leg_call) in other_trunks {
                        ctx.send(
                            peer,
                            Message::Isup(IsupMessage {
                                cic: c,
                                call: leg_call,
                                kind: IsupKind::Rel { cause },
                            }),
                        );
                    }
                }
                self.clear_radio(ctx, call, cause);
                if self
                    .calls
                    .get(&call)
                    .map(|s| s.conn.is_none())
                    .unwrap_or(false)
                {
                    self.drop_call(call);
                }
            }
            IsupKind::Rlc => {
                self.cic_index.remove(&(from, cic));
            }
        }
    }

    // ----------------------------------------------------------------
    // MAP (VLR / HLR / peer MSC)
    // ----------------------------------------------------------------
    fn handle_map(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: MapMessage) {
        match msg {
            MapMessage::Authenticate { conn, imsi, rand } => {
                if let Some(cs) = self.conns.get_mut(&conn) {
                    cs.imsi = Some(imsi);
                }
                self.send_a(ctx, conn, Dtap::AuthenticationRequest { rand });
            }
            MapMessage::StartCiphering { conn, imsi } => {
                if let Some(cs) = self.conns.get_mut(&conn) {
                    cs.imsi = Some(imsi);
                }
                self.send_a(ctx, conn, Dtap::CipherModeCommand);
            }
            MapMessage::UpdateLocationAreaAck {
                conn, imsi, tmsi, ..
            } => {
                if let Some(cs) = self.conns.get_mut(&conn) {
                    cs.imsi = Some(imsi);
                }
                ctx.count("msc.registrations_completed");
                self.send_a(ctx, conn, Dtap::LocationUpdateAccept { tmsi });
            }
            MapMessage::UpdateLocationAreaReject { conn, cause, .. } => {
                self.send_a(ctx, conn, Dtap::LocationUpdateReject { cause });
            }
            MapMessage::ProcessAccessRequestAck {
                conn,
                imsi,
                rejection,
            } => {
                let Some(cs) = self.conns.get_mut(&conn) else {
                    return;
                };
                cs.imsi = Some(imsi);
                let purpose = cs.purpose;
                match rejection {
                    Some(cause) => match purpose {
                        Purpose::MtCall(call) => {
                            self.clear_trunks(ctx, call, cause);
                            self.drop_call(call);
                        }
                        _ => self.send_a(ctx, conn, Dtap::CmServiceReject { cause }),
                    },
                    None => match purpose {
                        Purpose::MoService => self.send_a(ctx, conn, Dtap::CmServiceAccept),
                        Purpose::MtCall(_) => {
                            // Assign the traffic channel; MtSetup follows on
                            // completion (paper step 4.5).
                            self.send_a(ctx, conn, Dtap::ChannelAssignment { cell: CellId(0) });
                        }
                        Purpose::Registration => {}
                    },
                }
            }
            MapMessage::SendInfoForOutgoingCallAck {
                conn,
                msisdn,
                rejection,
                ..
            } => {
                let Some(call) = self.conns.get(&conn).and_then(|c| c.call) else {
                    return;
                };
                match rejection {
                    Some(cause) => {
                        ctx.count("msc.mo_calls_denied");
                        self.send_a(ctx, conn, Dtap::Disconnect { call, cause });
                    }
                    None => {
                        if let Some(state) = self.calls.get_mut(&call) {
                            state.calling = msisdn;
                        }
                        self.send_a(ctx, conn, Dtap::ChannelAssignment { cell: CellId(0) });
                    }
                }
            }
            MapMessage::SendInfoForIncomingCallAck { msrn, subscriber } => {
                let Some(call) = self.pending_incoming.remove(&msrn) else {
                    return;
                };
                match subscriber {
                    Ok(imsi) => {
                        self.paging.insert(imsi, call);
                        ctx.count("msc.pages_sent");
                        ctx.set_timer(PAGING_TIMEOUT, TAG_PAGING | call.0);
                        self.page_all(ctx, imsi);
                    }
                    Err(cause) => {
                        self.clear_trunks(ctx, call, cause);
                        self.drop_call(call);
                    }
                }
            }
            MapMessage::SendRoutingInformationAck { msisdn, msrn } => {
                let Some(call) = self.pending_sri.remove(&msisdn) else {
                    return;
                };
                match msrn {
                    Ok(roaming_number) => {
                        // Second leg toward the visited network — this is
                        // the second international trunk of Figure 7. The
                        // leg gets its own call id (leg ids are local).
                        let Some(pstn) = self.pstn else {
                            self.clear_trunks(ctx, call, Cause::NoRouteToDestination);
                            self.drop_call(call);
                            return;
                        };
                        let cic = self.alloc_cic();
                        let out_call = self.alloc_leg_call(ctx);
                        let calling = self.calls.get(&call).and_then(|c| c.calling);
                        if let Some(state) = self.calls.get_mut(&call) {
                            state.trunk_out = Some((pstn, cic));
                            state.out_call = Some(out_call);
                        }
                        self.cic_index.insert((pstn, cic), call);
                        ctx.count("msc.gmsc_forwarded");
                        ctx.send(
                            pstn,
                            Message::Isup(IsupMessage {
                                cic,
                                call: out_call,
                                kind: IsupKind::Iam {
                                    called: roaming_number,
                                    calling,
                                },
                            }),
                        );
                    }
                    Err(cause) => {
                        ctx.count("msc.gmsc_sri_failed");
                        self.clear_trunks(ctx, call, cause);
                        self.drop_call(call);
                    }
                }
            }
            // ---- inter-MSC handoff, target side ----
            MapMessage::PrepareHandover { call, .. } => {
                self.next_ho_ref += 1;
                let ho_ref = self.next_ho_ref;
                let cic = self.alloc_cic();
                self.target_handoffs.insert(
                    ho_ref,
                    PendingTargetHandoff {
                        call,
                        anchor: from,
                        cic,
                    },
                );
                ctx.count("msc.handover_prepared");
                ctx.send(
                    from,
                    Message::Map(MapMessage::PrepareHandoverAck { call, cic, ho_ref }),
                );
            }
            // ---- inter-MSC handoff, anchor side ----
            MapMessage::PrepareHandoverAck { call, cic, ho_ref } => {
                let Some(state) = self.calls.get_mut(&call) else {
                    return;
                };
                state.e_leg = Some((from, cic));
                self.cic_index.insert((from, cic), call);
                // Find the target cell again from the pending conn; the
                // HandoverCommand rides the existing radio connection.
                if let Some(conn) = state.conn {
                    // The cell is known to the target; command the MS over.
                    // The target cell id travels in the command for the MS
                    // to pick its neighbor link.
                    let cell = self
                        .neighbor_cells
                        .iter()
                        .find(|(_, &n)| n == from)
                        .map(|(c, _)| *c)
                        .unwrap_or(CellId(0));
                    self.send_a(ctx, conn, Dtap::HandoverCommand { cell, ho_ref });
                }
            }
            MapMessage::SendEndSignal { call } => {
                // Anchor: the MS is now on the target; release our radio leg
                // and keep the trunk ↔ E-leg voice path (Figure 9(b)).
                if let Some(state) = self.calls.get_mut(&call) {
                    if let Some(conn) = state.conn.take() {
                        self.send_a(ctx, conn, Dtap::ChannelRelease);
                        if let Some(cs) = self.conns.get_mut(&conn) {
                            cs.call = None;
                        }
                    }
                }
                ctx.count("msc.handover_anchored");
                ctx.send(from, Message::Map(MapMessage::SendEndSignalAck { call }));
            }
            MapMessage::SendEndSignalAck { .. } => {}
            _ => ctx.count("msc.unhandled_map"),
        }
    }

    // ----------------------------------------------------------------
    // Voice relaying
    // ----------------------------------------------------------------
    fn relay_voice_from_radio(
        &mut self,
        ctx: &mut Context<'_, Message>,
        call: CallId,
        seq: u32,
        origin_us: u64,
    ) {
        let Some(state) = self.calls.get(&call) else {
            return;
        };
        // Radio → trunk (MO/MT) or radio → anchor (target role).
        let leg = if state.target_role {
            state.e_leg
        } else {
            state.trunk.or(state.trunk_out)
        };
        if let Some((peer, leg_cic)) = leg {
            ctx.send(
                peer,
                Message::TrunkVoice {
                    cic: leg_cic,
                    call,
                    seq,
                    origin_us,
                },
            );
        }
    }

    fn relay_trunk_voice(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        cic: Cic,
        call: CallId,
        seq: u32,
        origin_us: u64,
    ) {
        let call = self.canonical_call(from, cic, call);
        let Some(state) = self.calls.get(&call) else {
            return;
        };
        // Deliver to the radio leg if we still have one …
        if let Some(conn) = state.conn {
            self.send_a(
                ctx,
                conn,
                Dtap::VoiceFrame {
                    call,
                    seq,
                    origin_us,
                },
            );
            return;
        }
        // … otherwise forward between the other legs (anchor after
        // handoff, or transit call), excluding the arriving circuit.
        let legs: Vec<(NodeId, Cic)> = [state.trunk, state.trunk_out, state.e_leg]
            .into_iter()
            .flatten()
            .filter(|leg| *leg != (from, cic))
            .collect();
        for (peer, leg_cic) in legs {
            ctx.send(
                peer,
                Message::TrunkVoice {
                    cic: leg_cic,
                    call,
                    seq,
                    origin_us,
                },
            );
        }
    }
}

impl Node<Message> for GsmMsc {
    fn on_timer(
        &mut self,
        ctx: &mut Context<'_, Message>,
        _token: vgprs_sim::TimerToken,
        tag: u64,
    ) {
        // Paging supervision: tags are namespaced; low bits = call id.
        // If the MS never answered, the trunk is released.
        if tag & TAG_PAGING == 0 {
            return;
        }
        let call = CallId(tag & !TAG_PAGING);
        let still_paging = self.paging.values().any(|&c| c == call);
        if still_paging {
            self.paging.retain(|_, &mut c| c != call);
            ctx.count("msc.paging_timeouts");
            self.clear_trunks(ctx, call, Cause::SubscriberAbsent);
            self.drop_call(call);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            (Interface::A, Message::A { conn, dtap }) => self.handle_a(ctx, from, conn, dtap),
            (Interface::Isup | Interface::E, Message::Isup(m)) => self.handle_isup(ctx, from, m),
            (
                Interface::Isup | Interface::E,
                Message::TrunkVoice {
                    cic,
                    call,
                    seq,
                    origin_us,
                },
            ) => self.relay_trunk_voice(ctx, from, cic, call, seq, origin_us),
            (Interface::B | Interface::C | Interface::E, Message::Map(m)) => {
                self.handle_map(ctx, from, m)
            }
            _ => ctx.count("msc.unexpected_message"),
        }
    }
}
