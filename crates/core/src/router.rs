//! The pipelined wormhole router (PROUD / LA-PROUD).
//!
//! One [`Router`] models the paper's five-stage PROUD pipe or the
//! four-stage LA-PROUD pipe at flit granularity:
//!
//! ```text
//! PROUD:     SY → TL → SA → XB → VM        (header, 5 cycles)
//! LA-PROUD:  SY → SA(+TL next hop) → XB → VM (header, 4 cycles)
//! body/tail: SY ············· XB → VM        (bypass path)
//! ```
//!
//! * **SY** — a flit delivered by the link lands in its per-VC input
//!   buffer ([`Router::commit_flit`]);
//! * **TL** — the head's destination indexes the routing table
//!   ([`crate::tables::RouterTable::entry`]); in LA-PROUD the result was
//!   carried in the header and this stage disappears;
//! * **SA** — path selection among available candidate ports
//!   ([`crate::psh::PathSelector`]) plus output-VC allocation, with the
//!   Duato escape fallback; in LA-PROUD the lookup *for the next router*
//!   runs here concurrently and is written into the outgoing header;
//! * **XB** — separable (input-first, then output round-robin) switch
//!   allocation moves one flit per input port and per output port per
//!   cycle toward its output: the payload goes to the [`StepSink`], the
//!   output staging ring keeps the flit's place in line;
//! * **VM** — per physical channel, one staged flit with downstream
//!   credits wins the VC multiplexor and enters the link.
//!
//! Flow control is credit-based: an output VC holds one credit per free
//! slot of the downstream input buffer; popping a flit from an input buffer
//! returns a credit upstream (with the link's one-cycle delay, handled by
//! the network layer).
//!
//! # The SoA flit arenas and the slot lifecycle
//!
//! Input flit storage lives in **structure-of-arrays arenas**: one dense
//! one-byte-per-slot array of [`FlitKind`]s — the hot half every stage
//! branches on — plus a parallel side array of [`ColdFlit`]s that holds
//! the fields only head-flit decoding reads (see [`crate::flit`]). Each
//! input (port, VC) owns the fixed arena segment
//! `flat_index * ring .. (flat_index + 1) * ring`, used as a ring whose
//! cursor lives in the VC's [`InputVc`] header; cursors wrap with a
//! compare instead of a modulo so the hot path never divides.
//!
//! Only heads write or read the cold arena. Wormhole switching carries
//! one message at a time per VC, head first, so a body or tail flit's
//! identity (`msg`, `rec`, `dest`) is its head's and its `seq` is one
//! past its predecessor's. When a head wins the crossbar, its cold half
//! opens the **stream context** of the output VC it allocated, and every
//! later flit of the message takes its payload from that context, `seq`
//! counting up. The context is one `ColdFlit` per output VC, so a body
//! flit's crossbar move reads one small line instead of its own arena
//! slot, and the downstream reservation writes only its kind byte.
//!
//! Output staging holds no flit data at all: it is **counted**. An output
//! VC stages only its owner's flits, in order, and the owner is released
//! when its tail leaves, so a staging buffer is a length plus a
//! `tail_staged` flag. The pop that empties a tail-staged buffer is the
//! tail.
//!
//! A slot's lifecycle per hop is the **SY** stage in two halves: the
//! payload is written into the exact input-ring slot it will occupy
//! ([`Router::reserve_flit`] — done by the upstream crossbar, a link
//! delay ahead of the arrival) and the arrival flips it visible
//! ([`Router::commit_flit`]). NIC injection does both at once
//! ([`Router::accept_flit`]). The **XB** winner hands its payload, built
//! from the head's slot or the stream context, to the sink
//! ([`StepSink::transfer`], which places it in the downstream router's
//! input ring), counts itself into the staging buffer, and frees the
//! input slot (returning a credit upstream); the **VM** grant pops the
//! staging count and announces the launch ([`StepSink::launch`]). Flits
//! bound for the local port transfer nothing: their payload leaves at VM,
//! where [`StepSink::eject`] gets the flit rebuilt from the ejection VC's
//! stream context. Routing (**TL**/**SA**) reads only the ring head's
//! kind byte plus, for heads, the cold `dest`/`lookahead` fields.
//!
//! # The cycle walk
//!
//! [`Router::step_with`] runs the whole cycle in reverse pipeline order,
//! so a flit advances at most one stage per cycle: the occupied output
//! ports once (VM), the occupied input ports once (XB proposals, then
//! grants), then **one** combined walk over the occupied, not-yet-active
//! input VCs that handles both SA (slots in `Select`) and TL
//! decode/promote (slots in `Idle`). A VC slot is in exactly one routing
//! state, so one walk serves both stages and visits each slot once per
//! cycle. Every arbitration is an O(1) masked round-robin over
//! incrementally maintained eligibility masks. The walk's outputs (launch
//! order, credits, statistics) are pinned by the golden digests in
//! `crates/network/tests/golden_digests.rs`.

use crate::arbiter::rr_grant_mask;
use crate::config::RouterConfig;
use crate::flit::{ColdFlit, Flit, FlitKind};
use crate::psh::{PathSelector, PortStatus};
use crate::tables::{RouteEntry, RouterTable};
use lapses_sim::{Cycle, SimRng};
use lapses_topology::{NodeId, Port};

/// Credit sentinel for sinks that can always accept (the ejection port).
pub const INFINITE_CREDITS: u32 = u32::MAX;

/// Routing state of one input virtual channel.
#[derive(Debug, Clone, Copy, PartialEq)]
enum VcState {
    /// No message being routed (buffer may still hold a queued head).
    Idle,
    /// Header decoded, candidates known; waiting to win selection +
    /// VC allocation. The VC's `ready_at` gates the first allocation
    /// attempt on the table-lookup latency (multi-cycle lookups for large
    /// table RAMs).
    Select { entry: RouteEntry },
    /// Path allocated; flits stream through the crossbar.
    Active { out_port: Port, out_vc: u8 },
}

/// Largest number of ports a router can have (local + 2 per dimension).
const MAX_PORTS: usize = lapses_topology::MAX_DIMS * 2 + 1;

/// Largest number of (port, VC) slots a router can have — also the
/// occupancy-mask width.
pub const MAX_VC_SLOTS: usize = 64;

/// Per-VC input state. The flit storage itself lives in the router's
/// SoA input arenas; this header only carries the ring cursor and the
/// routing state — 24 packed bytes, so one cache line covers a port.
#[derive(Debug, Clone, Copy)]
struct InputVc {
    state: VcState,
    /// One time gate serving two disjoint states. `Idle`: earliest cycle
    /// the PROUD table-lookup stage may process a queued head (blocks
    /// same-cycle lookup after the previous tail departs). `Select`: the
    /// cycle the in-flight table lookup completes and allocation may
    /// first be attempted.
    ready_at: u64,
    /// Ring cursor into this VC's arena segment.
    head: u16,
    /// Buffered flits.
    len: u16,
    /// Flits whose payload is already written behind `len` by
    /// [`Router::reserve_flit`] but not yet visible (still "on the
    /// wire"); made visible in FIFO order by [`Router::commit_flit`].
    pending: u16,
}

const IDLE_INPUT: InputVc = InputVc {
    state: VcState::Idle,
    ready_at: 0,
    head: 0,
    len: 0,
    pending: 0,
};

/// Per-VC output state. Staging is counted (see the module docs): the
/// staged flits are the owner's next `len` flits, in order.
#[derive(Debug, Clone, Copy)]
struct OutputVc {
    /// Input VC currently holding this output VC, `(port, vc)`.
    owner: Option<(u8, u8)>,
    /// Whether the owner's tail is staged — then it is the last staged
    /// flit, and the pop that empties the buffer launches it.
    tail_staged: bool,
    /// Free buffer slots at the downstream input VC.
    credits: u32,
    /// Staged flits.
    len: u16,
}

const IDLE_OUTPUT: OutputVc = OutputVc {
    owner: None,
    tail_staged: false,
    credits: 0,
    len: 0,
};

/// Cold-half value used only to initialize arena slots and stream
/// contexts; never observed.
const COLD_FILLER: ColdFlit = ColdFlit {
    msg: crate::flit::MessageId(u64::MAX),
    rec: crate::flit::MsgRef(u32::MAX),
    dest: NodeId(u32::MAX),
    seq: u32::MAX,
    lookahead: None,
};

/// Receives a router's per-cycle outputs as the stages produce them —
/// the router's one output protocol, the zero-copy wire.
///
/// A flit bound for a neighbor leaves in two calls: at XB time its
/// payload goes to [`StepSink::transfer`] (the network writes it into the
/// downstream input ring), and when it later wins the VC multiplexor
/// [`StepSink::launch`] announces it. Launches at one `(port, vc)` come
/// in transfer order, so the sink can treat each output VC as a FIFO. A
/// flit bound for the local port never transfers; VM hands it whole to
/// [`StepSink::eject`]. Within a cycle the callbacks arrive in a
/// deterministic order: VM launches and ejections in ascending
/// output-port order, then XB transfers and credits in crossbar grant
/// order.
///
/// Every flit handed over is whole, but only a head's fields come from
/// its own storage. The router relies on the wormhole contract: a VC
/// carries one message at a time, its flits contiguous, head first with
/// `seq` 0, each next `seq` one higher, the tail last. A body or tail
/// flit handed to `transfer` or `eject` is therefore rebuilt from its
/// head: the head's `msg`, `rec` and `dest`, its own `seq` and kind, and
/// `lookahead: None`. [`Flit::message`] builds flits that keep the
/// contract.
pub trait StepSink {
    /// A flit leaves through the ejection channel on local VC `vc`.
    fn eject(&mut self, vc: usize, flit: Flit);
    /// XB time: the payload of a crossbar winner bound for neighbor
    /// output `(out_port, vc)`. Never called for the local port.
    fn transfer(&mut self, out_port: Port, vc: usize, flit: Flit);
    /// VM time: the oldest flit transferred at `(port, vc)` enters the
    /// link. Never called for the local port.
    fn launch(&mut self, port: Port, vc: usize);
    /// An input-buffer slot at `(in_port, vc)` freed; credit the upstream.
    fn credit(&mut self, in_port: Port, vc: usize);
}

/// Aggregate router activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Flits that traversed the crossbar.
    pub flits_switched: u64,
    /// Headers that completed selection + VC allocation.
    pub headers_routed: u64,
    /// Allocations that used an adaptive-class VC.
    pub adaptive_allocations: u64,
    /// Allocations that fell back to the Duato escape VC.
    pub escape_allocations: u64,
    /// Header-cycles spent waiting in the selection stage.
    pub selection_stall_cycles: u64,
    /// Selections where more than one candidate port was available (the
    /// cases where the path-selection heuristic actually decided).
    pub multi_candidate_decisions: u64,
}

/// A cycle-accurate PROUD / LA-PROUD wormhole router.
///
/// The router is driven by the network layer: once per cycle it calls
/// [`Router::step_with`] (stages run in reverse pipeline order so a flit
/// advances one stage per cycle), then delivers link arrivals via
/// [`Router::commit_flit`], injections via [`Router::accept_flit`] and
/// returned credits via [`Router::accept_credit`].
pub struct Router {
    // -- Walk-control state: everything the per-cycle control flow
    //    branches on. The default layout lets rustc reorder fields, so
    //    this grouping is for the reader, not a cache-line layout. --
    /// Bit per input VC (flat index): set while its buffer is non-empty.
    in_occupied: u64,
    /// Bit per output VC (flat index): set while its staging buffer is
    /// non-empty.
    out_occupied: u64,
    /// Bit per input port: set while any of its VCs is occupied.
    in_ports: u16,
    /// Bit per output port: set while any of its VCs holds staged flits.
    out_ports: u16,
    /// Bit per output VC (flat index): set while it holds credits — the
    /// VM arbiter's eligibility as a maintained mask, so the grant is one
    /// AND instead of a credit load per candidate.
    credit_ok: u64,
    /// Bit per input VC (flat index): set while the VC is `Active` and
    /// its target staging buffer has space — the crossbar input arbiter's
    /// eligibility as a maintained mask (combined with `in_occupied` at
    /// grant time).
    xb_ok: u64,
    /// Bit per output VC (flat index): set while no message owns it —
    /// the VC allocator's eligibility as a maintained mask.
    owner_free: u64,
    /// Bit per input VC (flat index): set while the VC's routing state is
    /// not `Active` (`Idle` or `Select`). ANDed with `in_occupied`, this
    /// is exactly the set of slots the SA/TL walk can act on, so fully
    /// streaming routers skip that walk outright.
    non_active: u64,
    /// Port-local bit pattern of the adaptive-class VCs
    /// (`escape_vcs..vcs`), for masked allocation scans.
    adaptive_mask: u64,
    /// Input buffer depth per VC, in flits (the flow-control window).
    in_cap: u16,
    /// Output staging depth per VC, in flits.
    out_cap: u16,
    /// Input ring segment size per VC: `in_cap + out_cap`, leaving room
    /// for zero-copy reservations made at upstream-crossbar time.
    in_ring: u16,
    /// Cached `cfg.vcs_per_port` (the cfg itself is off the hot path).
    vcs: u8,
    /// Cached port count.
    ports: u8,
    /// Cached `cfg.pipeline.is_lookahead()`.
    lookahead: bool,
    /// Per output port: VC-multiplexor rotation pointer.
    vm_next: [u8; MAX_PORTS],
    /// Per input port: rotation pointer over its VCs' crossbar proposals.
    xb_in_next: [u8; MAX_PORTS],
    /// Per output port: rotation pointer over proposing input ports.
    xb_out_next: [u8; MAX_PORTS],
    /// Per output port: rotation pointer for output-VC allocation.
    vc_alloc_next: [u8; MAX_PORTS],
    /// Flits launched per output port (link-utilization reporting),
    /// counted here — in state the launch already touches — instead of in
    /// a network-global array the hot path would miss on.
    link_flits: [u64; MAX_PORTS],
    /// Per-VC input cursors + routing state, inline (no pointer chase);
    /// only the first `ports * vcs` entries are live.
    inputs: [InputVc; MAX_VC_SLOTS],
    /// Per-VC output cursors + credits, inline.
    outputs: [OutputVc; MAX_VC_SLOTS],
    /// Hot halves (kind bytes) of the input-VC flit rings, one contiguous
    /// segment per VC (`vc_index * in_ring ..`).
    in_kind: Box<[FlitKind]>,
    /// Cold halves of the input rings, written and read for heads only
    /// (a body or tail slot holds stale data).
    in_cold: Box<[ColdFlit]>,
    /// Per output VC (flat index): the stream context, the payload of the
    /// next flit of the owner's message to leave through it — at XB for a
    /// direction port, at VM for the ejection port. A head's crossbar move
    /// opens it (see the module docs).
    stream: Box<[ColdFlit]>,
    selector: PathSelector,
    rng: SimRng,
    stats: RouterStats,
    // -- Cold configuration and identity. --
    node: NodeId,
    cfg: RouterConfig,
    table: RouterTable,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("node", &self.node)
            .field("ports", &self.ports)
            .field("pipeline", &self.cfg.pipeline)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Creates a router with `ports` ports (local + directions).
    ///
    /// Output-VC credits start at zero; the network layer sets them to the
    /// downstream buffer depths with [`Router::set_credits`] after wiring.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// ([`RouterConfig::validate`]) or `ports` is zero.
    pub fn new(
        node: NodeId,
        ports: usize,
        cfg: RouterConfig,
        table: RouterTable,
        rng: SimRng,
    ) -> Router {
        cfg.validate();
        assert!(ports > 0, "router needs at least one port");
        assert!(ports <= MAX_PORTS, "router exceeds the port budget");
        assert!(
            ports * cfg.vcs_per_port <= MAX_VC_SLOTS,
            "router exceeds the 64 (port, VC) occupancy-mask budget"
        );
        assert_eq!(table.node(), node, "table programmed for a different node");
        let vcs = cfg.vcs_per_port;
        let in_cap = u16::try_from(cfg.input_buffer_flits).expect("input buffer fits u16");
        let out_cap = u16::try_from(cfg.output_buffer_flits).expect("output buffer fits u16");
        // Input ring segments hold the visible buffer plus every possible
        // zero-copy reservation: a reservation is made when the flit wins
        // the *upstream* crossbar, so up to `out_cap` staged flits plus
        // `in_cap` credited launches can be outstanding per VC.
        let in_ring = in_cap.checked_add(out_cap).expect("ring fits u16");
        let in_slots = ports * vcs * in_ring as usize;
        Router {
            in_occupied: 0,
            out_occupied: 0,
            in_ports: 0,
            out_ports: 0,
            credit_ok: 0,
            xb_ok: 0,
            non_active: u64::MAX,
            owner_free: if ports * vcs == 64 {
                u64::MAX
            } else {
                (1u64 << (ports * vcs)) - 1
            },
            adaptive_mask: {
                let all = (1u64 << vcs) - 1;
                let escape = (1u64 << cfg.escape_vcs) - 1;
                all & !escape
            },
            in_cap,
            out_cap,
            in_ring,
            vcs: vcs as u8,
            ports: ports as u8,
            lookahead: cfg.pipeline.is_lookahead(),
            vm_next: [0; MAX_PORTS],
            xb_in_next: [0; MAX_PORTS],
            xb_out_next: [0; MAX_PORTS],
            vc_alloc_next: [0; MAX_PORTS],
            link_flits: [0; MAX_PORTS],
            inputs: [IDLE_INPUT; MAX_VC_SLOTS],
            outputs: [IDLE_OUTPUT; MAX_VC_SLOTS],
            in_kind: vec![FlitKind::Body; in_slots].into_boxed_slice(),
            in_cold: vec![COLD_FILLER; in_slots].into_boxed_slice(),
            stream: vec![COLD_FILLER; ports * vcs].into_boxed_slice(),
            selector: PathSelector::new(cfg.path_selection, ports),
            rng,
            stats: RouterStats::default(),
            node,
            cfg,
            table,
        }
    }

    /// The node this router serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports as usize
    }

    /// The router's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Activity counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Flits launched through output `port` so far.
    pub fn link_flits(&self, port: Port) -> u64 {
        self.link_flits[port.index()]
    }

    /// Sets the credit budget of output `(port, vc)` — the downstream input
    /// buffer depth, or [`INFINITE_CREDITS`] for the ejection channel.
    pub fn set_credits(&mut self, port: Port, vc: usize, credits: u32) {
        let idx = self.out_idx(port, vc);
        self.outputs[idx].credits = credits;
        if credits > 0 {
            self.credit_ok |= 1 << idx;
        } else {
            self.credit_ok &= !(1 << idx);
        }
    }

    /// Current credits of output `(port, vc)`.
    pub fn credits(&self, port: Port, vc: usize) -> u32 {
        self.outputs[self.out_idx(port, vc)].credits
    }

    /// Whether the router holds no flits at all (input or staged).
    pub fn is_empty(&self) -> bool {
        // A VC holds flits iff its occupancy bit is set, so the masks are
        // the whole truth.
        self.in_occupied == 0 && self.out_occupied == 0
    }

    #[inline]
    fn in_idx(&self, port: Port, vc: usize) -> usize {
        debug_assert!(port.index() < self.ports() && vc < self.vcs as usize);
        port.index() * self.vcs as usize + vc
    }

    #[inline]
    fn out_idx(&self, port: Port, vc: usize) -> usize {
        debug_assert!(port.index() < self.ports() && vc < self.vcs as usize);
        port.index() * self.vcs as usize + vc
    }

    // Ring-buffer primitives over the SoA input arenas. Each VC owns the
    // arena segment `idx * ring .. (idx + 1) * ring`; cursors wrap with a
    // compare instead of a modulo so the hot path never divides.

    /// Arena index of input ring `idx`'s front slot (requires `len > 0`).
    #[inline]
    fn ibuf_front_slot(&self, idx: usize) -> usize {
        debug_assert!(self.inputs[idx].len > 0, "no front flit");
        idx * self.in_ring as usize + self.inputs[idx].head as usize
    }

    /// Advances input ring `in_idx` past its front slot (the flit's
    /// payload has already gone wherever it was needed).
    #[inline]
    fn ibuf_advance(&mut self, in_idx: usize) {
        let cap = self.in_ring;
        let ivc = &mut self.inputs[in_idx];
        debug_assert!(ivc.len > 0, "input ring underflow");
        ivc.head += 1;
        if ivc.head == cap {
            ivc.head = 0;
        }
        ivc.len -= 1;
    }

    /// SY stage in one call: a flit injected by the local network
    /// interface lands in its input VC buffer —
    /// [`Router::reserve_flit`] followed by [`Router::commit_flit`].
    ///
    /// In LA-PROUD mode a head flit landing at the front of an idle VC is
    /// decoded immediately: its carried candidate set arms the selection
    /// stage for the *next* cycle, skipping the table-lookup stage.
    ///
    /// # Panics
    ///
    /// Panics if the buffer overflows (a flow-control violation — the
    /// sender had no credit) or, in LA-PROUD mode, if a head arrives
    /// without look-ahead information.
    pub fn accept_flit(&mut self, port: Port, vc: usize, flit: Flit, now: Cycle) {
        debug_assert_eq!(
            self.inputs[self.in_idx(port, vc)].pending,
            0,
            "accept_flit behind a pending reservation"
        );
        self.reserve_flit(port, vc, flit);
        self.commit_flit(port, vc, now);
    }

    /// Writes a flit into the input ring slot it will occupy on arrival
    /// **without making it visible**: the reservation half of the
    /// zero-copy wire (see the `lapses-network` module docs), performed
    /// when the flit wins the *upstream* crossbar. The slot is
    /// `head + len + pending`, which is stable under everything that can
    /// happen between reservation and arrival — pops advance `head` while
    /// shrinking `len`, earlier commits trade `pending` for `len` — so
    /// the payload lands exactly where [`Router::commit_flit`] will
    /// expose it, and nothing reads past `len` in the meantime. The ring
    /// segment is sized `in_cap + out_cap`, covering every credited
    /// launch plus every upstream-staged flit.
    ///
    /// Only a head's cold half is stored; a body or tail flit stores its
    /// kind alone, because the router rebuilds it from its head when it
    /// leaves. The flits of one message must therefore follow the
    /// wormhole contract stated at [`StepSink`].
    ///
    /// # Panics
    ///
    /// Panics if the reservation overflows the ring (the upstream staged
    /// or launched more than flow control ever allows).
    pub fn reserve_flit(&mut self, port: Port, vc: usize, flit: Flit) {
        let idx = self.in_idx(port, vc);
        let cap = self.in_ring;
        let ivc = &mut self.inputs[idx];
        assert!(
            ivc.len + ivc.pending < cap,
            "input ring overflow at {} {port} vc{vc}: flow control violated",
            self.node
        );
        let mut slot = ivc.head + ivc.len + ivc.pending;
        if slot >= cap {
            slot -= cap;
        }
        ivc.pending += 1;
        let (kind, cold) = flit.split();
        let slot = idx * cap as usize + slot as usize;
        self.in_kind[slot] = kind;
        if kind.is_head() {
            self.in_cold[slot] = cold;
        }
    }

    /// Makes the oldest reserved flit at `(port, vc)` visible — the wire
    /// delivered it — and runs the SY-stage bookkeeping (occupancy, and
    /// the LA-PROUD decode described at [`Router::accept_flit`]).
    ///
    /// # Panics
    ///
    /// Panics if the visible buffer overflows (the upstream sent without
    /// credit).
    pub fn commit_flit(&mut self, port: Port, vc: usize, now: Cycle) {
        let idx = self.in_idx(port, vc);
        let ivc = &mut self.inputs[idx];
        debug_assert!(ivc.pending > 0, "commit without a reservation");
        assert!(
            ivc.len < self.in_cap,
            "input buffer overflow at {} {port} vc{vc}: flow control violated",
            self.node
        );
        ivc.pending -= 1;
        ivc.len += 1;
        self.in_occupied |= 1 << idx;
        self.in_ports |= 1 << port.index();
        if self.lookahead {
            self.try_lookahead_promote(idx, now);
        }
    }

    /// Credit returned by the downstream router for output `(port, vc)`.
    pub fn accept_credit(&mut self, port: Port, vc: usize) {
        let idx = self.out_idx(port, vc);
        let o = &mut self.outputs[idx];
        if o.credits != INFINITE_CREDITS {
            o.credits += 1;
            debug_assert!(
                o.credits as usize <= self.cfg.input_buffer_flits,
                "credit overflow on {port} vc{vc}"
            );
        }
        self.credit_ok |= 1 << idx;
    }

    /// Runs one cycle — VM, XB, SA, then TL, in reverse pipeline order so
    /// a flit advances at most one stage per cycle — streaming payloads,
    /// launches, ejections and credits into `sink` as the stages produce
    /// them (see the module docs for the walk). Returns whether any flit
    /// moved or allocation succeeded. Routers holding no flits return
    /// immediately.
    pub fn step_with<S: StepSink>(&mut self, now: Cycle, sink: &mut S) -> bool {
        if self.in_occupied == 0 && self.out_occupied == 0 {
            return false;
        }
        // VM: per occupied output port, one credited staged flit enters
        // the link; the tail releases the output VC.
        let mut moved = false;
        let mut pmask = self.out_ports;
        while pmask != 0 {
            let p = pmask.trailing_zeros() as usize;
            pmask &= pmask - 1;
            moved |= self.vm_port(p, sink);
        }

        if self.in_occupied != 0 {
            // XB: separable switch allocation (proposals, then grants).
            moved |= self.xb_pass(now, sink);

            // SA + TL: one walk over the occupied input VCs. A slot is in
            // exactly one routing state — Select slots attempt allocation
            // (SA), Idle slots decode a queued header (TL/look-ahead
            // promote), Active slots cost one branch.
            let lookahead = self.lookahead;
            // Only non-`Active` occupied slots can do SA/TL work; fully
            // streaming routers skip the walk entirely.
            let mut occupied = self.in_occupied & self.non_active;
            while occupied != 0 {
                let idx = occupied.trailing_zeros() as usize;
                occupied &= occupied - 1;
                match self.inputs[idx].state {
                    VcState::Select { entry } => {
                        if now.as_u64() >= self.inputs[idx].ready_at {
                            moved |= self.sa_allocate(idx, &entry);
                        }
                    }
                    VcState::Idle => {
                        if lookahead {
                            self.try_lookahead_promote(idx, now);
                        } else {
                            self.tl_decode(idx, now);
                        }
                    }
                    VcState::Active { .. } => {}
                }
            }
        }
        moved
    }

    /// VM for one output port: grant a credited staged flit the VC mux
    /// and launch it into the link. Returns whether a flit launched.
    #[inline]
    fn vm_port<S: StepSink>(&mut self, p: usize, sink: &mut S) -> bool {
        let vcs = self.vcs as usize;
        let vcmask = (1u64 << vcs) - 1;
        let base = p * vcs;
        let port_mask = (self.out_occupied >> base) & vcmask;
        debug_assert!(port_mask != 0, "stale out_ports bit");
        let granted = rr_grant_mask(
            &mut self.vm_next[p],
            vcs,
            port_mask & ((self.credit_ok >> base) & vcmask),
        );
        let Some(v) = granted else { return false };
        let idx = base + v;
        // Pop the staging count. Every staged flit is the owner's and the
        // tail is staged last, so the pop that empties a tail-staged
        // buffer launches the tail.
        let o = &mut self.outputs[idx];
        debug_assert!(o.len > 0, "staging underflow");
        let was_full = o.len == self.out_cap;
        o.len -= 1;
        let is_tail = o.len == 0 && o.tail_staged;
        if o.len == 0 {
            self.out_occupied &= !(1 << idx);
            if (self.out_occupied >> base) & vcmask == 0 {
                self.out_ports &= !(1 << p);
            }
        }
        if o.credits != INFINITE_CREDITS {
            o.credits -= 1;
            if o.credits == 0 {
                self.credit_ok &= !(1 << idx);
            }
        }
        if is_tail {
            o.tail_staged = false;
            o.owner = None;
            self.owner_free |= 1 << idx;
        }
        self.link_flits[p] += 1;
        if was_full {
            // The staging buffer just gained a slot: the input VC streaming
            // into it (its owner, if it is still the active streamer —
            // the owner outlives its tail's crossbar pop) becomes
            // crossbar-eligible again.
            if let Some((op_, ov_)) = self.outputs[idx].owner {
                let owner_idx = op_ as usize * vcs + ov_ as usize;
                let streaming = matches!(
                    self.inputs[owner_idx].state,
                    VcState::Active { out_port, out_vc }
                        if out_port.index() == p && out_vc as usize == v
                );
                if streaming {
                    self.xb_ok |= 1 << owner_idx;
                }
            }
        }
        let port = Port::from_index(p);
        if port.is_local() {
            // An ejected flit's payload leaves now, from the stream
            // context its head opened at XB.
            let next = &mut self.stream[idx];
            let kind = FlitKind::from_ends(next.seq == 0, is_tail);
            let flit = Flit::assemble(kind, *next);
            next.seq += 1;
            sink.eject(v, flit);
        } else {
            sink.launch(port, v);
        }
        true
    }

    /// XB: separable switch allocation. Each occupied input port proposes
    /// one of its VCs (input arbitration), then each requested output port
    /// grants one proposing input (output arbitration); winners hand their
    /// payload to the sink (unless bound for the local port, whose
    /// payloads leave at VM), count themselves into the staging buffer and
    /// free a credit.
    fn xb_pass<S: StepSink>(&mut self, now: Cycle, sink: &mut S) -> bool {
        let vcs = self.vcs as usize;
        let ports = self.ports as usize;
        let vcmask = (1u64 << vcs) - 1;
        let mut moved = false;
        // Input arbitration: proposals are packed small-int arrays (no
        // per-call Option zeroing, no divisions downstream).
        let mut prop_vc = [0u8; MAX_PORTS];
        let mut prop_of = [u16::MAX; MAX_PORTS]; // flat output VC index
        let mut prop_op = [0u8; MAX_PORTS]; // proposal's output port
        let mut req_ports = [0u16; MAX_PORTS]; // per output port: proposers
        let mut requested_outputs = 0u16; // bit per output port
        let mut pmask = self.in_ports;
        while pmask != 0 {
            let p = pmask.trailing_zeros() as usize;
            pmask &= pmask - 1;
            let base = p * vcs;
            let port_mask = (self.in_occupied >> base) & vcmask;
            debug_assert!(port_mask != 0, "stale in_ports bit");
            let granted = rr_grant_mask(
                &mut self.xb_in_next[p],
                vcs,
                port_mask & ((self.xb_ok >> base) & vcmask),
            );
            if let Some(v) = granted {
                let VcState::Active { out_port, out_vc } = self.inputs[base + v].state else {
                    unreachable!("granted VC is active");
                };
                prop_vc[p] = v as u8;
                prop_of[p] = (out_port.index() * vcs + out_vc as usize) as u16;
                prop_op[p] = out_port.index() as u8;
                req_ports[out_port.index()] |= 1 << p;
                requested_outputs |= 1 << out_port.index();
            }
        }
        // Output arbitration: one winning input port per output port.
        let mut omask = requested_outputs;
        while omask != 0 {
            let op = omask.trailing_zeros() as usize;
            omask &= omask - 1;
            let winner = rr_grant_mask(&mut self.xb_out_next[op], ports, req_ports[op] as u64);
            let Some(ip) = winner else { continue };
            let iv = prop_vc[ip] as usize;
            let of = prop_of[ip] as usize;
            debug_assert!(prop_op[ip] as usize == op && of != u16::MAX as usize);
            let in_idx = ip * vcs + iv;
            let out_port = Port::from_index(op);
            let islot = self.ibuf_front_slot(in_idx);
            let kind = self.in_kind[islot];
            self.ibuf_advance(in_idx);
            // Only a head reads the cold arena: it opens the output VC's
            // stream context, from which the rest of its message is built.
            if out_port.is_local() {
                if kind.is_head() {
                    self.stream[of] = self.in_cold[islot];
                }
            } else {
                let cold = if kind.is_head() {
                    let head = self.in_cold[islot];
                    self.stream[of] = ColdFlit {
                        seq: head.seq + 1,
                        lookahead: None,
                        ..head
                    };
                    head
                } else {
                    let next = &mut self.stream[of];
                    let cold = *next;
                    next.seq += 1;
                    cold
                };
                sink.transfer(out_port, of - op * vcs, Flit::assemble(kind, cold));
            }
            let o = &mut self.outputs[of];
            debug_assert!(o.len < self.out_cap, "staging overflow");
            o.len += 1;
            o.tail_staged = kind.is_tail();
            if self.inputs[in_idx].len == 0 {
                self.in_occupied &= !(1 << in_idx);
                if (self.in_occupied >> (ip * vcs)) & vcmask == 0 {
                    self.in_ports &= !(1 << ip);
                }
            }
            sink.credit(Port::from_index(ip), iv);
            if kind.is_tail() {
                // The freed VC's next header is decoded by the SA/TL walk
                // later in *this* cycle, so its earliest selection attempt
                // is next cycle — in LA-PROUD. PROUD additionally pays the
                // table-lookup cycle, enforced by `ready_at`.
                let ivc = &mut self.inputs[in_idx];
                ivc.state = VcState::Idle;
                ivc.ready_at = now.as_u64() + 1;
                self.xb_ok &= !(1 << in_idx); // no longer an active streamer
                self.non_active |= 1 << in_idx;
            } else if self.outputs[of].len == self.out_cap {
                // The move filled the staging ring: the streamer stalls
                // until the VC multiplexor frees a slot.
                self.xb_ok &= !(1 << in_idx);
            }
            self.selector
                .note_port_used(out_port, now.as_u64(), kind.is_head());
            self.stats.flits_switched += 1;
            self.out_occupied |= 1 << of;
            self.out_ports |= 1 << op;
            moved = true;
        }
        moved
    }

    /// SA for one `Select` input VC whose table lookup has completed:
    /// selection + output-VC allocation with the Duato escape fallback;
    /// LA-PROUD concurrently performs the next hop's table lookup and
    /// rewrites the header. Returns whether the allocation succeeded.
    fn sa_allocate(&mut self, idx: usize, entry: &RouteEntry) -> bool {
        let vcs = self.vcs as usize;
        let slot = self.ibuf_front_slot(idx);
        debug_assert!(self.in_kind[slot].is_head(), "selection on a non-head flit");
        let dest = self.in_cold[slot].dest;
        match self.try_allocate(entry) {
            Some((out_port, out_vc, used_escape)) => {
                let of = out_port.index() * vcs + out_vc;
                self.outputs[of].owner = Some(((idx / vcs) as u8, (idx % vcs) as u8));
                self.owner_free &= !(1 << of);
                let lookahead = (self.lookahead && !out_port.is_local())
                    .then(|| self.table.lookahead_entry(out_port, dest));
                self.in_cold[slot].lookahead = lookahead;
                self.inputs[idx].state = VcState::Active {
                    out_port,
                    out_vc: out_vc as u8,
                };
                self.non_active &= !(1 << idx);
                if self.outputs[of].len < self.out_cap {
                    self.xb_ok |= 1 << idx;
                } else {
                    self.xb_ok &= !(1 << idx);
                }
                self.stats.headers_routed += 1;
                if used_escape {
                    self.stats.escape_allocations += 1;
                } else {
                    self.stats.adaptive_allocations += 1;
                }
                true
            }
            None => {
                self.stats.selection_stall_cycles += 1;
                false
            }
        }
    }

    /// PROUD TL for one `Idle` input VC: decode + table lookup when a
    /// queued header has reached the buffer front and the post-tail
    /// blackout (`tl_ready_at`) has passed.
    fn tl_decode(&mut self, idx: usize, now: Cycle) {
        debug_assert_eq!(self.inputs[idx].state, VcState::Idle);
        if now.as_u64() < self.inputs[idx].ready_at || self.inputs[idx].len == 0 {
            return;
        }
        let slot = self.ibuf_front_slot(idx);
        if !self.in_kind[slot].is_head() {
            return;
        }
        let entry = self.table.entry(self.in_cold[slot].dest);
        // The k-cycle lookup starting now completes at now + k; the
        // selection stage may fire from that cycle on (k = 1 recovers
        // the classic one-cycle TL stage).
        let ivc = &mut self.inputs[idx];
        ivc.ready_at = now.as_u64() + self.cfg.table_lookup_cycles as u64;
        ivc.state = VcState::Select { entry };
    }

    /// Tries to reserve an output VC for a header with the given route
    /// entry: adaptive candidates first (through the path-selection
    /// heuristic when several ports are available), then the escape VC of
    /// the entry's dateline subclass. Returns `(port, vc, used_escape)`.
    fn try_allocate(&mut self, entry: &RouteEntry) -> Option<(Port, usize, bool)> {
        let vcs = self.vcs as usize;

        let vcmask = (1u64 << vcs) - 1;

        // Destination reached: any free VC on the local exit port.
        if entry.is_local() {
            let local = Port::LOCAL.index() * vcs;
            let v = rr_grant_mask(
                &mut self.vc_alloc_next[Port::LOCAL.index()],
                vcs,
                (self.owner_free >> local) & vcmask,
            )?;
            return Some((Port::LOCAL, v, false));
        }

        // Adaptive pass: candidate ports with a free adaptive-class VC.
        let mut avail = [Port::LOCAL; lapses_topology::MAX_DIMS * 2 + 1];
        let mut n_avail = 0;
        for p in entry.candidates.iter() {
            let has_free = (self.owner_free >> (p.index() * vcs)) & self.adaptive_mask != 0;
            if has_free {
                avail[n_avail] = p;
                n_avail += 1;
            }
        }
        if n_avail > 0 {
            let chosen = if n_avail == 1 {
                avail[0]
            } else {
                self.stats.multi_candidate_decisions += 1;
                // Snapshot port statuses first to keep the borrow checker
                // (and the hardware analogy: status registers are latched
                // before the selection mux).
                let mut statuses = [PortStatus::default(); lapses_topology::MAX_DIMS * 2 + 1];
                for (i, p) in avail[..n_avail].iter().enumerate() {
                    statuses[i] = self.port_status(*p);
                }
                let avail = &avail[..n_avail];
                self.selector.select(
                    avail,
                    |p| {
                        let i = avail.iter().position(|q| *q == p).expect("candidate");
                        statuses[i]
                    },
                    &mut self.rng,
                )
            };
            let base = chosen.index() * vcs;
            let v = rr_grant_mask(
                &mut self.vc_alloc_next[chosen.index()],
                vcs,
                (self.owner_free >> base) & self.adaptive_mask,
            )
            .expect("an adaptive VC was free");
            return Some((chosen, v, false));
        }

        // Escape pass (Duato's protocol): the deterministic escape route's
        // escape-class VC of the right dateline subclass.
        if self.cfg.escape_vcs > 0 {
            let escape = entry.escape?;
            let sub = entry.escape_subclass as usize % self.cfg.escape_subclasses;
            let base = escape.index() * vcs;
            for v in self.cfg.escape_vcs_for_subclass(sub) {
                if self.owner_free & (1 << (base + v)) != 0 {
                    return Some((escape, v, true));
                }
            }
        }
        None
    }

    /// Live status of an output port for the path-selection heuristics.
    fn port_status(&self, port: Port) -> PortStatus {
        let vcs = self.vcs as usize;
        let base = port.index() * vcs;
        let vcmask = (1u64 << vcs) - 1;
        let mut status = PortStatus {
            active_vcs: (!(self.owner_free >> base) & vcmask).count_ones(),
            ..PortStatus::default()
        };
        for v in 0..vcs {
            let o = &self.outputs[base + v];
            let credits = if o.credits == INFINITE_CREDITS {
                self.cfg.input_buffer_flits as u32
            } else {
                o.credits
            };
            status.credits_sum = status.credits_sum.saturating_add(credits);
            status.credits_max = status.credits_max.max(credits);
        }
        status
    }

    /// LA-PROUD: if input VC `idx` is idle with a header at the buffer
    /// front, arm the selection stage from the header's carried candidate
    /// information (the look-ahead decode, costing no pipeline stage).
    fn try_lookahead_promote(&mut self, idx: usize, now: Cycle) {
        if self.inputs[idx].state != VcState::Idle || self.inputs[idx].len == 0 {
            return;
        }
        let slot = self.ibuf_front_slot(idx);
        if !self.in_kind[slot].is_head() {
            return;
        }
        let front = &self.in_cold[slot];
        let entry = front.lookahead.unwrap_or_else(|| {
            panic!(
                "LA-PROUD header {} arrived at {} without look-ahead info",
                Flit::assemble(self.in_kind[slot], *front),
                self.node
            )
        });
        debug_assert_eq!(
            (entry.candidates, entry.escape),
            {
                let direct = self.table.entry(front.dest);
                (direct.candidates, direct.escape)
            },
            "carried look-ahead disagrees with a direct lookup at {}",
            self.node
        );
        // The candidates are already decoded; what can stall departure is
        // the *concurrent next-hop lookup*: the outgoing header is complete
        // k cycles after selection starts, so allocation may finish at
        // now + k (k = 1 recovers the zero-overhead look-ahead pipeline).
        let ivc = &mut self.inputs[idx];
        ivc.ready_at = now.as_u64() + self.cfg.table_lookup_cycles as u64;
        ivc.state = VcState::Select { entry };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, MessageId, MsgRef};
    use crate::psh::PathSelection;
    use crate::tables::{FullTable, TableScheme};
    use lapses_routing::DuatoAdaptive;
    use lapses_topology::{Direction, Mesh};
    use std::collections::{HashMap, VecDeque};
    use std::sync::Arc;

    /// 1-D four-node mesh: node 1 routes +d0 toward node 3.
    fn line_router(cfg: RouterConfig) -> Router {
        let mesh = Mesh::mesh(&[4]);
        let program: Arc<dyn TableScheme> =
            Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
        let node = NodeId(1);
        let mut r = Router::new(
            node,
            mesh.ports_per_router(),
            cfg,
            RouterTable::new(program, node),
            SimRng::from_seed(1),
        );
        // Give every direction port full credits and the local port
        // infinite credits.
        for p in 0..r.ports() {
            for v in 0..r.config().vcs_per_port {
                let port = Port::from_index(p);
                let credits = if port.is_local() {
                    INFINITE_CREDITS
                } else {
                    20
                };
                r.set_credits(port, v, credits);
            }
        }
        r
    }

    fn message(dest: u32, len: u32) -> Vec<Flit> {
        Flit::message(MessageId(1), MsgRef(0), NodeId(dest), len)
    }

    fn with_lookahead(mut flits: Vec<Flit>, router: &Router) -> Vec<Flit> {
        let entry = router.table.entry(flits[0].dest);
        flits[0].lookahead = Some(entry);
        flits
    }

    /// A flit leaving the router: onto a link, or ejected.
    #[derive(Debug, Clone, Copy)]
    struct Launch {
        port: Port,
        vc: usize,
        flit: Flit,
    }

    /// A test sink standing in for the wire: transferred payloads queue
    /// per output (port, VC) and each launch pops the oldest, so every
    /// flit leaving the router reads back whole.
    #[derive(Default)]
    struct WireFifo {
        wire: HashMap<(Port, usize), VecDeque<Flit>>,
        launches: Vec<Launch>,
        credits: Vec<(Port, usize)>,
    }

    impl StepSink for WireFifo {
        fn eject(&mut self, vc: usize, flit: Flit) {
            let port = Port::LOCAL;
            self.launches.push(Launch { port, vc, flit });
        }

        fn transfer(&mut self, out_port: Port, vc: usize, flit: Flit) {
            assert!(!out_port.is_local(), "transfer toward the local port");
            self.wire.entry((out_port, vc)).or_default().push_back(flit);
        }

        fn launch(&mut self, port: Port, vc: usize) {
            let flit = self.wire.get_mut(&(port, vc)).and_then(VecDeque::pop_front);
            let flit = flit.expect("launch without a transferred payload");
            self.launches.push(Launch { port, vc, flit });
        }

        fn credit(&mut self, in_port: Port, vc: usize) {
            self.credits.push((in_port, vc));
        }
    }

    /// Runs cycles `from..=to`, returning every launch with its cycle.
    fn run(router: &mut Router, wire: &mut WireFifo, from: u64, to: u64) -> Vec<(u64, Launch)> {
        let mut all = Vec::new();
        for t in from..=to {
            router.step_with(Cycle::new(t), wire);
            all.extend(wire.launches.drain(..).map(|l| (t, l)));
        }
        all
    }

    #[test]
    fn proud_header_launches_after_five_stages() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(3, 1);
        // SY at cycle 0.
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 10);
        assert_eq!(launches.len(), 1);
        let (t, l) = &launches[0];
        // TL=1, SA=2, XB=3, VM=4.
        assert_eq!(*t, 4, "PROUD header must launch at cycle 4");
        assert_eq!(l.port, Port::from(Direction::plus(0)));
    }

    #[test]
    fn la_proud_header_saves_one_cycle() {
        let mut r = line_router(RouterConfig::paper_adaptive().with_lookahead(true));
        let flits = with_lookahead(message(3, 1), &r);
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 10);
        assert_eq!(launches.len(), 1);
        // SA=1, XB=2, VM=3.
        assert_eq!(launches[0].0, 3, "LA-PROUD header must launch at cycle 3");
    }

    #[test]
    fn body_flits_stream_one_per_cycle() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(3, 4);
        for (i, f) in flits.iter().enumerate() {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::new(i as u64));
        }
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 12);
        let times: Vec<u64> = launches.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![4, 5, 6, 7]);
        let seqs: Vec<u32> = launches.iter().map(|(_, l)| l.flit.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3], "flits must stay in order");
    }

    #[test]
    fn tail_releases_input_and_output_vcs() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(3, 2);
        for f in &flits {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 10);
        assert_eq!(launches.len(), 2);
        // After the tail leaves, every output VC is free again.
        let px = Port::from(Direction::plus(0));
        for v in 0..4 {
            assert!(r.outputs[r.out_idx(px, v)].owner.is_none());
        }
        assert!(r.is_empty());
        assert_eq!(r.stats().headers_routed, 1);
    }

    #[test]
    fn credits_gate_the_vc_mux() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        // Only one credit on every VC of +d0.
        let px = Port::from(Direction::plus(0));
        for v in 0..4 {
            r.set_credits(px, v, 1);
        }
        let flits = message(3, 3);
        for f in &flits {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 10);
        assert_eq!(launches.len(), 1, "only one credit, only one launch");
        // Returning a credit releases the next flit.
        let vc = launches[0].1.vc;
        r.accept_credit(px, vc);
        let more = run(&mut r, &mut wire, 11, 13);
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].1.flit.seq, 1);
    }

    #[test]
    fn escape_fallback_when_adaptive_vcs_busy() {
        // 2 VCs: vc0 escape, vc1 adaptive. Two messages to the same
        // destination: the second must fall back to the escape VC.
        let cfg = RouterConfig::paper_adaptive().with_vcs(2, 1);
        let mut r = line_router(cfg);
        let m1 = message(3, 10); // long enough to hold its VC
        let mut m2 = message(3, 10);
        for f in &mut m2 {
            f.msg = MessageId(2);
        }
        for f in &m1 {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        for f in &m2 {
            r.accept_flit(Port::LOCAL, 1, *f, Cycle::ZERO);
        }
        let mut wire = WireFifo::default();
        let _ = run(&mut r, &mut wire, 1, 6);
        let s = r.stats();
        assert_eq!(s.adaptive_allocations, 1);
        assert_eq!(s.escape_allocations, 1);
        // The escape allocation went to vc0 of +d0.
        let px = Port::from(Direction::plus(0));
        assert!(r.outputs[r.out_idx(px, 0)].owner.is_some());
        assert!(r.outputs[r.out_idx(px, 1)].owner.is_some());
    }

    #[test]
    fn header_blocks_when_no_vc_available() {
        // 1 VC, no escape: a second message waits for the first tail.
        let cfg = RouterConfig {
            vcs_per_port: 1,
            escape_vcs: 0,
            ..RouterConfig::paper_adaptive()
        };
        let mut r = line_router(cfg);
        let m1 = message(3, 2);
        let mut m2 = message(3, 2);
        for f in &mut m2 {
            f.msg = MessageId(2);
        }
        // Two messages on the same input VC, back to back.
        for f in m1.iter().chain(&m2) {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 20);
        assert_eq!(launches.len(), 4);
        // Second header allocates only after the first tail freed the VC.
        assert!(r.stats().selection_stall_cycles > 0 || launches[2].0 > launches[1].0);
        let msgs: Vec<u64> = launches.iter().map(|(_, l)| l.flit.msg.0).collect();
        assert_eq!(msgs, vec![1, 1, 2, 2]);
    }

    #[test]
    fn local_destination_ejects() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(1, 2); // dest == router node
        let minus = Port::from(Direction::minus(0));
        for f in &flits {
            r.accept_flit(minus, 0, *f, Cycle::ZERO);
        }
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 10);
        assert_eq!(launches.len(), 2);
        assert!(launches.iter().all(|(_, l)| l.port.is_local()));
    }

    #[test]
    fn lookahead_header_is_rewritten_per_hop() {
        let mut r = line_router(RouterConfig::paper_adaptive().with_lookahead(true));
        let flits = with_lookahead(message(3, 1), &r);
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 6);
        let out = &launches[0].1.flit;
        // The launched header carries node 2's entry for destination 3.
        let carried = out.lookahead.expect("LA header keeps look-ahead info");
        let mesh = Mesh::mesh(&[4]);
        let program = FullTable::program(&mesh, &DuatoAdaptive::new());
        assert_eq!(carried, program.entry(NodeId(2), NodeId(3)));
    }

    #[test]
    fn proud_headers_do_not_carry_lookahead() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(3, 1);
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 6);
        assert!(launches[0].1.flit.lookahead.is_none());
    }

    #[test]
    fn credits_are_emitted_when_buffer_slots_free() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(3, 2);
        for f in &flits {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        let mut wire = WireFifo::default();
        for t in 1..=8 {
            r.step_with(Cycle::new(t), &mut wire);
        }
        let credited = wire.credits.len();
        assert_eq!(credited, 2, "each buffered flit frees one slot");
    }

    #[test]
    fn queued_message_pays_tl_in_proud_but_not_la() {
        // Two messages back-to-back on one input VC; measure the gap
        // between the first tail's launch and the second header's launch.
        let gap_for = |cfg: RouterConfig| {
            let lookahead = cfg.pipeline.is_lookahead();
            let mut r = line_router(cfg);
            let m1 = message(3, 2);
            let mut m2 = message(3, 2);
            for f in &mut m2 {
                f.msg = MessageId(2);
                if lookahead && f.kind.is_head() {
                    f.lookahead = Some(r.table.entry(f.dest));
                }
            }
            let m1 = if lookahead {
                with_lookahead(m1, &r)
            } else {
                m1
            };
            for f in m1.iter().chain(&m2) {
                r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
            }
            let mut wire = WireFifo::default();
            let launches = run(&mut r, &mut wire, 1, 24);
            assert_eq!(launches.len(), 4);
            launches[2].0 - launches[1].0
        };
        let proud = gap_for(RouterConfig::paper_adaptive());
        let la = gap_for(RouterConfig::paper_adaptive().with_lookahead(true));
        assert_eq!(
            proud,
            la + 1,
            "LA-PROUD must save exactly the table-lookup cycle"
        );
    }

    #[test]
    #[should_panic(expected = "flow control violated")]
    fn buffer_overflow_is_detected() {
        let cfg = RouterConfig {
            input_buffer_flits: 2,
            ..RouterConfig::paper_adaptive()
        };
        let mut r = line_router(cfg);
        let flits = message(3, 3);
        for f in &flits {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
    }

    #[test]
    fn multi_candidate_selection_is_counted() {
        // 2-D mesh, quadrant destination: two candidates available.
        let mesh = Mesh::mesh_2d(4, 4);
        let program: Arc<dyn TableScheme> =
            Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
        let node = mesh.id_at(&[1, 1]).unwrap();
        let mut r = Router::new(
            node,
            mesh.ports_per_router(),
            RouterConfig::paper_adaptive().with_path_selection(PathSelection::Lru),
            RouterTable::new(program, node),
            SimRng::from_seed(3),
        );
        for p in 0..r.ports() {
            for v in 0..4 {
                r.set_credits(Port::from_index(p), v, 20);
            }
        }
        let dest = mesh.id_at(&[3, 3]).unwrap();
        let flits = Flit::message(MessageId(9), MsgRef(0), dest, 1);
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 6);
        assert_eq!(launches.len(), 1);
        assert_eq!(r.stats().multi_candidate_decisions, 1);
        assert!(!launches[0].1.port.is_local());
    }

    #[test]
    fn every_message_leaves_with_its_own_fields() {
        // Single- and multi-flit messages with distinct `msg` / `rec` /
        // `dest`, back to back on one input VC, leave partly by ejection
        // and partly toward node 2 — more of each than the port has VCs,
        // so every output VC carries several messages. Each flit must
        // leave equal to the one sent, so the stream context a head opens
        // never leaks into the next message.
        let mesh = Mesh::mesh(&[4]);
        let program = FullTable::program(&mesh, &DuatoAdaptive::new());
        let minus = Port::from(Direction::minus(0));
        for lookahead in [false, true] {
            let mut r = line_router(RouterConfig::paper_adaptive().with_lookahead(lookahead));
            let mut sent = Vec::new();
            let msgs = [
                (10, 1, 1),
                (11, 3, 2),
                (12, 1, 3),
                (13, 2, 1),
                (14, 1, 1),
                (15, 1, 2),
                (16, 3, 1),
                (17, 1, 1),
                (18, 2, 2),
                (19, 1, 1),
                (20, 1, 2),
                (21, 3, 1),
                (22, 2, 1),
                (23, 3, 1),
            ];
            for (m, dest, len) in msgs {
                let mut flits =
                    Flit::message(MessageId(m), MsgRef(100 + m as u32), NodeId(dest), len);
                if lookahead {
                    flits[0].lookahead = Some(r.table.entry(NodeId(dest)));
                }
                sent.extend(flits);
            }
            for f in &sent {
                r.accept_flit(minus, 0, *f, Cycle::ZERO);
            }
            let mut wire = WireFifo::default();
            let launches = run(&mut r, &mut wire, 1, 60);
            assert_eq!(launches.len(), sent.len(), "la={lookahead}");
            for (_, l) in &launches {
                let want = sent
                    .iter()
                    .find(|f| (f.msg, f.seq) == (l.flit.msg, l.flit.seq))
                    .expect("every flit that leaves was sent");
                assert_eq!(l.port.is_local(), want.dest == NodeId(1), "{want}");
                let carried = (lookahead && want.kind.is_head() && !l.port.is_local())
                    .then(|| program.entry(NodeId(2), want.dest));
                let want = Flit {
                    lookahead: carried,
                    ..*want
                };
                assert_eq!(l.flit, want, "la={lookahead}");
            }
        }
    }

    #[test]
    fn flit_kinds_traverse_intact() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(3, 3);
        for f in &flits {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 10);
        let kinds: Vec<FlitKind> = launches.iter().map(|(_, l)| l.flit.kind).collect();
        assert_eq!(kinds, vec![FlitKind::Head, FlitKind::Body, FlitKind::Tail]);
    }

    #[test]
    fn slow_table_ram_stretches_the_proud_pipeline() {
        // A 2-cycle lookup adds exactly one cycle to the header path.
        let mut r = line_router(RouterConfig::paper_adaptive().with_table_lookup_cycles(2));
        let flits = message(3, 1);
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 10);
        assert_eq!(launches.len(), 1);
        // Baseline PROUD launches at 4; with k=2 at 5.
        assert_eq!(launches[0].0, 5);
    }

    #[test]
    fn slow_table_ram_also_delays_lookahead_headers() {
        // In LA-PROUD the concurrent next-hop lookup gates departure once
        // it exceeds the arbitration cycle: k=2 adds one cycle over the
        // baseline launch at 3.
        let mut r = line_router(
            RouterConfig::paper_adaptive()
                .with_lookahead(true)
                .with_table_lookup_cycles(2),
        );
        let flits = with_lookahead(message(3, 1), &r);
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 10);
        assert_eq!(launches.len(), 1);
        assert_eq!(launches[0].0, 4);
    }

    #[test]
    fn soa_arenas_keep_lookahead_rewrites_on_the_cold_side() {
        // SA writes the next hop's entry into the cold half in place; the
        // launched header must carry it even though XB only copies halves.
        let mut r = line_router(RouterConfig::paper_adaptive().with_lookahead(true));
        let flits = with_lookahead(message(3, 2), &r);
        for f in &flits {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        let mut wire = WireFifo::default();
        let launches = run(&mut r, &mut wire, 1, 8);
        assert_eq!(launches.len(), 2);
        assert!(launches[0].1.flit.lookahead.is_some(), "head keeps entry");
        assert!(launches[1].1.flit.lookahead.is_none(), "tail carries none");
    }
}
