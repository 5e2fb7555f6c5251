//! Messages and flits.
//!
//! A message is injected as a sequence of flits — a head flit carrying the
//! routing information, body flits, and a tail flit that releases the
//! virtual channels the message holds (wormhole switching). Under
//! look-ahead routing the head flit additionally carries the candidate-port
//! information for the router it is entering, pre-fetched by the previous
//! router (§3.2, Fig. 4(b)).
//!
//! # The lean hot path
//!
//! Flits are the unit the simulator copies most: every hop writes one
//! into a router's input buffer, and source NICs queue them. [`Flit`] is
//! therefore a small `Copy` POD holding only what the router datapath
//! reads — message identity, position, destination and the head's
//! look-ahead routing state. Everything the *statistics* need
//! (source node, generation and injection timestamps, the measurement
//! flag) lives in a single per-message record owned by the network layer
//! and reached through the flit's [`MsgRef`] handle, so body and tail
//! flits never drag bookkeeping bytes through the buffers.
//!
//! # Structure-of-arrays buffering
//!
//! On the wire a flit travels as one [`Flit`] value, but *inside a
//! router* the input buffers hold it split in two ([`Flit::split`] /
//! [`Flit::assemble`]):
//!
//! * the **hot** half is just the [`FlitKind`] — the one field every
//!   pipeline stage branches on (is this a head? a tail?). The router
//!   keeps these in a dense one-byte-per-slot array, so the per-cycle
//!   stage walk reads 1 byte per occupancy check instead of dragging the
//!   whole 32-byte flit through the cache;
//! * the **cold** half ([`ColdFlit`]) carries everything else — message
//!   identity, sequence number, destination and the head's look-ahead
//!   entry — and lives in a parallel side array that only heads write
//!   and read: routing reads `dest`/`lookahead`, and a head leaving the
//!   router takes its payload from there.
//!
//! Body and tail flits never touch the cold array. Under wormhole
//! switching a VC carries one message at a time, head first, so a body
//! or tail flit's fields follow from its head: the same `msg`, `rec` and
//! `dest`, `seq` one past the previous flit's, and no look-ahead entry.
//! The router keeps that as a per-output-VC stream context, opened by
//! the head, and builds every later flit of the message from it (see
//! the `router` module docs).
//!
//! The split is lossless: `assemble(split(f)) == f`, enforced by a
//! round-trip test below. Together with the wormhole contract above, it
//! lets the router arenas change layout without changing a single
//! simulated bit.

use crate::tables::RouteEntry;
use lapses_topology::NodeId;
use std::fmt;

/// Unique message identifier within a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub u64);

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Handle to the owning network's per-message record (source, timestamps,
/// measurement flag). The network layer allocates one per message at offer
/// time and retires it when the tail ejects; the router datapath carries it
/// opaquely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgRef(pub u32);

/// Position of a flit within its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit: carries routing information, allocates channels.
    Head,
    /// Middle flit: follows the path the head set up.
    Body,
    /// Last flit: releases channels as it passes.
    Tail,
    /// Single-flit message: head and tail at once.
    HeadTail,
}

impl FlitKind {
    /// The kind of a message's flit that is its first (`head`) and/or its
    /// last (`tail`).
    #[inline]
    pub fn from_ends(head: bool, tail: bool) -> FlitKind {
        match (head, tail) {
            (true, true) => FlitKind::HeadTail,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        }
    }

    /// Whether this flit performs routing (head of a message).
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit releases channels (tail of a message).
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit traversing the network — a small `Copy` value.
///
/// Flits are moved by value between buffers; the head flit's
/// [`lookahead`](Flit::lookahead) field is rewritten at each hop by
/// look-ahead routers (the Fig. 4(b) "new header generation"). Only head
/// flits carry meaningful routing state (`dest`, `lookahead`); body and
/// tail flits follow the wormhole path the head reserved, and their
/// statistics ride in the per-message record behind [`Flit::rec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Message this flit belongs to.
    pub msg: MessageId,
    /// Handle to the per-message record (source, timestamps, measured).
    pub rec: MsgRef,
    /// Destination node of the message (read by head-flit routing only).
    pub dest: NodeId,
    /// Flit index within the message (head = 0).
    pub seq: u32,
    /// Head / body / tail role.
    pub kind: FlitKind,
    /// Look-ahead routing information for the router this flit is entering:
    /// the candidate ports (and escape route) *at that router*, computed by
    /// the previous router concurrently with its own arbitration. `None` on
    /// body/tail flits and in non-look-ahead (PROUD) routers.
    pub lookahead: Option<RouteEntry>,
}

/// The cold half of a flit in a structure-of-arrays buffer: every field
/// except the [`FlitKind`]. Stored and read for heads only: routing needs
/// `dest` and `lookahead`, and a head leaving the router is reassembled
/// from it. The same type is a router's per-VC stream context, from
/// which body and tail flits are rebuilt (their own cold halves are
/// never stored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdFlit {
    /// Message this flit belongs to.
    pub msg: MessageId,
    /// Handle to the per-message record.
    pub rec: MsgRef,
    /// Destination node of the message.
    pub dest: NodeId,
    /// Flit index within the message (head = 0).
    pub seq: u32,
    /// Look-ahead routing information (heads in LA-PROUD only).
    pub lookahead: Option<RouteEntry>,
}

impl Flit {
    /// Splits a flit into its hot ([`FlitKind`]) and cold halves for
    /// structure-of-arrays storage.
    #[inline]
    pub fn split(self) -> (FlitKind, ColdFlit) {
        (
            self.kind,
            ColdFlit {
                msg: self.msg,
                rec: self.rec,
                dest: self.dest,
                seq: self.seq,
                lookahead: self.lookahead,
            },
        )
    }

    /// Reassembles a flit from its hot and cold halves (inverse of
    /// [`Flit::split`]).
    #[inline]
    pub fn assemble(kind: FlitKind, cold: ColdFlit) -> Flit {
        Flit {
            msg: cold.msg,
            rec: cold.rec,
            dest: cold.dest,
            seq: cold.seq,
            kind,
            lookahead: cold.lookahead,
        }
    }

    /// Builds the flits of a message, in injection order.
    ///
    /// `rec` is the per-message record handle the network layer allocated
    /// for the message's bookkeeping (every flit carries it).
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    pub fn message(msg: MessageId, rec: MsgRef, dest: NodeId, length: u32) -> Vec<Flit> {
        assert!(length > 0, "messages need at least one flit");
        (0..length)
            .map(|seq| Flit {
                msg,
                rec,
                dest,
                seq,
                kind: FlitKind::from_ends(seq == 0, seq + 1 == length),
                lookahead: None,
            })
            .collect()
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {:?} ->{}",
            self.msg, self.seq, self.kind, self.dest
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_flit_roles() {
        let flits = Flit::message(MessageId(1), MsgRef(0), NodeId(5), 4);
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits.iter().enumerate().all(|(i, f)| f.seq == i as u32));
        assert!(flits.iter().all(|f| f.rec == MsgRef(0)));
    }

    #[test]
    fn single_flit_message_is_headtail() {
        let flits = Flit::message(MessageId(2), MsgRef(7), NodeId(2), 1);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head());
        assert!(flits[0].kind.is_tail());
    }

    #[test]
    fn head_and_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Tail.is_head());
        assert!(!FlitKind::Body.is_head());
        assert!(!FlitKind::Body.is_tail());
    }

    #[test]
    fn flit_stays_a_small_pod() {
        // The whole point of the lean hot path: a flit must stay a few
        // machine words so buffer moves are cheap memcpys. The budget is
        // 32 bytes (msg + rec + dest + seq + kind + compact look-ahead).
        assert!(
            std::mem::size_of::<Flit>() <= 32,
            "Flit grew to {} bytes — keep bookkeeping in the message record",
            std::mem::size_of::<Flit>()
        );
    }

    #[test]
    fn split_assemble_round_trips() {
        use crate::tables::RouteEntry;
        let mut flits = Flit::message(MessageId(3), MsgRef(9), NodeId(6), 3);
        flits[0].lookahead = Some(RouteEntry::local());
        for f in flits {
            let (kind, cold) = f.split();
            assert_eq!(Flit::assemble(kind, cold), f);
        }
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_rejected() {
        let _ = Flit::message(MessageId(0), MsgRef(0), NodeId(1), 0);
    }

    #[test]
    fn display_is_compact() {
        let flits = Flit::message(MessageId(7), MsgRef(0), NodeId(9), 2);
        assert_eq!(flits[0].to_string(), "m7[0] Head ->n9");
    }
}
