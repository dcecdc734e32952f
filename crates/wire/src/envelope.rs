//! The RPC envelope: what a request and a reply carry besides their body.
//!
//! ```text
//! request := mailbox  call  trace  body…
//! reply   := call  body…
//! ```
//!
//! * `mailbox` (varint) names the reply port the caller listens on, counted
//!   from the first ephemeral port: `port − EPHEMERAL_BASE + 1`. A caller
//!   keeps its mailbox across calls, so the number stays small — one byte
//!   for the first 127 mailboxes of a node. [`NOTIFICATION`] (0) means
//!   nobody is listening and the server sends no reply.
//! * `call` (varint) tells the replies of one mailbox apart: 0 for a plain
//!   call, the index of the request within a `MultiRpc` client otherwise.
//!   The reply echoes it.
//! * `trace` is the causal identity of the invocation the request belongs
//!   to ([`TraceId::NONE`], one byte, for background traffic). It travels
//!   here and nowhere else: the server installs it around the handler, so
//!   request bodies carry no trace of their own.
//! * the body runs **to the end of the payload**. The transport frames
//!   every payload, so the envelope needs no length of its own — and a
//!   receiver hands the body on as a slice of the buffer it arrived in.
//!
//! A typical remote operation therefore costs its body plus six bytes: five
//! on the request (1 + 1 + 3), one on the reply.

use crate::{Decoder, Encoder, TraceId, Wire, WireResult};

/// `mailbox` value of a request nobody waits for.
pub const NOTIFICATION: u64 = 0;

/// Everything in an RPC request that is not its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHead {
    /// Where the reply goes ([`NOTIFICATION`]: nowhere).
    pub mailbox: u64,
    /// Which of the mailbox's outstanding calls this is.
    pub call: u64,
    /// Causal trace of the invocation, installed around the handler.
    pub trace: TraceId,
}

impl RequestHead {
    /// The request payload: this head, then `body` to the end.
    pub fn frame(&self, body: &[u8]) -> Vec<u8> {
        // Mailbox and call are one byte each and a trace three in the
        // common case; eight covers a long-running node without regrowth.
        let mut enc = Encoder::with_capacity(body.len() + 8);
        enc.put_uvarint(self.mailbox);
        enc.put_uvarint(self.call);
        self.trace.encode(&mut enc);
        enc.put_raw(body);
        enc.into_bytes()
    }

    /// Split a request payload into its head and its body, the latter
    /// borrowed from `payload`. Only the head can be malformed: whatever
    /// follows it is the body, which may be empty.
    pub fn split(payload: &[u8]) -> WireResult<(RequestHead, &[u8])> {
        let mut dec = Decoder::new(payload);
        let head = RequestHead {
            mailbox: dec.get_uvarint()?,
            call: dec.get_uvarint()?,
            trace: Wire::decode(&mut dec)?,
        };
        Ok((head, dec.get_rest()))
    }
}

/// The reply payload of call `call`: its id, then `body` to the end.
pub fn frame_reply(call: u64, body: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(body.len() + 2);
    enc.put_uvarint(call);
    enc.put_raw(body);
    enc.into_bytes()
}

/// Split a reply payload into the call it answers and its body, borrowed
/// from `payload`.
pub fn split_reply(payload: &[u8]) -> WireResult<(u64, &[u8])> {
    let mut dec = Decoder::new(payload);
    let call = dec.get_uvarint()?;
    Ok((call, dec.get_rest()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_typical_call_costs_its_body_plus_six_bytes() {
        let body = [7u8; 27];
        let head = RequestHead {
            mailbox: 3,
            call: 0,
            trace: TraceId::mint(2, 9_000),
        };
        let request = head.frame(&body);
        let reply = frame_reply(0, &body);
        assert_eq!(request.len() + reply.len(), 2 * body.len() + 6);
        let (back, tail) = RequestHead::split(&request).unwrap();
        assert_eq!(back, head);
        assert_eq!(tail, &body);
        // The body is a slice of the payload, not a copy.
        assert!(std::ptr::eq(tail.as_ptr(), request[5..].as_ptr()));
        assert_eq!(split_reply(&reply).unwrap(), (0, &body[..]));
    }

    #[test]
    fn empty_bodies_are_legal_and_cut_heads_are_not() {
        let head = RequestHead {
            mailbox: NOTIFICATION,
            call: 300,
            trace: TraceId::NONE,
        };
        let request = head.frame(&[]);
        assert_eq!(RequestHead::split(&request).unwrap(), (head, &[][..]));
        for cut in 0..request.len() {
            assert!(RequestHead::split(&request[..cut]).is_err(), "cut {cut}");
        }
        let reply = frame_reply(300, &[]);
        assert_eq!(split_reply(&reply).unwrap(), (300, &[][..]));
        assert!(split_reply(&reply[..1]).is_err());
        assert!(split_reply(&[]).is_err());
    }
}
