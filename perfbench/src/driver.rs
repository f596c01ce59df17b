//! Closed-loop load driver: `depth` ops outstanding on one client session,
//! each slot refilled as soon as its own op completes.
//!
//! The driver sweeps every slot for completions; when none has finished
//! it blocks on the oldest op for at most [`POLL`] and sweeps again, so a
//! slow op never holds up the timing or the refill of the others. At
//! depth 1 it blocks on the one op until it completes. An op that errors
//! or outlives its deadline is reported through the same completion
//! callback and frees its slot.

use afc_common::rng::mix64;
use afc_common::AfcError;
use afc_core::{OpOutcome, RadosClient};
use bytes::Bytes;
use std::time::{Duration, Instant};

/// Ops address 4 KiB blocks.
pub const BLOCK: usize = 4096;

/// How long the driver blocks on one op before sweeping the other slots
/// again when more than one op is outstanding.
const POLL: Duration = Duration::from_micros(50);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
        }
    }
}

/// One op on `blocks` blocks of object `object` from `block` on. A write
/// carries `stamp`, the stamp of its first block (each next block's is one
/// higher), which its payload encodes so that a later read can tell which
/// write it sees; a read-back read carries the stamp it expects.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    pub object: u32,
    pub block: u32,
    pub blocks: u32,
    pub stamp: u64,
}

/// A finished op: read data on success, the error text otherwise.
pub struct Done {
    pub op: Op,
    pub start: Instant,
    pub end: Instant,
    pub result: Result<Option<Bytes>, String>,
}

/// The payload of `blocks` blocks written from stamp `stamp` on: each
/// block is its stamp, then bytes drawn from `seed` and the stamp.
pub fn payload(seed: u64, stamp: u64, blocks: u32) -> Bytes {
    let mut v = Vec::with_capacity(BLOCK * blocks as usize);
    for stamp in stamp..stamp + u64::from(blocks) {
        v.extend_from_slice(&stamp.to_le_bytes());
        let mut x = mix64(seed ^ stamp);
        while v.len() % BLOCK != 0 {
            x = mix64(x);
            v.extend_from_slice(&x.to_le_bytes());
        }
    }
    Bytes::from(v)
}

struct Inflight {
    op: Op,
    start: Instant,
    handle: afc_core::client::rados::OpHandle,
}

pub struct Driver<'a> {
    pub client: &'a RadosClient,
    pub object_name: &'a dyn Fn(u32) -> String,
    pub depth: usize,
    pub deadline: Duration,
    pub seed: u64,
}

impl Driver<'_> {
    /// Issue ops from `next` until it returns `None`, keeping `depth` in
    /// flight, and hand each finished op to `done`. Returns once every
    /// issued op has completed, failed or passed its deadline.
    pub fn run(&self, mut next: impl FnMut() -> Option<Op>, mut done: impl FnMut(Done)) {
        let mut slots: Vec<Option<Inflight>> = (0..self.depth).map(|_| None).collect();
        let mut open = true;
        loop {
            if open {
                for slot in slots.iter_mut().filter(|s| s.is_none()) {
                    let Some(op) = next() else {
                        open = false;
                        break;
                    };
                    *slot = self.submit(op, &mut done);
                }
            }
            let outstanding = slots.iter().flatten().count();
            if outstanding == 0 {
                if open {
                    continue;
                }
                return;
            }
            let mut progressed = false;
            let now = Instant::now();
            for slot in slots.iter_mut() {
                let Some(f) = slot else { continue };
                if let Some(r) = f.handle.try_wait() {
                    let f = slot.take().expect("slot is occupied");
                    done(finish(f, r.map_err(|e| e.to_string()), Instant::now()));
                    progressed = true;
                } else if now.duration_since(f.start) >= self.deadline {
                    let f = slot.take().expect("slot is occupied");
                    let err = format!("no reply within {:?}", self.deadline);
                    done(finish(f, Err(err), now));
                    progressed = true;
                }
            }
            if progressed {
                continue;
            }
            // Nothing finished: block on the oldest op, for its whole
            // remaining deadline when it is the only one out (exact
            // timing at depth 1), else for one short poll.
            let slot = slots
                .iter_mut()
                .filter(|s| s.is_some())
                .min_by_key(|s| s.as_ref().map(|f| f.start))
                .expect("an op is outstanding");
            let f = slot.as_ref().expect("slot is occupied");
            let left = self.deadline.saturating_sub(f.start.elapsed());
            let wait = if outstanding == 1 {
                left
            } else {
                left.min(POLL)
            };
            match f.handle.wait_timeout(wait) {
                Err(AfcError::Timeout(_)) => {}
                r => {
                    let end = Instant::now();
                    let f = slot.take().expect("slot is occupied");
                    done(finish(f, r.map_err(|e| e.to_string()), end));
                }
            }
        }
    }

    fn submit(&self, op: Op, done: &mut impl FnMut(Done)) -> Option<Inflight> {
        let name = (self.object_name)(op.object);
        let offset = u64::from(op.block) * BLOCK as u64;
        let start = Instant::now();
        let submitted = match op.kind {
            Kind::Write => self.client.write_object_async(
                &name,
                offset,
                payload(self.seed, op.stamp, op.blocks),
            ),
            Kind::Read => self
                .client
                .read_object_async(&name, offset, op.blocks * BLOCK as u32),
        };
        match submitted {
            Ok(handle) => Some(Inflight { op, start, handle }),
            Err(e) => {
                done(Done {
                    op,
                    start,
                    end: Instant::now(),
                    result: Err(e.to_string()),
                });
                None
            }
        }
    }
}

fn finish(f: Inflight, r: Result<OpOutcome, String>, end: Instant) -> Done {
    let result = match (f.op.kind, r) {
        (Kind::Write, Ok(OpOutcome::Done)) => Ok(None),
        (Kind::Read, Ok(OpOutcome::Data(d))) => Ok(Some(d)),
        (_, Ok(other)) => Err(format!("unexpected outcome {other:?}")),
        (_, Err(e)) => Err(e),
    };
    Done {
        op: f.op,
        start: f.start,
        end,
        result,
    }
}
