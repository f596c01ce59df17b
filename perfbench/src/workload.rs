//! The three workloads: cluster shape, set-up, op streams and the
//! read-back check of what the cluster stored.

use crate::driver::{payload, Done, Driver, Kind, Op};
use afc_common::rng::mix64;
use afc_core::{Cluster, DeviceProfile, OsdTuning};
use std::collections::BTreeMap;
use std::time::Duration;

/// Cluster shape: nodes, OSDs per node.
pub const NODES: u32 = 2;
pub const OSDS_PER_NODE: u32 = 2;
/// The cluster's one-way network hop (80 µs, the builder's default).
pub const HOP: Duration = Duration::from_micros(80);
/// Objects `write-qd1` writes round-robin.
const QD1_OBJECTS: u32 = 32;
/// `randrw-qd8` span: 64 objects of 4 MiB (1024 blocks), 256 MiB.
const RRW_OBJECTS: u32 = 64;
const RRW_BLOCKS: u32 = 1024;
/// Share of `randrw-qd8` ops that read, percent.
const RRW_READ_PCT: u64 = 70;
/// Prefill write size: 256 blocks (1 MiB).
const PREFILL_BLOCKS: u32 = 256;
/// The op stream's first stamp. Prefill stamps run from 1 to the number of
/// prefilled blocks, below every op stamp, and no stamp is 0, a zeroed
/// block's.
const FIRST_OP_STAMP: u64 = 1 << 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One session, QD1, 4 KiB writes round-robin over 32 objects, each
    /// object written sequentially, clean devices: the latency-bound path.
    WriteQd1,
    /// 70/30 random 4 KiB reads/writes at depth 8 over a prefilled 256 MiB
    /// span on pre-aged devices: throughput-bound, exercises QoS queueing,
    /// group commit, read/write interference and FTL GC.
    RandrwQd8,
    /// 4 KiB writes at depth 8, each to a never-written object, clean
    /// devices: every write misses the metadata cache and goes to the
    /// KV store, whose flushes and compactions run in the window.
    CreateQd8,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "write-qd1" => Some(Workload::WriteQd1),
            "randrw-qd8" => Some(Workload::RandrwQd8),
            "create-qd8" => Some(Workload::CreateQd8),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteQd1 => "write-qd1",
            Workload::RandrwQd8 => "randrw-qd8",
            Workload::CreateQd8 => "create-qd8",
        }
    }

    pub fn depth(self) -> usize {
        match self {
            Workload::WriteQd1 => 1,
            Workload::RandrwQd8 | Workload::CreateQd8 => 8,
        }
    }

    /// Set-ups timed for the median `setup_s`: how many child processes,
    /// and how many set-ups each. Building a clean cluster takes
    /// milliseconds, so one process repeats it often to steady the median.
    /// A prefilled cluster takes about a second and keeps ~0.5 GiB after it
    /// is dropped, which slows the next set-up in the same process, so
    /// each of those gets a process of its own.
    pub fn setup_plan(self) -> (usize, usize) {
        match self {
            Workload::RandrwQd8 => (3, 1),
            Workload::WriteQd1 | Workload::CreateQd8 => (1, 31),
        }
    }

    /// True when the window itself issues reads; the write-only workloads
    /// take their read figures from the read-back pass.
    pub fn reads_in_window(self) -> bool {
        self == Workload::RandrwQd8
    }

    pub fn object_name(self, seed: u64, object: u32) -> String {
        match self {
            Workload::WriteQd1 => format!("qd1.{object}"),
            Workload::RandrwQd8 => format!("rrw.{object}"),
            Workload::CreateQd8 => format!("new.{seed:x}.{object}"),
        }
    }

    /// Device models of every node: pre-aged flash for `randrw-qd8`,
    /// clean flash otherwise.
    pub fn devices(self) -> DeviceProfile {
        match self {
            Workload::RandrwQd8 => DeviceProfile::sustained(),
            Workload::WriteQd1 | Workload::CreateQd8 => DeviceProfile::clean(),
        }
    }

    /// Build the cluster every workload runs on: [`NODES`] × [`OSDS_PER_NODE`]
    /// OSDs, replication 2, 64 PGs, AFCeph tuning, [`HOP`] network hop.
    pub fn build(self) -> afc_common::Result<Cluster> {
        Cluster::builder()
            .nodes(NODES)
            .osds_per_node(OSDS_PER_NODE)
            .replication(2)
            .pg_num(64)
            .tuning(OsdTuning::afceph())
            .hop_latency(HOP)
            .devices(self.devices())
            .build()
    }

    /// The writes that fill every block `randrw-qd8` can read, so that no
    /// read misses; none for the other workloads.
    pub fn prefill(self) -> Vec<Op> {
        if self != Workload::RandrwQd8 {
            return Vec::new();
        }
        (0..RRW_OBJECTS)
            .flat_map(|object| {
                (0..RRW_BLOCKS)
                    .step_by(PREFILL_BLOCKS as usize)
                    .map(move |block| Op {
                        kind: Kind::Write,
                        object,
                        block,
                        blocks: PREFILL_BLOCKS,
                        stamp: 1 + u64::from(object * RRW_BLOCKS + block),
                    })
            })
            .collect()
    }
}

/// The seeded op stream of one workload.
pub struct OpStream {
    workload: Workload,
    rng: u64,
    issued: u64,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64) -> Self {
        OpStream {
            workload,
            rng: mix64(seed ^ 0x0b5e_55ed),
            issued: 0,
        }
    }

    fn rand(&mut self) -> u64 {
        self.rng = mix64(self.rng);
        self.rng
    }

    pub fn next_op(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        let stamp = FIRST_OP_STAMP + i;
        match self.workload {
            Workload::WriteQd1 => Op {
                kind: Kind::Write,
                object: (i % u64::from(QD1_OBJECTS)) as u32,
                block: (i / u64::from(QD1_OBJECTS)) as u32,
                blocks: 1,
                stamp,
            },
            Workload::RandrwQd8 => {
                let kind = if self.rand() % 100 < RRW_READ_PCT {
                    Kind::Read
                } else {
                    Kind::Write
                };
                Op {
                    kind,
                    object: (self.rand() % u64::from(RRW_OBJECTS)) as u32,
                    block: (self.rand() % u64::from(RRW_BLOCKS)) as u32,
                    blocks: 1,
                    stamp,
                }
            }
            Workload::CreateQd8 => Op {
                kind: Kind::Write,
                object: i as u32,
                block: 0,
                blocks: 1,
                stamp,
            },
        }
    }
}

/// What each written block should hold: the stamp of its latest
/// acknowledged write, or `None` once a write to it failed or timed out
/// (that write may still land, so the block's content is unknown).
#[derive(Default)]
pub struct BlockBook(BTreeMap<(u32, u32), Option<u64>>);

impl BlockBook {
    pub fn record(&mut self, d: &Done) {
        if d.op.kind != Kind::Write {
            return;
        }
        for i in 0..d.op.blocks {
            let e = self
                .0
                .entry((d.op.object, d.op.block + i))
                .or_insert(Some(0));
            *e = match (*e, &d.result) {
                (Some(s), Ok(_)) => Some(s.max(d.op.stamp + u64::from(i))),
                _ => None,
            };
        }
    }

    /// Reads of a seeded sample of up to `n` blocks whose content is
    /// known, each carrying the stamp its block must hold. Writes to one
    /// block are applied in the order they were issued, and stamps rise
    /// with issue order, so the highest acknowledged stamp is the block's
    /// content.
    pub fn sample(&self, seed: u64, n: usize) -> Vec<Op> {
        let mut known: Vec<(u32, u32, u64)> = self
            .0
            .iter()
            .filter_map(|(&(o, b), s)| s.map(|s| (o, b, s)))
            .collect();
        // Partial Fisher-Yates shuffle, seeded.
        let n = n.min(known.len());
        let mut x = mix64(seed ^ 0x4ead_bac4);
        for i in 0..n {
            x = mix64(x);
            let j = i + (x % (known.len() - i) as u64) as usize;
            known.swap(i, j);
        }
        known
            .into_iter()
            .take(n)
            .map(|(object, block, stamp)| Op {
                kind: Kind::Read,
                object,
                block,
                blocks: 1,
                stamp,
            })
            .collect()
    }

    /// Blocks whose content became unknown because a write failed.
    pub fn unknown(&self) -> usize {
        self.0.values().filter(|s| s.is_none()).count()
    }
}

/// Read back `sample` through `driver` and compare every block with the
/// payload of the stamp its read carries. Each read also goes to `done`.
/// Returns how many blocks were compared and every failure, described: a
/// block whose content differs, or whose read failed or timed out — a
/// block with an acknowledged write must be readable.
pub fn read_back(
    driver: &Driver<'_>,
    sample: &[Op],
    mut done: impl FnMut(&Done),
) -> (usize, Vec<String>) {
    let mut ops = sample.iter().copied();
    let mut compared = 0;
    let mut bad = Vec::new();
    driver.run(
        || ops.next(),
        |d| {
            let block = format!(
                "{} block {}: expected stamp {:#x}",
                (driver.object_name)(d.op.object),
                d.op.block,
                d.op.stamp
            );
            match &d.result {
                Ok(Some(data)) => {
                    compared += 1;
                    if data[..] != payload(driver.seed, d.op.stamp, 1)[..] {
                        let got = data
                            .get(..8)
                            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
                        bad.push(format!("{block}, read {got:x?} ({} bytes)", data.len()));
                    }
                }
                Ok(None) => bad.push(format!("{block}, read returned no data")),
                Err(e) => bad.push(format!("{block}, read failed: {e}")),
            }
            done(&d);
        },
    );
    (compared, bad)
}
