//! Standalone probes: each layer's public entry point timed from outside
//! on its own device model, next to the modeled hardware floor, so that
//! software overhead is measured − floor.

use crate::stats::{median, Samples};
use afc_common::{ObjectId, PoolId, KIB};
use afc_core::LoggingMode;
use afc_crush::osdmap::PoolSpec;
use afc_crush::{CrushMap, OsdMap};
use afc_device::{BlockDev, IoReq, Nvram, NvramConfig, Raid0, Ssd, SsdConfig};
use afc_filestore::{FileStore, FileStoreConfig, Transaction, TxOp};
use afc_journal::{Journal, JournalConfig};
use afc_kvstore::{Db, DbConfig, WriteBatch, WriteOptions};
use afc_logging::Level;
use afc_messenger::{Addr, NetConfig, Network};
use bytes::Bytes;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const BLOCK: u32 = 4096;

/// Median of a timed call repeated `n` times, µs.
fn time_each(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut s = Samples::default();
    for i in 0..n {
        let t = Instant::now();
        f(i);
        s.push(t.elapsed().as_nanos() as u64);
    }
    s.sort();
    s.quantile_us(0.5)
}

/// Median per-call cost of `f`, ns, over `rounds` batches of `batch`
/// calls; for calls too short to time one at a time.
fn time_batched(
    rounds: usize,
    batch: usize,
    mut f: impl FnMut(usize),
    mut between: impl FnMut(),
) -> f64 {
    let mut per_call: Vec<f64> = (0..rounds)
        .map(|r| {
            let t = Instant::now();
            for i in 0..batch {
                f(r * batch + i);
            }
            let ns = t.elapsed().as_nanos() as f64 / batch as f64;
            between();
            ns
        })
        .collect();
    median(&mut per_call)
}

/// Median modeled service time of `req` on `dev`, µs. Service excludes
/// queue wait, so back-to-back plans on one device do not inflate it.
fn floor_us(dev: &dyn BlockDev, req: impl Fn(usize) -> IoReq) -> f64 {
    let mut v: Vec<f64> = (0..64)
        .map(|i| {
            let plan = dev.plan(req(i)).expect("plan on a fresh device");
            plan.service.as_nanos() as f64 / 1000.0
        })
        .collect();
    median(&mut v)
}

fn clean_raid() -> Arc<dyn BlockDev> {
    let members = (0..3)
        .map(|d| Arc::new(Ssd::new(SsdConfig::sata3().with_seed(0x9b0e ^ d))) as Arc<dyn BlockDev>)
        .collect();
    Arc::new(Raid0::new(members, 64 * KIB).expect("three members"))
}

/// Every probe's result, in the order they are reported.
pub struct Probes {
    pub values: Vec<(&'static str, f64, &'static str)>,
    /// NVRAM service of one 4 KiB journal write, µs.
    pub nvram_write_floor_us: f64,
}

pub fn run(hop: Duration) -> Probes {
    let mut values = Vec::new();
    let mut put = |name, v, unit| values.push((name, v, unit));

    // Journal: 4 KiB group-commit round trip on the NVRAM card.
    let nvram = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
    let journal = Journal::new(nvram, JournalConfig::default());
    let data = Bytes::from(vec![0x5au8; BLOCK as usize]);
    let commit = time_each(2000, |_| {
        journal
            .submit_and_wait(data.clone())
            .expect("journal submit");
    });
    drop(journal);
    let nvram_floor = floor_us(&Nvram::new(NvramConfig::pmc_8g()), |i| {
        IoReq::write(i as u64 * u64::from(BLOCK), BLOCK)
    });
    put("journal.commit_us", commit, "us");
    put("journal.commit_floor_us", nvram_floor, "us");

    // Filestore: one 4 KiB write transaction applied on a clean RAID-0.
    let store =
        FileStore::new(clean_raid(), FileStoreConfig::lightweight()).expect("probe filestore");
    let apply = time_each(1000, |i| {
        let mut txn = Transaction::new();
        txn.push(TxOp::Write {
            object: "probe".into(),
            offset: i as u64 * u64::from(BLOCK),
            data: data.clone(),
        });
        store.apply_sync(txn).expect("filestore apply");
    });
    drop(store);
    let ssd_floor = floor_us(&*clean_raid(), |i| {
        IoReq::write(i as u64 * u64::from(BLOCK), BLOCK)
    });
    put("filestore.apply_us", apply, "us");
    put("filestore.apply_floor_us", ssd_floor, "us");

    // KV store on a clean SSD, asynchronous commits as the filestore uses.
    let db =
        Db::open(Arc::new(Ssd::new(SsdConfig::sata3())), DbConfig::default()).expect("probe db");
    let key = |i: usize| Bytes::from(format!("probe.{:08x}", i % 50_000));
    let value = Bytes::from(vec![0u8; 128]);
    let put_us = time_each(20_000, |i| {
        db.put(key(i), value.clone(), WriteOptions::async_())
            .expect("kv put");
    });
    let batch_us = time_each(2000, |i| {
        let mut wb = WriteBatch::new();
        for k in 0..10 {
            wb.put(key(i * 10 + k), value.clone());
        }
        db.write_batch(&wb, WriteOptions::async_())
            .expect("kv batch");
    });
    db.wait_idle();
    let get_us = time_each(20_000, |i| {
        db.get(&key(i.wrapping_mul(7919))).expect("kv get");
    });
    drop(db);
    put("kvstore.put_us", put_us, "us");
    put("kvstore.batch10_us", batch_us, "us");
    put("kvstore.get_us", get_us, "us");

    // Messenger: two endpoints ping-ponging one small message.
    let net: Arc<Network<u64>> = Network::new(NetConfig {
        hop_latency: hop,
        nagle: false,
        ..NetConfig::default()
    });
    let (tx, rx) = std::sync::mpsc::channel::<u64>();
    let a = net
        .register(
            Addr::Client(afc_common::ClientId(1)),
            Arc::new(move |_, m: u64| {
                let _ = tx.send(m);
            }),
        )
        .expect("register a");
    let b_out: Arc<OnceLock<afc_messenger::Messenger<u64>>> = Arc::new(OnceLock::new());
    let echo = Arc::clone(&b_out);
    let b_addr = Addr::Osd(afc_common::OsdId(0));
    let b = net
        .register(
            b_addr,
            Arc::new(move |from, m: u64| {
                if let Some(b) = echo.get() {
                    let _ = b.send(from, m, 64);
                }
            }),
        )
        .expect("register b");
    let _ = b_out.set(b);
    let rtt = time_each(2000, |i| {
        a.send(b_addr, i as u64, 64).expect("ping");
        rx.recv_timeout(Duration::from_secs(5)).expect("pong");
    });
    net.shutdown();
    put("messenger.rtt_us", rtt, "us");
    put(
        "messenger.rtt_floor_us",
        2.0 * hop.as_nanos() as f64 / 1000.0,
        "us",
    );

    // Device: 4 KiB writes on a sustained (pre-aged) SSD.
    let aged = SsdConfig::sata3_sustained();
    let ssd = Ssd::new(aged.clone());
    let mut x = 0x55d_u64;
    let mut next_off = move || {
        x = afc_common::rng::mix64(x);
        (x % (1 << 18)) * u64::from(BLOCK)
    };
    let ssd_write = time_each(2000, |_| {
        ssd.submit(IoReq::write(next_off(), BLOCK))
            .expect("ssd write");
    });
    let aged_floor = floor_us(&Ssd::new(aged), |i| {
        IoReq::write((i as u64 * 7919 % (1 << 18)) * u64::from(BLOCK), BLOCK)
    });
    put("device.ssd_write_us", ssd_write, "us");
    put("device.ssd_write_floor_us", aged_floor, "us");

    // CRUSH: object → PG → acting set on the benchmark's cluster shape.
    let mut map = OsdMap::new(CrushMap::uniform(2, 2));
    map.add_pool(
        PoolId(0),
        PoolSpec {
            pg_num: 64,
            size: 2,
        },
    )
    .expect("probe pool");
    let objects: Vec<ObjectId> = (0..1000)
        .map(|i| ObjectId::new(PoolId(0), format!("new.probe.{i}")))
        .collect();
    let placement = time_batched(
        20,
        1000,
        |i| {
            std::hint::black_box(map.object_placement(&objects[i % objects.len()]))
                .expect("placement");
        },
        || {},
    );
    put("crush.placement_ns", placement, "ns");

    // Logging: one non-blocking submission, as the OSD logs.
    let logger = afc_logging::Logger::new(LoggingMode::NonBlocking.log_config());
    let submit = time_batched(
        20,
        1000,
        |_| logger.log(Level::Debug, "osd", "probe event"),
        || logger.drain(),
    );
    put("logging.submit_ns", submit, "ns");

    Probes {
        values,
        nvram_write_floor_us: nvram_floor,
    }
}
