//! Set-up: everything between process start and the first request being
//! sendable — corpus generation, `IndexBuilder::build`, MOG1 save and load,
//! and server bind. `setup_s` times it; the traced run reads the stage
//! split.

use crate::corpus::{CorpusSpec, Stream, TOP_K};
use crate::{Kind, Outcome};
use mogul_core::persist;
use mogul_core::update::{IndexBuilder, UpdatableIndex};
use mogul_serve::net::{NetHandle, NetServer};
use mogul_serve::{IndexWriter, QueryRequest, QueryResponse, QueryServer, ServeOptions, WalSync};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Workers of the in-process `NetServer`, sized for this 2-core box.
const NET_WORKERS: usize = 2;

/// Stage split of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub save_ms: f64,
    pub load_ms: f64,
    pub total_s: f64,
    pub file_bytes: u64,
}

/// A `NetServer` running on its own thread.
pub struct RunningNet {
    pub addr: SocketAddr,
    pub handle: NetHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl RunningNet {
    pub fn start(server: Arc<QueryServer>) -> Outcome<RunningNet> {
        let options = ServeOptions::builder()
            .workers(NET_WORKERS)
            .build()
            .map_err(|e| format!("serve options: {e}"))?;
        let net = NetServer::bind("127.0.0.1:0", server, options)
            .map_err(|e| format!("bind loopback: {e}"))?;
        let addr = net.local_addr();
        let handle = net.handle();
        let thread = std::thread::spawn(move || net.run());
        Ok(RunningNet {
            addr,
            handle,
            thread,
        })
    }

    /// Drain and wait until the accept loop, readers and workers have ended.
    pub fn stop(self) -> Outcome<()> {
        self.handle.drain();
        self.thread
            .join()
            .map_err(|_| "the net server thread panicked".to_string())?
            .map_err(|e| format!("net server: {e}"))
    }
}

/// A served index: what a workload sends requests to.
pub struct Stack {
    pub features: Vec<Vec<f64>>,
    pub server: Arc<QueryServer>,
    /// The write side (`churn_rw` only).
    pub writer: Option<IndexWriter>,
    pub net: RunningNet,
    pub times: SetupTimes,
    pub checkpoint: PathBuf,
    pub wal_dir: PathBuf,
}

impl Stack {
    pub fn stop(self) -> Outcome<()> {
        self.net.stop()
    }
}

pub fn index_builder(spec: &CorpusSpec) -> IndexBuilder {
    let builder = IndexBuilder::new().knn_k(spec.knn_k);
    if spec.exact {
        builder.exact_ranking()
    } else {
        builder
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// One complete set-up in `dir`. The returned index is the one that was
/// *loaded from the MOG1 file*, never the one that was built; the gate that
/// the two answer identically runs before this returns, outside the timing.
pub fn set_up(kind: Kind, spec: &CorpusSpec, seed: u64, dir: &Path) -> Outcome<Stack> {
    let started = Instant::now();
    let features = spec.generate();
    let generate_s = started.elapsed().as_secs_f64();

    let built = index_builder(spec)
        .build(features.clone())
        .map_err(|e| format!("IndexBuilder::build: {e}"))?;

    let checkpoint = dir.join("index.mog1");
    let wal_dir = dir.join("wal");
    let options = ServeOptions::with_workers(1);
    let (server, writer, save_ms, load_ms) = if kind == Kind::Churn {
        let t = Instant::now();
        persist::save_updatable(&built, &checkpoint).map_err(|e| format!("save: {e}"))?;
        let save_ms = ms(t);
        let t = Instant::now();
        let (server, writer) = IndexWriter::warm_start(&checkpoint, options)
            .map_err(|e| format!("IndexWriter::warm_start: {e}"))?;
        let load_ms = ms(t);
        writer
            .enable_wal(&wal_dir, WalSync::EveryRecord)
            .map_err(|e| format!("enable_wal: {e}"))?;
        (server, Some(writer), save_ms, load_ms)
    } else {
        let t = Instant::now();
        persist::save_index(built.snapshot().base(), &checkpoint)
            .map_err(|e| format!("save: {e}"))?;
        let save_ms = ms(t);
        let t = Instant::now();
        let server = QueryServer::warm_start(&checkpoint, options)
            .map_err(|e| format!("QueryServer::warm_start: {e}"))?;
        (Arc::new(server), None, save_ms, ms(t))
    };
    let net = RunningNet::start(Arc::clone(&server))?;
    let total_s = started.elapsed().as_secs_f64();

    let file_bytes = std::fs::metadata(&checkpoint)
        .map_err(|e| format!("stat the MOG1 file: {e}"))?
        .len();
    loaded_answers_equal_saved(&built, &server, &features, seed)?;
    Ok(Stack {
        features,
        server,
        writer,
        net,
        times: SetupTimes {
            generate_s,
            save_ms,
            load_ms,
            total_s,
            file_bytes,
        },
        checkpoint,
        wal_dir,
    })
}

/// Gate: the index loaded from MOG1 answers `==` the index that was saved.
fn loaded_answers_equal_saved(
    built: &UpdatableIndex,
    loaded: &QueryServer,
    features: &[Vec<f64>],
    seed: u64,
) -> Outcome<()> {
    let saved = built.snapshot();
    let all: Vec<usize> = (0..features.len()).collect();
    let sample = Stream::generate(seed ^ 0x4D4F_4731, features, &all, 24);
    for (&id, probe) in sample.ids.iter().zip(&sample.probes) {
        let expect = saved
            .query_by_id(id, TOP_K)
            .map_err(|e| format!("saved index query: {e}"))?;
        let got = loaded
            .query(&QueryRequest::in_database(id, TOP_K))
            .map_err(|e| format!("loaded index query: {e}"))?;
        if got.top_k() != &expect {
            return Err(format!(
                "gate: the index loaded from MOG1 answers item {id} differently from the saved one"
            ));
        }
        let expect = saved
            .query_by_feature(probe, TOP_K)
            .map_err(|e| format!("saved index out-of-sample query: {e}"))?;
        let got = loaded
            .query(&QueryRequest::out_of_sample(probe.clone(), TOP_K))
            .map_err(|e| format!("loaded index out-of-sample query: {e}"))?;
        if !same_answer(&got, &QueryResponse::OutOfSample(Box::new(expect))) {
            return Err(
                "gate: the index loaded from MOG1 answers an out-of-sample probe differently \
                 from the saved one"
                    .into(),
            );
        }
    }
    Ok(())
}

/// Bit-identical answers: the ranked ids and scores and, out of sample, the
/// neighbours the query vector was formed from. (The timing fields of an
/// out-of-sample result differ from call to call by design.)
pub fn same_answer(a: &QueryResponse, b: &QueryResponse) -> bool {
    a.top_k() == b.top_k()
        && a.out_of_sample().map(|r| &r.neighbors) == b.out_of_sample().map(|r| &r.neighbors)
}
