//! Stand-alone network query server: build (or load) an index and serve it
//! over the `MGW1` wire protocol until drained.
//!
//! ```text
//! cargo run --release -p mogul-bench --bin serve_net -- [options]
//!   --addr HOST:PORT      bind address            (default 127.0.0.1:0)
//!   --items N             synthetic corpus size   (default 2000)
//!   --dim D               feature dimension       (default 16)
//!   --workers W           worker threads, 0=auto  (default 0)
//!   --queue-capacity Q    admission queue bound   (default 1024)
//!   --max-inflight M      per-connection cap      (default 64)
//!   --index PATH          serve a MOG1 index file instead of synthesizing
//! ```
//!
//! Prints exactly one `listening on <addr>` line to stdout once the socket
//! is bound (scripts wait for it), then serves until a drain request
//! ([`mogul_serve::net::FrameKind::Drain`] on the wire, e.g. from
//! `load_gen --drain`) completes. Exits 0 after a clean drain. Progress goes
//! to stderr, starting with one `kernel: avx2|scalar` line naming the lane
//! kernel this host runs ([`mogul_sparse::active_kernel`]).

#![forbid(unsafe_code)]

use mogul_core::IndexBuilder;
use mogul_data::web::{web_like, WebLikeConfig};
use mogul_serve::net::NetServer;
use mogul_serve::{QueryServer, ServeOptions};
use mogul_sparse::KernelKind;
use std::io::Write;
use std::sync::Arc;

struct Args {
    addr: String,
    items: usize,
    dim: usize,
    workers: usize,
    queue_capacity: usize,
    max_inflight: usize,
    index: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:0".into(),
        items: 2_000,
        dim: 16,
        workers: 0,
        queue_capacity: 1024,
        max_inflight: 64,
        index: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("missing value for {}", argv[*i - 1]);
                    std::process::exit(2);
                })
                .clone()
        };
        match argv[i].as_str() {
            "--addr" => args.addr = value(&mut i),
            "--items" => args.items = value(&mut i).parse().expect("--items"),
            "--dim" => args.dim = value(&mut i).parse().expect("--dim"),
            "--workers" => args.workers = value(&mut i).parse().expect("--workers"),
            "--queue-capacity" => {
                args.queue_capacity = value(&mut i).parse().expect("--queue-capacity")
            }
            "--max-inflight" => args.max_inflight = value(&mut i).parse().expect("--max-inflight"),
            "--index" => args.index = Some(value(&mut i)),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    let avx2 = mogul_sparse::active_kernel() == KernelKind::Simd;
    eprintln!("kernel: {}", if avx2 { "avx2" } else { "scalar" });
    let options = ServeOptions::builder()
        .workers(args.workers)
        .queue_capacity(args.queue_capacity)
        .max_inflight_per_conn(args.max_inflight)
        .build()
        .unwrap_or_else(|err| {
            eprintln!("invalid configuration: {err}");
            std::process::exit(2);
        });

    let server = match &args.index {
        Some(path) => {
            eprintln!("serve_net: warm-starting from {path} ...");
            Arc::new(
                QueryServer::warm_start(path, options).unwrap_or_else(|err| {
                    eprintln!("failed to load {path}: {err}");
                    std::process::exit(1);
                }),
            )
        }
        None => {
            eprintln!(
                "serve_net: synthesizing a {}-item, {}-dim web-like corpus ...",
                args.items, args.dim
            );
            let dataset = web_like(&WebLikeConfig {
                num_points: args.items,
                num_topics: (args.items / 100).clamp(4, 64),
                dim: args.dim,
                background_fraction: 0.2,
                ..Default::default()
            })
            .expect("generate dataset");
            let index = IndexBuilder::new()
                .knn_k(10)
                .build(dataset.features())
                .expect("build index");
            Arc::new(QueryServer::from_snapshot(index.snapshot(), options))
        }
    };

    let net = NetServer::bind(&args.addr, server, options).unwrap_or_else(|err| {
        eprintln!("failed to bind {}: {err}", args.addr);
        std::process::exit(1);
    });
    // The contract with scripts: exactly one `listening on` line on stdout,
    // flushed before serving begins.
    println!("listening on {}", net.local_addr());
    std::io::stdout().flush().expect("flush stdout");
    match net.run() {
        Ok(()) => eprintln!("serve_net: drained, exiting"),
        Err(err) => {
            eprintln!("serve_net: server failed: {err}");
            std::process::exit(1);
        }
    }
}
