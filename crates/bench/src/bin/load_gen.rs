//! Socket-level load generator for the network front door: an operator tool
//! that drives a running `serve_net` (or any `MGW1` server) with closed- and
//! open-loop load, prints one table row per scenario to stderr and keeps its
//! gates in the exit code. It writes no file; performance claims rest on
//! `BENCHMARK.json` (see `docs/PERFORMANCE.md`).
//!
//! ```text
//! cargo run --release -p mogul-bench --bin load_gen -- --addr HOST:PORT [options]
//!   --smoke          short run: closed-loop only, asserts zero shed at trivial
//!                    load
//!   --drain          send a drain request when done (shuts the server down)
//!   --chaos-seed N   also run a chaos loop: route queries through a seeded
//!                    fault-injection proxy (drops, delays, truncations,
//!                    bit-flips) behind a failover client, and assert every
//!                    query still completes (row `net_chaos_c1`)
//! ```
//!
//! Scenarios:
//!
//! * `net_closed_c{1,2,4}` — closed loop: N connections, each issuing one
//!   in-database query at a time. Measures the latency floor and how it
//!   scales with concurrency; p50 / p95 are per-query round trips.
//! * `net_open_half` — open loop at ~0.5x what one connection carries
//!   (`net_closed_c1`): the healthy regime; sheds must be zero. The open
//!   loop runs down one pipelined connection, so its healthy rate is sized
//!   from one closed-loop connection, not from the best concurrency. At that
//!   spacing most requests find the one before already answered, so the
//!   server answers them on its reader thread, the path `net_closed_c1`
//!   measures; `by reader` beside each open-loop row is the share of its
//!   answers that took that path (the stats frame's `answered_by_reader`).
//! * `net_open_10x` — open loop at ~10x the closed-loop capacity (the best
//!   of `net_closed_c{1,2,4}`): the overload regime; the
//!   server must keep answering at its capacity and shed the excess with
//!   typed `Overloaded` frames (the row's latencies are those of the
//!   *successful* completions; the shed count is asserted > 0).
//! * `net_chaos_c1` (with `--chaos-seed`) — closed loop through a
//!   corrupting proxy, driven by the failover client: measures the
//!   end-to-end latency of queries that may need retries, and asserts the
//!   resilience contract (every query completes, zero non-typed failures).
//!
//! Open-loop request `i` is *due* at `started + interval x i` and its latency
//! runs from that due time, so a generator or server stall is charged to
//! every request it delays; `late p99` beside the row is how far behind its
//! schedule the generator itself sent.
//!
//! The generator never panics on a shed — typed `Overloaded`/`Draining`
//! responses are part of the contract being measured. A gate that fails is
//! collected, not asserted: every scenario still runs, `--drain` still
//! drains the server, and then every failure is printed and the exit code
//! is 1. A scenario that panics (a failed request) ends the run the same
//! way.

#![forbid(unsafe_code)]

use mogul_serve::net::NetClient;
use mogul_serve::resilience::{FaultPlan, FaultProxy, ReplicaSet, ReplicaSetConfig};
use mogul_serve::{QueryRequest, ServeError};
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    smoke: bool,
    drain: bool,
    chaos_seed: Option<u64>,
}

fn parse_args() -> Args {
    let mut addr = None;
    let mut smoke = false;
    let mut drain = false;
    let mut chaos_seed = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => {
                i += 1;
                addr = argv.get(i).cloned();
            }
            "--smoke" => smoke = true,
            "--drain" => drain = true,
            "--chaos-seed" => {
                i += 1;
                chaos_seed = Some(argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--chaos-seed needs an unsigned integer");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let addr = addr.unwrap_or_else(|| {
        eprintln!("usage: load_gen --addr HOST:PORT [--smoke] [--drain] [--chaos-seed N]");
        std::process::exit(2);
    });
    Args {
        addr,
        smoke,
        drain,
        chaos_seed,
    }
}

fn connect(addr: &str) -> NetClient {
    let client = NetClient::connect(addr).unwrap_or_else(|err| {
        eprintln!("cannot connect to {addr}: {err}");
        std::process::exit(1);
    });
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    client
}

/// Closed loop: `conns` connections, each issuing one query at a time for
/// `duration`. Returns one latency (seconds) per completed query.
fn closed_loop(addr: &str, items: usize, conns: usize, duration: Duration) -> Vec<f64> {
    let deadline = Instant::now() + duration;
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut client = connect(&addr);
                let mut latencies = Vec::new();
                let mut i = c; // interleave the id space across connections
                while Instant::now() < deadline {
                    let request = QueryRequest::in_database(i % items, 10);
                    let start = Instant::now();
                    match client.query(&request) {
                        Ok(response) => {
                            assert_eq!(response.top_k().len(), 10);
                            latencies.push(start.elapsed().as_secs_f64());
                        }
                        Err(err) => panic!("closed-loop query failed: {err}"),
                    }
                    i += 131;
                }
                latencies
            })
        })
        .collect();
    let mut all = Vec::new();
    for handle in handles {
        all.extend(handle.join().expect("closed-loop worker panicked"));
    }
    all
}

/// Open loop: send at a fixed rate regardless of completions (one pipelined
/// connection; a reader thread drains responses concurrently). Returns
/// (latencies of successful queries from their due times, shed, how late
/// the generator sent each request).
fn open_loop(
    addr: &str,
    items: usize,
    rate_qps: f64,
    duration: Duration,
) -> (Vec<f64>, usize, Vec<f64>) {
    let mut sender = connect(addr);
    let mut receiver = sender.try_clone().expect("clone socket");
    let total = (rate_qps * duration.as_secs_f64()).max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / rate_qps);
    let started = Instant::now();
    // When the request with (0-based) sequence number `i` is due.
    let due_of = move |i: u64| started + interval.mul_f64(i as f64);

    // Responses on a pipelined connection may complete out of order (the
    // worker pool races); a fresh connection numbers its requests from 1 in
    // send order, so the id alone names the due time.
    let reader = std::thread::spawn(move || {
        let mut latencies = Vec::new();
        let mut shed = 0usize;
        for _ in 0..total {
            let (id, answer) = receiver.recv_answer().expect("open-loop response missing");
            assert!(
                (1..=total as u64).contains(&id),
                "answer to request id {id}, which was never sent"
            );
            match answer {
                Ok(_) => latencies.push(due_of(id - 1).elapsed().as_secs_f64()),
                Err(ServeError::Overloaded { .. }) | Err(ServeError::Draining) => shed += 1,
                Err(other) => panic!("unexpected open-loop rejection: {other}"),
            }
        }
        (latencies, shed)
    });

    let mut late = Vec::with_capacity(total);
    for i in 0..total {
        let due = due_of(i as u64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late.push(due.elapsed().as_secs_f64());
        let id = sender
            .send_query(&QueryRequest::in_database((i * 131) % items, 10))
            .expect("open-loop send failed");
        assert_eq!(id, i as u64 + 1, "request ids follow send order");
    }
    let (latencies, shed) = reader.join().expect("open-loop reader panicked");
    (latencies, shed, late)
}

/// Percentile (0.0 ..= 1.0) in microseconds of a sample in seconds.
fn percentile_us(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() as f64 - 1.0) * q).round() as usize] * 1e6
}

/// Print one table row, `extra` being the scenario's own columns, and
/// return the completion rate.
fn print_row(name: &str, latencies: &[f64], wall: Duration, extra: &str) -> f64 {
    let qps = latencies.len() as f64 / wall.as_secs_f64().max(1e-9);
    eprintln!(
        "  {:<16} p50 {:>9.1} us   p95 {:>9.1} us   {:>9.0} q/s{extra}",
        name,
        percentile_us(latencies, 0.50),
        percentile_us(latencies, 0.95),
        qps
    );
    qps
}

fn main() {
    let args = parse_args();
    let mut control = connect(&args.addr);
    // Failed gates, in the order they were checked.
    let mut failures = Vec::new();
    let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_scenarios(&args, &mut control, &mut failures)
    }));
    if ran.is_err() {
        failures.push("a scenario panicked (message above)".to_string());
    }
    if args.drain {
        match control.drain_server() {
            Ok(()) => eprintln!("load_gen: server drain acknowledged"),
            Err(err) => failures.push(format!("drain request failed: {err}")),
        }
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("load_gen: gate failed: {failure}");
        }
        std::process::exit(1);
    }
}

/// Every scenario against the server `control` is connected to; a failed
/// gate is pushed onto `failures`.
fn run_scenarios(args: &Args, control: &mut NetClient, failures: &mut Vec<String>) {
    // The corpus size comes from the server itself.
    let before = control.stats().unwrap_or_else(|err| {
        eprintln!("stats request failed: {err}");
        std::process::exit(1);
    });
    let items = before.items as usize;
    if items == 0 {
        failures.push("server reports an empty corpus".into());
        return;
    }
    eprintln!(
        "load_gen: target {} — {} items, epoch {}, queue bound {}",
        args.addr, items, before.epoch, before.queue_capacity
    );

    let duration = if args.smoke {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(3)
    };
    // Queries this client saw answered, for the cross-check against the
    // server's own count at the end.
    let mut answered = 0usize;

    // -- closed loop -------------------------------------------------------
    let concurrencies: &[usize] = if args.smoke { &[1, 2] } else { &[1, 2, 4] };
    let mut capacity_qps = 0.0f64;
    let mut one_connection_qps = 0.0f64;
    for &c in concurrencies {
        let started = Instant::now();
        let latencies = closed_loop(&args.addr, items, c, duration);
        let name = format!("net_closed_c{c}");
        let qps = print_row(&name, &latencies, started.elapsed(), "");
        capacity_qps = capacity_qps.max(qps);
        if c == 1 {
            one_connection_qps = qps;
        }
        answered += latencies.len();
    }
    if capacity_qps == 0.0 {
        failures.push("closed loop completed no queries".into());
    }

    // -- open loop (full runs only: the smoke gate wants zero shed) --------
    if !args.smoke {
        for (name, base_qps, factor) in [
            ("net_open_half", one_connection_qps, 0.5f64),
            ("net_open_10x", capacity_qps, 10.0),
        ] {
            let rate = (base_qps * factor).max(10.0);
            let by_reader_before = control
                .stats()
                .expect("stats request failed")
                .answered_by_reader;
            let started = Instant::now();
            let (latencies, shed, late) = open_loop(&args.addr, items, rate, duration);
            let wall = started.elapsed();
            let by_reader = control
                .stats()
                .expect("stats request failed")
                .answered_by_reader
                - by_reader_before;
            let extra = format!(
                "   offered {rate:>9.0} q/s   shed {shed}   late p99 {:.1} us   by reader {:.0} %",
                percentile_us(&late, 0.99),
                100.0 * by_reader as f64 / latencies.len().max(1) as f64
            );
            print_row(name, &latencies, wall, &extra);
            if factor < 1.0 && shed > 0 {
                failures.push(format!("{name}: the healthy regime shed {shed} requests"));
            }
            if factor > 1.0 && shed == 0 {
                failures.push(format!("{name}: a {factor}x overload shed nothing"));
            }
            if factor > 1.0 && latencies.is_empty() {
                failures.push(format!("{name}: overload starved admitted work"));
            }
            answered += latencies.len();
        }
    }

    // -- chaos loop (with --chaos-seed): the resilience contract under
    //    seeded frame corruption -------------------------------------------
    if let Some(seed) = args.chaos_seed {
        let upstream: std::net::SocketAddr = args
            .addr
            .parse()
            .expect("--chaos-seed needs an explicit HOST:PORT --addr");
        let plan = FaultPlan {
            seed,
            drop_per_mille: 40,
            delay_per_mille: 30,
            delay: Duration::from_millis(10),
            truncate_per_mille: 30,
            bit_flip_per_mille: 50,
        };
        let proxy = FaultProxy::spawn(upstream, plan).expect("spawn fault proxy");
        let config = ReplicaSetConfig::builder()
            .deadline(Duration::from_secs(10))
            .attempt_timeout(Duration::from_millis(500))
            .backoff_base(Duration::from_millis(1))
            .backoff_cap(Duration::from_millis(20))
            .build()
            .expect("chaos replica-set config");
        let mut set = ReplicaSet::new(&[proxy.addr()], config).expect("chaos replica set");
        let total = if args.smoke { 50 } else { 400 };
        let mut latencies = Vec::with_capacity(total);
        let started = Instant::now();
        for i in 0..total {
            let request = QueryRequest::in_database((i * 131) % items, 10);
            let start = Instant::now();
            // The contract under chaos: every query completes — retries and
            // failover absorb the corruption, never the caller.
            let (response, status) = match set.query(&request) {
                Ok(answer) => answer,
                Err(err) => {
                    failures.push(format!("chaos query {i} failed: {err}"));
                    break;
                }
            };
            if !status.is_complete() {
                failures.push(format!(
                    "chaos query {i}: a single healthy replica degraded"
                ));
            }
            if response.top_k().len() != 10 {
                let got = response.top_k().len();
                failures.push(format!("chaos query {i}: {got} results, not 10"));
            }
            latencies.push(start.elapsed().as_secs_f64());
        }
        let extra = format!("   seed {seed}  ({} of {total} queries)", latencies.len());
        print_row("net_chaos_c1", &latencies, started.elapsed(), &extra);
        answered += latencies.len();
    }

    // -- server-side accounting --------------------------------------------
    let after = control.stats().expect("final stats request failed");
    eprintln!(
        "  server: completed {}  answered_by_reader {}  shed_overloaded {}  shed_draining {}  bad_requests {}  queue {}/{}",
        after.completed,
        after.answered_by_reader,
        after.shed_overloaded,
        after.shed_draining,
        after.bad_requests,
        after.queue_depth,
        after.queue_capacity
    );
    let counted = after.completed - before.completed;
    if counted < answered as u64 {
        failures.push(format!(
            "the server counted {counted} completions for the {answered} answers received"
        ));
    }
    let bad = after.bad_requests - before.bad_requests;
    if bad > 0 {
        failures.push(format!("{bad} of load_gen's valid requests counted bad"));
    }
    let shed = after.shed_overloaded - before.shed_overloaded;
    if args.smoke && shed > 0 {
        failures.push(format!("smoke gate: trivial load shed {shed}"));
    }
}
