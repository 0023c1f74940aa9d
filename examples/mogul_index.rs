//! `mogul_index` — save, load and inspect persistent index files (the
//! `MOG1` format of `mogul_core::persist`; see `docs/PERSISTENCE.md`).
//!
//! ```text
//! cargo run --release --example mogul_index                       # self-contained demo
//! cargo run --release --example mogul_index -- save <path> [--items N] [--dim D] [--knn K] [--exact] [--immutable]
//! cargo run --release --example mogul_index -- inspect <path>
//! cargo run --release --example mogul_index -- load <path> [--query ID] [--k K]
//! cargo run --release --example mogul_index -- wal_demo [dir]
//! cargo run --release --example mogul_index -- wal_inspect <dir>
//! cargo run --release --example mogul_index -- shard_demo [dir] [--items N] [--shards S]
//! ```
//!
//! * `save` builds an index over a deterministic synthetic corpus and writes
//!   it (an updatable index by default; `--immutable` writes the plain
//!   serving flavor), after one line of work counters of the exact k-NN scan
//!   (`KnnScanStats`: groups, tiles, shell tests, tiles that reached the
//!   distance kernel).
//! * `inspect` validates every checksum and prints the section table.
//! * `load` cold-starts a `QueryServer` from the file — no k-NN
//!   construction, no clustering, no factorization — runs a query, and
//!   reports the load time.
//! * `wal_demo` runs the durability cycle: checkpoint + write-ahead log,
//!   a stream of updates, a simulated crash (torn tail appended to the
//!   segment), and recovery that is verified bit-identical to the writer
//!   that never crashed. This is what the CI `wal-smoke` job runs.
//! * `wal_inspect` validates a WAL directory (`MWAL` segments; see
//!   `docs/PERSISTENCE.md`) read-only and prints the segment table.
//! * `shard_demo` runs the same durability cycle on the sharded engine (see
//!   `docs/SHARDING.md`): build a cluster-aligned S-shard index, checkpoint
//!   it as a manifested shard directory with the write-ahead log on, apply
//!   routed updates with a checkpoint mid-stream, simulate a crash, and
//!   recover by parallel warm start plus log replay — verified
//!   bit-identical to the writer that never crashed, shard-skip statistics
//!   of the scatter-gather path included. This is what the CI
//!   `shard-smoke` job runs.
//!
//! With no arguments the demo performs the whole cycle (save → inspect →
//! load → query → compare against the in-memory index) in `target/`, which
//! is also what the CI persistence smoke job runs.

use mogul_suite::core::persist;
use mogul_suite::core::update::{IndexBuilder, IndexDelta};
use mogul_suite::core::wal;
use mogul_suite::data::web::{web_like, WebLikeConfig};
use mogul_suite::graph::knn::exact_knn_with_stats;
use mogul_suite::serve::{IndexWriter, QueryServer, ServeOptions, WalSync};
use mogul_suite::sparse::FeatureMatrix;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct SaveOptions {
    items: usize,
    dim: usize,
    knn: usize,
    exact: bool,
    immutable: bool,
}

impl Default for SaveOptions {
    fn default() -> Self {
        SaveOptions {
            items: 2_000,
            dim: 16,
            knn: 5,
            exact: false,
            immutable: false,
        }
    }
}

fn corpus(items: usize, dim: usize) -> FeatureMatrix {
    web_like(&WebLikeConfig {
        num_points: items,
        num_topics: (items / 100).max(4),
        dim,
        background_fraction: 0.2,
        ..Default::default()
    })
    .expect("generate corpus")
    .features()
    .clone()
}

fn save(path: &Path, options: &SaveOptions) {
    println!(
        "building a {}-item, {}-dim {} index (knn = {}) ...",
        options.items,
        options.dim,
        if options.exact {
            "MogulE (complete LDL^T)"
        } else {
            "Mogul (incomplete LDL^T)"
        },
        options.knn
    );
    let features = corpus(options.items, options.dim);
    // What the build's k-NN scan will do, counted on a scan of its own (the
    // counters repeat exactly) so that the precompute time below stays the
    // build's alone.
    let (_, scan) = exact_knn_with_stats(&features, options.knn, 0).expect("k-NN scan");
    println!("{scan}");
    let start = Instant::now();
    let mut builder = IndexBuilder::new().knn_k(options.knn);
    if options.exact {
        builder = builder.exact_ranking();
    }
    let index = builder.build(features).expect("build index");
    let precompute_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    if options.immutable {
        persist::save_index(index.snapshot().base(), path).expect("save index");
    } else {
        persist::save_updatable(&index, path).expect("save index");
    }
    let save_secs = start.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!(
        "precompute {precompute_secs:.2} s, save {save_secs:.3} s, {bytes} bytes -> {}",
        path.display()
    );
}

fn inspect(path: &Path) {
    let info = persist::inspect(path).expect("inspect index file");
    print!("{info}");
}

fn load(path: &Path, query: usize, k: usize) -> f64 {
    let start = Instant::now();
    let server =
        QueryServer::warm_start(path, ServeOptions::with_workers(1)).expect("warm-start server");
    let load_secs = start.elapsed().as_secs_f64();
    println!(
        "cold start: {} items ready in {:.4} s (epoch {}, no precompute)",
        server.len(),
        load_secs,
        server.epoch()
    );
    let top = server.query_by_id(query, k).expect("query");
    println!("top-{k} for item {query}:");
    for item in top.items() {
        println!("  item {:>6}  score {:.6}", item.node, item.score);
    }
    load_secs
}

fn wal_inspect(dir: &Path) {
    let segments = wal::inspect_dir(dir).expect("inspect wal directory");
    if segments.is_empty() {
        println!("no wal segments in {}", dir.display());
        return;
    }
    println!(
        "{:<30} {:>12} {:>8} {:>12} {:>10}  torn tail",
        "segment", "base epoch", "records", "last epoch", "bytes"
    );
    for info in &segments {
        let name = info
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| info.path.display().to_string());
        let torn = match info.torn {
            Some(t) => format!("{} bytes at offset {}", t.bytes, t.offset),
            None => "-".to_string(),
        };
        println!(
            "{name:<30} {:>12} {:>8} {:>12} {:>10}  {torn}",
            info.base_epoch, info.records, info.last_epoch, info.bytes
        );
    }
    let last = segments.last().expect("non-empty");
    println!(
        "log is valid: {} segment(s), contiguous epochs up to {}",
        segments.len(),
        last.last_epoch
    );
}

fn wal_demo(dir: &Path) {
    let ckpt = dir.join("ckpt.mog1");
    let wal_dir = dir.join("wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_file(&ckpt);
    std::fs::create_dir_all(dir).expect("create demo dir");

    println!("== enable durability ==");
    let dim = 8;
    // Rebuilds only on demand, so the log (not an auto-checkpoint) is what
    // carries the tail of the stream through the crash.
    let index = IndexBuilder::new()
        .knn_k(5)
        .rebuild_policy(mogul_suite::core::update::RebuildPolicy::never())
        .build(corpus(600, dim))
        .expect("build index");
    let (server, writer) = IndexWriter::new(index, ServeOptions::with_workers(1));
    writer.set_checkpoint(Some(ckpt.clone()));
    writer
        .enable_wal(&wal_dir, WalSync::EveryRecord)
        .expect("enable wal");
    println!(
        "checkpoint -> {}\nwal segment -> {}",
        ckpt.display(),
        writer.wal_segment_path().expect("wal segment").display()
    );

    println!("\n== apply updates (append-before-apply, fsync per record) ==");
    let start = Instant::now();
    let apply_one = |i: u64| {
        if i % 5 == 4 {
            writer
                .apply_delta(IndexDelta::new().remove((i * 13 % 600) as usize))
                .expect("apply remove");
        } else {
            let feature: Vec<f64> = (0..dim).map(|d| ((i * 7 + d as u64) % 10) as f64).collect();
            writer
                .apply_delta(IndexDelta::new().insert(feature))
                .expect("apply insert");
        }
    };
    for i in 0..25u64 {
        apply_one(i);
    }
    // Mid-stream checkpoint: refactorize, save, rotate the log, collect
    // the stale segment.
    writer.checkpoint_now().expect("checkpoint");
    println!(
        "checkpointed at epoch {}, log rotated to {}",
        server.epoch(),
        writer.wal_segment_path().expect("wal segment").display()
    );
    for i in 25..40u64 {
        apply_one(i);
    }
    let epoch = server.epoch();
    println!(
        "40 updates + 1 checkpoint in {:.3} s, writer acknowledged epoch {epoch}",
        start.elapsed().as_secs_f64()
    );

    println!("\n== simulated crash (torn record appended to the segment) ==");
    let segment = writer.wal_segment_path().expect("wal segment");
    drop(writer);
    let mut bytes = std::fs::read(&segment).expect("read segment");
    bytes.extend_from_slice(&[0x7F; 11]);
    std::fs::write(&segment, &bytes).expect("tear segment");
    println!("appended 11 garbage bytes to {}", segment.display());

    println!("\n== recover ==");
    let start = Instant::now();
    let (recovered, _writer, outcome) =
        IndexWriter::warm_start_durable(&ckpt, &wal_dir, WalSync::EveryRecord, {
            ServeOptions::with_workers(1)
        })
        .expect("recover");
    println!(
        "recovered to epoch {} in {:.4} s: {} segment(s), {} record(s) scanned, \
         {} skipped (<= checkpoint watermark {}), {} replayed, {} torn byte(s) discarded",
        recovered.epoch(),
        start.elapsed().as_secs_f64(),
        outcome.log.segments,
        outcome.log.records,
        outcome.replay.skipped,
        outcome.replay.watermark,
        outcome.replay.applied,
        outcome.log.truncated_bytes
    );
    assert_eq!(
        recovered.epoch(),
        epoch,
        "recovery missed acknowledged epochs"
    );
    for id in recovered.snapshot().item_ids().into_iter().step_by(97) {
        assert_eq!(
            server.query_by_id(id, 5).expect("live query"),
            recovered.query_by_id(id, 5).expect("recovered query"),
            "recovered answers diverged at id {id}"
        );
    }
    println!("verified: recovered answers are bit-identical to the uncrashed writer");

    println!("\n== wal_inspect ==");
    wal_inspect(&wal_dir);
}

fn shard_demo(dir: &Path, items: usize, shards: usize) {
    use mogul_suite::core::{inspect_manifest, ShardedConfig, ShardedIndex};
    use mogul_suite::serve::ShardedWriter;

    let ckpt = dir.join("ckpt");
    let wal_dir = dir.join("wal");
    let _ = std::fs::remove_dir_all(dir);
    let dim = 16;

    println!("== build ({items} items, {shards} shards) ==");
    let features = corpus(items, dim);
    let config = ShardedConfig::with_shards(shards).builder(
        IndexBuilder::new()
            .knn_k(5)
            .rebuild_policy(mogul_suite::core::update::RebuildPolicy::never()),
    );
    let start = Instant::now();
    let (index, report) = ShardedIndex::build(features, config).expect("sharded build");
    let sizes: Vec<usize> = report.groups.iter().map(Vec::len).collect();
    println!(
        "partitioned precompute in {:.2} s (parallel = {}), shard sizes {:?}",
        start.elapsed().as_secs_f64(),
        report.parallel,
        sizes
    );

    println!("\n== enable durability ==");
    let (server, writer) = ShardedWriter::new(index);
    writer.set_checkpoint(Some(ckpt.clone()));
    writer
        .enable_wal(&wal_dir, WalSync::EveryRecord)
        .expect("enable wal");
    println!(
        "checkpoint -> {}\nwal segment -> {}",
        ckpt.display(),
        writer.wal_segment_path().expect("wal segment").display()
    );

    println!("\n== routed updates (append-before-apply, fsync per record) ==");
    let mut inserted = Vec::new();
    let mut apply_one = |i: u64| {
        if i % 4 == 3 {
            let victim = inserted.remove(0);
            writer
                .apply_delta(IndexDelta::new().remove(victim))
                .expect("apply remove");
        } else {
            let feature: Vec<f64> = (0..dim).map(|d| ((i * 7 + d as u64) % 10) as f64).collect();
            let report = writer
                .apply_delta(IndexDelta::new().insert(feature))
                .expect("apply insert");
            inserted.extend(report.inserted);
        }
    };
    for i in 0..12u64 {
        apply_one(i);
    }
    println!(
        "12 updates routed; per-shard epochs {:?} (only owning shards advanced)",
        server.snapshot().shard_epochs()
    );
    // Mid-stream checkpoint: refactorize the dirty shards, save, rotate the
    // log, collect the stale segment and the superseded shard files.
    writer.checkpoint_now().expect("checkpoint");
    let info = inspect_manifest(&ckpt).expect("inspect manifest");
    println!(
        "checkpointed at epoch {}: {} shard file(s) + manifest -> {}",
        info.epoch,
        info.shards.len(),
        ckpt.display()
    );
    for entry in &info.shards {
        println!(
            "  {:<38} ids [{}, {})  epoch {:>2}  {:>8} bytes  checksum {:016x}",
            entry.file_name,
            entry.id_base,
            entry.id_base + entry.id_len,
            entry.epoch,
            entry.file_len,
            entry.checksum
        );
    }
    for i in 12..24u64 {
        apply_one(i);
    }
    let epoch = server.epoch();
    println!("writer acknowledged epoch {epoch}");

    println!("\n== simulated crash (torn record appended to the segment) ==");
    let segment = writer.wal_segment_path().expect("wal segment");
    drop(writer);
    let mut bytes = std::fs::read(&segment).expect("read segment");
    bytes.extend_from_slice(&[0x7F; 11]);
    std::fs::write(&segment, &bytes).expect("tear segment");
    println!("appended 11 garbage bytes to {}", segment.display());

    println!("\n== recover (parallel warm start + log replay) ==");
    let start = Instant::now();
    let (recovered, _writer, outcome) = ShardedWriter::warm_start_durable(
        &ckpt,
        &wal_dir,
        WalSync::EveryRecord,
        ServeOptions::with_workers(1),
    )
    .expect("recover");
    println!(
        "recovered to epoch {} in {:.4} s: {} record(s) scanned, {} skipped (<= checkpoint \
         watermark {}), {} replayed, {} torn byte(s) discarded",
        recovered.epoch(),
        start.elapsed().as_secs_f64(),
        outcome.log.records,
        outcome.replay.skipped,
        outcome.replay.watermark,
        outcome.replay.applied,
        outcome.log.truncated_bytes
    );
    assert_eq!(
        recovered.epoch(),
        epoch,
        "recovery missed acknowledged epochs"
    );

    let live = server.snapshot();
    let cold = recovered.snapshot();
    assert_eq!(live.item_ids(), cold.item_ids());
    assert_eq!(live.shard_epochs(), cold.shard_epochs());
    let mut ws = mogul_suite::core::ShardedWorkspace::new();
    let mut probes = 0;
    for id in live.item_ids().into_iter().step_by(97) {
        let (a, a_stats) = live
            .query_by_id_with_stats_in(&mut ws, id, 5)
            .expect("live query");
        let (b, b_stats) = cold
            .query_by_id_with_stats_in(&mut ws, id, 5)
            .expect("recovered query");
        assert_eq!(a, b, "recovered answers diverged at id {id}");
        assert_eq!(a_stats, b_stats, "scatter stats diverged at id {id}");
        assert!(
            b_stats.shards_skipped >= 1 || shards == 1,
            "in-database queries must skip every foreign shard"
        );
        probes += 1;
    }
    println!(
        "verified: {probes} recovered answers (ids, scores, scatter stats) are bit-identical \
         to the uncrashed writer"
    );

    println!("\n== wal_inspect ==");
    wal_inspect(&wal_dir);
}

fn demo() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::create_dir_all(&dir).expect("create target dir");
    let path = dir.join("mogul_index_demo.mog1");
    let options = SaveOptions {
        items: 1_500,
        ..SaveOptions::default()
    };

    println!("== save ==");
    let features = corpus(options.items, options.dim);
    let precompute_start = Instant::now();
    let index = IndexBuilder::new()
        .knn_k(options.knn)
        .build(features)
        .expect("build index");
    let precompute_secs = precompute_start.elapsed().as_secs_f64();
    persist::save_updatable(&index, &path).expect("save index");
    println!(
        "precompute {:.2} s, wrote {} bytes -> {}",
        precompute_secs,
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        path.display()
    );

    println!("\n== inspect ==");
    inspect(&path);

    println!("\n== load ==");
    let load_secs = load(&path, 3, 5);

    // The loaded index answers exactly like the one still in memory.
    let server = QueryServer::warm_start(&path, ServeOptions::with_workers(1)).expect("load");
    let snapshot = index.snapshot();
    for id in [0usize, 3, 700, 1_499] {
        let a = snapshot.query_by_id(id, 5).expect("in-memory query");
        let b = server.query_by_id(id, 5).expect("cold-start query");
        assert_eq!(a, b, "cold-start answers diverged at id {id}");
    }
    println!(
        "\nverified: cold-start answers are identical to the in-memory index \
         ({:.0}x faster than precompute: {:.4} s vs {:.2} s)",
        precompute_secs / load_secs.max(1e-9),
        load_secs,
        precompute_secs
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: mogul_index [save <path> [--items N] [--dim D] [--knn K] [--exact] [--immutable]\n\
         \x20                | inspect <path>\n\
         \x20                | load <path> [--query ID] [--k K]\n\
         \x20                | wal_demo [dir]\n\
         \x20                | wal_inspect <dir>\n\
         \x20                | shard_demo [dir] [--items N] [--shards S]]\n\
         with no arguments: run the self-contained demo"
    );
    std::process::exit(2)
}

fn parse_flag(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        })
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        demo();
        return;
    }
    if args[0] == "wal_demo" {
        let dir = args.get(1).map(PathBuf::from).unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("target")
                .join("wal_demo")
        });
        wal_demo(&dir);
        return;
    }
    if args[0] == "shard_demo" {
        let dir = args
            .get(1)
            .filter(|a| !a.starts_with("--"))
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("target")
                    .join("shard_demo")
            });
        shard_demo(
            &dir,
            parse_flag(&args, "--items", 1_200),
            parse_flag(&args, "--shards", 4),
        );
        return;
    }
    let path = PathBuf::from(args.get(1).cloned().unwrap_or_else(|| usage()));
    match args[0].as_str() {
        "save" => {
            let defaults = SaveOptions::default();
            save(
                &path,
                &SaveOptions {
                    items: parse_flag(&args, "--items", defaults.items),
                    dim: parse_flag(&args, "--dim", defaults.dim),
                    knn: parse_flag(&args, "--knn", defaults.knn),
                    exact: args.iter().any(|a| a == "--exact"),
                    immutable: args.iter().any(|a| a == "--immutable"),
                },
            );
        }
        "inspect" => inspect(&path),
        "wal_inspect" => wal_inspect(&path),
        "load" => {
            load(
                &path,
                parse_flag(&args, "--query", 0),
                parse_flag(&args, "--k", 5),
            );
        }
        _ => usage(),
    }
}
