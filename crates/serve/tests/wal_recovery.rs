//! Crash recovery, proven the honest way, on both engines: a child process
//! applies a deterministic stream of updates with the WAL enabled and is
//! SIGKILLed mid-stream; the parent recovers from checkpoint + log and
//! asserts the recovered server answers **bit-identically** to a writer
//! that never crashed, at the exact epoch the child last acknowledged (or
//! one further, when the kill landed between an fsync'd append and its
//! in-memory apply — either way an epoch the append-before-apply protocol
//! committed to).
//!
//! Also here: the checkpoint-rotation crash window (crash after rotation,
//! before stale-segment GC, must not double-apply), end-to-end torn-tail
//! recovery, end-to-end refusal of mid-log corruption, the read replica,
//! and a checkpoint of the other engine refused typed.
//!
//! Every check runs over a single index and over sharded ones at S = 1
//! and S = 4, the way `serving.rs` parameterises the serving shell: one
//! writer, one log and one recovery path serve both engines.

use mogul_core::update::{IndexBuilder, IndexDelta, RebuildPolicy, UpdatableIndex, WritableIndex};
use mogul_core::wal::{self, Wal, WalError, WalOp, WalSync};
use mogul_core::{ShardedConfig, ShardedIndex};
use mogul_serve::{
    IndexWriter, QueryRequest, QueryResponse, QueryServer, ServeOptions, ServeSnapshot, Server,
    ShardedServer, ShardedWriter, Writer,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASE_ITEMS: usize = 48;
const CHILD_UPDATES: usize = 60;
/// The stream step before which the writer checkpoints (rotating the log).
const CHECKPOINT_AT: usize = 30;
const CHILD_DIR_ENV: &str = "MOGUL_WAL_CHILD_DIR";
/// The file in the child's directory naming its engine: `<shards> <exact>`.
const CHILD_FLAVOR_FILE: &str = "flavor";

fn features() -> Vec<Vec<f64>> {
    (0..BASE_ITEMS)
        .map(|i| {
            let blob = (i % 3) as f64;
            vec![
                blob * 6.0 + ((i * 13) % 7) as f64 / 7.0,
                blob * 6.0 + ((i * 29) % 11) as f64 / 11.0,
            ]
        })
        .collect()
}

fn builder(exact: bool) -> IndexBuilder {
    let builder = IndexBuilder::new()
        .knn_k(3)
        .rebuild_policy(RebuildPolicy::never());
    if exact {
        builder.exact_ranking()
    } else {
        builder
    }
}

/// The engine-specific half of the battery; everything else is generic
/// over the one [`Writer`].
trait Engine: WritableIndex
where
    Self::Snapshot: ServeSnapshot,
{
    /// Where the checkpoint lives inside a test directory (a file for a
    /// single index, a directory for a sharded one).
    const CHECKPOINT: &'static str;
    /// The base index (`shards` is ignored by the single engine).
    fn build(shards: usize, exact: bool) -> Self;
    /// A writer with no log and no checkpoint over `index`.
    fn writer(index: Self) -> (Arc<Server<Self::Snapshot>>, Writer<Self>);
    /// The live ids of a snapshot, ascending.
    fn live_ids(snapshot: &Self::Snapshot) -> Vec<usize>;
    /// The answer to `request` as one line: see [`line`], plus the
    /// scatter statistics of a sharded engine.
    fn answer(server: &Server<Self::Snapshot>, request: &QueryRequest) -> String;
}

impl Engine for UpdatableIndex {
    const CHECKPOINT: &'static str = "ckpt.mog1";
    fn build(_shards: usize, exact: bool) -> Self {
        builder(exact).build(features()).unwrap()
    }
    fn writer(index: Self) -> (Arc<QueryServer>, IndexWriter) {
        IndexWriter::new(index, ServeOptions::with_workers(1))
    }
    fn live_ids(snapshot: &Self::Snapshot) -> Vec<usize> {
        snapshot.item_ids()
    }
    fn answer(server: &QueryServer, request: &QueryRequest) -> String {
        line(&server.query(request).unwrap())
    }
}

impl Engine for ShardedIndex {
    const CHECKPOINT: &'static str = "ckpt";
    fn build(shards: usize, exact: bool) -> Self {
        let config = ShardedConfig::with_shards(shards).builder(builder(exact));
        ShardedIndex::build(features(), config).unwrap().0
    }
    fn writer(index: Self) -> (Arc<ShardedServer>, ShardedWriter) {
        ShardedWriter::new(index)
    }
    fn live_ids(snapshot: &Self::Snapshot) -> Vec<usize> {
        snapshot.item_ids()
    }
    fn answer(server: &ShardedServer, request: &QueryRequest) -> String {
        let (response, scatter) = server.query_with_stats(request).unwrap();
        format!("{} {scatter:?}", line(&response))
    }
}

/// A response as one comparable line: ranked ids with score bits, and for
/// an out-of-sample answer its database neighbours and search statistics
/// (everything but wall-clock timings).
fn line(response: &QueryResponse) -> String {
    let ranked: Vec<(usize, u64)> = response
        .top_k()
        .items()
        .iter()
        .map(|r| (r.node, r.score.to_bits()))
        .collect();
    match response.out_of_sample() {
        Some(oos) => format!("{ranked:?} {:?} {:?}", oos.neighbors, oos.stats),
        None => format!("{ranked:?}"),
    }
}

/// Every answer a server gives: the top-6 of every live id and of eight
/// out-of-sample probes, one line each.
fn answers<I: Engine>(server: &Server<I::Snapshot>) -> Vec<String>
where
    I::Snapshot: ServeSnapshot,
{
    let ids = I::live_ids(&server.snapshot());
    let probes = (0..8).map(|i| vec![(i as f64 * 1.7) % 13.0, (i as f64 * 2.9) % 13.0]);
    ids.iter()
        .map(|&id| QueryRequest::in_database(id, 6))
        .chain(probes.map(|p| QueryRequest::out_of_sample(p, 6)))
        .map(|request| I::answer(server, &request))
        .collect()
}

/// Assert two servers stand on one epoch and answer identically.
fn assert_answers_match<I: Engine>(a: &Server<I::Snapshot>, b: &Server<I::Snapshot>, context: &str)
where
    I::Snapshot: ServeSnapshot,
{
    assert_eq!(a.epoch(), b.epoch(), "{context}: epoch diverged");
    assert_eq!(
        I::live_ids(&a.snapshot()),
        I::live_ids(&b.snapshot()),
        "{context}: id space diverged"
    );
    for (x, y) in answers::<I>(a).iter().zip(answers::<I>(b)) {
        assert_eq!(x, &y, "{context}: answers diverged");
    }
}

/// The deterministic update stream shared by the child writer and the
/// parent's never-crashed reference: a seeded LCG decides insert vs
/// remove, and a removal targets one of the live ids of the writer's own
/// snapshot — so both engines' id spaces work, and both processes compute
/// the identical sequence.
struct Stream(u64);

impl Stream {
    fn new() -> Self {
        Stream(0x9E37_79B9_7F4A_7C15)
    }

    fn step(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn next(&mut self, live: &[usize]) -> IndexDelta {
        let mut delta = IndexDelta::new();
        if live.len() >= 36 && self.step().is_multiple_of(3) {
            delta.remove(live[(self.step() as usize) % live.len()]);
        } else {
            let x = (self.step() % 1000) as f64 / 250.0;
            let y = (self.step() % 1000) as f64 / 250.0;
            delta.insert(vec![x + 3.0, y + 3.0]);
        }
        delta
    }
}

/// Drive `writer` through the stream until it stands on epoch `until` (or
/// the stream ends). Before step [`CHECKPOINT_AT`] it checkpoints — or,
/// with no checkpoint configured, performs the rebuild a checkpoint amounts
/// to, so a reference writer reaches the same states. `ack` sees every
/// epoch once its operation returned.
fn drive<I: Engine>(writer: &Writer<I>, until: u64, mut ack: impl FnMut(u64))
where
    I::Snapshot: ServeSnapshot,
{
    let server = writer.server();
    let mut stream = Stream::new();
    for step in 0..CHILD_UPDATES {
        if step == CHECKPOINT_AT && server.epoch() < until {
            if writer.checkpoint_path().is_some() {
                writer.checkpoint_now().unwrap();
            } else {
                writer.rebuild().unwrap();
            }
            ack(server.epoch());
        }
        if server.epoch() >= until {
            return;
        }
        let delta = stream.next(&I::live_ids(&server.snapshot()));
        writer.apply_delta(&delta).unwrap();
        ack(server.epoch());
    }
}

fn temp_dir(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mogul-wal-recovery-{}-{}-{name}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A writer with checkpoint and WAL under `dir` (nothing applied yet).
fn durable_writer<I: Engine>(
    dir: &Path,
    shards: usize,
    exact: bool,
) -> (Arc<Server<I::Snapshot>>, Writer<I>)
where
    I::Snapshot: ServeSnapshot,
{
    let (server, writer) = I::writer(I::build(shards, exact));
    writer.set_checkpoint(Some(dir.join(I::CHECKPOINT)));
    writer
        .enable_wal(dir.join("wal"), WalSync::EveryRecord)
        .unwrap();
    (server, writer)
}

#[allow(clippy::type_complexity)]
fn warm_start_durable<I: Engine>(
    dir: &Path,
) -> Result<(Arc<Server<I::Snapshot>>, Writer<I>, wal::RecoveryOutcome), WalError>
where
    I::Snapshot: ServeSnapshot,
{
    Writer::<I>::warm_start_durable(
        dir.join(I::CHECKPOINT),
        dir.join("wal"),
        WalSync::EveryRecord,
        ServeOptions::with_workers(1),
    )
}

// ---------------------------------------------------------------------------
// Kill-recovery end to end
// ---------------------------------------------------------------------------

/// The child half of the kill-recovery test. Not a test on its own: it is
/// `#[ignore]`d and returns immediately unless the parent set the
/// environment up, and the parent SIGKILLs it mid-stream.
#[test]
#[ignore = "child process body of kill_recovery_matches_an_uncrashed_writer"]
fn wal_child_writer_process() {
    let Some(dir) = std::env::var_os(CHILD_DIR_ENV) else {
        return;
    };
    let dir = PathBuf::from(dir);
    let flavor = std::fs::read_to_string(dir.join(CHILD_FLAVOR_FILE)).unwrap();
    let (shards, exact) = flavor.split_once(' ').unwrap();
    let (shards, exact): (usize, bool) = (shards.parse().unwrap(), exact.parse().unwrap());
    if shards == 0 {
        child_writer::<UpdatableIndex>(&dir, shards, exact);
    } else {
        child_writer::<ShardedIndex>(&dir, shards, exact);
    }
}

fn child_writer<I: Engine>(dir: &Path, shards: usize, exact: bool)
where
    I::Snapshot: ServeSnapshot,
{
    let (_server, writer) = durable_writer::<I>(dir, shards, exact);
    // Acknowledge each epoch to the parent through a side file, exactly
    // like acking a client: only after the operation returned.
    let mut ack = std::fs::File::create(dir.join("acked")).unwrap();
    drive(&writer, u64::MAX, |epoch| {
        ack.write_all(format!("{epoch}\n").as_bytes()).unwrap();
    });
}

fn last_acked(path: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().last()?.trim().parse().ok()
}

fn kill_battery<I: Engine>(shards: usize)
where
    I::Snapshot: ServeSnapshot,
{
    // Three crash points per factorization, staggered across the stream
    // (the last one past the mid-stream checkpoint and its log rotation);
    // the kill is asynchronous, so the byte-level crash offset inside the
    // segment varies run to run — which is the point.
    for exact in [false, true] {
        for target in [5u64, 21, 44] {
            let context = format!("S = {shards}, exact = {exact}, kill after epoch {target}");
            let dir = temp_dir("kill");

            std::fs::write(dir.join(CHILD_FLAVOR_FILE), format!("{shards} {exact}")).unwrap();
            let exe = std::env::current_exe().unwrap();
            let mut child = Command::new(&exe)
                .args(["--exact", "--ignored", "wal_child_writer_process"])
                .env(CHILD_DIR_ENV, &dir)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .unwrap();

            // Wait for the child to acknowledge at least `target` epochs,
            // then kill it dead (SIGKILL on unix: no destructors, no
            // flushes).
            let ack_path = dir.join("acked");
            let deadline = Instant::now() + Duration::from_secs(60);
            let acked = loop {
                if let Some(acked) = last_acked(&ack_path) {
                    if acked >= target {
                        break acked;
                    }
                }
                if let Some(status) = child.try_wait().unwrap() {
                    // The child finished everything before we could kill
                    // it — the recovery assertions below still hold at
                    // full length.
                    assert!(status.success(), "{context}: child writer failed: {status}");
                    break last_acked(&ack_path).expect("child exited without acking");
                }
                assert!(
                    Instant::now() < deadline,
                    "{context}: child never got there"
                );
                std::thread::sleep(Duration::from_millis(2));
            };
            let _ = child.kill();
            let _ = child.wait();

            // Recover. The recovered epoch is the last one the log made
            // durable: never behind the last client-visible ack, at most
            // one ahead of it (an append that was fsync'd but whose ack the
            // kill pre-empted).
            let (server, writer, outcome) = warm_start_durable::<I>(&dir).unwrap();
            let recovered = server.epoch();
            assert!(
                recovered >= acked,
                "{context}: recovery lost acknowledged epochs: acked {acked}, recovered \
                 {recovered}"
            );
            assert!(
                recovered <= CHILD_UPDATES as u64 + 1,
                "{context}: recovered past the stream: {recovered}"
            );
            assert_eq!(outcome.log.last_epoch, recovered, "{context}");
            assert_eq!(
                outcome.replay.applied as u64,
                recovered - outcome.replay.watermark,
                "{context}"
            );

            // Bit-identical to the writer that never crashed.
            let (reference, reference_writer) = I::writer(I::build(shards, exact));
            drive(&reference_writer, recovered, |_| {});
            assert_answers_match::<I>(&server, &reference, &context);

            // And the recovered writer keeps going: the next update appends
            // to the recovered log and lands on the next epoch.
            let mut delta = IndexDelta::new();
            delta.insert(vec![1.25, 4.5]);
            writer.apply_delta(&delta).unwrap();
            assert_eq!(server.epoch(), recovered + 1, "{context}");
            assert!(writer.wal_enabled());

            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn kill_recovery_matches_an_uncrashed_writer() {
    kill_battery::<UpdatableIndex>(0);
    kill_battery::<ShardedIndex>(1);
    kill_battery::<ShardedIndex>(4);
}

// ---------------------------------------------------------------------------
// The checkpoint-rotation crash window
// ---------------------------------------------------------------------------

fn rotation_window<I: Engine>(shards: usize)
where
    I::Snapshot: ServeSnapshot,
{
    // Rotation's crash window: the new segment is created and fsync'd
    // *before* stale segments are unlinked, so a crash in between leaves
    // both on disk — every record in the stale segment is already inside
    // the checkpoint. Recovery must skip them (epoch watermark), not
    // re-apply them.
    let dir = temp_dir("rotation-window");
    let ckpt = dir.join(I::CHECKPOINT);
    let wal_dir = dir.join("wal");

    let mut index = I::build(shards, false);
    let mut log = Wal::create(&wal_dir, index.epoch(), WalSync::EveryRecord).unwrap();
    let mut stream = Stream::new();
    for epoch in 1..=3 {
        let delta = stream.next(&I::live_ids(&index.snapshot()));
        log.append(epoch, &WalOp::Delta(delta.clone())).unwrap();
        index.apply(&delta).unwrap();
    }
    // Checkpoint protocol: log the rebuild, rebuild, save, rotate.
    log.append(4, &WalOp::Rebuild).unwrap();
    index.rebuild().unwrap();
    assert_eq!(index.epoch(), 4);
    index.save(&ckpt).unwrap();

    // Freeze the pre-rotation segment (epochs 1..=4), rotate, then put the
    // stale segment back: disk now looks exactly like a crash after the
    // new segment was durable but before GC unlinked the old one.
    let stale = log.segment_path().to_path_buf();
    let frozen = dir.join("frozen.bak");
    std::fs::copy(&stale, &frozen).unwrap();
    log.rotate(4).unwrap();
    assert!(
        !stale.exists(),
        "rotation did not collect the stale segment"
    );
    std::fs::copy(&frozen, &stale).unwrap();
    drop(log);

    // Recovery through the serve entry point: all four stale records are
    // at or below the checkpoint watermark and must be skipped.
    let (server, _writer, outcome) = warm_start_durable::<I>(&dir).unwrap();
    assert_eq!(outcome.replay.watermark, 4);
    assert_eq!(outcome.replay.skipped, 4);
    assert_eq!(outcome.replay.applied, 0);
    assert_eq!(server.epoch(), 4);

    // Double application would shrink the collection (remove of a
    // now-absent id) or duplicate inserts; instead the recovered server is
    // bit-identical to the live index.
    let reference = Server::from_snapshot(index.snapshot(), ServeOptions::with_workers(1));
    assert_answers_match::<I>(&server, &reference, "after rotation-window recovery");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_between_rotation_and_gc_does_not_double_apply() {
    rotation_window::<UpdatableIndex>(0);
    rotation_window::<ShardedIndex>(1);
    rotation_window::<ShardedIndex>(4);
}

// ---------------------------------------------------------------------------
// Torn tails and mid-log corruption, end to end
// ---------------------------------------------------------------------------

/// Checkpoint + WAL under `dir` with `n` epochs applied; returns the live
/// writer for comparison.
fn durable_stream<I: Engine>(
    dir: &Path,
    shards: usize,
    n: u64,
) -> (Arc<Server<I::Snapshot>>, Writer<I>)
where
    I::Snapshot: ServeSnapshot,
{
    let (server, writer) = durable_writer::<I>(dir, shards, false);
    drive(&writer, n, |_| {});
    assert_eq!(server.epoch(), n);
    (server, writer)
}

fn torn_tail<I: Engine>(shards: usize)
where
    I::Snapshot: ServeSnapshot,
{
    let dir = temp_dir("torn-tail");
    let (live, writer) = durable_stream::<I>(&dir, shards, 4);
    let segment = writer.wal_segment_path().unwrap();
    drop(writer);

    // Simulate a crash mid-append: half a record's worth of garbage after
    // the last complete record.
    let mut bytes = std::fs::read(&segment).unwrap();
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0x7F; 9]);
    std::fs::write(&segment, &bytes).unwrap();

    let (server, writer, outcome) = warm_start_durable::<I>(&dir).unwrap();
    assert_eq!(outcome.log.truncated_bytes, 9);
    assert_answers_match::<I>(&server, &live, "after torn-tail recovery");

    // Recovery truncated the torn bytes, so the next append lands where
    // the garbage was.
    assert_eq!(std::fs::metadata(&segment).unwrap().len(), clean_len as u64);
    let recovered_epoch = server.epoch();
    let mut delta = IndexDelta::new();
    delta.insert(vec![0.9, 5.1]);
    writer.apply_delta(&delta).unwrap();
    assert_eq!(server.epoch(), recovered_epoch + 1);
    let segments = wal::inspect_dir(dir.join("wal")).unwrap();
    assert_eq!(segments.last().unwrap().last_epoch, recovered_epoch + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_torn_tail_is_discarded_and_serving_resumes() {
    torn_tail::<UpdatableIndex>(0);
    torn_tail::<ShardedIndex>(1);
    torn_tail::<ShardedIndex>(4);
}

fn mid_log_corruption<I: Engine>(shards: usize)
where
    I::Snapshot: ServeSnapshot,
{
    let dir = temp_dir("mid-log");
    let (_live, writer) = durable_stream::<I>(&dir, shards, 4);
    let segment = writer.wal_segment_path().unwrap();
    drop(writer);

    // Flip one bit inside the *first* record: a complete record with a bad
    // checksum is bit rot, not a torn write, and both recovery flavors
    // must refuse rather than replay around it.
    let mut bytes = std::fs::read(&segment).unwrap();
    bytes[30] ^= 0x04;
    std::fs::write(&segment, &bytes).unwrap();

    match warm_start_durable::<I>(&dir).err() {
        Some(WalError::ChecksumMismatch { .. }) => {}
        other => panic!("S = {shards}: expected ChecksumMismatch, got {other:?}"),
    }
    match Server::<I::Snapshot>::warm_start_replay(
        dir.join(I::CHECKPOINT),
        dir.join("wal"),
        ServeOptions::with_workers(1),
    )
    .err()
    {
        Some(WalError::ChecksumMismatch { .. }) => {}
        other => panic!("S = {shards}: read replica expected ChecksumMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_log_corruption_refuses_recovery() {
    mid_log_corruption::<UpdatableIndex>(0);
    mid_log_corruption::<ShardedIndex>(1);
    mid_log_corruption::<ShardedIndex>(4);
}

fn read_replica<I: Engine>(shards: usize)
where
    I::Snapshot: ServeSnapshot,
{
    let dir = temp_dir("replica");
    let (live, writer) = durable_stream::<I>(&dir, shards, 5);
    let segment = writer.wal_segment_path().unwrap();

    // Leave a torn tail on disk. The read replica must skip it *without*
    // truncating the file — the writer that owns the log may still be the
    // one to recover it.
    drop(writer);
    let mut bytes = std::fs::read(&segment).unwrap();
    bytes.extend_from_slice(&[0x55; 7]);
    std::fs::write(&segment, &bytes).unwrap();
    let len_before = std::fs::metadata(&segment).unwrap().len();

    let replica = Server::<I::Snapshot>::warm_start_replay(
        dir.join(I::CHECKPOINT),
        dir.join("wal"),
        ServeOptions::with_workers(1),
    )
    .unwrap();
    assert_answers_match::<I>(&replica, &live, "read replica");
    assert_eq!(
        std::fs::metadata(&segment).unwrap().len(),
        len_before,
        "read-only replay mutated the log"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_start_replay_serves_reads_without_mutating_the_log() {
    read_replica::<UpdatableIndex>(0);
    read_replica::<ShardedIndex>(1);
    read_replica::<ShardedIndex>(4);
}

// ---------------------------------------------------------------------------
// One checkpoint write per durable start
// ---------------------------------------------------------------------------

/// What happens to the checkpoint between `warm_start` and `enable_wal`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Between {
    /// Nothing: the checkpoint holds the writer's state, so no write.
    Nothing,
    /// Another index is saved over it.
    Replaced,
    /// Its modification time moves (for a sharded one, the manifest's).
    Touched,
    /// `set_checkpoint` points the writer at a copy of it.
    Repointed,
    /// An applied delta leaves the index carrying debt.
    Debt,
}

/// Every file of a checkpoint (the file, or each file of the directory)
/// with its inode, length and modification time: a save renames a new
/// file over each, so any write changes this.
fn files_of(path: &Path) -> Vec<(PathBuf, u64, u64, std::time::SystemTime)> {
    use std::os::unix::fs::MetadataExt;
    let mut paths: Vec<PathBuf> = if path.is_dir() {
        std::fs::read_dir(path)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let meta = std::fs::metadata(&p).unwrap();
            (p, meta.ino(), meta.len(), meta.modified().unwrap())
        })
        .collect()
}

/// Copy a checkpoint file, or a checkpoint directory's files, to `to`.
fn copy_checkpoint(from: &Path, to: &Path) {
    if from.is_dir() {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    } else {
        std::fs::copy(from, to).unwrap();
    }
}

fn durable_start<I: Engine>(shards: usize, between: Between)
where
    I::Snapshot: ServeSnapshot,
{
    let context = format!("S = {shards}, {between:?}");
    let dir = temp_dir("durable-start");
    let checkpoint = dir.join(I::CHECKPOINT);
    {
        // A checkpoint on a clean epoch past the build's.
        let (_, writer) = I::writer(I::build(shards, false));
        writer.set_checkpoint(Some(checkpoint.clone()));
        drive(&writer, 3, |_| {});
        writer.checkpoint_now().unwrap();
    }
    let (server, writer) =
        Writer::<I>::warm_start(&checkpoint, ServeOptions::with_workers(1)).unwrap();
    let mut target = checkpoint.clone();
    match between {
        Between::Nothing => {}
        Between::Replaced => I::build(shards, false).save(&checkpoint).unwrap(),
        Between::Touched => {
            let file = I::checkpoint_file(&checkpoint);
            let modified = std::fs::metadata(&file).unwrap().modified().unwrap();
            std::fs::File::options()
                .write(true)
                .open(&file)
                .unwrap()
                .set_modified(modified + Duration::from_secs(1))
                .unwrap();
        }
        Between::Repointed => {
            target = dir.join(format!("copy-{}", I::CHECKPOINT));
            copy_checkpoint(&checkpoint, &target);
            writer.set_checkpoint(Some(target.clone()));
        }
        Between::Debt => {
            let live = I::live_ids(&server.snapshot());
            writer.apply_delta(&Stream::new().next(&live)).unwrap();
            assert!(writer.debt().support > 0, "{context}: no debt");
        }
    }
    let before = files_of(&target);
    writer
        .enable_wal(dir.join("wal"), WalSync::EveryRecord)
        .unwrap();
    let after = files_of(&target);
    if between == Between::Nothing {
        assert_eq!(before, after, "{context}: enable_wal wrote the checkpoint");
    } else {
        assert_ne!(before, after, "{context}: enable_wal did not save");
    }

    // Log a few updates, "crash", recover from the checkpoint and the log.
    let mut stream = Stream::new();
    for _ in 0..3 {
        let delta = stream.next(&I::live_ids(&server.snapshot()));
        writer.apply_delta(&delta).unwrap();
    }
    drop(writer);
    let (recovered, _writer, _) = Writer::<I>::warm_start_durable(
        &target,
        dir.join("wal"),
        WalSync::EveryRecord,
        ServeOptions::with_workers(1),
    )
    .unwrap();
    assert_answers_match::<I>(&recovered, &server, &context);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn enable_wal_after_an_untouched_warm_start_writes_nothing() {
    durable_start::<UpdatableIndex>(0, Between::Nothing);
    durable_start::<ShardedIndex>(1, Between::Nothing);
    durable_start::<ShardedIndex>(4, Between::Nothing);
}

#[test]
fn enable_wal_saves_a_checkpoint_that_changed_moved_or_fell_behind() {
    for between in [
        Between::Replaced,
        Between::Touched,
        Between::Repointed,
        Between::Debt,
    ] {
        durable_start::<UpdatableIndex>(0, between);
        durable_start::<ShardedIndex>(1, between);
        durable_start::<ShardedIndex>(4, between);
    }
}

// ---------------------------------------------------------------------------
// A checkpoint of the other engine
// ---------------------------------------------------------------------------

#[test]
fn a_checkpoint_of_the_other_engine_fails_typed() {
    let single = temp_dir("flavor-single");
    let sharded = temp_dir("flavor-sharded");
    drop(durable_stream::<UpdatableIndex>(&single, 0, 3));
    drop(durable_stream::<ShardedIndex>(&sharded, 4, 3));
    let logs_before = [&single, &sharded].map(|dir| wal::inspect_dir(dir.join("wal")).unwrap());

    // A sharded writer pointed at a single-index file, and a single-index
    // writer pointed at a shard directory: both refuse with a typed error
    // before touching the log.
    let wrong_file = ShardedWriter::warm_start_durable(
        single.join(UpdatableIndex::CHECKPOINT),
        single.join("wal"),
        WalSync::EveryRecord,
        ServeOptions::with_workers(1),
    );
    assert!(
        matches!(wrong_file.as_ref().err(), Some(WalError::Checkpoint(_))),
        "{:?}",
        wrong_file.err()
    );
    let wrong_dir = IndexWriter::warm_start_durable(
        sharded.join(ShardedIndex::CHECKPOINT),
        sharded.join("wal"),
        WalSync::EveryRecord,
        ServeOptions::with_workers(1),
    );
    assert!(
        matches!(wrong_dir.as_ref().err(), Some(WalError::Checkpoint(_))),
        "{:?}",
        wrong_dir.err()
    );
    assert!(ShardedWriter::warm_start(
        single.join(UpdatableIndex::CHECKPOINT),
        ServeOptions::default()
    )
    .is_err());
    assert!(IndexWriter::warm_start(
        sharded.join(ShardedIndex::CHECKPOINT),
        ServeOptions::default()
    )
    .is_err());
    let logs_after = [&single, &sharded].map(|dir| wal::inspect_dir(dir.join("wal")).unwrap());
    assert_eq!(
        logs_before, logs_after,
        "a refused recovery touched the log"
    );
    std::fs::remove_dir_all(&single).unwrap();
    std::fs::remove_dir_all(&sharded).unwrap();
}
