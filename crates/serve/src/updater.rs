//! Read/write coordination: one [`Writer`] mutates a writable index — a
//! single [`UpdatableIndex`] ([`IndexWriter`]) or a sharded one
//! ([`ShardedWriter`](crate::ShardedWriter)) — and publishes each resulting
//! snapshot to the [`Server`] that answers from it.
//!
//! Readers (query threads) only ever touch the server's current snapshot —
//! immutable, so no read locks on the per-query hot path. The writer keeps
//! everything it mutates — the index, the write-ahead log, the checkpoint
//! path and the last auto-checkpoint error — as one value under one
//! [`Mutex`], which each of its methods takes once: updates serialize
//! against each other and against the checkpoint and log getters, never
//! against queries, which keep hitting the previous epoch until
//! [`Server::install_snapshot`] swaps in the new one. Any thread may call
//! [`Writer::apply_delta`]; "background refactorization" is background
//! *relative to queries*, not a thread this crate spawns.
//!
//! Durability is one protocol for both engines: the write-ahead log
//! ([`Writer::enable_wal`]), checkpoints ([`Writer::set_checkpoint`],
//! [`Writer::checkpoint_now`]) and crash recovery
//! ([`Writer::warm_start_durable`]) are written once, here, over the
//! sealed [`WritableIndex`] contract of `mogul-core`.

use crate::error::{ServeError, ServeResult};
use crate::lock;
use crate::options::ServeOptions;
use crate::server::{QueryServer, ServeSnapshot, Server};
use mogul_core::persist::PersistError;
use mogul_core::update::{IndexDelta, RebuildDebt, UpdatableIndex, WritableIndex};
use mogul_core::wal::{self, RecoveryOutcome, Wal, WalError, WalOp, WalSync};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::SystemTime;

/// The single-writer handle pairing a writable index `I` with the
/// [`Server`] that serves its snapshots — instantiated as [`IndexWriter`]
/// and [`ShardedWriter`](crate::ShardedWriter).
///
/// ```
/// use mogul_core::update::{IndexBuilder, IndexDelta};
/// use mogul_serve::{IndexWriter, ServeOptions};
///
/// let features: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, 0.0]).collect();
/// let index = IndexBuilder::new().knn_k(3).build(features)?;
/// let options = ServeOptions::builder().workers(2).build()?;
/// let (server, writer) = IndexWriter::new(index, options);
///
/// // Queries and updates may now run from different threads; each update
/// // publishes a new epoch without interrupting in-flight queries.
/// let report = writer.apply_delta(IndexDelta::new().insert(vec![2.5, 0.0]))?;
/// assert_eq!(server.epoch(), report.epoch);
/// let top = server.query_by_id(report.inserted[0], 3)?;
/// assert_eq!(top.len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Writer<I: WritableIndex>
where
    I::Snapshot: ServeSnapshot,
{
    server: Arc<Server<I::Snapshot>>,
    /// The one lock, held for a whole operation, checkpoint save included.
    state: Mutex<WriterState<I>>,
}

/// Everything a [`Writer`] mutates, as one value under its one lock.
#[derive(Debug)]
struct WriterState<I> {
    index: I,
    /// See [`Writer::enable_wal`].
    wal: Option<Wal>,
    /// See [`Writer::set_checkpoint`].
    checkpoint: Option<PathBuf>,
    /// The last automatic checkpoint's failure (see [`Writer::set_checkpoint`]).
    checkpoint_error: Option<PersistError>,
    /// What the checkpoint file holds, as of the last load from it or save
    /// to it; `None` when unknown (see [`Writer::enable_wal`]).
    on_disk: Option<OnDisk>,
}

/// A checkpoint this writer loaded or saved: the clean epoch it holds and
/// the file that held it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OnDisk {
    epoch: u64,
    stamp: FileStamp,
}

/// The identity of a checkpoint file ([`WritableIndex::checkpoint_file`]):
/// its length and modification time, and its last 24 bytes — the MOG1
/// footer, whose table checksum covers every section's checksum, so a file
/// replaced within one tick of a coarse file clock is told apart by its
/// content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileStamp {
    len: u64,
    modified: SystemTime,
    footer: [u8; 24],
}

impl FileStamp {
    /// The stamp of the checkpoint at `path`, or `None` if it cannot be
    /// read (which makes [`Writer::enable_wal`] save).
    fn of<I: WritableIndex>(path: &Path) -> Option<FileStamp> {
        let mut file = std::fs::File::open(I::checkpoint_file(path)).ok()?;
        let meta = file.metadata().ok()?;
        let mut footer = [0; 24];
        file.seek(SeekFrom::End(-24)).ok()?;
        file.read_exact(&mut footer).ok()?;
        Some(FileStamp {
            len: meta.len(),
            modified: meta.modified().ok()?,
            footer,
        })
    }
}

/// The writer over a single [`UpdatableIndex`], publishing to a
/// [`QueryServer`].
pub type IndexWriter = Writer<UpdatableIndex>;

impl Writer<UpdatableIndex> {
    /// Take ownership of an updatable index and stand up a server on its
    /// current snapshot.
    pub fn new(index: UpdatableIndex, options: ServeOptions) -> (Arc<QueryServer>, IndexWriter) {
        Writer::serve(index, options)
    }
}

impl<I: WritableIndex> Writer<I>
where
    I::Snapshot: ServeSnapshot,
{
    /// Stand up a server on the index's current snapshot and the writer
    /// that publishes to it (the body of both engines' `new`).
    pub(crate) fn serve(index: I, options: ServeOptions) -> (Arc<Server<I::Snapshot>>, Self) {
        let server = Arc::new(Server::from_snapshot(index.snapshot(), options));
        let writer = Writer {
            server: Arc::clone(&server),
            state: Mutex::new(WriterState {
                index,
                wal: None,
                checkpoint: None,
                checkpoint_error: None,
                on_disk: None,
            }),
        };
        (server, writer)
    }

    /// Warm-start from a checkpoint — an updatable-index file written by
    /// [`mogul_core::persist::save_updatable`], or a sharded directory
    /// written by [`mogul_core::save_sharded`] (or by this writer's own
    /// checkpointing): the graphs, factors, stable ids and epoch are
    /// reconstructed with no precompute, and the same path is installed as
    /// the checkpoint target so later rebuilds keep refreshing it. The
    /// writer remembers the file it loaded, so a following
    /// [`Writer::enable_wal`] does not write it again.
    #[allow(clippy::type_complexity)]
    pub fn warm_start(
        path: impl AsRef<Path>,
        options: ServeOptions,
    ) -> std::result::Result<(Arc<Server<I::Snapshot>>, Self), PersistError> {
        let path = path.as_ref().to_path_buf();
        // Stamped before the load: a file replaced between the two then
        // reads as changed, never as the one that was loaded.
        let stamp = FileStamp::of::<I>(&path);
        let index = I::load(&path)?;
        let epoch = index.epoch();
        let (server, mut writer) = Writer::serve(index, options);
        let state = writer
            .state
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        state.checkpoint = Some(path);
        state.on_disk = stamp.map(|stamp| OnDisk { epoch, stamp });
        Ok((server, writer))
    }

    /// Crash recovery: warm-start from a checkpoint **plus** its
    /// write-ahead log, landing on the exact epoch the crashed writer last
    /// acknowledged — including every corrected (non-checkpointed) epoch.
    ///
    /// The checkpoint is loaded, the log is scanned (a torn tail record —
    /// the one defect a crash of the append-only writer can produce — is
    /// discarded; any other defect refuses with a typed [`WalError`]),
    /// records above the checkpoint epoch are re-applied, and the writer
    /// resumes with both the checkpoint path and the log installed, so
    /// durability continues seamlessly. Answers from the recovered index
    /// are bit-identical to the uncrashed writer's at the same epoch.
    #[allow(clippy::type_complexity)]
    pub fn warm_start_durable(
        checkpoint: impl AsRef<Path>,
        wal_dir: impl AsRef<Path>,
        sync: WalSync,
        options: ServeOptions,
    ) -> std::result::Result<(Arc<Server<I::Snapshot>>, Self, RecoveryOutcome), WalError> {
        let checkpoint = checkpoint.as_ref().to_path_buf();
        let (index, log, outcome) = wal::recover::<I>(&checkpoint, wal_dir, sync)?;
        let (server, mut writer) = Writer::serve(index, options);
        let state = writer
            .state
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        (state.checkpoint, state.wal) = (Some(checkpoint), Some(log));
        Ok((server, writer, outcome))
    }

    /// Turn on the write-ahead log: from here on, every applied delta (and
    /// every explicit refactorization) is fsync'd to a segment under `dir`
    /// *before* it is applied, so
    /// [`Writer::warm_start_durable`] can recover every acknowledged
    /// epoch after a crash — not just the last checkpointed one.
    ///
    /// Requires a checkpoint path (see [`Writer::set_checkpoint`]):
    /// the log is replayed *over* a checkpoint, so one is written here —
    /// forcing a refactorization first if the state carries correction
    /// debt — and the fresh log is based at its epoch. The write is
    /// skipped only when the checkpoint already holds the current state:
    /// the index is clean at the epoch this writer last loaded from
    /// ([`Writer::warm_start`]) or saved to the path, and the file is still
    /// that one (same length, modification time and footer; for a sharded
    /// directory, its manifest's). Refuses if `dir` already holds segments
    /// (recover those with [`Writer::warm_start_durable`] instead of
    /// logging over them).
    pub fn enable_wal(
        &self,
        dir: impl AsRef<Path>,
        sync: WalSync,
    ) -> std::result::Result<(), WalError> {
        let mut state = lock(&self.state);
        let path = state.checkpoint.clone().ok_or_else(|| {
            WalError::InvalidState(
                "a checkpoint path must be configured before enabling the wal; call \
                 set_checkpoint first"
                    .into(),
            )
        })?;
        if state.wal.is_some() {
            return Err(WalError::InvalidState("the wal is already enabled".into()));
        }
        // With no log yet, a pre-log rebuild needs no record: the
        // checkpoint is saved at the epoch it produces, and the log starts
        // after it.
        if !state.checkpoint_holds_current_epoch(&path) {
            state.save_checkpoint(&self.server, &path)?;
        }
        state.wal = Some(Wal::create(dir, state.index.epoch(), sync)?);
        Ok(())
    }

    /// `true` while the write-ahead log is enabled.
    pub fn wal_enabled(&self) -> bool {
        lock(&self.state).wal.is_some()
    }

    /// Path of the log's open segment file, when the wal is enabled.
    pub fn wal_segment_path(&self) -> Option<PathBuf> {
        let state = lock(&self.state);
        state.wal.as_ref().map(|w| w.segment_path().to_path_buf())
    }

    /// Configure (or, with `None`, disable) the checkpoint: a `.mog1` file
    /// for a single index, a directory for a sharded one.
    ///
    /// While configured, every operation that refactorized and left the
    /// whole index clean — whether triggered by the rebuild-debt policy or
    /// by [`Writer::rebuild`] — re-saves the fresh clean epoch here, so a
    /// crashed process can [`Writer::warm_start`] from a state at most one
    /// rebuild interval old. Saves are atomic (write-to-temp + rename; a
    /// sharded save commits by renaming its manifest): the checkpoint
    /// always holds a complete, checksummed index.
    ///
    /// Automatic checkpoints are best-effort; a failed save is recorded and
    /// reported by [`Writer::take_checkpoint_error`] instead of failing
    /// the update (the new snapshot is already serving at that point). This
    /// waits for a running update, its save included, so once it returns no
    /// save to the old path is under way. It also forgets which checkpoint
    /// the writer last loaded or saved, even when `path` is the same, so
    /// the next [`Writer::enable_wal`] saves.
    pub fn set_checkpoint(&self, path: Option<PathBuf>) {
        let mut state = lock(&self.state);
        state.checkpoint = path;
        state.on_disk = None;
    }

    /// The configured checkpoint path, if any (waits for a running update).
    pub fn checkpoint_path(&self) -> Option<PathBuf> {
        lock(&self.state).checkpoint.clone()
    }

    /// The error of the most recent failed automatic checkpoint, if any
    /// (clears on read; successful checkpoints also clear it). Waits for a
    /// running update, so it reports that update's checkpoint too.
    pub fn take_checkpoint_error(&self) -> Option<PersistError> {
        lock(&self.state).checkpoint_error.take()
    }

    /// Checkpoint the current state to the configured path right now,
    /// forcing a refactorization first if the state carries correction
    /// debt (only a clean epoch can be persisted). With the wal enabled,
    /// that refactorization is logged like any other epoch, and a
    /// successful save rotates the log: a fresh segment starts at the
    /// checkpoint epoch and the now-redundant older segments are collected.
    /// Returns the path written.
    pub fn checkpoint_now(&self) -> std::result::Result<PathBuf, PersistError> {
        let mut state = lock(&self.state);
        let path = state.checkpoint.clone().ok_or_else(|| {
            PersistError::InvalidState(
                "no checkpoint path is configured; call set_checkpoint first".into(),
            )
        })?;
        state.save_checkpoint(&self.server, &path)?;
        // The checkpoint on disk is now fresh; clear any stale auto-
        // checkpoint failure so monitoring does not keep reporting it.
        state.checkpoint_error = None;
        Ok(path)
    }

    /// The server this writer publishes to.
    pub fn server(&self) -> Arc<Server<I::Snapshot>> {
        Arc::clone(&self.server)
    }

    /// Apply an [`IndexDelta`] as one atomic update and publish the
    /// resulting snapshot epoch. Insert ids are reported in staging order
    /// (a sharded index routes each insert to the shard with the nearest
    /// base-cluster centroid, each removal to the shard that owns it).
    /// Index-level rejections surface as
    /// [`ServeError::Index`](crate::ServeError::Index). If the apply
    /// refactorized and left the index clean and a checkpoint path is
    /// configured, the fresh clean epoch is re-saved to it (best-effort;
    /// see [`Writer::set_checkpoint`]).
    ///
    /// With the wal enabled the protocol is **append-before-apply**: the
    /// delta's record is fsync'd to the log first, so by the time any
    /// caller observes the new epoch it already survives a crash. An
    /// append failure rejects the update with
    /// [`ServeError::Durability`] *without* applying it; an apply failure
    /// after the append truncates the record back off the log.
    pub fn apply_delta(&self, delta: &IndexDelta) -> ServeResult<I::Report> {
        let mut state = lock(&self.state);
        // Empty deltas do not advance the epoch and are never logged.
        let op = (state.wal.is_some() && !delta.is_empty()).then(|| WalOp::Delta(delta.clone()));
        state.apply_logged(&self.server, op, |index| index.apply(delta))
    }

    /// Refactorize now (debt back to zero; a sharded index rebuilds only
    /// its dirty shards) and publish the result. Queries keep answering
    /// from the previous epoch while this runs. The fresh epoch is
    /// checkpointed if a path is configured. With the wal enabled the
    /// refactorization is logged append-before-apply like any delta (it
    /// advances the epoch, so replay must reproduce it).
    pub fn rebuild(&self) -> ServeResult<I::Report> {
        let mut state = lock(&self.state);
        state.apply_logged(&self.server, Some(WalOp::Rebuild), I::rebuild)
    }

    /// Current rebuild debt of the writer state (for a sharded index,
    /// support summed over the shards and the largest correction rank).
    pub fn debt(&self) -> RebuildDebt {
        lock(&self.state).index.debt()
    }
}

impl<I: WritableIndex> WriterState<I>
where
    I::Snapshot: ServeSnapshot,
{
    /// [`Writer::apply_delta`] and [`Writer::rebuild`]: mutate
    /// append-before-apply, then publish (and maybe checkpoint) the result.
    fn apply_logged(
        &mut self,
        server: &Server<I::Snapshot>,
        op: Option<WalOp>,
        mutate: impl FnOnce(&mut I) -> mogul_core::Result<I::Report>,
    ) -> ServeResult<I::Report> {
        let report = self
            .append_then_mutate(op, mutate)
            .map_err(ServeError::durability)??;
        if let Some(log) = self.wal.as_ref() {
            debug_assert_eq!(self.index.epoch(), log.last_epoch());
        }
        server.install_snapshot(self.index.snapshot());
        self.maybe_checkpoint(server, &report);
        Ok(report)
    }

    /// Append `op` (when the log is on and there is an op), run `mutate`, and
    /// take the record back off the log if `mutate` fails. The outer error
    /// is the append's — nothing was mutated — the inner one the mutation's.
    fn append_then_mutate<R>(
        &mut self,
        op: Option<WalOp>,
        mutate: impl FnOnce(&mut I) -> mogul_core::Result<R>,
    ) -> std::result::Result<mogul_core::Result<R>, WalError> {
        let logged = match (self.wal.as_mut(), op) {
            (Some(log), Some(op)) => {
                log.append(self.index.epoch() + 1, &op)?;
                Some(log)
            }
            _ => None,
        };
        let result = mutate(&mut self.index);
        if let (Err(_), Some(log)) = (&result, logged) {
            // The record is durable but the operation never happened: take
            // it back off the log so recovery does not replay an epoch
            // nobody acknowledged. (Validation failures reject before
            // mutating, so the index state is unchanged.)
            let _ = log.undo_last_append();
        }
        Ok(result)
    }

    /// Every checkpoint's body: refactorize if the state carries debt
    /// (logged like any epoch while the log is on) and publish, save, then
    /// rotate the log to a fresh segment based at the checkpoint epoch.
    fn save_checkpoint(
        &mut self,
        server: &Server<I::Snapshot>,
        path: &Path,
    ) -> std::result::Result<(), PersistError> {
        let failed = |what: &str, e: &dyn std::fmt::Display| {
            PersistError::InvalidState(format!("{what} failed: {e}"))
        };
        if !self.index.is_clean() {
            self.append_then_mutate(Some(WalOp::Rebuild), I::rebuild)
                .map_err(|e| failed("wal append before checkpoint", &e))?
                .map_err(|e| failed("refactorization before checkpoint", &e))?;
            server.install_snapshot(self.index.snapshot());
        }
        self.on_disk = None;
        self.index.save(path)?;
        self.on_disk = FileStamp::of::<I>(path).map(|stamp| OnDisk {
            epoch: self.index.epoch(),
            stamp,
        });
        if let Some(log) = self.wal.as_mut() {
            // The save landed; even if rotation fails the stale segments
            // stay replay-safe (replay skips records at or below the
            // checkpoint epoch), so surface the error without undoing
            // anything.
            let rotated = log.rotate(self.index.epoch());
            rotated.map_err(|e| failed("wal rotation after checkpoint", &e))?;
        }
        Ok(())
    }

    /// `true` when the checkpoint at `path` holds the current state: the
    /// index is clean at the epoch last loaded from or saved to it, and the
    /// file is still the one that was (see [`Writer::enable_wal`]).
    fn checkpoint_holds_current_epoch(&self, path: &Path) -> bool {
        self.on_disk.is_some_and(|on_disk| {
            self.index.is_clean()
                && on_disk.epoch == self.index.epoch()
                && FileStamp::of::<I>(path) == Some(on_disk.stamp)
        })
    }

    /// Best-effort auto-checkpoint after an operation that refactorized and
    /// left the whole index clean (for a single index: every rebuild). A
    /// failed rotation is recorded like a failed save (the log stays
    /// replay-correct either way, the stale segments just linger).
    fn maybe_checkpoint(&mut self, server: &Server<I::Snapshot>, report: &I::Report) {
        if !I::rebuilt(report) || !self.index.is_clean() {
            return;
        }
        if let Some(path) = self.checkpoint.clone() {
            self.checkpoint_error = self.save_checkpoint(server, &path).err();
        }
    }
}
