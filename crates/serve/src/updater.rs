//! Read/write coordination: one [`Writer`] mutates a writable index — a
//! single [`UpdatableIndex`] ([`IndexWriter`]) or a sharded one
//! ([`ShardedWriter`](crate::ShardedWriter)) — and publishes each resulting
//! snapshot to the [`Server`] that answers from it.
//!
//! The split of responsibilities is deliberately strict:
//!
//! * **Readers** (query threads) only ever touch the server's current
//!   snapshot — immutable, so no read locks on the per-query hot path.
//! * **The writer** owns the mutable index behind a [`Mutex`]: updates
//!   serialize against each other but never against queries. Delta
//!   application (and, when the rebuild-debt policy fires, the
//!   refactorization) runs entirely off the query path; queries keep
//!   hitting the previous epoch until [`Server::install_snapshot`] swaps in
//!   the new one.
//!
//! Any thread may call [`Writer::apply`] — a maintenance thread, a cron
//! loop, or an ingest pipeline — which is what "background refactorization"
//! means here: it is background *relative to queries*, not a thread this
//! crate spawns.
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
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

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
    inner: Mutex<I>,
    /// The write-ahead log, when durability between checkpoints is enabled
    /// (see [`Writer::enable_wal`]). Lock order: `inner` before `wal`
    /// before the checkpoint fields — every path below acquires in that
    /// order.
    wal: Mutex<Option<Wal>>,
    /// When set, the writer re-saves the index here after every operation
    /// that refactorized and left the whole index clean (the only moment
    /// the state is persistable). See [`Writer::set_checkpoint`].
    checkpoint: Mutex<Option<PathBuf>>,
    /// Outcome of the most recent automatic checkpoint attempt (auto
    /// checkpoints are best-effort: a failed save must not fail the update
    /// that triggered it, since the new snapshot is already live).
    checkpoint_error: Mutex<Option<PersistError>>,
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
            inner: Mutex::new(index),
            wal: Mutex::new(None),
            checkpoint: Mutex::new(None),
            checkpoint_error: Mutex::new(None),
        };
        (server, writer)
    }

    /// Warm-start from a checkpoint — an updatable-index file written by
    /// [`mogul_core::persist::save_updatable`], or a sharded directory
    /// written by [`mogul_core::save_sharded`] (or by this writer's own
    /// checkpointing): the graphs, factors, stable ids and epoch are
    /// reconstructed with no precompute, and the same path is installed as
    /// the checkpoint target so later rebuilds keep refreshing it.
    #[allow(clippy::type_complexity)]
    pub fn warm_start(
        path: impl AsRef<Path>,
        options: ServeOptions,
    ) -> std::result::Result<(Arc<Server<I::Snapshot>>, Self), PersistError> {
        let path = path.as_ref().to_path_buf();
        let (server, writer) = Writer::serve(I::load(&path)?, options);
        writer.set_checkpoint(Some(path));
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
        let (server, writer) = Writer::serve(index, options);
        writer.set_checkpoint(Some(checkpoint));
        *lock(&writer.wal) = Some(log);
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
    /// debt — and the fresh log is based at its epoch. Refuses if `dir`
    /// already holds segments (recover those with
    /// [`Writer::warm_start_durable`] instead of logging over them).
    pub fn enable_wal(
        &self,
        dir: impl AsRef<Path>,
        sync: WalSync,
    ) -> std::result::Result<(), WalError> {
        let path = self.checkpoint_path().ok_or_else(|| {
            WalError::InvalidState(
                "a checkpoint path must be configured before enabling the wal; call \
                 set_checkpoint first"
                    .into(),
            )
        })?;
        let mut inner = lock(&self.inner);
        let mut wal = lock(&self.wal);
        if wal.is_some() {
            return Err(WalError::InvalidState("the wal is already enabled".into()));
        }
        // With no log yet, a pre-log rebuild needs no record: the
        // checkpoint is saved at the epoch it produces, and the log starts
        // after it.
        self.checkpoint_locked(&mut inner, &mut wal, &path)?;
        *wal = Some(Wal::create(dir, inner.epoch(), sync)?);
        Ok(())
    }

    /// `true` while the write-ahead log is enabled.
    pub fn wal_enabled(&self) -> bool {
        lock(&self.wal).is_some()
    }

    /// Path of the log's open segment file, when the wal is enabled.
    pub fn wal_segment_path(&self) -> Option<PathBuf> {
        lock(&self.wal)
            .as_ref()
            .map(|w| w.segment_path().to_path_buf())
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
    /// the update (the new snapshot is already serving at that point).
    pub fn set_checkpoint(&self, path: Option<PathBuf>) {
        *lock(&self.checkpoint) = path;
    }

    /// The configured checkpoint path, if any.
    pub fn checkpoint_path(&self) -> Option<PathBuf> {
        lock(&self.checkpoint).clone()
    }

    /// The error of the most recent failed automatic checkpoint, if any
    /// (clears on read; successful checkpoints also clear it).
    pub fn take_checkpoint_error(&self) -> Option<PersistError> {
        lock(&self.checkpoint_error).take()
    }

    /// Checkpoint the current state to the configured path right now,
    /// forcing a refactorization first if the state carries correction
    /// debt (only a clean epoch can be persisted). With the wal enabled,
    /// that refactorization is logged like any other epoch, and a
    /// successful save rotates the log: a fresh segment starts at the
    /// checkpoint epoch and the now-redundant older segments are collected.
    /// Returns the path written.
    pub fn checkpoint_now(&self) -> std::result::Result<PathBuf, PersistError> {
        let path = self.checkpoint_path().ok_or_else(|| {
            PersistError::InvalidState(
                "no checkpoint path is configured; call set_checkpoint first".into(),
            )
        })?;
        let mut inner = lock(&self.inner);
        let mut wal = lock(&self.wal);
        self.checkpoint_locked(&mut inner, &mut wal, &path)?;
        // The checkpoint on disk is now fresh; clear any stale auto-
        // checkpoint failure so monitoring does not keep reporting it.
        *lock(&self.checkpoint_error) = None;
        Ok(path)
    }

    /// Every checkpoint's body: refactorize if the state carries debt
    /// (logged like any epoch while the log is on) and publish, save, then
    /// rotate the log to a fresh segment based at the checkpoint epoch.
    /// Both locks are held by the caller.
    fn checkpoint_locked(
        &self,
        inner: &mut I,
        wal: &mut Option<Wal>,
        path: &Path,
    ) -> std::result::Result<(), PersistError> {
        if !inner.is_clean() {
            append_then_mutate(inner, wal, Some(WalOp::Rebuild), I::rebuild)
                .map_err(|e| {
                    PersistError::InvalidState(format!("wal append before checkpoint failed: {e}"))
                })?
                .map_err(|e| {
                    PersistError::InvalidState(format!(
                        "refactorization before checkpoint failed: {e}"
                    ))
                })?;
            self.server.install_snapshot(inner.snapshot());
        }
        inner.save(path)?;
        if let Some(log) = wal.as_mut() {
            // The save landed; even if rotation fails the stale segments
            // stay replay-safe (replay skips records at or below the
            // checkpoint epoch), so surface the error without undoing
            // anything.
            log.rotate(inner.epoch()).map_err(|e| {
                PersistError::InvalidState(format!("wal rotation after checkpoint failed: {e}"))
            })?;
        }
        Ok(())
    }

    /// Best-effort auto-checkpoint after an operation that refactorized
    /// and left the whole index clean (for a single index: every rebuild).
    /// The caller holds the `inner` writer mutex across this call (never
    /// re-lock it here; note that the fsync'd save extends the writer
    /// critical section — blocking later updates, not queries — for the
    /// duration of the write). A failed rotation is recorded the same way
    /// as a failed save (the log stays replay-correct either way, the
    /// stale segments just linger).
    fn maybe_checkpoint(&self, inner: &mut I, report: &I::Report, wal: &mut Option<Wal>) {
        if !I::rebuilt(report) || !inner.is_clean() {
            return;
        }
        if let Some(path) = self.checkpoint_path() {
            *lock(&self.checkpoint_error) = self.checkpoint_locked(inner, wal, &path).err();
        }
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
        let mut inner = lock(&self.inner);
        let mut wal = lock(&self.wal);
        // Empty deltas do not advance the epoch and are never logged.
        let op = (wal.is_some() && !delta.is_empty()).then(|| WalOp::Delta(delta.clone()));
        self.apply_logged(&mut inner, &mut wal, op, |index| index.apply(delta))
    }

    /// Refactorize now (debt back to zero; a sharded index rebuilds only
    /// its dirty shards) and publish the result. Queries keep answering
    /// from the previous epoch while this runs. The fresh epoch is
    /// checkpointed if a path is configured. With the wal enabled the
    /// refactorization is logged append-before-apply like any delta (it
    /// advances the epoch, so replay must reproduce it).
    pub fn rebuild(&self) -> ServeResult<I::Report> {
        let mut inner = lock(&self.inner);
        let mut wal = lock(&self.wal);
        self.apply_logged(&mut inner, &mut wal, Some(WalOp::Rebuild), I::rebuild)
    }

    /// The logged mutation path of [`Writer::apply_delta`] and
    /// [`Writer::rebuild`]: mutate under the append-before-apply protocol,
    /// then publish (and maybe checkpoint) the result. Both locks are held
    /// by the caller.
    fn apply_logged(
        &self,
        inner: &mut I,
        wal: &mut Option<Wal>,
        op: Option<WalOp>,
        mutate: impl FnOnce(&mut I) -> mogul_core::Result<I::Report>,
    ) -> ServeResult<I::Report> {
        let report =
            append_then_mutate(inner, wal, op, mutate).map_err(ServeError::durability)??;
        if let Some(log) = wal.as_ref() {
            debug_assert_eq!(inner.epoch(), log.last_epoch());
        }
        self.server.install_snapshot(inner.snapshot());
        self.maybe_checkpoint(inner, &report, wal);
        Ok(report)
    }

    /// Current rebuild debt of the writer state (for a sharded index,
    /// support summed over the shards and the largest correction rank).
    pub fn debt(&self) -> RebuildDebt {
        lock(&self.inner).debt()
    }
}

/// The append-before-apply protocol every logged mutation follows: append
/// `op` (when the log is on and there is an op), run `mutate`, and take the
/// record back off the log if `mutate` fails. The outer error is the
/// append's — nothing was mutated — the inner one the mutation's.
fn append_then_mutate<I: WritableIndex, R>(
    inner: &mut I,
    wal: &mut Option<Wal>,
    op: Option<WalOp>,
    mutate: impl FnOnce(&mut I) -> mogul_core::Result<R>,
) -> std::result::Result<mogul_core::Result<R>, WalError> {
    let logged = match (wal.as_mut(), op) {
        (Some(log), Some(op)) => {
            log.append(inner.epoch() + 1, &op)?;
            Some(log)
        }
        _ => None,
    };
    let result = mutate(inner);
    if let (Err(_), Some(log)) = (&result, logged) {
        // The record is durable but the operation never happened: take it
        // back off the log so recovery does not replay an epoch nobody
        // acknowledged. (Validation failures reject before mutating, so the
        // index state is unchanged.)
        let _ = log.undo_last_append();
    }
    Ok(result)
}
