//! Read/write coordination: the [`IndexWriter`] mutates an
//! [`UpdatableIndex`] and publishes each resulting snapshot to a
//! [`QueryServer`].
//!
//! The split of responsibilities is deliberately strict:
//!
//! * **Readers** (query threads) only ever touch the server's current
//!   [`IndexSnapshot`](mogul_core::update::IndexSnapshot) — immutable, so no
//!   read locks on the per-query hot path.
//! * **The writer** owns the mutable [`UpdatableIndex`] behind a [`Mutex`]:
//!   updates serialize against each other but never against queries. Delta
//!   application (and, when the rebuild-debt policy fires, the full
//!   refactorization) runs entirely off the query path; queries keep
//!   hitting the previous epoch until [`QueryServer::install_snapshot`]
//!   swaps in the new one.
//!
//! Any thread may call [`IndexWriter::apply`] — a maintenance thread, a cron
//! loop, or an ingest pipeline — which is what "background refactorization"
//! means here: it is background *relative to queries*, not a thread this
//! crate spawns.

use crate::error::{ServeError, ServeResult};
use crate::lock;
use crate::options::ServeOptions;
use crate::request::UpdateRequest;
use crate::server::QueryServer;
use mogul_core::persist::{self, PersistError};
use mogul_core::update::{IndexDelta, RebuildDebt, UpdatableIndex, UpdateReport};
use mogul_core::wal::{self, RecoveryOutcome, Wal, WalError, WalOp, WalSync};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// The single-writer handle pairing an [`UpdatableIndex`] with the
/// [`QueryServer`] that serves its snapshots.
///
/// ```
/// use mogul_core::update::IndexBuilder;
/// use mogul_serve::{IndexWriter, ServeOptions, UpdateRequest};
///
/// let features: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, 0.0]).collect();
/// let index = IndexBuilder::new().knn_k(3).build(features)?;
/// let options = ServeOptions::builder().workers(2).build()?;
/// let (server, writer) = IndexWriter::new(index, options);
///
/// // Queries and updates may now run from different threads; each update
/// // publishes a new epoch without interrupting in-flight queries.
/// let report = writer.apply(&[UpdateRequest::insert(vec![2.5, 0.0])])?;
/// assert_eq!(server.epoch(), report.epoch);
/// let top = server.query_by_id(report.inserted[0], 3)?;
/// assert_eq!(top.len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct IndexWriter {
    server: Arc<QueryServer>,
    inner: Mutex<UpdatableIndex>,
    /// The write-ahead log, when durability between checkpoints is enabled
    /// (see [`IndexWriter::enable_wal`]). Lock order: `inner` before `wal`
    /// before the checkpoint fields — every path below acquires in that
    /// order.
    wal: Mutex<Option<Wal>>,
    /// When set, the writer re-saves the index here after every full
    /// refactorization (the only moment the state is clean and worth
    /// persisting). See [`IndexWriter::set_checkpoint`].
    checkpoint: Mutex<Option<PathBuf>>,
    /// Outcome of the most recent automatic checkpoint attempt (auto
    /// checkpoints are best-effort: a failed save must not fail the update
    /// that triggered it, since the new snapshot is already live).
    checkpoint_error: Mutex<Option<PersistError>>,
}

impl IndexWriter {
    /// Take ownership of an updatable index and stand up a server on its
    /// current snapshot.
    pub fn new(index: UpdatableIndex, options: ServeOptions) -> (Arc<QueryServer>, IndexWriter) {
        let server = Arc::new(QueryServer::from_snapshot(index.snapshot(), options));
        let writer = IndexWriter {
            server: Arc::clone(&server),
            inner: Mutex::new(index),
            wal: Mutex::new(None),
            checkpoint: Mutex::new(None),
            checkpoint_error: Mutex::new(None),
        };
        (server, writer)
    }

    /// Warm-start from an updatable-index file written by
    /// [`mogul_core::persist::save_updatable`] (or by this writer's own
    /// checkpointing): the graph, factors, stable ids and epoch are
    /// reconstructed with no precompute, and the same path is installed as
    /// the checkpoint target so later rebuilds keep refreshing it.
    pub fn warm_start(
        path: impl AsRef<Path>,
        options: ServeOptions,
    ) -> std::result::Result<(Arc<QueryServer>, IndexWriter), PersistError> {
        let path = path.as_ref().to_path_buf();
        let index = persist::load_updatable(&path)?;
        let (server, writer) = IndexWriter::new(index, options);
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
    pub fn warm_start_durable(
        checkpoint: impl AsRef<Path>,
        wal_dir: impl AsRef<Path>,
        sync: WalSync,
        options: ServeOptions,
    ) -> std::result::Result<(Arc<QueryServer>, IndexWriter, RecoveryOutcome), WalError> {
        let checkpoint = checkpoint.as_ref().to_path_buf();
        let (index, log, outcome) = wal::recover_updatable(&checkpoint, wal_dir, sync)?;
        let (server, writer) = IndexWriter::new(index, options);
        writer.set_checkpoint(Some(checkpoint));
        *lock(&writer.wal) = Some(log);
        Ok((server, writer, outcome))
    }

    /// Turn on the write-ahead log: from here on, every applied delta (and
    /// every explicit refactorization) is fsync'd to a segment under `dir`
    /// *before* it is applied, so
    /// [`IndexWriter::warm_start_durable`] can recover every acknowledged
    /// epoch after a crash — not just the last checkpointed one.
    ///
    /// Requires a checkpoint path (see [`IndexWriter::set_checkpoint`]):
    /// the log is replayed *over* a checkpoint, so one is written here —
    /// forcing a refactorization first if the state carries correction
    /// debt — and the fresh log is based at its epoch. Refuses if `dir`
    /// already holds segments (recover those with
    /// [`IndexWriter::warm_start_durable`] instead of logging over them).
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
        if !inner.snapshot().is_clean() {
            // The pre-log rebuild itself needs no record: the checkpoint
            // below is saved at the epoch it produces, and the log starts
            // after it.
            inner.rebuild().map_err(|e| {
                WalError::Checkpoint(PersistError::InvalidState(format!(
                    "refactorization before checkpoint failed: {e}"
                )))
            })?;
            self.server.install_snapshot(inner.snapshot());
        }
        persist::save_updatable(&inner, &path)?;
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

    /// Configure (or, with `None`, disable) the checkpoint file.
    ///
    /// While configured, every apply that ends in a full refactorization —
    /// whether triggered by the rebuild-debt policy or by
    /// [`IndexWriter::rebuild`] — re-saves the fresh clean epoch to this
    /// path, so a crashed process can [`IndexWriter::warm_start`] from a
    /// state at most one rebuild interval old. Saves are atomic
    /// (write-to-temp + rename): the checkpoint file always holds a
    /// complete, checksummed index.
    ///
    /// Automatic checkpoints are best-effort; a failed save is recorded and
    /// reported by [`IndexWriter::take_checkpoint_error`] instead of failing
    /// the update (the new snapshot is already serving at that point).
    pub fn set_checkpoint(&self, path: Option<PathBuf>) {
        *lock(&self.checkpoint) = path;
    }

    /// The configured checkpoint file, if any.
    pub fn checkpoint_path(&self) -> Option<PathBuf> {
        lock(&self.checkpoint).clone()
    }

    /// The error of the most recent failed automatic checkpoint, if any
    /// (clears on read; successful checkpoints also clear it).
    pub fn take_checkpoint_error(&self) -> Option<PersistError> {
        lock(&self.checkpoint_error).take()
    }

    /// Checkpoint the current state to the configured path right now,
    /// forcing a full refactorization first if the state carries correction
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
        if !inner.snapshot().is_clean() {
            if let Some(log) = wal.as_mut() {
                log.append(inner.epoch() + 1, &WalOp::Rebuild)
                    .map_err(|e| {
                        PersistError::InvalidState(format!(
                            "wal append before checkpoint failed: {e}"
                        ))
                    })?;
            }
            match inner.rebuild() {
                Ok(_) => {}
                Err(e) => {
                    if let Some(log) = wal.as_mut() {
                        let _ = log.undo_last_append();
                    }
                    return Err(PersistError::InvalidState(format!(
                        "refactorization before checkpoint failed: {e}"
                    )));
                }
            }
            self.server.install_snapshot(inner.snapshot());
        }
        persist::save_updatable(&inner, &path)?;
        if let Some(log) = wal.as_mut() {
            // The save landed; even if rotation fails the stale segments
            // stay replay-safe (replay skips records at or below the
            // checkpoint epoch), so surface the error without undoing
            // anything.
            log.rotate(inner.epoch()).map_err(|e| {
                PersistError::InvalidState(format!("wal rotation after checkpoint failed: {e}"))
            })?;
        }
        // The checkpoint on disk is now fresh; clear any stale auto-
        // checkpoint failure so monitoring does not keep reporting it.
        *lock(&self.checkpoint_error) = None;
        Ok(path)
    }

    /// Best-effort auto-checkpoint after a rebuild. Both callers hold the
    /// `inner` writer mutex across this call (never re-lock it here; note
    /// that the fsync'd save extends the writer critical section — blocking
    /// later updates, not queries — for the duration of the write). A
    /// successful save rotates the wal; a failed rotation is recorded the
    /// same way as a failed save (the log stays replay-correct either way,
    /// the stale segments just linger).
    fn maybe_checkpoint(
        &self,
        inner: &UpdatableIndex,
        report: &UpdateReport,
        wal: &mut Option<Wal>,
    ) {
        if !report.rebuilt {
            return;
        }
        let Some(path) = self.checkpoint_path() else {
            return;
        };
        let outcome = match persist::save_updatable(inner, &path) {
            Ok(()) => match wal.as_mut() {
                Some(log) => log.rotate(inner.epoch()).err().map(|e| {
                    PersistError::InvalidState(format!("wal rotation after checkpoint failed: {e}"))
                }),
                None => None,
            },
            Err(e) => Some(e),
        };
        *lock(&self.checkpoint_error) = outcome;
    }

    /// The server this writer publishes to.
    pub fn server(&self) -> Arc<QueryServer> {
        Arc::clone(&self.server)
    }

    /// Apply a batch of update requests as one atomic delta and publish the
    /// resulting snapshot epoch. Insert ids are reported in request order.
    /// Index-level rejections surface as
    /// [`ServeError::Index`](crate::ServeError::Index).
    pub fn apply(&self, updates: &[UpdateRequest]) -> ServeResult<UpdateReport> {
        self.apply_delta(&UpdateRequest::stage(updates))
    }

    /// Apply an already-staged [`IndexDelta`] and publish the resulting
    /// snapshot epoch. If the apply ended in a full refactorization and a
    /// checkpoint path is configured, the fresh clean epoch is re-saved to
    /// it (best-effort; see [`IndexWriter::set_checkpoint`]).
    ///
    /// With the wal enabled the protocol is **append-before-apply**: the
    /// delta's record is fsync'd to the log first, so by the time any
    /// caller observes the new epoch it already survives a crash. An
    /// append failure rejects the update with
    /// [`ServeError::Durability`] *without* applying it; an apply failure
    /// after the append truncates the record back off the log.
    pub fn apply_delta(&self, delta: &IndexDelta) -> ServeResult<UpdateReport> {
        let mut inner = lock(&self.inner);
        let mut wal = lock(&self.wal);
        self.apply_logged(&mut inner, &mut wal, delta)
    }

    /// The shared logged-apply path ([`IndexWriter::apply_delta`] and the
    /// rebuild half of [`IndexWriter::rebuild`]); both locks are held by
    /// the caller.
    fn apply_logged(
        &self,
        inner: &mut MutexGuard<'_, UpdatableIndex>,
        wal: &mut MutexGuard<'_, Option<Wal>>,
        delta: &IndexDelta,
    ) -> ServeResult<UpdateReport> {
        // Empty deltas do not advance the epoch and are never logged.
        let logged = !delta.is_empty();
        if logged {
            if let Some(log) = wal.as_mut() {
                log.append(inner.epoch() + 1, &WalOp::Delta(delta.clone()))
                    .map_err(ServeError::durability)?;
            }
        }
        let report = match inner.apply(delta) {
            Ok(report) => report,
            Err(e) => {
                // The record is durable but the operation never happened:
                // take it back off the log so recovery does not replay an
                // epoch nobody acknowledged. (Validation failures reject
                // before mutating, so the index state is unchanged.)
                if logged {
                    if let Some(log) = wal.as_mut() {
                        let _ = log.undo_last_append();
                    }
                }
                return Err(e.into());
            }
        };
        if let Some(log) = wal.as_ref() {
            debug_assert_eq!(report.epoch, log.last_epoch());
        }
        self.server.install_snapshot(inner.snapshot());
        self.maybe_checkpoint(inner, &report, wal);
        Ok(report)
    }

    /// Force a full refactorization now (debt back to zero) and publish it.
    /// Queries keep answering from the previous epoch while this runs. The
    /// fresh epoch is checkpointed if a path is configured. With the wal
    /// enabled the refactorization is logged append-before-apply like any
    /// delta (it advances the epoch, so replay must reproduce it).
    pub fn rebuild(&self) -> ServeResult<UpdateReport> {
        let mut inner = lock(&self.inner);
        let mut wal = lock(&self.wal);
        if let Some(log) = wal.as_mut() {
            log.append(inner.epoch() + 1, &WalOp::Rebuild)
                .map_err(ServeError::durability)?;
        }
        let report = match inner.rebuild() {
            Ok(report) => report,
            Err(e) => {
                if let Some(log) = wal.as_mut() {
                    let _ = log.undo_last_append();
                }
                return Err(e.into());
            }
        };
        self.server.install_snapshot(inner.snapshot());
        self.maybe_checkpoint(&inner, &report, &mut wal);
        Ok(report)
    }

    /// Current rebuild debt of the writer state.
    pub fn debt(&self) -> RebuildDebt {
        lock(&self.inner).debt()
    }

    /// `true` when the next apply would trigger a full refactorization.
    pub fn needs_rebuild(&self) -> bool {
        lock(&self.inner).needs_rebuild()
    }
}
