//! Crash-safe campaign journaling: deterministic chunking, append-only
//! checkpoint records, and exact resume.
//!
//! Every campaign in the workspace (resilience fault sweeps, fuzz seed
//! sweeps, explore design-point sweeps) is byte-deterministic: the same
//! config produces the same report for any `--workers`×`--lanes`. That
//! contract makes *exact* crash/resume possible — if the campaign is split
//! into deterministic work units and each unit's result is persisted as it
//! completes, a restarted run can replay the finished units and recompute
//! only the missing ones, producing a report byte-identical to an
//! uninterrupted run.
//!
//! # Journal format
//!
//! One file, `campaign.journal`, inside the `--resume` directory:
//!
//! ```text
//! header (24 bytes):
//!   magic        8 bytes  b"TLJRNL01"
//!   version      u32 LE   currently 1
//!   config_hash  u64 LE   FNV-1a of the canonicalized campaign config
//!   total_chunks u32 LE   number of work units in this campaign
//! record (repeated):
//!   chunk_index  u32 LE
//!   payload_len  u32 LE
//!   checksum     u64 LE   FNV-1a of the payload bytes
//!   payload      payload_len bytes (compact JSON of the chunk result)
//! ```
//!
//! Records are appended with an fsync each, so a completed chunk survives
//! `kill -9`. On open, the reader walks the records and truncates the file
//! at the first torn or corrupt one (short header, short record, checksum
//! mismatch, out-of-range index, non-UTF-8 payload) — a crash mid-append
//! costs exactly the chunk that was being written, never the journal.
//!
//! # Chunk keying
//!
//! The header's `config_hash` covers:
//!
//! - the campaign kind;
//! - the chunk size and the total chunk count;
//! - the campaign's canonical config ([`Campaign::canonical_config`]): its
//!   serialization with run-irrelevant knobs (worker count) zeroed, plus
//!   the knobs that decide which work items a chunk holds. For a fault
//!   campaign these are `--lanes` (the default chunk size and the order
//!   faults run in), `--opt`, and at `lanes > 1` an `order` tag: chunk `k`
//!   holds the faults at `order[k·size..]` of the campaign-wide execution
//!   order, not consecutive faults.
//!
//! Resuming with a config whose hash differs — different seed, different
//! design, different `--lanes`, or a lane journal written before the
//! execution order was campaign-wide — fails loudly with
//! [`JournalError::ConfigMismatch`] rather than silently restarting or,
//! worse, splicing chunks from two different campaigns into one report.
//! The key does not cover what a campaign derives from its config (a fault
//! campaign's sampled fault list), so each replayed chunk is also checked
//! against the work the campaign runs there ([`Campaign::check_replayed`]);
//! a chunk of other work fails with [`JournalError::ForeignChunk`].

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tensorlib_linalg::par::{panic_message, par_map_catch_ctl, CatchOutcome, MapControl};

/// Journal file name inside the `--resume` directory.
pub const JOURNAL_FILE: &str = "campaign.journal";

const MAGIC: &[u8; 8] = b"TLJRNL01";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 24;
const RECORD_HEADER_LEN: usize = 16;

/// FNV-1a 64-bit hash — the checksum for journal records and the campaign
/// config fingerprint. Stable across platforms and releases by definition.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprints a campaign for journal compatibility: the campaign kind
/// (`"faults"`, `"fuzz"`, `"explore"`), the chunk geometry, and a canonical
/// config serialization with run-irrelevant knobs (worker count) zeroed.
/// Two configs share a journal iff they would produce identical chunk
/// results at identical chunk indices.
pub fn config_hash(kind: &str, chunk_size: usize, total_chunks: usize, canonical: &str) -> u64 {
    let input = format!("{kind}|v{VERSION}|chunk={chunk_size}|total={total_chunks}|{canonical}");
    fnv1a64(input.as_bytes())
}

/// A journal open/append failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Filesystem failure reading or writing the journal.
    Io(String),
    /// The file at the journal path is not a campaign journal.
    BadMagic,
    /// The journal was written by an incompatible format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A journaled chunk payload that passed its checksum failed to decode
    /// back into typed results — version drift between the writer and this
    /// reader.
    Decode(String),
    /// A replayed chunk decoded, but it does not hold the work items this
    /// campaign runs in that chunk: the journal was written over a
    /// different item list under the same config key (for instance by a
    /// build that samples or orders faults differently).
    ForeignChunk {
        /// Index of the chunk.
        chunk: u32,
        /// The first difference found.
        detail: String,
    },
    /// The journal belongs to a different campaign configuration. Resuming
    /// it would splice results from two different campaigns into one
    /// report, so this is a hard error — never a silent restart.
    ConfigMismatch {
        /// Hash of the current campaign config.
        expected_hash: u64,
        /// Hash stored in the journal header.
        found_hash: u64,
        /// Chunk count of the current campaign.
        expected_chunks: u32,
        /// Chunk count stored in the journal header.
        found_chunks: u32,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Decode(e) => write!(
                f,
                "journal record failed to decode ({e}); the journal was likely \
                 written by a different build — pass a fresh --resume directory"
            ),
            JournalError::ForeignChunk { chunk, detail } => write!(
                f,
                "journal chunk {chunk} holds other work than this campaign runs \
                 there ({detail}); refusing to resume — pass a fresh --resume directory"
            ),
            JournalError::BadMagic => write!(
                f,
                "resume directory holds a file that is not a campaign journal \
                 (bad magic); pass a fresh directory"
            ),
            JournalError::BadVersion { found } => write!(
                f,
                "journal format version {found} is not supported by this build \
                 (expected {VERSION})"
            ),
            JournalError::ConfigMismatch {
                expected_hash,
                found_hash,
                expected_chunks,
                found_chunks,
            } => write!(
                f,
                "journal was written for a different campaign config \
                 (journal hash {found_hash:#018x} over {found_chunks} chunks, current \
                 config hash {expected_hash:#018x} over {expected_chunks} chunks); \
                 refusing to resume — rerun with the original arguments or pass a \
                 fresh --resume directory"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(e: std::io::Error) -> JournalError {
    JournalError::Io(e.to_string())
}

/// An open campaign journal: the chunk results recovered from disk plus an
/// append handle for new ones.
#[derive(Debug)]
pub struct Journal {
    file: File,
    entries: BTreeMap<u32, String>,
}

impl Journal {
    /// Opens (or creates) the journal in `dir` for a campaign with the
    /// given config fingerprint and chunk count.
    ///
    /// A fresh or torn-header file is initialized in place. An existing
    /// journal is validated (magic, version, config hash, chunk count) and
    /// its records are scanned; a torn or corrupt tail is truncated so the
    /// journal ends at the last intact record.
    ///
    /// # Errors
    ///
    /// [`JournalError::ConfigMismatch`] when the journal belongs to a
    /// different campaign; [`JournalError::BadMagic`] /
    /// [`JournalError::BadVersion`] for foreign files; [`JournalError::Io`]
    /// for filesystem failures.
    pub fn open(dir: &Path, config_hash: u64, total_chunks: u32) -> Result<Journal, JournalError> {
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(dir.join(JOURNAL_FILE))
            .map_err(io_err)?;
        let file_len = file.metadata().map_err(io_err)?.len() as usize;
        // A file shorter than the header can only be a crash during initial
        // creation (the header is written with one fsynced write); treat it
        // as fresh. Anything longer must carry our magic.
        let fresh = file_len < HEADER_LEN;
        let mut entries = BTreeMap::new();
        let mut good_len = HEADER_LEN;
        if !fresh {
            // Records are read one at a time, so each payload is allocated
            // once, as the entry that holds it.
            let mut reader = BufReader::new(&file);
            let mut header = [0u8; HEADER_LEN];
            reader.read_exact(&mut header).map_err(io_err)?;
            if &header[0..8] != MAGIC {
                return Err(JournalError::BadMagic);
            }
            let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
            if version != VERSION {
                return Err(JournalError::BadVersion { found: version });
            }
            let found_hash = u64::from_le_bytes(header[12..20].try_into().unwrap());
            let found_chunks = u32::from_le_bytes(header[20..24].try_into().unwrap());
            if found_hash != config_hash || found_chunks != total_chunks {
                return Err(JournalError::ConfigMismatch {
                    expected_hash: config_hash,
                    found_hash,
                    expected_chunks: total_chunks,
                    found_chunks,
                });
            }
            let mut record = [0u8; RECORD_HEADER_LEN];
            while good_len + RECORD_HEADER_LEN <= file_len {
                reader.read_exact(&mut record).map_err(io_err)?;
                let idx = u32::from_le_bytes(record[0..4].try_into().unwrap());
                let len = u32::from_le_bytes(record[4..8].try_into().unwrap()) as usize;
                let sum = u64::from_le_bytes(record[8..16].try_into().unwrap());
                let Some(end) = (good_len + RECORD_HEADER_LEN).checked_add(len) else {
                    break;
                };
                if end > file_len || idx >= total_chunks {
                    break;
                }
                let mut payload = vec![0u8; len];
                reader.read_exact(&mut payload).map_err(io_err)?;
                if fnv1a64(&payload) != sum {
                    break;
                }
                let Ok(text) = String::from_utf8(payload) else {
                    break;
                };
                entries.insert(idx, text);
                good_len = end;
            }
        }
        if fresh {
            file.set_len(0).map_err(io_err)?;
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            header.extend_from_slice(&config_hash.to_le_bytes());
            header.extend_from_slice(&total_chunks.to_le_bytes());
            file.write_all(&header).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        } else if good_len < file_len {
            file.set_len(good_len as u64).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        file.seek(SeekFrom::Start(good_len as u64)).map_err(io_err)?;
        Ok(Journal { file, entries })
    }

    /// Moves out the chunk results recovered from disk, keyed by chunk
    /// index, so a replay can free each payload once it is decoded; the
    /// journal is left with none.
    pub fn take_entries(&mut self) -> BTreeMap<u32, String> {
        std::mem::take(&mut self.entries)
    }

    /// Appends a completed chunk's payload and fsyncs, so the record
    /// survives an immediate `kill -9`. [`Journal::take_entries`] holds only
    /// what was recovered at open.
    ///
    /// Records the `sim.journal.append` span (write plus sync) and the
    /// `sim.journal.records` / `sim.journal.bytes_appended` counters (record
    /// headers included).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the write or sync fails.
    pub fn append(&mut self, chunk_index: u32, payload: &str) -> Result<(), JournalError> {
        let _span = tensorlib_obs::span("sim.journal.append");
        let bytes = payload.as_bytes();
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN + bytes.len());
        record.extend_from_slice(&chunk_index.to_le_bytes());
        record.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        record.extend_from_slice(&fnv1a64(bytes).to_le_bytes());
        record.extend_from_slice(bytes);
        self.file.write_all(&record).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        tensorlib_obs::counter_add("sim.journal.records", 1);
        tensorlib_obs::counter_add("sim.journal.bytes_appended", record.len() as u64);
        Ok(())
    }
}

/// Durability knobs threaded through every campaign entry point. The
/// default value runs the campaign as one chunk with no journal, no
/// watchdog and no telemetry, consulting the process-wide SIGINT flag.
#[derive(Clone, Default)]
pub struct DurabilityOptions {
    /// Journal directory (`--resume <dir>`). `None` disables journaling.
    pub dir: Option<PathBuf>,
    /// Per-chunk wall-clock watchdog (`--chunk-timeout`). Work items not
    /// yet started when a chunk's deadline passes are demoted to a typed
    /// `Degraded` outcome instead of stalling the campaign.
    pub chunk_timeout: Option<Duration>,
    /// Override the campaign's chunk size (work items per journal record);
    /// see [`DurabilityOptions::chunk_size_for`]. Tests use small chunks to
    /// exercise record boundaries.
    pub chunk_size: Option<usize>,
    /// How many times a panicking work item is retried serially before
    /// being quarantined with its panic payload captured in the report.
    /// `0` (the default) means one attempt, no retries.
    pub panic_retries: usize,
    /// Interrupt latch. `None` uses the process-wide SIGINT flag
    /// ([`crate::interrupt::interrupted`]); tests install a local flag so
    /// parallel tests never race on the global one.
    pub interrupt: Option<Arc<AtomicBool>>,
    /// Test-only chaos hook: work items whose identity string contains one
    /// of these substrings panic before running, exercising the quarantine
    /// path deterministically.
    pub chaos_panic_targets: Vec<String>,
    /// Disables the campaign telemetry layer (`events.jsonl` /
    /// `status.json`) for journaled runs. Off by default — journaled
    /// campaigns stream telemetry unless the caller opts out (the perfgate
    /// uses this to A/B the telemetry overhead). Telemetry only ever
    /// activates when a journal directory is set.
    pub telemetry_off: bool,
}

impl DurabilityOptions {
    /// Default options with a journal directory.
    pub fn with_dir(dir: impl Into<PathBuf>) -> DurabilityOptions {
        DurabilityOptions {
            dir: Some(dir.into()),
            ..DurabilityOptions::default()
        }
    }

    /// Work items per chunk for a campaign of `items` work items whose
    /// journaled chunk size is `default`. An explicit
    /// [`DurabilityOptions::chunk_size`] wins. A run with neither a journal
    /// directory nor a watchdog has no use for chunk boundaries, so it runs
    /// as a single chunk and pays one worker-pool spawn instead of one per
    /// chunk. Everything else (`--resume`, `--chunk-timeout`) uses
    /// `default`, which is part of the journal key.
    pub fn chunk_size_for(&self, items: usize, default: usize) -> usize {
        let size = match self.chunk_size {
            Some(size) => size,
            None if self.dir.is_none() && self.chunk_timeout.is_none() => items,
            None => default,
        };
        size.max(1)
    }

    /// Panics if `identity` matches a chaos target. Call at the top of each
    /// work item; a no-op unless the test configured chaos.
    pub fn chaos_check(&self, identity: &str) {
        if self
            .chaos_panic_targets
            .iter()
            .any(|t| identity.contains(t.as_str()))
        {
            panic!("chaos hook tripped for {identity}");
        }
    }

    /// True once the run should stop starting new chunks: the local latch
    /// if one is installed, else the process-wide SIGINT flag.
    pub fn interrupted(&self) -> bool {
        match &self.interrupt {
            Some(flag) => flag.load(Ordering::SeqCst),
            None => crate::interrupt::interrupted(),
        }
    }

    /// The watchdog deadline for a chunk starting now, if one is set.
    pub fn chunk_deadline(&self) -> Option<Instant> {
        self.chunk_timeout.map(|t| Instant::now() + t)
    }

    /// Retry budget for panicking work items, clamped to at least the one
    /// initial attempt.
    pub fn panic_attempts(&self) -> usize {
        1 + self.panic_retries
    }
}

/// What became of one work item run by [`run_items`].
#[derive(Debug)]
pub enum ItemOutcome<U> {
    /// The item ran, possibly after retries.
    Done(U),
    /// The chunk's watchdog deadline passed before the item started.
    Degraded,
    /// The item panicked on every one of `attempts` attempts; `message` is
    /// the last panic payload.
    Quarantined {
        /// Attempts made (see [`DurabilityOptions::panic_attempts`]).
        attempts: usize,
        /// The last panic message.
        message: String,
    },
}

/// Runs one chunk's work items on the worker pool (`workers` threads,
/// `batch` items per queue grab) under the durability policy: items not yet
/// started when the chunk's watchdog deadline passes come back
/// [`ItemOutcome::Degraded`], and a panicking item is retried serially (a
/// deterministic panic recurs; an environmental one, such as resource
/// exhaustion under a full pool, gets a second chance on a quiet thread)
/// before it is [`ItemOutcome::Quarantined`]. Outcomes are in item order for
/// any worker count.
pub fn run_items<T: Sync, U: Send>(
    durability: &DurabilityOptions,
    items: &[T],
    workers: usize,
    batch: usize,
    run: impl Fn(&T) -> U + Sync,
) -> Vec<ItemOutcome<U>> {
    let ctl = MapControl {
        deadline: durability.chunk_deadline(),
        cancel: None,
    };
    let attempts = durability.panic_attempts();
    par_map_catch_ctl(items, workers, batch, ctl, |_, item| run(item))
        .into_iter()
        .zip(items)
        .map(|(result, item)| match result {
            CatchOutcome::Done(u) => ItemOutcome::Done(u),
            CatchOutcome::Skipped => ItemOutcome::Degraded,
            CatchOutcome::Panicked(mut message) => {
                for _ in 1..attempts {
                    match catch_unwind(AssertUnwindSafe(|| run(item))) {
                        Ok(u) => return ItemOutcome::Done(u),
                        Err(payload) => message = panic_message(payload),
                    }
                }
                ItemOutcome::Quarantined { attempts, message }
            }
        })
        .collect()
}

/// Replay/execution accounting for a chunked campaign run. Feeds the
/// `journal` provenance block — never the report body, because replay
/// counts legitimately differ between a clean run and a resumed run whose
/// results are byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Work units the campaign was chunked into.
    pub chunks_total: usize,
    /// Chunks recovered from the journal instead of recomputed.
    pub chunks_replayed: usize,
    /// Chunks executed (and journaled, when a journal is open) by this run.
    pub chunks_executed: usize,
    /// True when the run stopped early on an interrupt; the report built
    /// from the returned slots is partial and resumable.
    pub interrupted: bool,
}

/// Chunk geometry of one campaign run: work items per chunk and the number
/// of chunks. Both are part of the journal key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Work items per chunk.
    pub chunk_size: usize,
    /// Chunks in the campaign.
    pub chunks: usize,
}

/// A campaign the one chunked runner ([`execute`]) can drive: faults,
/// fuzz and explore each implement it once.
pub trait Campaign {
    /// Campaign kind (`"faults"`, `"fuzz"`, `"explore"`): part of the
    /// journal key and the telemetry and history kind.
    const KIND: &'static str;
    /// One chunk's results; its compact JSON is the journal payload. Its
    /// `Deserialize` must invert that exactly: that is what keeps a resumed
    /// report byte-identical to an uninterrupted one.
    type Chunk: serde::Serialize + serde::Deserialize;
    /// The assembled report.
    type Report;

    /// Canonical config string: the config with run-irrelevant knobs
    /// (worker count) zeroed. Keys the journal (together with the chunk
    /// plan) and identifies the run in the cross-run history.
    fn canonical_config(&self) -> String;

    /// The chunk geometry for these durability options.
    fn chunk_plan(&self, durability: &DurabilityOptions) -> ChunkPlan;

    /// Runs chunk `index`.
    fn run_chunk(&self, plan: &ChunkPlan, index: usize, durability: &DurabilityOptions)
        -> Self::Chunk;

    /// Assembles the report from the completed chunks, a prefix of the
    /// plan's chunks (all of them unless the run was interrupted).
    fn aggregate(&self, plan: &ChunkPlan, chunks: Vec<Self::Chunk>) -> Self::Report;

    /// Key deterministic metrics of a finished report for the cross-run
    /// history index.
    fn history_metrics(report: &Self::Report) -> BTreeMap<String, f64>;

    /// Telemetry outcome counter for one chunk; see
    /// [`TelemetrySpec::count_outcomes`].
    fn count_outcomes(chunk: &Self::Chunk) -> BTreeMap<String, u64>;

    /// Checks chunk `index`, decoded from the journal, against the work
    /// this campaign runs there, before the chunk is used; it may swap
    /// parts of the chunk for equal ones the campaign already holds. The
    /// default accepts every chunk that decodes.
    ///
    /// # Errors
    ///
    /// [`JournalError::ForeignChunk`] when the chunk is not this
    /// campaign's.
    fn check_replayed(
        &self,
        _plan: &ChunkPlan,
        _index: usize,
        _chunk: &mut Self::Chunk,
    ) -> Result<(), JournalError> {
        Ok(())
    }
}

/// Runs `campaign` through [`run_chunked_observed`]: chunk plan, journal
/// key, telemetry, chunk loop, then aggregation of the completed prefix.
/// Chunks stay typed: only the journal reads their JSON, so an unjournaled
/// run never serializes them, and a replayed payload is decoded once.
///
/// # Errors
///
/// Journal open/append failures, [`JournalError::Decode`] when a replayed
/// payload does not decode, and [`Campaign::check_replayed`]'s refusals.
pub fn execute<C: Campaign>(
    campaign: &C,
    durability: &DurabilityOptions,
) -> Result<(C::Report, RunStats), JournalError> {
    let plan = campaign.chunk_plan(durability);
    let hash = config_hash(
        C::KIND,
        plan.chunk_size,
        plan.chunks,
        &campaign.canonical_config(),
    );
    let telemetry = TelemetrySpec {
        kind: C::KIND,
        count_outcomes: &C::count_outcomes,
    };
    let (slots, stats) = run_chunked_observed(
        durability,
        hash,
        plan.chunks,
        Some(&telemetry),
        |i, chunk| campaign.check_replayed(&plan, i, chunk),
        |i| campaign.run_chunk(&plan, i, durability),
    )?;
    // Completed chunks are always a prefix (chunks execute in ascending
    // order and an interrupt stops the loop), so assembly stops at the
    // first missing slot.
    let chunks = slots.into_iter().map_while(|slot| slot).collect();
    Ok((campaign.aggregate(&plan, chunks), stats))
}

/// How a campaign's chunks translate into telemetry: the campaign kind plus
/// a chunk → per-outcome-counter function. Each campaign module owns its
/// chunk type, so it supplies the counter; the journal layer owns the chunk
/// loop, so it owns *when* events fire.
pub struct TelemetrySpec<'a, T> {
    /// Campaign kind: `"faults"`, `"fuzz"`, or `"explore"`.
    pub kind: &'a str,
    /// Counts outcomes in one chunk (e.g. `{"masked": 12, "sdc": 1}`). Must
    /// be a pure function of the chunk — it also runs over *replayed*
    /// chunks on resume so status counters cover the whole campaign, not
    /// just this process's share.
    pub count_outcomes: &'a dyn Fn(&T) -> BTreeMap<String, u64>,
}

/// Runs a campaign as `total_chunks` deterministic work units with
/// journaled checkpoint/resume and streaming telemetry. This is the one
/// chunk loop every campaign runs through (see [`execute`]).
///
/// Chunks already present in the journal are decoded with
/// `serde_json::from_str`, once each, and passed to `check` with their
/// index, before any chunk runs; they are never passed to `exec`. Missing chunks
/// run in ascending index order; each result's compact JSON is appended
/// (and fsynced) to the journal before the next chunk starts. The
/// interrupt latch is checked *between* chunks — an in-flight chunk always
/// drains to completion — so an interrupted run returns a prefix-complete
/// set of slots plus `interrupted: true`, and a later resume picks up at
/// the first missing chunk.
///
/// `exec` receives the chunk index and returns the chunk; determinism of
/// `exec`, and `T`'s `Deserialize` inverting its `Serialize`, are what make
/// a resumed report byte-identical to an uninterrupted one.
///
/// When a journal directory is set and telemetry is on (a `spec` was
/// supplied, `opts.telemetry_off` is false), the run additionally maintains
/// `events.jsonl` and `status.json` in the campaign directory — see
/// [`tensorlib_obs::events`]. Telemetry is observational only and strictly
/// best-effort: every telemetry write failure is swallowed, the chunk loop
/// and its journal durability guarantees are identical with telemetry on,
/// off, or failing, and no wall-clock data ever reaches the returned slots
/// (the report inputs) — it lives only in the telemetry files, quarantined
/// under `timing` sub-objects.
///
/// # Errors
///
/// Journal open/append failures ([`JournalError`]),
/// [`JournalError::Decode`] when a replayed payload does not decode, and
/// `check`'s errors; `dir: None` runs the same chunked loop without
/// persistence and cannot fail.
pub fn run_chunked_observed<T, C, F>(
    opts: &DurabilityOptions,
    config_hash: u64,
    total_chunks: usize,
    telemetry: Option<&TelemetrySpec<'_, T>>,
    mut check: C,
    mut exec: F,
) -> Result<(Vec<Option<T>>, RunStats), JournalError>
where
    T: serde::Serialize + serde::Deserialize,
    C: FnMut(usize, &mut T) -> Result<(), JournalError>,
    F: FnMut(usize) -> T,
{
    let mut journal = match &opts.dir {
        Some(dir) => Some(Journal::open(dir, config_hash, total_chunks as u32)?),
        None => None,
    };
    let mut slots: Vec<Option<T>> = (0..total_chunks).map(|_| None).collect();
    let mut stats = RunStats {
        chunks_total: total_chunks,
        ..RunStats::default()
    };
    if let Some(j) = &mut journal {
        let _span = tensorlib_obs::span("sim.journal.decode");
        // Each payload is dropped as soon as it is decoded, so the text and
        // the decoded chunks are never all held at once.
        for (idx, payload) in j.take_entries() {
            let mut chunk =
                serde_json::from_str(&payload).map_err(|e| JournalError::Decode(e.to_string()))?;
            check(idx as usize, &mut chunk)?;
            slots[idx as usize] = Some(chunk);
            stats.chunks_replayed += 1;
        }
    }
    let mut telemetry = match (&opts.dir, telemetry) {
        (Some(dir), Some(spec)) if !opts.telemetry_off => {
            Telemetry::begin(dir, spec, config_hash, total_chunks, &slots)
        }
        _ => None,
    };
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        if opts.interrupted() {
            stats.interrupted = true;
            break;
        }
        let chunk_started = Instant::now();
        let chunk = exec(i);
        if let Some(j) = &mut journal {
            let payload = serde_json::to_string(&chunk).expect("chunk serializes");
            j.append(i as u32, &payload)?;
        }
        if let Some(t) = &mut telemetry {
            t.chunk_completed(i, &chunk, chunk_started.elapsed());
        }
        *slot = Some(chunk);
        stats.chunks_executed += 1;
    }
    if let Some(t) = &mut telemetry {
        t.finish(stats.interrupted);
    }
    Ok((slots, stats))
}

/// Live telemetry state for one journaled campaign run: the open event log
/// plus the running counters behind `status.json`. All writes are
/// best-effort; a telemetry I/O failure never fails the campaign.
struct Telemetry<'a, T> {
    spec: &'a TelemetrySpec<'a, T>,
    dir: PathBuf,
    log: tensorlib_obs::events::EventLog,
    config_hash: String,
    chunks_total: usize,
    chunks_replayed: usize,
    chunks_executed: usize,
    outcomes: BTreeMap<String, u64>,
    started: Instant,
    /// EWMA of executed-chunk wall time in ms (α = 0.3); 0 until the first
    /// chunk completes.
    ewma_chunk_ms: f64,
}

impl<'a, T> Telemetry<'a, T> {
    fn begin(
        dir: &Path,
        spec: &'a TelemetrySpec<'a, T>,
        config_hash: u64,
        chunks_total: usize,
        replayed_slots: &[Option<T>],
    ) -> Option<Telemetry<'a, T>> {
        use tensorlib_obs::events::{Event, EventLog};
        let log = EventLog::open(dir).ok()?;
        let mut outcomes = BTreeMap::new();
        let mut chunks_replayed = 0usize;
        for chunk in replayed_slots.iter().flatten() {
            merge_counts(&mut outcomes, &(spec.count_outcomes)(chunk));
            chunks_replayed += 1;
        }
        let mut t = Telemetry {
            spec,
            dir: dir.to_path_buf(),
            log,
            config_hash: format!("{config_hash:016x}"),
            chunks_total,
            chunks_replayed,
            chunks_executed: 0,
            outcomes,
            started: Instant::now(),
            ewma_chunk_ms: 0.0,
        };
        t.log(
            Event::new("campaign_started")
                .str("kind", spec.kind)
                .str("config_hash", &t.config_hash)
                .u64("total_chunks", chunks_total as u64)
                .u64("chunks_replayed", chunks_replayed as u64)
                .u64("pid", std::process::id() as u64)
                .timing(&[]),
        );
        t.write_status("running");
        Some(t)
    }

    /// Appends one event, best-effort, in a `sim.telemetry.write` span.
    fn log(&mut self, event: tensorlib_obs::events::Event) {
        let _span = tensorlib_obs::span("sim.telemetry.write");
        let _ = self.log.append(event);
    }

    fn chunk_completed(&mut self, index: usize, chunk: &T, wall: Duration) {
        use tensorlib_obs::events::Event;
        let counts = (self.spec.count_outcomes)(chunk);
        merge_counts(&mut self.outcomes, &counts);
        self.chunks_executed += 1;
        let wall_ms = wall.as_secs_f64() * 1e3;
        self.ewma_chunk_ms = if self.chunks_executed == 1 {
            wall_ms
        } else {
            0.3 * wall_ms + 0.7 * self.ewma_chunk_ms
        };
        self.log(
            Event::new("chunk_completed")
                .u64("chunk", index as u64)
                .counts("outcomes", &counts)
                .timing(&[("chunk_wall_ms", wall_ms)]),
        );
        if let Some(&n) = counts.get("degraded").filter(|&&n| n > 0) {
            self.log(
                Event::new("chunk_degraded")
                    .u64("chunk", index as u64)
                    .u64("degraded", n)
                    .timing(&[]),
            );
        }
        if let Some(&n) = counts.get("panicked").filter(|&&n| n > 0) {
            self.log(
                Event::new("panic_retry")
                    .u64("chunk", index as u64)
                    .u64("panicked", n)
                    .timing(&[]),
            );
        }
        self.write_status("running");
    }

    fn finish(&mut self, interrupted: bool) {
        use tensorlib_obs::events::Event;
        let (event, state) = if interrupted {
            ("campaign_interrupted", "interrupted")
        } else {
            ("campaign_finished", "finished")
        };
        let event = Event::new(event)
            .u64(
                "chunks_done",
                (self.chunks_replayed + self.chunks_executed) as u64,
            )
            .u64("total_chunks", self.chunks_total as u64)
            .counts("outcomes", &self.outcomes)
            .timing(&[("elapsed_ms", self.started.elapsed().as_secs_f64() * 1e3)]);
        self.log(event);
        self.write_status(state);
    }

    /// Replaces `status.json`, best-effort, in a `sim.telemetry.write` span.
    fn write_status(&self, state: &str) {
        use tensorlib_obs::events::{
            unix_ms, StatusSnapshot, StatusTiming, TELEMETRY_SCHEMA_VERSION,
        };
        let _span = tensorlib_obs::span("sim.telemetry.write");
        let done = self.chunks_replayed + self.chunks_executed;
        let remaining = self.chunks_total.saturating_sub(done);
        let eta_ms = if state == "running" && self.ewma_chunk_ms > 0.0 {
            (remaining as f64 * self.ewma_chunk_ms) as u64
        } else {
            0
        };
        let snapshot = StatusSnapshot {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            kind: self.spec.kind.to_string(),
            state: state.to_string(),
            pid: std::process::id(),
            config_hash: self.config_hash.clone(),
            chunks_total: self.chunks_total as u64,
            chunks_done: done as u64,
            chunks_replayed: self.chunks_replayed as u64,
            chunks_executed: self.chunks_executed as u64,
            outcomes: self.outcomes.clone(),
            timing: StatusTiming {
                updated_unix_ms: unix_ms(),
                elapsed_ms: self.started.elapsed().as_millis() as u64,
                ewma_chunk_ms: self.ewma_chunk_ms,
                throughput_chunks_per_s: if self.ewma_chunk_ms > 0.0 {
                    1e3 / self.ewma_chunk_ms
                } else {
                    0.0
                },
                eta_ms,
            },
        };
        let _ = snapshot.write(&self.dir);
    }
}

fn merge_counts(into: &mut BTreeMap<String, u64>, from: &BTreeMap<String, u64>) {
    for (k, v) in from {
        *into.entry(k.clone()).or_insert(0) += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_obs::json::Value;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tl_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn journal_round_trips_and_resumes() {
        let dir = tmpdir("roundtrip");
        let hash = config_hash("faults", 4, 3, "cfg");
        {
            let mut j = Journal::open(&dir, hash, 3).unwrap();
            assert!(j.take_entries().is_empty());
            j.append(0, "{\"a\":1}").unwrap();
            j.append(1, "{\"b\":2}").unwrap();
        }
        let mut j = Journal::open(&dir, hash, 3).unwrap();
        let entries = j.take_entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[&0], "{\"a\":1}");
        assert_eq!(entries[&1], "{\"b\":2}");
        assert!(j.take_entries().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_offset() {
        let dir = tmpdir("torn");
        let hash = config_hash("faults", 4, 2, "cfg");
        {
            let mut j = Journal::open(&dir, hash, 2).unwrap();
            j.append(0, "{\"first\":true}").unwrap();
            j.append(1, "{\"second\":true}").unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let full = std::fs::read(&path).unwrap();
        let first_end =
            HEADER_LEN + RECORD_HEADER_LEN + "{\"first\":true}".len();
        // Truncate at every byte offset inside the second record: the first
        // record must always survive, the torn second must always be dropped.
        for cut in first_end..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let entries = Journal::open(&dir, hash, 2).unwrap().take_entries();
            assert_eq!(entries.len(), 1, "cut={cut}");
            assert_eq!(entries[&0], "{\"first\":true}");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                first_end as u64,
                "cut={cut}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checksum_drops_the_tail() {
        let dir = tmpdir("cksum");
        let hash = config_hash("fuzz", 8, 2, "cfg");
        {
            let mut j = Journal::open(&dir, hash, 2).unwrap();
            j.append(0, "payload-zero").unwrap();
            j.append(1, "payload-one").unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let entries = Journal::open(&dir, hash, 2).unwrap().take_entries();
        assert_eq!(entries.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_mismatch_is_loud() {
        let dir = tmpdir("mismatch");
        let hash = config_hash("faults", 4, 3, "cfg-a");
        Journal::open(&dir, hash, 3).unwrap();
        let other = config_hash("faults", 4, 3, "cfg-b");
        let err = Journal::open(&dir, other, 3).unwrap_err();
        assert!(matches!(err, JournalError::ConfigMismatch { .. }));
        assert!(err.to_string().contains("refusing to resume"));
        // Different chunk count with the same hash input is also a mismatch.
        let err = Journal::open(&dir, hash, 4).unwrap_err();
        assert!(matches!(err, JournalError::ConfigMismatch { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_file_is_rejected() {
        let dir = tmpdir("foreign");
        std::fs::write(dir.join(JOURNAL_FILE), b"this is not a journal, sorry!").unwrap();
        let err = Journal::open(&dir, 1, 1).unwrap_err();
        assert_eq!(err, JournalError::BadMagic);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_chunked_replays_and_drains_on_interrupt() {
        let dir = tmpdir("chunked");
        let hash = config_hash("faults", 1, 4, "cfg");
        let flag = Arc::new(AtomicBool::new(false));
        let opts = DurabilityOptions {
            dir: Some(dir.clone()),
            interrupt: Some(flag.clone()),
            ..DurabilityOptions::default()
        };
        // First run: interrupt after chunk 1 executes.
        let flag2 = flag.clone();
        let (slots, stats) = run_chunked_observed(
            &opts,
            hash,
            4,
            None,
            |_, _| Ok(()),
            |i| {
                if i == 1 {
                    flag2.store(true, Ordering::SeqCst);
                }
                format!("chunk-{i}")
            },
        )
        .unwrap();
        assert_eq!(slots[0].as_deref(), Some("chunk-0"));
        assert_eq!(slots[1].as_deref(), Some("chunk-1"));
        assert_eq!(slots[2], None);
        assert!(stats.interrupted);
        assert_eq!(stats.chunks_executed, 2);
        // Resume: chunks 0/1 replay, 2/3 execute, nothing re-runs.
        flag.store(false, Ordering::SeqCst);
        let mut ran = Vec::new();
        let (slots, stats) = run_chunked_observed(
            &opts,
            hash,
            4,
            None,
            |_, _| Ok(()),
            |i| {
                ran.push(i);
                format!("chunk-{i}")
            },
        )
        .unwrap();
        assert_eq!(ran, vec![2, 3]);
        assert_eq!(stats.chunks_replayed, 2);
        assert_eq!(stats.chunks_executed, 2);
        assert!(!stats.interrupted);
        assert!(slots.iter().all(|s| s.is_some()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The test chunks are strings; the journal holds their JSON.
    fn count_marks(chunk: &str) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        counts.insert("done".to_string(), 1);
        if chunk.contains("degraded") {
            counts.insert("degraded".to_string(), 1);
        }
        counts
    }

    fn marks_spec() -> TelemetrySpec<'static, String> {
        TelemetrySpec {
            kind: "faults",
            count_outcomes: &|chunk: &String| count_marks(chunk),
        }
    }

    #[test]
    fn telemetry_writes_events_and_status() {
        use tensorlib_obs::events::{read_events, StatusSnapshot};
        let dir = tmpdir("telemetry");
        let hash = config_hash("faults", 1, 3, "cfg");
        let opts = DurabilityOptions::with_dir(&dir);
        let spec = marks_spec();
        let (slots, stats) = run_chunked_observed(
            &opts,
            hash,
            3,
            Some(&spec),
            |_, _| Ok(()),
            |i| {
                if i == 2 {
                    format!("chunk-{i}-degraded")
                } else {
                    format!("chunk-{i}")
                }
            },
        )
        .unwrap();
        assert!(slots.iter().all(|s| s.is_some()));
        assert!(!stats.interrupted);
        let events = read_events(&dir).unwrap();
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("event").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "campaign_started",
                "chunk_completed",
                "chunk_completed",
                "chunk_completed",
                "chunk_degraded",
                "campaign_finished"
            ]
        );
        // Wall-clock data only under `timing`.
        for e in &events {
            assert!(e.get("timing").is_some());
        }
        let status = StatusSnapshot::read(&dir).unwrap();
        assert_eq!(status.state, "finished");
        assert_eq!(status.kind, "faults");
        assert_eq!(status.config_hash, format!("{hash:016x}"));
        assert_eq!(status.chunks_total, 3);
        assert_eq!(status.chunks_done, 3);
        assert_eq!(status.chunks_executed, 3);
        assert_eq!(status.outcomes["done"], 3);
        assert_eq!(status.outcomes["degraded"], 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_counts_replayed_chunks_on_resume() {
        use tensorlib_obs::events::{read_events, StatusSnapshot};
        let dir = tmpdir("telemetry_resume");
        let hash = config_hash("faults", 1, 4, "cfg");
        let flag = Arc::new(AtomicBool::new(false));
        let opts = DurabilityOptions {
            dir: Some(dir.clone()),
            interrupt: Some(flag.clone()),
            ..DurabilityOptions::default()
        };
        let spec = marks_spec();
        let flag2 = flag.clone();
        let (_, stats) = run_chunked_observed(
            &opts,
            hash,
            4,
            Some(&spec),
            |_, _| Ok(()),
            |i| {
                if i == 1 {
                    flag2.store(true, Ordering::SeqCst);
                }
                format!("chunk-{i}")
            },
        )
        .unwrap();
        assert!(stats.interrupted);
        let status = StatusSnapshot::read(&dir).unwrap();
        assert_eq!(status.state, "interrupted");
        assert_eq!(status.chunks_done, 2);
        // Resume: replayed chunks count into the snapshot via the same
        // outcome counter, so the totals cover the whole campaign.
        flag.store(false, Ordering::SeqCst);
        let (_, stats) = run_chunked_observed(
            &opts,
            hash,
            4,
            Some(&spec),
            |_, _| Ok(()),
            |i| format!("chunk-{i}"),
        )
        .unwrap();
        assert_eq!(stats.chunks_replayed, 2);
        let status = StatusSnapshot::read(&dir).unwrap();
        assert_eq!(status.state, "finished");
        assert_eq!(status.chunks_done, 4);
        assert_eq!(status.chunks_replayed, 2);
        assert_eq!(status.chunks_executed, 2);
        assert_eq!(status.outcomes["done"], 4);
        // events.jsonl is append-only across resumes: both lifecycles are
        // recorded in order.
        let names: Vec<String> = read_events(&dir)
            .unwrap()
            .iter()
            .map(|e| e.get("event").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            [
                "campaign_started",
                "chunk_completed",
                "chunk_completed",
                "campaign_interrupted",
                "campaign_started",
                "chunk_completed",
                "chunk_completed",
                "campaign_finished"
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_off_writes_no_telemetry_files() {
        use tensorlib_obs::events::{EVENTS_FILE, STATUS_FILE};
        let dir = tmpdir("telemetry_off");
        let hash = config_hash("faults", 1, 2, "cfg");
        let opts = DurabilityOptions {
            telemetry_off: true,
            ..DurabilityOptions::with_dir(&dir)
        };
        let spec = marks_spec();
        run_chunked_observed(
            &opts,
            hash,
            2,
            Some(&spec),
            |_, _| Ok(()),
            |i| format!("chunk-{i}"),
        )
        .unwrap();
        assert!(!dir.join(EVENTS_FILE).exists());
        assert!(!dir.join(STATUS_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_chunked_without_dir_still_chunks() {
        let opts = DurabilityOptions::default();
        let (slots, stats) =
            run_chunked_observed(&opts, 0, 3, None, |_, _| Ok(()), |i| i.to_string()).unwrap();
        assert_eq!(slots.len(), 3);
        assert_eq!(stats.chunks_executed, 3);
        assert_eq!(stats.chunks_replayed, 0);
    }

    #[test]
    fn chunk_geometry_is_single_without_journal_or_watchdog() {
        let plain = DurabilityOptions::default();
        assert_eq!(plain.chunk_size_for(100, 16), 100);
        assert_eq!(plain.chunk_size_for(0, 16), 1, "never a zero chunk size");
        // The telemetry knob and the test hooks leave the geometry alone.
        let hooked = DurabilityOptions {
            telemetry_off: true,
            panic_retries: 2,
            chaos_panic_targets: vec!["x".into()],
            interrupt: Some(Arc::new(AtomicBool::new(false))),
            ..DurabilityOptions::default()
        };
        assert_eq!(hooked.chunk_size_for(100, 16), 100);
        // A journal or a watchdog keeps the journaled default.
        assert_eq!(DurabilityOptions::with_dir("/tmp/x").chunk_size_for(100, 16), 16);
        let timed = DurabilityOptions {
            chunk_timeout: Some(Duration::from_secs(1)),
            ..DurabilityOptions::default()
        };
        assert_eq!(timed.chunk_size_for(100, 16), 16);
        // An explicit size wins everywhere.
        let explicit = DurabilityOptions {
            chunk_size: Some(3),
            ..DurabilityOptions::with_dir("/tmp/x")
        };
        assert_eq!(explicit.chunk_size_for(100, 16), 3);
        assert_eq!(DurabilityOptions::default().panic_attempts(), 1);
    }

    #[test]
    fn file_handle_is_positioned_at_tail() {
        let dir = tmpdir("tail");
        let hash = config_hash("explore", 2, 2, "cfg");
        let mut j = Journal::open(&dir, hash, 2).unwrap();
        j.append(0, "x").unwrap();
        let len = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        assert_eq!(len as usize, HEADER_LEN + RECORD_HEADER_LEN + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
