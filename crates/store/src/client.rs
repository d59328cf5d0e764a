//! The timed COS client: every operation charges virtual time and may fail.
//!
//! A [`CosClient`] is what simulated actors (the IBM-PyWren client on a
//! laptop, or a function executor inside the cloud) use to reach the object
//! store. Each request is charged one network round trip plus payload
//! transfer time plus a per-operation service latency, and can fail
//! deterministically according to the path's
//! [`NetworkProfile::failure_rate`]; failed requests are retried with
//! exponential backoff like the real COS SDKs.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rustwren_sim::chaos::ChaosEngine;
use rustwren_sim::hash::{hash2, StrHasher};
use rustwren_sim::{drive_lanes, step_serial, try_drive_lanes, NetworkProfile, Step};

use crate::error::StoreError;
use crate::object::{BucketMeta, ObjectMeta};
use crate::store::ObjectStore;

/// A COS request identity assembled from parts. Displays as the classic
/// `"VERB bucket/key…"` form, and hashes to exactly
/// `hash_str(&format!(...))` of that form **without** building the string
/// — one `String` per request on the old hot path, now only materialized
/// on the cold paths that show it to a human (chaos fault logs, terminal
/// network errors).
#[derive(Clone, Copy)]
struct CosOp<'a> {
    verb: &'static str,
    bucket: &'a str,
    /// The object key (or LIST prefix); `None` for bucket-level ops.
    key: Option<&'a str>,
    suffix: OpSuffix,
}

#[derive(Clone, Copy)]
enum OpSuffix {
    None,
    /// A fixed tail like `" complete"` or the LIST wildcard `"*"`.
    Const(&'static str),
    /// `"[{start}..{end}]"` — a range GET.
    Range(u64, u64),
    /// `" part {lane}.{index}"` — one multipart-upload part, named by its
    /// place in a round-robin deal of the upload's parts over its lanes.
    Part(usize, usize),
}

impl<'a> CosOp<'a> {
    fn new(verb: &'static str, bucket: &'a str, key: Option<&'a str>) -> CosOp<'a> {
        CosOp {
            verb,
            bucket,
            key,
            suffix: OpSuffix::None,
        }
    }

    fn with_suffix(mut self, suffix: OpSuffix) -> CosOp<'a> {
        self.suffix = suffix;
        self
    }

    /// `hash_str` of the display form, folded incrementally over the
    /// parts (the `Display` impl drives a [`StrHasher`], which cannot
    /// fail, so the discarded `fmt::Result` is always `Ok`).
    fn path_hash(&self) -> u64 {
        use fmt::Write as _;
        let mut h = StrHasher::new();
        let _ = write!(h, "{self}");
        h.finish()
    }
}

impl fmt::Display for CosOp<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.verb, self.bucket)?;
        if let Some(key) = self.key {
            write!(f, "/{key}")?;
        }
        match self.suffix {
            OpSuffix::None => Ok(()),
            OpSuffix::Const(s) => f.write_str(s),
            OpSuffix::Range(start, end) => write!(f, "[{start}..{end}]"),
            OpSuffix::Part(lane, i) => write!(f, " part {lane}.{i}"),
        }
    }
}

/// Requests one client keeps in flight at a time — the COS SDKs' default
/// transfer concurrency: the lanes of a
/// [`put_multipart`](CosClient::put_multipart), and of the agents'
/// [`get_many`](CosClient::get_many) batches.
pub const SDK_LANES: usize = 16;

/// The retry state of one charged request: issue an attempt, wait out its
/// cost, judge it at its completion instant, back off, reissue.
/// [`step`](Charge::step) never sleeps — it tells the driver how long to
/// wait before stepping again — so the serial ops (which sleep in place)
/// and the batched ones (which [`drive_lanes`] sleeps until the earliest
/// of their lanes) apply exactly the same rules.
struct Charge<'a> {
    op: CosOp<'a>,
    bucket: &'a str,
    key: &'a str,
    payload: u64,
    service: Duration,
    chaos: Option<Arc<ChaosEngine>>,
    /// The display form, materialized only when a chaos engine's fault
    /// log could show it.
    op_str: Option<String>,
    path: u64,
    attempt: u32,
    /// The in-flight attempt's token; `None` between attempts.
    in_flight: Option<u64>,
}

impl<'a> Charge<'a> {
    fn new(
        op: CosOp<'a>,
        bucket: &'a str,
        key: &'a str,
        payload: u64,
        service: Duration,
    ) -> Charge<'a> {
        let chaos = rustwren_sim::chaos::current();
        // The display form is only observable through an installed chaos
        // engine's fault log or the terminal network error; the common
        // path hashes the parts without materializing the string.
        let op_str = chaos.as_ref().map(|_| op.to_string());
        Charge {
            op,
            bucket,
            key,
            payload,
            service,
            chaos,
            op_str,
            path: op.path_hash(),
            attempt: 0,
            in_flight: None,
        }
    }

    /// Finishes with the successful attempt's token, or the terminal
    /// network error.
    fn step(&mut self, client: &CosClient) -> Step<Result<u64, StoreError>> {
        let Some(token) = self.in_flight.take() else {
            self.attempt += 1;
            // Stateless token: (seed, path, issue instant). Attempts are
            // separated by non-zero service/backoff waits, so each retry
            // draws fresh; no shared counter means OS thread interleaving
            // can never leak into the timing or fault stream.
            let token = hash2(
                client.seed,
                hash2(self.path, rustwren_sim::now().as_nanos()),
            );
            self.in_flight = Some(token);
            return Step::Wait(client.net.request_cost(self.payload, token) + self.service);
        };
        // Judged at the completion instant: an outage window that opens
        // while the attempt is in flight fails it.
        let injected = match (self.chaos.as_deref(), self.op_str.as_deref()) {
            (Some(c), Some(s)) => c.cos_attempt_fails(s, self.bucket, self.key, token),
            _ => false,
        };
        if !injected && !client.net.fails(token) {
            return Step::Done(Ok(token));
        }
        if self.attempt >= client.max_attempts {
            return Step::Done(Err(StoreError::Network {
                op: self.op_str.take().unwrap_or_else(|| self.op.to_string()),
                attempts: self.attempt,
            }));
        }
        // Exponential backoff, as in the COS SDKs.
        Step::Wait(Duration::from_millis(50) * 2u32.pow(self.attempt - 1))
    }
}

/// One PUT: tallied when issued, stored when its charge lands.
struct Put<'a> {
    charge: Charge<'a>,
    data: Bytes,
}

impl Put<'_> {
    fn step(&mut self, client: &CosClient) -> Step<Result<ObjectMeta, StoreError>> {
        let (bucket, key) = (self.charge.bucket, self.charge.key);
        let data = &self.data;
        self.charge
            .step(client)
            .map(|r| r.and_then(|_| client.store.put(bucket, key, data.clone())))
    }
}

/// One GET: the store is read when it is issued, so a missing key fails
/// at its first step without costing time.
struct Get<'a> {
    charge: Charge<'a>,
    data: Result<Bytes, StoreError>,
}

impl Get<'_> {
    fn step(&mut self, client: &CosClient) -> Step<Result<Bytes, StoreError>> {
        let data = match &self.data {
            Ok(data) => data,
            Err(e) => return Step::Done(Err(e.clone())),
        };
        let (bucket, key) = (self.charge.bucket, self.charge.key);
        self.charge
            .step(client)
            .map(|r| r.map(|token| client.maybe_corrupt(bucket, key, token, data.clone())))
    }
}

/// One read in a [`CosClient::get_many`] batch: a whole object, or the
/// byte range `[start, end)` of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetReq<'a> {
    /// The bucket to read from.
    pub bucket: &'a str,
    /// The object key.
    pub key: &'a str,
    /// `Some((start, end))` for a range GET.
    pub range: Option<(u64, u64)>,
}

impl<'a> GetReq<'a> {
    /// A whole-object GET.
    pub fn whole(bucket: &'a str, key: &'a str) -> GetReq<'a> {
        GetReq {
            bucket,
            key,
            range: None,
        }
    }

    /// A GET of the byte range `[start, end)`.
    pub fn range(bucket: &'a str, key: &'a str, start: u64, end: u64) -> GetReq<'a> {
        GetReq {
            bucket,
            key,
            range: Some((start, end)),
        }
    }

    fn op(&self) -> CosOp<'a> {
        let op = CosOp::new("GET", self.bucket, Some(self.key));
        match self.range {
            Some((start, end)) => op.with_suffix(OpSuffix::Range(start, end)),
            None => op,
        }
    }
}

/// Live operation counters shared by every clone of a [`CosClient`].
///
/// Each public client operation increments its class counter and the byte
/// tallies once per *logical* operation (retries of a failed attempt do not
/// double-count). Attach a shared set to several clients with
/// [`CosClient::with_counters`] to account a whole phase (staging, polling,
/// agent traffic) in one place, and read it back with
/// [`OpCounters::snapshot`].
#[derive(Debug, Default)]
pub struct OpCounters {
    gets: AtomicU64,
    puts: AtomicU64,
    lists: AtomicU64,
    heads: AtomicU64,
    deletes: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl OpCounters {
    /// A fresh set of zeroed counters behind an [`Arc`], ready to share.
    pub fn shared() -> Arc<OpCounters> {
        Arc::new(OpCounters::default())
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> OpCounts {
        OpCounts {
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            lists: self.lists.load(Ordering::Relaxed),
            heads: self.heads.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }

    fn count(&self, class: &AtomicU64) {
        class.fetch_add(1, Ordering::Relaxed);
    }
}

/// A frozen snapshot of [`OpCounters`], comparable and subtractable so
/// benches and tests can assert per-phase operation budgets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Object-data GETs (full and ranged).
    pub gets: u64,
    /// Object PUTs (multipart uploads count one per part).
    pub puts: u64,
    /// LIST requests.
    pub lists: u64,
    /// HEAD requests (objects, buckets, and `exists` probes).
    pub heads: u64,
    /// DELETE requests.
    pub deletes: u64,
    /// Payload bytes fetched by GETs.
    pub bytes_in: u64,
    /// Payload bytes sent by PUTs.
    pub bytes_out: u64,
}

impl OpCounts {
    /// Total request count across every operation class.
    pub fn total_ops(&self) -> u64 {
        self.gets + self.puts + self.lists + self.heads + self.deletes
    }

    /// Component-wise saturating difference (`self - earlier`), for
    /// measuring the operations a phase issued between two snapshots.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            gets: self.gets.saturating_sub(earlier.gets),
            puts: self.puts.saturating_sub(earlier.puts),
            lists: self.lists.saturating_sub(earlier.lists),
            heads: self.heads.saturating_sub(earlier.heads),
            deletes: self.deletes.saturating_sub(earlier.deletes),
            bytes_in: self.bytes_in.saturating_sub(earlier.bytes_in),
            bytes_out: self.bytes_out.saturating_sub(earlier.bytes_out),
        }
    }
}

/// Per-operation service-side latency, independent of payload size.
///
/// Defaults are in the ballpark of public COS/S3 numbers; they only shift
/// constants, not the shape of the paper's results.
#[derive(Debug, Clone, PartialEq)]
pub struct CosCosts {
    /// Service time for GET/PUT of object data.
    pub data_op: Duration,
    /// Service time for HEAD (object or bucket).
    pub head_op: Duration,
    /// Service time for LIST, per returned batch of 1,000 keys.
    pub list_op: Duration,
    /// Service time for DELETE.
    pub delete_op: Duration,
    /// Approximate bytes of metadata returned per listed key (affects LIST
    /// transfer time).
    pub list_entry_bytes: u64,
}

impl Default for CosCosts {
    fn default() -> CosCosts {
        CosCosts {
            data_op: Duration::from_millis(9),
            head_op: Duration::from_millis(5),
            list_op: Duration::from_millis(14),
            delete_op: Duration::from_millis(6),
            list_entry_bytes: 200,
        }
    }
}

/// A virtual-time client for the simulated object store.
///
/// Cheap to clone. Each request's jitter/failure token is a pure function of
/// the client seed, the request path and the virtual instant it is issued —
/// never of a shared mutable sequence — so concurrent clones (parallel
/// upload/fetch lanes) cannot perturb each other's draws and a run's full
/// request timeline replays exactly from the same seed.
///
/// # Examples
///
/// ```
/// use rustwren_sim::{Kernel, NetworkProfile};
/// use rustwren_store::{CosClient, ObjectStore};
/// use bytes::Bytes;
///
/// let kernel = Kernel::new();
/// let store = ObjectStore::new(&kernel);
/// store.create_bucket("data").unwrap();
/// let client = CosClient::new(&store, NetworkProfile::lan(), 42);
/// kernel.run("client", || {
///     client.put("data", "k", Bytes::from_static(b"v"))?;
///     assert_eq!(client.get("data", "k")?.as_ref(), b"v");
///     assert!(rustwren_sim::now().as_nanos() > 0); // ops took virtual time
///     Ok::<(), rustwren_store::StoreError>(())
/// }).unwrap();
/// ```
#[derive(Clone)]
pub struct CosClient {
    store: ObjectStore,
    net: NetworkProfile,
    costs: CosCosts,
    seed: u64,
    max_attempts: u32,
    counters: Arc<OpCounters>,
}

impl fmt::Debug for CosClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CosClient")
            .field("net", &self.net)
            .field("max_attempts", &self.max_attempts)
            .finish()
    }
}

impl CosClient {
    /// Creates a client reaching `store` over `net`. `seed` individualizes
    /// this client's jitter/failure stream.
    ///
    /// # Panics
    ///
    /// Panics if `net` fails [`NetworkProfile::validate`] (NaN or
    /// out-of-range failure rate, zero bandwidth).
    pub fn new(store: &ObjectStore, net: NetworkProfile, seed: u64) -> CosClient {
        if let Err(e) = net.validate() {
            // lint: allow(L009) — constructor contract (documented # Panics);
            // agents only receive profiles the platform already validated
            panic!("CosClient::new: invalid network profile: {e}");
        }
        CosClient {
            store: store.clone(),
            net,
            costs: CosCosts::default(),
            seed,
            max_attempts: 4,
            counters: OpCounters::shared(),
        }
    }

    /// Replaces the per-operation service costs.
    pub fn with_costs(mut self, costs: CosCosts) -> CosClient {
        self.costs = costs;
        self
    }

    /// Sets how many attempts each operation makes before reporting
    /// [`StoreError::Network`].
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero.
    pub fn with_max_attempts(mut self, attempts: u32) -> CosClient {
        assert!(attempts > 0, "max_attempts must be at least 1");
        self.max_attempts = attempts;
        self
    }

    /// Shares `counters` with this client: every operation it (and its
    /// future clones) issues is tallied there. Lets several clients —
    /// e.g. all the upload lanes of one staging phase — account into a
    /// single per-phase set.
    pub fn with_counters(mut self, counters: Arc<OpCounters>) -> CosClient {
        self.counters = counters;
        self
    }

    /// The operation counters this client tallies into.
    pub fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }

    /// The underlying raw store (zero-cost access, for assertions in tests).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The network profile this client charges.
    pub fn network(&self) -> &NetworkProfile {
        &self.net
    }

    /// Charges one operation against the network and any installed chaos
    /// engine, sleeping through every attempt and backoff in place; `op`
    /// is the request identity whose display form appears in errors and
    /// fault logs, while `bucket`/`key` let scoped faults (outages,
    /// brownouts) match the request. Returns the token of the successful
    /// attempt so callers can derive further deterministic draws (e.g.
    /// GET corruption) without consuming extra sequence numbers.
    fn charge(
        &self,
        op: CosOp<'_>,
        bucket: &str,
        key: &str,
        payload: u64,
        service: Duration,
    ) -> Result<u64, StoreError> {
        let mut charge = Charge::new(op, bucket, key, payload, service);
        step_serial(|| charge.step(self))
    }

    /// Applies any scheduled GET corruption to a response body. The draw is
    /// derived from the successful request's token, so installing a chaos
    /// engine never perturbs the client's token sequence (timings stay
    /// comparable with fault-free runs).
    fn maybe_corrupt(&self, bucket: &str, key: &str, token: u64, data: Bytes) -> Bytes {
        match rustwren_sim::chaos::current()
            .and_then(|c| c.corrupt_get(bucket, key, hash2(token, 0xC0DE), &data))
        {
            Some(mangled) => Bytes::from(mangled),
            None => data,
        }
    }

    /// `PUT` an object.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn put(&self, bucket: &str, key: &str, data: Bytes) -> Result<ObjectMeta, StoreError> {
        let mut put = self.issue_put(bucket, key, data);
        step_serial(|| put.step(self))
    }

    /// `PUT`s each object into `bucket` as [`put`](Self::put) would, over
    /// `lanes` connections from the calling simulated thread (see
    /// [`try_drive_lanes`]); returns the metadata in request order.
    ///
    /// # Errors
    ///
    /// The lowest-indexed failure; nothing more is sent after a failure.
    pub fn put_many(
        &self,
        bucket: &str,
        objects: &[(String, Bytes)],
        lanes: usize,
    ) -> Result<Vec<ObjectMeta>, StoreError> {
        let puts = objects
            .iter()
            .map(|(key, data)| self.issue_put(bucket, key, data.clone()));
        try_drive_lanes(puts, lanes, |put| put.step(self))
    }

    fn issue_put<'a>(&self, bucket: &'a str, key: &'a str, data: Bytes) -> Put<'a> {
        self.counters.count(&self.counters.puts);
        self.counters
            .bytes_out
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Put {
            charge: Charge::new(
                CosOp::new("PUT", bucket, Some(key)),
                bucket,
                key,
                data.len() as u64,
                self.costs.data_op,
            ),
            data,
        }
    }

    /// `PUT` an object using a multipart upload: parts of `part_size` bytes
    /// transfer **concurrently**, at most [`SDK_LANES`] in flight like the
    /// SDK defaults, so the virtual cost approaches
    /// `size / (lanes × bandwidth)` plus one completion round trip — how
    /// the real COS SDKs move large payloads. Falls back to a plain
    /// [`put`](CosClient::put) for small objects.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] for the
    /// lowest-numbered part that exhausts its retries.
    ///
    /// # Panics
    ///
    /// Panics if `part_size` is zero.
    pub fn put_multipart(
        &self,
        bucket: &str,
        key: &str,
        data: Bytes,
        part_size: usize,
    ) -> Result<ObjectMeta, StoreError> {
        assert!(part_size > 0, "part_size must be non-zero");
        if data.len() <= part_size {
            return self.put(bucket, key, data);
        }
        let part_count = data.len().div_ceil(part_size);
        let lanes = part_count.min(SDK_LANES);
        let parts = (0..part_count).map(|n| {
            let len = (data.len() - n * part_size).min(part_size) as u64;
            self.counters.count(&self.counters.puts);
            self.counters.bytes_out.fetch_add(len, Ordering::Relaxed);
            Charge::new(
                CosOp::new("PUT", bucket, Some(key))
                    .with_suffix(OpSuffix::Part(n % lanes, n / lanes)),
                bucket,
                key,
                len,
                self.costs.data_op,
            )
        });
        try_drive_lanes(parts, lanes, |part| part.step(self))?;
        // Complete-multipart-upload request.
        self.charge(
            CosOp::new("POST", bucket, Some(key)).with_suffix(OpSuffix::Const(" complete")),
            bucket,
            key,
            512,
            self.costs.head_op,
        )?;
        self.store.put(bucket, key, data)
    }

    /// `GET` an entire object.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn get(&self, bucket: &str, key: &str) -> Result<Bytes, StoreError> {
        self.get_one(GetReq::whole(bucket, key))
    }

    /// `GET` a byte range `[start, end)` of an object.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn get_range(
        &self,
        bucket: &str,
        key: &str,
        start: u64,
        end: u64,
    ) -> Result<Bytes, StoreError> {
        self.get_one(GetReq::range(bucket, key, start, end))
    }

    fn get_one(&self, req: GetReq<'_>) -> Result<Bytes, StoreError> {
        let mut get = self.issue_get(&req);
        step_serial(|| get.step(self))
    }

    /// Issues a GET: reads the store (tallying one GET per request that
    /// gets as far as the network) and charges on the payload size, a
    /// HEAD-sized request out and the payload back.
    fn issue_get<'a>(&self, req: &GetReq<'a>) -> Get<'a> {
        let data = match req.range {
            Some((start, end)) => self.store.get_range(req.bucket, req.key, start, end),
            None => self.store.get(req.bucket, req.key),
        };
        let len = data.as_ref().map_or(0, Bytes::len) as u64;
        if data.is_ok() {
            self.counters.count(&self.counters.gets);
            self.counters.bytes_in.fetch_add(len, Ordering::Relaxed);
        }
        Get {
            charge: Charge::new(req.op(), req.bucket, req.key, len, self.costs.data_op),
            data,
        }
    }

    /// Issues a batch of GETs over `lanes` concurrent connections from the
    /// calling simulated thread (see [`drive_lanes`]). Results come back in
    /// request order, one per request.
    ///
    /// Every request follows exactly the rules of a serial
    /// [`get`](CosClient::get): the store is read when the request is
    /// issued (a missing key fails that entry at once and costs no time),
    /// each attempt's token comes from the path and its issue instant,
    /// chaos faults and network loss are judged at the attempt's
    /// completion instant, failed attempts back off and retry, and the
    /// counters tally one GET per request that reached the network. With
    /// one lane the batch is indistinguishable from serial GETs; with `K`
    /// lanes `n` fault-free requests take about `ceil(n/K)` round trips.
    /// A `lanes` of zero is treated as one.
    pub fn get_many(&self, reqs: &[GetReq<'_>], lanes: usize) -> Vec<Result<Bytes, StoreError>> {
        drive_lanes(reqs.iter().map(|req| self.issue_get(req)), lanes, |get| {
            get.step(self)
        })
    }

    /// `HEAD` an object.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn head(&self, bucket: &str, key: &str) -> Result<ObjectMeta, StoreError> {
        self.counters.count(&self.counters.heads);
        self.charge(
            CosOp::new("HEAD", bucket, Some(key)),
            bucket,
            key,
            256,
            self.costs.head_op,
        )?;
        self.store.head(bucket, key)
    }

    /// `HEAD` a bucket.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn head_bucket(&self, bucket: &str) -> Result<BucketMeta, StoreError> {
        self.counters.count(&self.counters.heads);
        self.charge(
            CosOp::new("HEAD", bucket, None),
            bucket,
            "",
            256,
            self.costs.head_op,
        )?;
        self.store.head_bucket(bucket)
    }

    /// `LIST` objects under a prefix.
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<ObjectMeta>, StoreError> {
        self.counters.count(&self.counters.lists);
        let entries = self.store.list(bucket, prefix)?;
        let batches = (entries.len() as u64).div_ceil(1_000).max(1) as u32;
        self.charge(
            CosOp::new("LIST", bucket, Some(prefix)).with_suffix(OpSuffix::Const("*")),
            bucket,
            prefix,
            entries.len() as u64 * self.costs.list_entry_bytes,
            self.costs.list_op * batches,
        )?;
        Ok(entries)
    }

    /// `DELETE` an object (idempotent).
    ///
    /// # Errors
    ///
    /// Store errors from the service, or [`StoreError::Network`] after
    /// exhausting retries.
    pub fn delete(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        self.counters.count(&self.counters.deletes);
        self.charge(
            CosOp::new("DELETE", bucket, Some(key)),
            bucket,
            key,
            64,
            self.costs.delete_op,
        )?;
        self.store.delete(bucket, key)
    }

    /// Whether an object exists, charged as a `HEAD`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Network`] after exhausting retries.
    pub fn exists(&self, bucket: &str, key: &str) -> Result<bool, StoreError> {
        self.counters.count(&self.counters.heads);
        self.charge(
            CosOp::new("HEAD", bucket, Some(key)),
            bucket,
            key,
            256,
            self.costs.head_op,
        )?;
        Ok(self.store.exists(bucket, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustwren_sim::{Kernel, SimInstant};
    use std::sync::Arc;

    /// Token-stream parity: the zero-alloc op identity must hash exactly
    /// like the `format!`ed strings the client used to build, or every
    /// recorded timing/fault stream would silently shift.
    #[test]
    fn cos_op_hashes_like_the_formatted_string() {
        use rustwren_sim::hash::hash_str;
        let cases: [(CosOp<'_>, String); 6] = [
            (
                CosOp::new("PUT", "b", Some("k")),
                format!("PUT {}/{}", "b", "k"),
            ),
            (CosOp::new("HEAD", "b", None), format!("HEAD {}", "b")),
            (
                CosOp::new("GET", "b", Some("k")).with_suffix(OpSuffix::Range(0, 65_536)),
                format!("GET {}/{}[{}..{}]", "b", "k", 0, 65_536),
            ),
            (
                CosOp::new("LIST", "b", Some("pre/")).with_suffix(OpSuffix::Const("*")),
                format!("LIST {}/{}*", "b", "pre/"),
            ),
            (
                CosOp::new("PUT", "b", Some("k")).with_suffix(OpSuffix::Part(3, 7)),
                format!("PUT {}/{} part {}.{}", "b", "k", 3, 7),
            ),
            (
                CosOp::new("POST", "b", Some("k")).with_suffix(OpSuffix::Const(" complete")),
                format!("POST {}/{} complete", "b", "k"),
            ),
        ];
        for (op, wanted) in cases {
            assert_eq!(op.to_string(), wanted);
            assert_eq!(op.path_hash(), hash_str(&wanted), "op {wanted}");
        }
    }

    fn setup(net: NetworkProfile) -> (Kernel, CosClient) {
        let kernel = Kernel::new();
        let store = ObjectStore::new(&kernel);
        store.create_bucket("b").expect("fresh bucket");
        (kernel.clone(), CosClient::new(&store, net, 1))
    }

    #[test]
    fn operations_charge_virtual_time() {
        let (kernel, client) = setup(NetworkProfile::lan());
        kernel.run("client", || {
            client.put("b", "k", Bytes::from_static(b"data")).unwrap();
            assert!(rustwren_sim::now().as_nanos() > 0);
        });
    }

    #[test]
    fn larger_payloads_cost_more() {
        let (kernel, client) = setup(NetworkProfile::wan());
        let (small, big) = kernel.run("client", || {
            let t0 = rustwren_sim::now();
            client
                .put("b", "small", Bytes::from(vec![0u8; 10]))
                .unwrap();
            let t1 = rustwren_sim::now();
            client
                .put("b", "big", Bytes::from(vec![0u8; 50 * 1024 * 1024]))
                .unwrap();
            let t2 = rustwren_sim::now();
            (t1 - t0, t2 - t1)
        });
        assert!(big > small * 2, "big={big:?} small={small:?}");
    }

    #[test]
    fn instant_network_still_pays_service_latency() {
        let (kernel, client) = setup(NetworkProfile::instant());
        kernel.run("client", || {
            client.put("b", "k", Bytes::from_static(b"v")).unwrap();
            let elapsed = rustwren_sim::now();
            assert_eq!(
                elapsed.as_nanos(),
                CosCosts::default().data_op.as_nanos() as u64
            );
        });
    }

    #[test]
    fn failures_are_retried_transparently() {
        let (kernel, client) = setup(NetworkProfile::lan().with_failure_rate(0.3));
        kernel.run("client", || {
            // With p=0.3 and 4 attempts, each op exhausts its retries with
            // probability 0.3^4 ≈ 0.8%; nearly all of the 200 ops succeed
            // even though ~30% of individual requests fail.
            let failures = (0..200)
                .filter(|i| {
                    client
                        .put("b", &format!("k{i}"), Bytes::from_static(b"v"))
                        .is_err()
                })
                .count();
            assert!(failures <= 5, "too many retry exhaustions: {failures}");
        });
    }

    #[test]
    fn certain_failure_reports_network_error_with_attempts() {
        let (kernel, client) = setup(NetworkProfile::lan().with_failure_rate(1.0));
        let client = client.with_max_attempts(3);
        kernel.run("client", || {
            let err = client.get("b", "k").unwrap_err();
            // NoSuchKey surfaces before network charging; use an existing key.
            assert!(matches!(err, StoreError::NoSuchKey { .. }));
            client
                .store()
                .put("b", "k", Bytes::from_static(b"v"))
                .unwrap();
            let err = client.get("b", "k").unwrap_err();
            assert_eq!(
                err,
                StoreError::Network {
                    op: "GET b/k".into(),
                    attempts: 3
                }
            );
        });
    }

    #[test]
    fn multipart_upload_is_faster_than_single_put() {
        let (kernel, client) = setup(NetworkProfile::wan());
        let data = Bytes::from(vec![0u8; 64 * 1024 * 1024]);
        let (single, multi) = kernel.run("client", || {
            let t0 = rustwren_sim::now();
            client.put("b", "single", data.clone()).unwrap();
            let t1 = rustwren_sim::now();
            client
                .put_multipart("b", "multi", data.clone(), 8 * 1024 * 1024)
                .unwrap();
            let t2 = rustwren_sim::now();
            (t1 - t0, t2 - t1)
        });
        assert!(
            multi < single / 3,
            "8 parallel parts should be much faster: single={single:?} multi={multi:?}"
        );
        assert_eq!(
            client.store().head("b", "multi").unwrap().size,
            data.len() as u64
        );
    }

    #[test]
    fn multipart_parts_run_in_waves_of_sdk_lanes() {
        // 40 one-byte parts over 16 lanes: three waves of service time,
        // then the completion, on an instant network.
        let (kernel, client) = setup(NetworkProfile::instant());
        let data = Bytes::from((0..40u8).collect::<Vec<_>>());
        kernel
            .run("client", || client.put_multipart("b", "k", data.clone(), 1))
            .unwrap();
        let costs = CosCosts::default();
        assert_eq!(
            kernel.now().duration_since(SimInstant::ZERO),
            costs.data_op * 3 + costs.head_op
        );
        let ops = client.counters().snapshot();
        assert_eq!((ops.puts, ops.bytes_out), (40, 40));
        assert_eq!(client.store().get("b", "k").unwrap(), data);
    }

    #[test]
    fn multipart_retries_lost_parts_and_stops_at_an_exhausted_one() {
        let data = Bytes::from((0..40u8).collect::<Vec<_>>());
        let upload = |net: NetworkProfile, attempts: u32| {
            let (kernel, client) = setup(net);
            let client = client.with_max_attempts(attempts);
            let got = kernel.run("client", || client.put_multipart("b", "k", data.clone(), 1));
            let elapsed = kernel.now().duration_since(SimInstant::ZERO);
            (got, elapsed, client.counters().snapshot().puts, client)
        };
        // Lost attempts are retried on their lanes: the upload lands late,
        // with one PUT counted per part, not per attempt.
        let (got, clean, ..) = upload(NetworkProfile::wan().with_failure_rate(0.0), 8);
        assert!(got.is_ok());
        let (got, lossy, puts, client) = upload(NetworkProfile::wan().with_failure_rate(0.3), 8);
        assert_eq!(got.map(|meta| meta.size), Ok(40));
        assert!(lossy > clean, "a lost part was retried: {lossy:?}");
        assert_eq!(puts, 40);
        assert_eq!(client.store().get("b", "k").unwrap(), data);
        // Every attempt lost: the first wave of 16 parts exhausts its
        // retries together, the other 24 parts are never sent, and the
        // lowest-numbered part's error is returned.
        let (got, elapsed, puts, client) =
            upload(NetworkProfile::instant().with_failure_rate(1.0), 2);
        assert_eq!(
            got,
            Err(StoreError::Network {
                op: "PUT b/k part 0.0".into(),
                attempts: 2
            })
        );
        assert_eq!(puts, 16);
        assert!(client.store().head("b", "k").is_err());
        let (kernel, one) = setup(NetworkProfile::instant().with_failure_rate(1.0));
        let one = one.with_max_attempts(2);
        kernel
            .run("client", || one.put("b", "k", Bytes::from_static(b"x")))
            .unwrap_err();
        assert_eq!(kernel.now().duration_since(SimInstant::ZERO), elapsed);
    }

    #[test]
    fn small_multipart_falls_back_to_plain_put() {
        let (kernel, client) = setup(NetworkProfile::lan());
        kernel.run("client", || {
            let meta = client
                .put_multipart("b", "k", Bytes::from_static(b"small"), 1024)
                .unwrap();
            assert_eq!(meta.size, 5);
        });
    }

    #[test]
    #[should_panic(expected = "part_size must be non-zero")]
    fn zero_part_size_panics() {
        let (kernel, client) = setup(NetworkProfile::lan());
        kernel.run("client", || {
            let _ = client.put_multipart("b", "k", Bytes::from(vec![0; 10_000]), 0);
        });
    }

    #[test]
    fn timing_is_deterministic_across_runs() {
        let run = || {
            let (kernel, client) = setup(NetworkProfile::wan());
            kernel.run("client", || {
                for i in 0..50 {
                    client
                        .put("b", &format!("k{i}"), Bytes::from(vec![1u8; 1000]))
                        .unwrap();
                }
                rustwren_sim::now().as_nanos()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chaos_outage_window_fails_scoped_requests() {
        use rustwren_sim::chaos::{ChaosEngine, FaultPlan, PathScope, TimeWindow};

        let (kernel, client) = setup(NetworkProfile::instant());
        kernel.install_chaos(Arc::new(ChaosEngine::new(FaultPlan::new(11).cos_outage(
            PathScope::prefix("jobs/"),
            TimeWindow::between(Duration::from_secs(1), Duration::from_secs(5000)),
        ))));
        kernel.run("client", || {
            // Before the window: everything works.
            client
                .put("b", "jobs/e/j/func", Bytes::from_static(b"v"))
                .unwrap();
            rustwren_sim::sleep(Duration::from_secs(2));
            // Inside the window: scoped keys fail after retries...
            let err = client.get("b", "jobs/e/j/func").unwrap_err();
            assert!(matches!(err, StoreError::Network { .. }), "got {err:?}");
            // ...but out-of-scope keys are untouched.
            client
                .put("b", "raw/part-0", Bytes::from_static(b"v"))
                .unwrap();
        });
    }

    #[test]
    fn chaos_corruption_mangles_response_not_store() {
        use rustwren_sim::chaos::{ChaosEngine, CorruptMode, FaultPlan, PathScope, TimeWindow};

        let (kernel, client) = setup(NetworkProfile::instant());
        kernel.install_chaos(Arc::new(ChaosEngine::new(
            FaultPlan::new(13)
                .corrupt_get(
                    PathScope::any(),
                    TimeWindow::always(),
                    CorruptMode::FlipByte,
                    1.0,
                )
                .once(),
        )));
        kernel.run("client", || {
            let body = Bytes::from(vec![9u8; 64]);
            client.put("b", "k", body.clone()).unwrap();
            let first = client.get("b", "k").unwrap();
            assert_ne!(first, body, "first GET should be corrupted");
            assert_eq!(first.len(), body.len());
            // The stored object is intact; a re-fetch heals.
            let second = client.get("b", "k").unwrap();
            assert_eq!(second, body);
        });
    }

    #[test]
    fn chaos_does_not_perturb_timing_when_not_firing() {
        use rustwren_sim::chaos::{ChaosEngine, FaultPlan, PathScope, TimeWindow};

        let run = |with_chaos: bool| {
            let (kernel, client) = setup(NetworkProfile::wan());
            if with_chaos {
                // A plan whose window never opens: must be timing-invisible.
                kernel.install_chaos(Arc::new(ChaosEngine::new(FaultPlan::new(1).cos_outage(
                    PathScope::any(),
                    TimeWindow::between(Duration::from_secs(9_000), Duration::from_secs(9_001)),
                ))));
            }
            kernel.run("client", || {
                for i in 0..20 {
                    client
                        .put("b", &format!("k{i}"), Bytes::from(vec![1u8; 1000]))
                        .unwrap();
                    let _ = client.get("b", &format!("k{i}")).unwrap();
                }
                rustwren_sim::now().as_nanos()
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "invalid network profile")]
    fn constructor_rejects_invalid_profile() {
        let kernel = Kernel::new();
        let store = ObjectStore::new(&kernel);
        let mut net = NetworkProfile::lan();
        net.failure_rate = f64::NAN;
        let _ = CosClient::new(&store, net, 1);
    }

    #[test]
    fn op_counters_tally_per_class_and_bytes() {
        let (kernel, client) = setup(NetworkProfile::lan());
        let shared = OpCounters::shared();
        let client = client.with_counters(Arc::clone(&shared));
        kernel.run("client", || {
            client.put("b", "k", Bytes::from(vec![0u8; 100])).unwrap();
            let body = client.get("b", "k").unwrap();
            assert_eq!(body.len(), 100);
            client.list("b", "").unwrap();
            client.exists("b", "k").unwrap();
            client.head("b", "k").unwrap();
            client.delete("b", "k").unwrap();
        });
        let counts = shared.snapshot();
        assert_eq!(counts.puts, 1);
        assert_eq!(counts.gets, 1);
        assert_eq!(counts.lists, 1);
        assert_eq!(counts.heads, 2);
        assert_eq!(counts.deletes, 1);
        assert_eq!(counts.bytes_out, 100);
        assert_eq!(counts.bytes_in, 100);
        assert_eq!(counts.total_ops(), 6);
    }

    #[test]
    fn op_counters_are_shared_across_clones_and_diffable() {
        let (kernel, client) = setup(NetworkProfile::lan());
        let clone = client.clone();
        kernel.run("client", || {
            client.put("b", "a", Bytes::from_static(b"1")).unwrap();
            clone.put("b", "c", Bytes::from_static(b"2")).unwrap();
        });
        let all = client.counters().snapshot();
        assert_eq!(all.puts, 2);
        let later = OpCounts {
            puts: 5,
            ..Default::default()
        };
        assert_eq!(later.since(&all).puts, 3);
        // Retries must not double-count logical operations.
        let (kernel, flaky) = setup(NetworkProfile::lan().with_failure_rate(0.5));
        kernel.run("client", || {
            for i in 0..50 {
                let _ = flaky.put("b", &format!("k{i}"), Bytes::from_static(b"v"));
            }
        });
        assert_eq!(flaky.counters().snapshot().puts, 50);
    }

    /// Stores `n` distinct objects of varying size under `k{i}`.
    fn fill(client: &CosClient, n: usize) {
        for i in 0..n {
            client
                .store()
                .put(
                    "b",
                    &format!("k{i}"),
                    Bytes::from(vec![i as u8; 100 + 37 * i]),
                )
                .unwrap();
        }
    }

    #[test]
    fn get_many_with_one_lane_replays_serial_gets_bit_for_bit() {
        use rustwren_sim::chaos::{ChaosEngine, CorruptMode, FaultPlan, PathScope, TimeWindow};

        // Lossy WAN plus a brownout and read corruption: retries, backoffs,
        // injected faults and corruption draws all depend on each
        // attempt's token, so equal bodies, clocks and fault logs mean
        // equal tokens. A missing key and a range read ride along.
        let keys: Vec<String> = (0..12)
            .map(|i| {
                if i == 5 {
                    "missing".into()
                } else {
                    format!("k{i}")
                }
            })
            .collect();
        let run = |batched: bool| {
            let (kernel, client) = setup(NetworkProfile::wan().with_failure_rate(0.2));
            fill(&client, 12);
            let chaos = Arc::new(ChaosEngine::new(
                FaultPlan::new(5)
                    .cos_brownout(
                        PathScope::any(),
                        TimeWindow::between(Duration::from_millis(300), Duration::from_secs(2)),
                        0.5,
                    )
                    .corrupt_get(
                        PathScope::any(),
                        TimeWindow::always(),
                        CorruptMode::FlipByte,
                        0.3,
                    ),
            ));
            kernel.install_chaos(Arc::clone(&chaos));
            let mut reqs: Vec<GetReq<'_>> = keys.iter().map(|k| GetReq::whole("b", k)).collect();
            reqs.push(GetReq::range("b", "k3", 10, 90));
            let results = kernel.run("client", || {
                if batched {
                    client.get_many(&reqs, 1)
                } else {
                    reqs.iter()
                        .map(|r| match r.range {
                            Some((start, end)) => client.get_range(r.bucket, r.key, start, end),
                            None => client.get(r.bucket, r.key),
                        })
                        .collect()
                }
            });
            (
                results,
                kernel.now(),
                client.counters().snapshot(),
                chaos.fault_log(),
            )
        };
        let serial = run(false);
        let batched = run(true);
        assert!(serial.0.iter().any(Result::is_err), "some entries failed");
        assert!(!serial.3.is_empty(), "the chaos plan fired");
        assert_eq!(batched, serial);
    }

    #[test]
    fn put_many_with_one_lane_replays_serial_puts_bit_for_bit() {
        use rustwren_sim::chaos::{ChaosEngine, FaultPlan, PathScope, TimeWindow};

        // Lossy WAN plus a brownout: retries, backoffs and injected faults
        // all depend on each attempt's token, so equal metadata (stamped at
        // each PUT's completion instant), clocks and fault logs mean equal
        // tokens.
        let objects: Vec<(String, Bytes)> = (0..12)
            .map(|i| (format!("k{i}"), Bytes::from(vec![i as u8; 100 + 37 * i])))
            .collect();
        let run = |batched: bool| {
            let (kernel, client) = setup(NetworkProfile::wan().with_failure_rate(0.2));
            let chaos = Arc::new(ChaosEngine::new(FaultPlan::new(5).cos_brownout(
                PathScope::any(),
                TimeWindow::between(Duration::from_millis(300), Duration::from_secs(2)),
                0.5,
            )));
            kernel.install_chaos(Arc::clone(&chaos));
            let results = kernel.run("client", || {
                if batched {
                    client.put_many("b", &objects, 1)
                } else {
                    objects
                        .iter()
                        .map(|(k, d)| client.put("b", k, d.clone()))
                        .collect()
                }
            });
            (
                results,
                kernel.now(),
                client.counters().snapshot(),
                chaos.fault_log(),
            )
        };
        let serial = run(false);
        let batched = run(true);
        assert!(!serial.3.is_empty(), "the chaos plan fired");
        assert_eq!(batched, serial);
    }

    #[test]
    fn put_many_counts_one_put_per_request_and_obeys_the_lane_floor() {
        let n = 37;
        let objects: Vec<(String, Bytes)> = (0..n)
            .map(|i| (format!("k{i}"), Bytes::from(vec![i as u8; 10 + i])))
            .collect();
        let data_op = CosCosts::default().data_op;
        for k in [1, 4, 64] {
            // Service time alone is the whole cost on an instant network.
            let (kernel, client) = setup(NetworkProfile::instant());
            let got = kernel.run("client", || client.put_many("b", &objects, k));
            assert_eq!(got.map(|metas| metas.len()), Ok(n));
            let ops = client.counters().snapshot();
            assert_eq!((ops.puts, ops.total_ops()), (n as u64, n as u64));
            assert_eq!(
                ops.bytes_out,
                objects.iter().map(|(_, d)| d.len() as u64).sum::<u64>()
            );
            assert_eq!(
                kernel.now().duration_since(SimInstant::ZERO),
                data_op * n.div_ceil(k) as u32,
                "k={k}"
            );
            for (key, data) in &objects {
                assert_eq!(&client.store().get("b", key).unwrap(), data);
            }
        }
    }

    #[test]
    fn get_many_makespan_obeys_the_lane_bounds() {
        let n = 37;
        let keys: Vec<String> = (0..n).map(|i| format!("k{i}")).collect();
        let reqs: Vec<GetReq<'_>> = keys.iter().map(|k| GetReq::whole("b", k)).collect();
        let makespan = |net: NetworkProfile, lanes: Option<usize>| {
            let (kernel, client) = setup(net);
            fill(&client, n);
            let got = kernel.run("client", || match lanes {
                Some(k) => client.get_many(&reqs, k),
                None => reqs.iter().map(|r| client.get(r.bucket, r.key)).collect(),
            });
            assert!(got.iter().all(Result::is_ok));
            assert_eq!(client.counters().snapshot().gets, n as u64);
            kernel.now().duration_since(SimInstant::ZERO)
        };
        let data_op = CosCosts::default().data_op;
        let datacenter = NetworkProfile::datacenter().with_failure_rate(0.0);
        let serial = makespan(datacenter.clone(), None);
        for k in [1, 2, 3, 16, 64] {
            let floor = data_op * n.div_ceil(k) as u32;
            // Service time alone is the whole cost on an instant network.
            assert_eq!(makespan(NetworkProfile::instant(), Some(k)), floor, "k={k}");
            let got = makespan(datacenter.clone(), Some(k));
            assert!(got >= floor, "k={k}: {got:?} below the {floor:?} floor");
            assert!(got <= serial, "k={k}: {got:?} above the serial {serial:?}");
        }
        assert_eq!(makespan(datacenter, Some(1)), serial);
    }

    #[test]
    fn get_many_missing_key_fails_only_its_entry() {
        let (kernel, client) = setup(NetworkProfile::lan().with_failure_rate(0.0));
        fill(&client, 2);
        let got = kernel.run("client", || {
            client.get_many(
                &[
                    GetReq::whole("b", "k0"),
                    GetReq::whole("b", "nope"),
                    GetReq::range("b", "k1", 0, 10),
                ],
                16,
            )
        });
        assert_eq!(got[0].as_deref(), Ok(&[0u8; 100][..]));
        assert_eq!(
            got[1],
            Err(StoreError::NoSuchKey {
                bucket: "b".into(),
                key: "nope".into()
            })
        );
        assert_eq!(got[2].as_deref(), Ok(&[1u8; 10][..]));
        // The failed lookup never reached the network.
        assert_eq!(client.counters().snapshot().gets, 2);
    }

    #[test]
    fn brownout_opening_mid_batch_fails_only_attempts_completing_inside_it() {
        use rustwren_sim::chaos::{ChaosEngine, FaultPlan, PathScope, TimeWindow};

        // Instant network: 12 requests over 4 lanes complete in rounds at
        // 9, 18 and 27 ms. The window opens at 20 ms, while the third
        // round is in flight, so exactly that round fails.
        let (kernel, client) = setup(NetworkProfile::instant());
        let client = client.with_max_attempts(1);
        fill(&client, 12);
        kernel.install_chaos(Arc::new(ChaosEngine::new(FaultPlan::new(3).cos_brownout(
            PathScope::any(),
            TimeWindow::starting_at(Duration::from_millis(20)),
            1.0,
        ))));
        let keys: Vec<String> = (0..12).map(|i| format!("k{i}")).collect();
        let reqs: Vec<GetReq<'_>> = keys.iter().map(|k| GetReq::whole("b", k)).collect();
        let got = kernel.run("client", || client.get_many(&reqs, 4));
        for (i, r) in got.iter().enumerate() {
            if i < 8 {
                assert!(r.is_ok(), "request {i} completed before the window: {r:?}");
            } else {
                assert_eq!(
                    r,
                    &Err(StoreError::Network {
                        op: format!("GET b/k{i}"),
                        attempts: 1
                    }),
                    "request {i} completed inside the window"
                );
            }
        }
    }

    #[test]
    fn list_cost_scales_with_entry_count() {
        let (kernel, client) = setup(NetworkProfile::wan());
        for i in 0..500 {
            client
                .store()
                .put("b", &format!("k{i:04}"), Bytes::from_static(b"v"))
                .unwrap();
        }
        kernel.run("client", || {
            let t0 = rustwren_sim::now();
            let one = client.list("b", "k0000").unwrap();
            let t1 = rustwren_sim::now();
            let all = client.list("b", "").unwrap();
            let t2 = rustwren_sim::now();
            assert_eq!(one.len(), 1);
            assert_eq!(all.len(), 500);
            assert!(t2 - t1 > t1 - t0);
        });
    }
}
