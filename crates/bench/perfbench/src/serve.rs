//! The serving path: wire records → reader client → shared ingest plane
//! → sharded trackers and the durable store, with queries running
//! while ingest does.
//!
//! One generator thread plays [`PORTALS`] portal sessions, each a
//! `ReaderClient` over an in-memory `ReaderEmulator`: it feeds the
//! emulators `recorded_reads`, drains them with `get_tags` and hands the
//! records to `SharedIngest::ingest_records`. A second thread sends
//! open-loop queries. The capacity phase drains as fast as ingest
//! returns, under [`CAPACITY_QUERY_RATE`]; the steady phase offers reads
//! at [`STEADY_RATE`], well below capacity, with queries at
//! [`STEADY_QUERY_RATE`], and times each read and query from its due
//! time.

use crate::report::{Metric, Outcome};
use crate::stats::{median, ms_since_due, percentile, sorted, tail, Schedule};
use crate::sys;
use crate::trace::Trace;
use rfid_readerapi::{
    InMemoryTransport, ReaderClient, ReaderEmulator, TagRecord, Transport, TransportError,
};
use rfid_sim::{mix64, ReadEvent};
use rfid_site_server::{
    recorded_reads, synthetic_world, ServerConfig, SharedIngest, SyntheticWorld,
};
use rfid_track::store::Record;
use rfid_track::stream::{ObservationStream, Operator, SessionMerge};
use rfid_track::{LocationTracker, StoreConfig, ZoneHistoryStore, ZoneTransition};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Portal sessions the generator plays, as in `bench_snapshot`'s site
/// sections.
const PORTALS: usize = 4;
/// Registered tags; every step reads each once. Assumed: eight times
/// `bench_snapshot`'s 8, so shards and the tracker hold many objects.
const TAGS: usize = 64;
/// Steps of `recorded_reads` in one block; the stream repeats the block
/// with times shifted on.
const BLOCK_STEPS: usize = 256;
/// Reads fed per capacity-phase iteration before every session drains.
const CAPACITY_CHUNK: u64 = 256;
/// Reads the capacity phase ingests. A fixed count, not a fixed time,
/// so the store the steady phase queries has the same size whatever the
/// capacity was.
const CAPACITY_READS: u64 = 2_400_000;
/// Reads per capacity-phase slice. The phase reports the median of its
/// slices' rates: the host's speed moves for a second or two at a time,
/// and a median over slices does not follow it the way one rate over the
/// whole phase does.
const CAPACITY_SLICE: u64 = 50_000;
/// Share of `--seconds` the steady phase offers reads for. Its tails
/// repeat within a few per cent from run to run; the capacity phase,
/// whose length is set by `CAPACITY_READS`, needs the rest.
const STEADY_SHARE: f64 = 0.4;
/// Reads the warm-up ingests before timing starts.
const WARM_UP_READS: u64 = 16_384;
/// Open-loop query rate of the capacity phase. Measured on 2 cores:
/// with no queries the phase admitted 190k–283k events/s (median 215k,
/// 7 runs); with these queries, 137k–175k (median 145k, 7 runs), every
/// run below every run without them. The cut, about a third, is past
/// the 0.25 bound, so taking queries off the ingest lock shows here. At
/// 2k/s and 3k/s the cut was inside the bound.
const CAPACITY_QUERY_RATE: f64 = 5_000.0;
/// Open-loop query rate of the steady phase (assumed). Its zone
/// histories set the steady-phase read tails: about 190 ms with these
/// queries against about 0.02 ms without them, measured on 2 cores.
const STEADY_QUERY_RATE: f64 = 1_000.0;
/// Offered read rate of the steady phase (assumed): far enough below
/// the capacity under query load that a slowed host still keeps up.
const STEADY_RATE: f64 = 5_000.0;
/// Whole zone histories asked for per second (assumed). A fixed cadence
/// keeps the number of these costly queries the same in every run. A
/// zone history reads every closed segment under the ingest lock, so
/// these stalls set the steady-phase tails.
const ZONE_HISTORIES_PER_S: f64 = 1.0;
/// Queries per thousand that ask for a historical location. The rest
/// ask `location_of`. `location_at` reads a closed store segment under
/// the merge lock: that contention is what the capacity rate measures.
const LOCATION_AT_PER_MILLE: u64 = 900;
/// A steady phase whose median feed lateness exceeds this fell behind:
/// reads were offered faster than ingest admitted them.
const LATE_LIMIT_MS: f64 = 50.0;
/// Drains recorded for the single-threaded replay.
const REPLAY_RECORDS: usize = 200_000;
/// In the capacity phase the query thread wakes once a tick and sends
/// every query then due. Spinning toward each due time kept a core busy
/// and, at 10k queries/s, spread the capacity from run to run by up to
/// half; the phase times no query, so it needs no precise sends.
const CAPACITY_TICK: Duration = Duration::from_millis(1);
/// How close to a due time the load threads stop sleeping and yield
/// instead, so a sleep's wake-up overshoot does not land in the
/// measured latency.
const SPIN: Duration = Duration::from_micros(200);
/// Set-ups per run, all before the load; the median is reported. Set-ups
/// taken between the load phases or after them ran up to twice as slow
/// as those before it.
const SETUPS: usize = 16;

/// Waits until `due`: sleeps while it is far off, then yields.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// The read stream: `recorded_reads` with portals and tags relabelled by
/// a seeded permutation, repeated block after block.
struct Reads {
    block: Vec<ReadEvent>,
    portal_of: Vec<usize>,
    tag_of: Vec<usize>,
    epcs: Vec<rfid_gen2::Epc96>,
}

fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix64(seed ^ i as u64) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

impl Reads {
    fn new(world: &SyntheticWorld, seed: u64) -> Self {
        Self {
            block: recorded_reads(PORTALS, TAGS, BLOCK_STEPS),
            portal_of: permutation(PORTALS, mix64(seed ^ 0x5051)),
            tag_of: permutation(TAGS, mix64(seed ^ 0x7A65)),
            epcs: world.epcs.clone(),
        }
    }

    /// Read `i`: event times run 1 ms apart, so each portal's reads are
    /// time-ordered as a recorded session is.
    fn get(&self, i: u64) -> ReadEvent {
        let r = self.block[(i % self.block.len() as u64) as usize];
        let tag = self.tag_of[r.tag];
        ReadEvent {
            time_s: i as f64 * 1e-3,
            reader: self.portal_of[r.reader],
            antenna: 0,
            tag,
            epc: self.epcs[tag],
        }
    }
}

/// A transport wrapper counting the XML bytes each exchange moves.
struct Counting {
    inner: InMemoryTransport,
    bytes: u64,
}

impl Transport for Counting {
    fn exchange(&mut self, request_xml: &str) -> Result<String, TransportError> {
        let reply = self.inner.exchange(request_xml)?;
        self.bytes += (request_xml.len() + reply.len()) as u64;
        Ok(reply)
    }
}

/// One drain kept for the single-threaded replay.
struct Drain {
    session: usize,
    records: Vec<TagRecord>,
    ingest_ns: u64,
}

/// The generator: portal sessions plus the read cursor.
struct Generator<'r> {
    reads: &'r Reads,
    sessions: Vec<ReaderClient<Counting>>,
    /// Read indices fed to each session since its last drain.
    pending: Vec<Vec<u64>>,
    next: u64,
    records: u64,
    drains: Vec<Drain>,
    replay_records: usize,
}

impl<'r> Generator<'r> {
    fn new(reads: &'r Reads, ingest: &SharedIngest<'_>, outcome: &mut Outcome) -> Self {
        let sessions = (0..PORTALS)
            .map(|p| {
                let mut client = ReaderClient::new(Counting {
                    inner: InMemoryTransport::new(ReaderEmulator::with_reader_id(p)),
                    bytes: 0,
                });
                outcome.check(client.start_buffered().is_ok());
                outcome.check(ingest.attach(p).is_ok());
                client
            })
            .collect();
        Self {
            reads,
            sessions,
            pending: vec![Vec::new(); PORTALS],
            next: 0,
            records: 0,
            drains: Vec::new(),
            replay_records: 0,
        }
    }

    /// Feeds reads up to (not including) index `end` into the emulators.
    fn feed_until(&mut self, end: u64) {
        for i in self.next..end {
            let read = self.reads.get(i);
            self.sessions[read.reader]
                .transport_mut()
                .inner
                .emulator_mut()
                .feed_sim_read(&read);
            self.pending[read.reader].push(i);
        }
        self.next = self.next.max(end);
    }

    /// Drains every session into the plane; `admitted` hears each read
    /// index with the instant its `ingest_records` call returned.
    fn drain(
        &mut self,
        ingest: &SharedIngest<'_>,
        mut trace: Option<&mut Trace>,
        outcome: &mut Outcome,
        mut admitted: impl FnMut(u64, Instant),
    ) -> u64 {
        let mut accepted = 0;
        for p in 0..PORTALS {
            if self.pending[p].is_empty() {
                continue;
            }
            let start = Instant::now();
            let records = self.sessions[p].get_tags();
            let drained = Instant::now();
            let Ok(records) = records else {
                outcome.check(false);
                continue;
            };
            let result = ingest.ingest_records(p, &records);
            let done = Instant::now();
            outcome.check(result.rejected == 0 && result.accepted == self.pending[p].len());
            accepted += result.accepted as u64;
            self.records += records.len() as u64;
            for &i in &self.pending[p] {
                admitted(i, done);
            }
            self.pending[p].clear();
            if let Some(trace) = trace.as_deref_mut() {
                trace.record("readerapi.get_tags", start, drained, None);
                trace.record("site.ingest_records", drained, done, None);
                if self.replay_records < REPLAY_RECORDS {
                    self.replay_records += records.len();
                    self.drains.push(Drain {
                        session: p,
                        records,
                        ingest_ns: (done - drained).as_nanos() as u64,
                    });
                }
            }
        }
        accepted
    }

    /// A time below which every session's watermark has passed, so the
    /// merge has released (and the store holds) everything before it.
    /// Any `TAGS` consecutive reads visit every portal.
    fn released_below_s(&self) -> f64 {
        self.next.saturating_sub(2 * TAGS as u64) as f64 * 1e-3
    }

    fn wire_bytes(&mut self) -> u64 {
        self.sessions
            .iter_mut()
            .map(|s| s.transport_mut().bytes)
            .sum()
    }
}

struct QuerySample {
    due: Instant,
    done: Instant,
}

/// What the query thread saw.
struct QueryLog {
    samples: Vec<QuerySample>,
    /// `(tag, at_s, zone)` of every historical `location_at`.
    historical: Vec<(usize, f64, Option<usize>)>,
    attempted: u64,
    failed: u64,
    trace: Option<Trace>,
}

/// Which load phase a query thread runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Queries go out in tick batches; none is timed.
    Capacity,
    /// Each query goes out at its due time and is timed from it.
    Steady,
}

impl Phase {
    fn query_rate(self) -> f64 {
        match self {
            Self::Capacity => CAPACITY_QUERY_RATE,
            Self::Steady => STEADY_QUERY_RATE,
        }
    }
}

/// Open-loop queries at the phase's rate until `stop` is raised.
fn query_loop(
    ingest: &SharedIngest<'_>,
    epc_text: &[String],
    seed: u64,
    phase: Phase,
    (stop, released_below): (&AtomicBool, &AtomicU64),
    trace: Option<Trace>,
) -> QueryLog {
    let schedule = Schedule::new(Instant::now(), phase.query_rate());
    let zone_history_every = (phase.query_rate() / ZONE_HISTORIES_PER_S) as u64;
    let mut log = QueryLog {
        samples: Vec::new(),
        historical: Vec::new(),
        attempted: 0,
        failed: 0,
        trace,
    };
    let mut i = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let due = schedule.due(i);
        if due > Instant::now() {
            match phase {
                Phase::Steady => wait_until(due.min(Instant::now() + Duration::from_millis(5))),
                Phase::Capacity => std::thread::sleep(CAPACITY_TICK),
            }
            continue;
        }
        let h = mix64(seed ^ 0xC0FF_EE00 ^ ((phase as u64) << 48) ^ i);
        let tag = (h % TAGS as u64) as usize;
        let bound = f64::from_bits(released_below.load(Ordering::SeqCst));
        let span = if i % zone_history_every == zone_history_every - 1 {
            "site.zone_history"
        } else if (h >> 32) % 1000 < LOCATION_AT_PER_MILLE && bound > 0.0 {
            "site.location_at"
        } else {
            "site.location_of"
        };
        let epc = &epc_text[tag];
        let start = Instant::now();
        let ok = match span {
            "site.location_of" => ingest.location_of(epc).is_ok(),
            "site.zone_history" => ingest.zone_history(epc).is_ok(),
            _ => {
                let at_s = bound * ((mix64(h) >> 11) as f64 / (1u64 << 53) as f64);
                match ingest.location_at(epc, at_s) {
                    Ok(found) => {
                        log.historical
                            .push((tag, at_s, found.map(|(zone, _)| zone)));
                        true
                    }
                    Err(_) => false,
                }
            }
        };
        let done = Instant::now();
        log.attempted += 1;
        log.failed += u64::from(!ok);
        log.samples.push(QuerySample { due, done });
        if let Some(trace) = log.trace.as_mut() {
            trace.record(span, start, done, None);
        }
        i += 1;
    }
    log
}

/// A durable plane over a fresh store in `dir`, one shard per core.
fn open_plane<'w>(world: &'w SyntheticWorld, dir: &Path) -> Result<SharedIngest<'w>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = ZoneHistoryStore::open(dir, StoreConfig::default())
        .map_err(|e| format!("store open: {e}"))?;
    SharedIngest::with_store(
        &world.site,
        &world.registry,
        &world.adapters,
        staleness_s(),
        sys::nproc(),
        store,
    )
    .map_err(|e| format!("plane open: {e}"))
}

fn staleness_s() -> f64 {
    ServerConfig::new("perfbench").staleness_s
}

fn warm_up(generator: &mut Generator<'_>, ingest: &SharedIngest<'_>, outcome: &mut Outcome) {
    while generator.next < WARM_UP_READS {
        let end = generator.next + CAPACITY_CHUNK;
        generator.feed_until(end);
        generator.drain(ingest, None, outcome, |_, _| {});
    }
}

/// What the two load phases measured.
struct Load {
    /// Events per second of each capacity-phase slice, untraced then
    /// traced.
    capacity: [Vec<f64>; 2],
    /// Per read, due time to the return of the call that admitted it.
    latency_ms: Vec<f64>,
    /// Per read, due time to the moment it was fed.
    late_ms: Vec<f64>,
}

/// Runs `body` on this thread while a query thread sends `phase`
/// queries, and returns both results.
fn with_queries<T>(
    ingest: &SharedIngest<'_>,
    epc_text: &[String],
    seed: u64,
    phase: Phase,
    released_below: &AtomicU64,
    trace: Option<Trace>,
    body: impl FnOnce() -> T,
) -> Result<(T, QueryLog), String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let querier = scope.spawn(|| {
            query_loop(
                ingest,
                epc_text,
                seed,
                phase,
                (&stop, released_below),
                trace,
            )
        });
        let out = body();
        stop.store(true, Ordering::SeqCst);
        let log = querier
            .join()
            .map_err(|_| "the query thread panicked".to_owned())?;
        Ok((out, log))
    })
}

/// Runs both load phases, each with its own query thread.
fn apply_load(
    ingest: &SharedIngest<'_>,
    generator: &mut Generator<'_>,
    epc_text: &[String],
    seed: u64,
    seconds: f64,
    mut trace: Option<&mut Trace>,
    outcome: &mut Outcome,
) -> Result<(Load, [QueryLog; 2]), String> {
    let released_below = AtomicU64::new(0f64.to_bits());
    let publish = |generator: &Generator<'_>| {
        released_below.store(generator.released_below_s().to_bits(), Ordering::SeqCst);
    };
    let origin = trace.as_ref().map(|t| t.origin());
    // Capacity phase: drain as fast as ingest returns. A traced run
    // alternates untraced and traced slices, so the two rates see the
    // same store growth.
    let (capacity, capacity_queries) = with_queries(
        ingest,
        epc_text,
        seed,
        Phase::Capacity,
        &released_below,
        origin.map(Trace::new),
        || {
            let mut capacity = [Vec::new(), Vec::new()];
            for slice in 0..CAPACITY_READS / CAPACITY_SLICE {
                let traced = trace.is_some() && slice % 2 == 1;
                let start = Instant::now();
                let end = generator.next + CAPACITY_SLICE;
                let mut events = 0;
                while generator.next < end {
                    generator.feed_until(generator.next + CAPACITY_CHUNK);
                    let t = if traced { trace.as_deref_mut() } else { None };
                    events += generator.drain(ingest, t, outcome, |_, _| {});
                    publish(generator);
                }
                let rate = events as f64 / start.elapsed().as_secs_f64();
                capacity[usize::from(traced)].push(rate);
            }
            capacity
        },
    )?;

    // Steady phase: reads due at a fixed offered rate.
    let ((latency_ms, late_ms), steady_queries) = with_queries(
        ingest,
        epc_text,
        seed,
        Phase::Steady,
        &released_below,
        origin.map(Trace::new),
        || {
            let steady_start = Instant::now();
            let base = generator.next;
            let schedule = Schedule::jittered(steady_start, STEADY_RATE, mix64(seed ^ 0x5EAD_7A7E));
            let mut latency_ms = Vec::new();
            let mut late_ms = Vec::new();
            while steady_start.elapsed().as_secs_f64() < seconds * STEADY_SHARE {
                let now = Instant::now();
                let due_by = base + schedule.due_by(now);
                if due_by <= generator.next {
                    let next_due = schedule.due(generator.next - base);
                    wait_until(next_due.min(now + Duration::from_millis(1)));
                    continue;
                }
                for i in generator.next..due_by {
                    late_ms.push(ms_since_due(schedule.due(i - base), now));
                }
                generator.feed_until(due_by);
                generator.drain(ingest, trace.as_deref_mut(), outcome, |i, done| {
                    latency_ms.push(ms_since_due(schedule.due(i - base), done));
                });
                publish(generator);
            }
            (latency_ms, late_ms)
        },
    )?;
    let load = Load {
        capacity,
        latency_ms,
        late_ms,
    };
    Ok((load, [capacity_queries, steady_queries]))
}

/// Runs the serving workload and fills `outcome`.
///
/// # Errors
///
/// Setup failures, and a steady phase whose generator fell behind.
pub fn run(
    run_dir: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    outcome: &mut Outcome,
) -> Result<Option<Trace>, String> {
    let dir = |name: &str| -> PathBuf { run_dir.join(format!("{name}-{}", std::process::id())) };
    // Set-up is repeated and the median reported; the last one is kept.
    let mut setups = Vec::new();
    for k in 0..if traced { 0 } else { SETUPS - 1 } {
        let start = Instant::now();
        let world = synthetic_world(PORTALS, TAGS);
        let reads = Reads::new(&world, seed);
        let path = dir(&format!("setup{k}"));
        let ingest = open_plane(&world, &path)?;
        let mut generator = Generator::new(&reads, &ingest, outcome);
        warm_up(&mut generator, &ingest, outcome);
        setups.push(start.elapsed().as_secs_f64());
        drop(generator);
        drop(ingest);
        let _ = std::fs::remove_dir_all(&path);
    }
    let start = Instant::now();
    let world = synthetic_world(PORTALS, TAGS);
    let reads = Reads::new(&world, seed);
    let store_dir = dir("store");
    let ingest = open_plane(&world, &store_dir)?;
    let mut generator = Generator::new(&reads, &ingest, outcome);
    warm_up(&mut generator, &ingest, outcome);
    setups.push(start.elapsed().as_secs_f64());

    let epc_text: Vec<String> = world.epcs.iter().map(ToString::to_string).collect();
    let mut trace = traced.then(|| Trace::new(Instant::now()));
    let (load, query_logs) = apply_load(
        &ingest,
        &mut generator,
        &epc_text,
        seed,
        seconds,
        trace.as_mut(),
        outcome,
    )?;
    let peak_rss = sys::peak_rss_mb().unwrap_or(f64::NAN);
    let late_p99 = percentile(&sorted(&load.late_ms), 99.0);
    let late_p50 = median(&load.late_ms);
    outcome.meta_f64("loadgen.late_p99_ms", late_p99);
    outcome.meta_f64("loadgen.late_p50_ms", late_p50);
    if late_p50 > LATE_LIMIT_MS {
        return Err(format!(
            "invalid run: the steady-phase generator fell behind \
             (late p50 {late_p50:.1} ms > {LATE_LIMIT_MS} ms)"
        ));
    }
    let historical: Vec<(usize, f64, Option<usize>)> = query_logs
        .iter()
        .flat_map(|log| log.historical.iter().copied())
        .collect();
    for log in &query_logs {
        outcome.attempted += log.attempted;
        outcome.failed += log.failed;
    }
    let [capacity_queries, steady_queries] = query_logs;

    // Shut down and check the plane against the batch replay.
    let wire_bytes = generator.wire_bytes();
    let records = generator.records;
    let fed = generator.next;
    let drains = std::mem::take(&mut generator.drains);
    for p in 0..PORTALS {
        ingest.detach(p);
    }
    drop(generator);
    ingest.finish();
    // The shard trackers answer `location_of`; ask them about every tag
    // at the final release time before the plane is consumed.
    let live_now: Vec<Option<usize>> = epc_text
        .iter()
        .map(|epc| {
            let found = ingest.location_of(epc);
            outcome.check(found.is_ok());
            found.ok().flatten().map(|(zone, _)| zone)
        })
        .collect();
    let report = ingest.into_report();
    let counters = report.counters;
    outcome.check(counters.events_ingested == fed && counters.store_errors == 0);
    let live = Live {
        transitions: &report.transitions,
        location_now: &live_now,
        store_replay: &report.tracker,
    };
    let segments = check_replays(&world, &reads, fed, &live, &historical, &store_dir, outcome);
    let store_bytes = dir_bytes(&store_dir);
    let _ = std::fs::remove_dir_all(&store_dir);

    outcome.meta_f64("steady_rate_per_s", STEADY_RATE);
    outcome.meta_f64("capacity_query_rate_per_s", CAPACITY_QUERY_RATE);
    outcome.meta_f64("steady_query_rate_per_s", STEADY_QUERY_RATE);
    outcome.meta_f64("capacity_reads", CAPACITY_READS as f64);
    outcome.meta_f64("portals", PORTALS as f64);
    outcome.meta_f64("tags", TAGS as f64);
    outcome.meta_f64("shards", sys::nproc() as f64);
    outcome.meta_f64("events", fed as f64);

    let Some(mut trace) = trace else {
        let query_ms: Vec<f64> = steady_queries
            .samples
            .iter()
            .map(|q| ms_since_due(q.due, q.done))
            .collect();
        let m = &mut outcome.metrics;
        m.push(Metric::new("setup_s", median(&setups), "s", setups.len()));
        m.push(Metric::median("throughput_per_s", &load.capacity[0], "1/s"));
        m.push(Metric::median("item_p50_ms", &load.latency_ms, "ms"));
        m.push(Metric::tail("item_tail_ms", tail(&load.latency_ms), "ms"));
        m.push(Metric::median("request_p50_ms", &query_ms, "ms"));
        m.push(Metric::tail("request_tail_ms", tail(&query_ms), "ms"));
        m.push(Metric::new("peak_rss_mb", peak_rss, "MiB", 1));
        return Ok(None);
    };

    for query_trace in [capacity_queries.trace, steady_queries.trace]
        .into_iter()
        .flatten()
    {
        trace.absorb(query_trace);
    }
    let replay_dir = dir("replay");
    let replay = replay_drains(
        &world,
        &drains,
        &historical,
        &replay_dir,
        &mut trace,
        outcome,
    );
    let _ = std::fs::remove_dir_all(&replay_dir);

    let us = |name: &str| -> Vec<f64> {
        trace
            .durations_ns(name)
            .into_iter()
            .map(|ns| ns / 1e3)
            .collect()
    };
    let get_tags = us("readerapi.get_tags");
    let ingest_us = us("site.ingest_records");
    let shards = &report.shard_counters;
    let holds: u64 = shards.iter().map(|c| c.merge_holds).sum();
    let depth = shards.iter().map(|c| c.max_queue_depth).max().unwrap_or(0);
    let rejects = counters.adapter_rejects + counters.merge_rejects + counters.session_rejects;
    let count = |name, value: u64| Metric::new(name, value as f64, "count", 1);
    let m = &mut outcome.metrics;
    m.push(Metric::at("readerapi.get_tags_us.p50", &get_tags, 50, "us"));
    m.push(Metric::at("readerapi.get_tags_us.p99", &get_tags, 99, "us"));
    let per_record = wire_bytes as f64 / records as f64;
    m.push(Metric::new(
        "readerapi.wire_bytes_per_record",
        per_record,
        "bytes",
        records as usize,
    ));
    m.push(Metric::at(
        "site.ingest_records_us.p50",
        &ingest_us,
        50,
        "us",
    ));
    m.push(Metric::at(
        "site.ingest_records_us.p99",
        &ingest_us,
        99,
        "us",
    ));
    m.push(Metric::median(
        "site.location_of_us",
        &us("site.location_of"),
        "us",
    ));
    m.push(Metric::median(
        "site.location_at_us",
        &us("site.location_at"),
        "us",
    ));
    m.push(Metric::median(
        "site.zone_history_us",
        &us("site.zone_history"),
        "us",
    ));
    m.push(count("site.merge_holds", holds));
    m.push(count("site.max_queue_depth", depth));
    m.push(count("site.store_appends", counters.store_appends));
    m.push(count("site.store_errors", counters.store_errors));
    m.push(count("site.rejects", rejects));
    m.extend(replay);
    m.push(count("track.store.segments", segments as u64));
    m.push(Metric::new(
        "track.store.bytes",
        store_bytes as f64,
        "bytes",
        1,
    ));
    m.push(Metric::at("loadgen.late_p99_ms", &load.late_ms, 99, "ms"));
    let overhead = median(&load.capacity[0]) / median(&load.capacity[1]);
    m.push(Metric::new("trace.overhead_ratio", overhead, "ratio", 2));
    Ok(Some(trace))
}

/// What the plane produced, to be checked against the batch replay.
struct Live<'a> {
    /// Transitions the shard trackers emitted, in canonical order.
    transitions: &'a [ZoneTransition],
    /// The shard trackers' `location_of` answer per tag after shutdown.
    location_now: &'a [Option<usize>],
    /// The tracker the plane rebuilt from its store at shutdown.
    store_replay: &'a LocationTracker,
}

/// Checks the plane against a batch `LocationTracker` fed every read in
/// order: the shard trackers' transitions and final `location_of`
/// answers, the store replay at shutdown, every historical
/// `location_at`, and the replay of the store reopened from disk.
/// Returns the store's segment count.
fn check_replays(
    world: &SyntheticWorld,
    reads: &Reads,
    fed: u64,
    live: &Live<'_>,
    historical: &[(usize, f64, Option<usize>)],
    store_dir: &Path,
    outcome: &mut Outcome,
) -> usize {
    let mut batch = LocationTracker::new(staleness_s());
    let mut observe = ObservationStream::new(&world.site, &world.registry);
    let mut transitions = Vec::new();
    for i in 0..fed {
        for observation in observe.push(reads.get(i)) {
            transitions.extend(batch.push(observation));
        }
    }
    outcome.check(transitions.as_slice() == live.transitions);
    let now_s = fed.saturating_sub(1) as f64 * 1e-3;
    for (tag, &zone) in live.location_now.iter().enumerate() {
        let object = world.registry.object_of(world.epcs[tag]);
        outcome.check(object.and_then(|o| batch.location_of(o, now_s)) == zone);
    }
    outcome.check(&batch == live.store_replay);
    for &(tag, at_s, zone) in historical {
        let object = world.registry.object_of(world.epcs[tag]);
        outcome.check(object.and_then(|o| batch.location_of(o, at_s)) == zone);
    }
    match ZoneHistoryStore::open(store_dir, StoreConfig::default()) {
        Ok(store) => {
            let mut replayed = LocationTracker::new(staleness_s());
            let ok = store
                .observations()
                .map(|obs| replayed.observe_all(obs).is_ok())
                .unwrap_or(false);
            outcome.check(ok && replayed == batch);
            store.segment_count()
        }
        Err(_) => {
            outcome.check(false);
            0
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// Replays the recorded drains on one thread through the layers
/// `ingest_records` composes, each stage timed as its own span, and
/// derives per-call costs plus the share of `ingest_records` time the
/// stages do not account for (locks, shard hand-off, routing).
fn replay_drains(
    world: &SyntheticWorld,
    drains: &[Drain],
    historical: &[(usize, f64, Option<usize>)],
    dir: &Path,
    trace: &mut Trace,
    outcome: &mut Outcome,
) -> Vec<Metric> {
    let _ = std::fs::remove_dir_all(dir);
    let Ok(mut store) = ZoneHistoryStore::open(dir, StoreConfig::default()) else {
        outcome.check(false);
        return Vec::new();
    };
    let mut merge: SessionMerge<ReadEvent> = SessionMerge::new(PORTALS);
    for p in 0..PORTALS {
        outcome.check(merge.attach(p).is_ok());
    }
    let mut observe = ObservationStream::new(&world.site, &world.registry);
    let mut tracker = LocationTracker::new(staleness_s());
    let (mut records, mut events, mut observations) = (0usize, 0usize, 0usize);
    let mut ingest_ns = 0u64;
    let stages = [
        "readerapi.convert",
        "track.stream.merge",
        "track.stream.observe",
        "track.stream.tracker",
        "track.store.append",
        "track.store.flush",
    ];
    let first_stage_span = trace.spans().len();
    for drain in drains {
        let parent = Some(trace.open("replay.drain", None));
        let adapter = &world.adapters[drain.session];
        let converted: Vec<ReadEvent> = trace.time(stages[0], parent, || {
            drain
                .records
                .iter()
                .filter_map(|r| adapter.convert(r).ok())
                .collect()
        });
        let high = converted
            .iter()
            .map(|e| e.time_s)
            .fold(f64::NEG_INFINITY, f64::max);
        records += drain.records.len();
        let released = trace.time(stages[1], parent, || {
            let mut ok = true;
            for event in &converted {
                ok &= merge.push(drain.session, *event).is_ok();
            }
            (ok, merge.advance(drain.session, high))
        });
        outcome.check(released.0 && converted.len() == drain.records.len());
        let released = released.1.unwrap_or_default();
        events += released.len();
        let mapped: Vec<_> = trace.time(stages[2], parent, || {
            released.into_iter().flat_map(|e| observe.push(e)).collect()
        });
        observations += mapped.len();
        trace.time(stages[3], parent, || {
            for &o in &mapped {
                let _ = tracker.push(o);
            }
        });
        let appended = trace.time(stages[4], parent, || {
            mapped
                .iter()
                .all(|&o| store.append(&Record::Observation(o)).is_ok())
        });
        let flushed = trace.time(stages[5], parent, || store.flush().is_ok());
        outcome.check(appended && flushed);
        if let Some(id) = parent {
            trace.close(id);
        }
        ingest_ns += drain.ingest_ns;
    }
    // Point queries at times the replayed store covers.
    let span_s = drains
        .iter()
        .flat_map(|d| &d.records)
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), r| {
            (lo.min(r.time_s), hi.max(r.time_s))
        });
    for &(tag, at_s, _) in historical
        .iter()
        .filter(|q| q.1 >= span_s.0 && q.1 <= span_s.1)
    {
        if let Some(object) = world.registry.object_of(world.epcs[tag]) {
            let found = trace.time("track.store.location_at", None, || {
                store.location_at(object, at_s)
            });
            outcome.check(found.is_ok());
        }
    }
    let own = trace.self_ns();
    let stage_ns = |name: &str| -> u64 {
        trace.spans()[first_stage_span..]
            .iter()
            .zip(&own[first_stage_span..])
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns)
            .sum()
    };
    let per = |name: &str, n: usize| stage_ns(name) as f64 / n.max(1) as f64;
    let replayed_ns: u64 = stages.iter().map(|s| stage_ns(s)).sum();
    let flush_us = median(&trace.durations_ns("track.store.flush")) / 1e3;
    let location_at: Vec<f64> = trace
        .durations_ns("track.store.location_at")
        .into_iter()
        .map(|ns| ns / 1e3)
        .collect();
    vec![
        Metric::new(
            "readerapi.convert_ns",
            per(stages[0], records),
            "ns",
            records,
        ),
        Metric::new(
            "track.stream.merge_ns",
            per(stages[1], events),
            "ns",
            events,
        ),
        Metric::new(
            "track.stream.observe_ns",
            per(stages[2], events),
            "ns",
            events,
        ),
        Metric::new(
            "track.stream.tracker_ns",
            per(stages[3], observations),
            "ns",
            observations,
        ),
        Metric::new(
            "track.store.append_ns",
            per(stages[4], observations),
            "ns",
            observations,
        ),
        Metric::new("track.store.flush_us", flush_us, "us", drains.len()),
        Metric::median("track.store.location_at_us", &location_at, "us"),
        Metric::new(
            "site.lock_overhead_share",
            1.0 - replayed_ns as f64 / ingest_ns.max(1) as f64,
            "ratio",
            drains.len(),
        ),
    ]
}
