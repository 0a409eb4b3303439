//! `serve-fleet`: a seeded fleet of recorded elevator runs streamed
//! through the monitor service, saturated and paced.
//!
//! The only workload with sparse masked waves, lane churn and the
//! report channel; it runs no simulation in the timed window and no
//! corpus. Streams replay windows of a handful of recorded traces, a
//! share of which carry seeded elevator faults so violation reports
//! flow. The benchmark's own [`PacedSource`] releases frames on each
//! stream's schedule while reading the clock once per shard wave, not
//! once per poll.

use crate::report::{set_layers, Outcome};
use crate::rng::Rng;
use crate::stats::{median, peak_rss_mib, quantile, ratio, tail, Budget};
use crate::trace::{Fold, LayerTimes, Tracer};
use esafe_elevator::faults::ElevatorFaults;
use esafe_elevator::{build_elevator, ElevatorFamily};
use esafe_logic::{Frame, SignalTable};
use esafe_monitor::{SuiteTemplate, ViolationInterval};
use esafe_serve::{
    MonitorService, Poll, ReportEvent, ServiceConfig, ShardConfig, ShardCore, ShardId, StreamSource,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Recorded traces the fleet replays.
pub const TRACES: usize = 12;
/// Traces recorded with one seeded fault each (so violations flow);
/// each of the six elevator faults appears in one of them.
pub const FAULTY_TRACES: usize = 6;
/// Ticks recorded per trace (10 s of elevator time). The fleet's frames
/// total about 12 MB, so the source's copies mostly hit cache and the
/// monitor, not the generator's memory traffic, sets the pace.
pub const TRACE_TICKS: usize = 1024;
/// Distinct start offsets into a trace (evenly spaced).
pub const OFFSETS: usize = 32;
/// Stream lengths, frames.
pub const LENGTHS: [u64; 4] = [320, 384, 448, 512];
/// Concurrent streams in the saturated phase (= shard lanes).
pub const SATURATED_STREAMS: usize = 1000;
/// Streams in one traced saturated repetition.
pub const TRACED_STREAMS: usize = 3000;
/// Offered load of the open-loop phase, frames per second.
pub const OPEN_RATE: f64 = 500_000.0;
/// Mean concurrent streams of the open-loop phase.
pub const OPEN_STREAMS: f64 = 800.0;
/// Lanes of the open-loop shard (headroom over the mean concurrency).
pub const OPEN_LANES: usize = 1024;
/// Waves between periodic violation drains.
pub const REPORT_EVERY: u64 = 64;
/// How long a phase may take to drain its streams after its window
/// before the run gives up on the service.
const DRAIN_LIMIT_S: f64 = 30.0;
const SALT: u64 = 0x666C_6565;

/// The fleet's recorded inputs.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Signal table of every trace.
    pub table: Arc<SignalTable>,
    /// The compiled elevator goal suite.
    pub template: Arc<SuiteTemplate>,
    /// The recorded traces.
    pub traces: Vec<Arc<Vec<Frame>>>,
    seed: u64,
}

/// Records the fleet: [`TRACES`] elevator runs with seeded passenger
/// traffic; the seed picks which [`FAULTY_TRACES`] carry a fault and
/// which fault each carries, with every fault equally often.
pub fn inputs(seed: u64) -> Fleet {
    let family = ElevatorFamily::default();
    let mut rng = Rng::new(seed, SALT);
    let faulty = rng.sample(TRACES, FAULTY_TRACES);
    let flag_offset = rng.below(6);
    let mut traces = Vec::with_capacity(TRACES);
    for k in 0..TRACES {
        let faults = match faulty.iter().position(|&f| f == k) {
            Some(j) => single_fault((j + flag_offset) % 6),
            None => ElevatorFaults::none(),
        };
        let mut sim = build_elevator(
            *family.params(),
            faults,
            rng.next_u64(),
            family.table(),
            family.sigs(),
        );
        let mut trace = Vec::with_capacity(TRACE_TICKS);
        for _ in 0..TRACE_TICKS {
            sim.step();
            trace.push(sim.state().clone());
        }
        traces.push(Arc::new(trace));
    }
    Fleet {
        table: family.table().clone(),
        template: family.template().clone(),
        traces,
        seed,
    }
}

fn single_fault(flag: usize) -> ElevatorFaults {
    let mut f = ElevatorFaults::none();
    *[
        &mut f.drive_ignores_door,
        &mut f.door_opens_while_moving,
        &mut f.overweight_ignored,
        &mut f.hoistway_guard_missing,
        &mut f.ebrake_inoperative,
        &mut f.door_sensor_stuck_closed,
    ][flag] = true;
    f
}

/// A trace window: (trace, offset, frames).
pub type Window = (usize, usize, u64);

/// One stream: which trace window it replays and, when paced, its
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Trace replayed.
    pub trace: usize,
    /// Start offset into the trace (wrapping).
    pub offset: usize,
    /// Frames sent.
    pub frames: u64,
    /// Scheduled start, ns from the phase origin (0 when saturated).
    pub start_ns: u64,
    /// Frame period, ns (0 = always ready).
    pub period_ns: u64,
}

impl Spec {
    /// Due time of the stream's last frame, ns from the phase origin.
    pub fn last_due_ns(&self) -> u64 {
        self.start_ns + (self.frames - 1) * self.period_ns
    }

    /// The trace window the stream replays: streams with equal windows
    /// send equal frames and must get equal verdicts.
    pub fn window(&self) -> Window {
        (self.trace, self.offset, self.frames)
    }
}

impl Fleet {
    fn stream_rng(&self, phase: u64, i: usize) -> Rng {
        Rng::new(
            self.seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407),
            SALT ^ phase,
        )
    }

    /// Saturated-phase stream `i`: a trace window, always ready.
    pub fn saturated(&self, i: usize) -> Spec {
        let mut rng = self.stream_rng(1, i);
        Spec {
            trace: rng.below(TRACES),
            offset: rng.below(OFFSETS) * (TRACE_TICKS / OFFSETS),
            frames: LENGTHS[rng.below(LENGTHS.len())],
            start_ns: 0,
            period_ns: 0,
        }
    }

    /// Open-loop stream `i`: starts on a fixed schedule that keeps
    /// [`OPEN_STREAMS`] streams live on average, and emits on its own
    /// clock (period jittered ±20 % around the mean) for
    /// [`OPEN_RATE`] frames/s in total.
    pub fn paced(&self, i: usize) -> Spec {
        let mut rng = self.stream_rng(2, i);
        let mean_period = OPEN_STREAMS / OPEN_RATE * 1e9;
        let mean_frames = LENGTHS.iter().sum::<u64>() as f64 / LENGTHS.len() as f64;
        let spacing = mean_frames * mean_period / OPEN_STREAMS;
        Spec {
            trace: rng.below(TRACES),
            offset: rng.below(OFFSETS) * (TRACE_TICKS / OFFSETS),
            frames: LENGTHS[rng.below(LENGTHS.len())],
            start_ns: (i as f64 * spacing) as u64,
            period_ns: (mean_period * (0.8 + 0.4 * rng.unit())) as u64,
        }
    }

    /// A source for `spec` on `clock`.
    pub fn source(&self, spec: Spec, clock: &Arc<FleetClock>) -> PacedSource {
        PacedSource {
            trace: Arc::clone(&self.traces[spec.trace]),
            cursor: spec.offset,
            spec,
            emitted: 0,
            seen: u64::MAX,
            clock: Arc::clone(clock),
        }
    }
}

/// Ingest-lag histogram resolution: 1 µs buckets up to 50 ms.
const LAG_BUCKETS: usize = 50_000;

/// The fleet's shared clock and the generator's own counters.
///
/// Every source is polled on the shard's worker thread. A source polled
/// a second time within one clock epoch marks the start of a new wave:
/// it reads the clock once for the whole fleet and closes the previous
/// wave's backlog count. Counters are statistics only (`Relaxed`).
#[derive(Debug)]
pub struct FleetClock {
    origin: Instant,
    now_ns: AtomicU64,
    epoch: AtomicU64,
    /// Clock reads made by sources.
    pub reads: AtomicU64,
    /// Polls answered.
    pub polls: AtomicU64,
    /// Polls answered `Pending`.
    pub pending: AtomicU64,
    /// Frames delivered.
    pub frames: AtomicU64,
    wave_backlog: AtomicU64,
    /// Largest per-wave sum of frames due but not yet polled.
    pub backlog_max: AtomicU64,
    lag_us: Vec<AtomicU64>,
    timed: AtomicBool,
    /// Time inside `poll_frame`, ns (only while timing is on).
    pub poll_busy_ns: AtomicU64,
}

impl FleetClock {
    /// A clock whose phase origin is now.
    pub fn new() -> Arc<Self> {
        Arc::new(FleetClock {
            origin: Instant::now(),
            now_ns: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            wave_backlog: AtomicU64::new(0),
            backlog_max: AtomicU64::new(0),
            lag_us: (0..LAG_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            timed: AtomicBool::new(false),
            poll_busy_ns: AtomicU64::new(0),
        })
    }

    /// The phase origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Times every poll from now on (traced runs only: two clock reads
    /// per poll).
    pub fn time_polls(&self) {
        self.timed.store(true, Relaxed);
    }

    fn now(&self, seen: &mut u64) -> u64 {
        let epoch = self.epoch.load(Relaxed);
        if *seen != epoch {
            *seen = epoch;
            return self.now_ns.load(Relaxed);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.now_ns.store(now, Relaxed);
        self.epoch.store(epoch + 1, Relaxed);
        self.reads.fetch_add(1, Relaxed);
        let backlog = self.wave_backlog.swap(0, Relaxed);
        self.backlog_max.fetch_max(backlog, Relaxed);
        *seen = epoch + 1;
        now
    }

    /// Median lag from a frame's due time to its poll, µs (wave-clock
    /// resolution).
    pub fn lag_p50_us(&self) -> f64 {
        let counts: Vec<u64> = self.lag_us.iter().map(|c| c.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut seen = 0;
        for (us, c) in counts.iter().enumerate() {
            seen += c;
            if seen * 2 >= total {
                return us as f64;
            }
        }
        LAG_BUCKETS as f64
    }
}

/// A stream source replaying a trace window on its own schedule.
#[derive(Debug)]
pub struct PacedSource {
    trace: Arc<Vec<Frame>>,
    cursor: usize,
    spec: Spec,
    emitted: u64,
    seen: u64,
    clock: Arc<FleetClock>,
}

impl PacedSource {
    fn poll(&mut self, frame: &mut Frame) -> Poll {
        let clock = &*self.clock;
        clock.polls.fetch_add(1, Relaxed);
        if self.emitted == self.spec.frames {
            return Poll::End;
        }
        if self.spec.period_ns > 0 {
            let now = clock.now(&mut self.seen);
            let due = self.spec.start_ns + self.emitted * self.spec.period_ns;
            if now < due {
                clock.pending.fetch_add(1, Relaxed);
                return Poll::Pending;
            }
            let due_count =
                ((now - self.spec.start_ns) / self.spec.period_ns + 1).min(self.spec.frames);
            clock
                .wave_backlog
                .fetch_add(due_count - self.emitted, Relaxed);
            let lag = (((now - due) / 1000) as usize).min(LAG_BUCKETS - 1);
            clock.lag_us[lag].fetch_add(1, Relaxed);
        }
        frame.copy_from(&self.trace[self.cursor]);
        self.cursor = (self.cursor + 1) % self.trace.len();
        self.emitted += 1;
        clock.frames.fetch_add(1, Relaxed);
        Poll::Frame
    }
}

impl StreamSource for PacedSource {
    fn poll_frame(&mut self, frame: &mut Frame) -> Poll {
        if !self.clock.timed.load(Relaxed) {
            return self.poll(frame);
        }
        let started = Instant::now();
        let out = self.poll(frame);
        self.clock
            .poll_busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        out
    }
}

/// A stream's verdicts: violation intervals per monitor.
pub type Verdicts = BTreeMap<String, Vec<ViolationInterval>>;

/// The oracle: scalar `MonitorSuite` replays of stream windows, cached
/// by (trace, offset, frames) since many streams share a window.
#[derive(Debug, Default)]
pub struct Oracle {
    cache: HashMap<Window, Verdicts>,
}

impl Oracle {
    /// The scalar verdicts for the frames `spec` sends.
    pub fn expected(&mut self, fleet: &Fleet, spec: &Spec) -> &Verdicts {
        self.cache.entry(spec.window()).or_insert_with(|| {
            let trace = &fleet.traces[spec.trace];
            let mut suite = fleet.template.instantiate();
            for k in 0..spec.frames as usize {
                suite
                    .observe(&trace[(spec.offset + k) % trace.len()])
                    .expect("recorded elevator frames are complete");
            }
            suite.finish();
            suite
                .take_violations()
                .into_iter()
                .filter(|(_, v)| !v.is_empty())
                .collect()
        })
    }

    /// Checks one stream's reported verdicts and monitored frame count.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    pub fn check(
        &mut self,
        fleet: &Fleet,
        i: usize,
        spec: &Spec,
        got: &Closed,
    ) -> Result<(), String> {
        if got.ticks != spec.frames {
            return Err(format!(
                "stream {i}: {} frames sent, {} monitored",
                spec.frames, got.ticks
            ));
        }
        if &got.verdicts != self.expected(fleet, spec) {
            return Err(format!(
                "stream {i}: verdicts differ from the scalar replay of its frames"
            ));
        }
        Ok(())
    }
}

/// A closed stream as the consumer saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Closed {
    /// Frames the service monitored.
    pub ticks: u64,
    /// Every violation interval reported for the stream, periodic
    /// drains and close-out merged.
    pub verdicts: Verdicts,
}

fn merge(into: &mut Verdicts, violations: Vec<(String, Vec<ViolationInterval>)>) {
    for (id, intervals) in violations {
        if !intervals.is_empty() {
            into.entry(id).or_default().extend(intervals);
        }
    }
}

/// The consumer's bookkeeping for one phase. Memory stays bounded by
/// the number of distinct windows, not the number of streams: the first
/// stream closed on each window is kept for the oracle, and every later
/// stream on the same window must report the same verdicts.
#[derive(Debug, Default)]
struct Consumer {
    open: HashMap<u64, (usize, Spec, Verdicts)>,
    windows: HashMap<Window, (usize, Closed)>,
    /// (scheduled start, last-frame due time, receipt) per closed paced
    /// stream.
    receipts: Vec<(u64, u64, Instant)>,
    closed: u64,
    short: u64,
    errors: Vec<String>,
}

impl Consumer {
    fn launched(&mut self, id: u64, i: usize, spec: Spec) {
        self.open.insert(id, (i, spec, Verdicts::new()));
    }

    /// Handles one event; returns whether a stream left the shard.
    fn handle(&mut self, event: ReportEvent, at: Instant) -> bool {
        match event {
            ReportEvent::Violations(report) => {
                if let Some((_, _, v)) = self.open.get_mut(&report.stream.0) {
                    merge(v, report.violations);
                }
                false
            }
            ReportEvent::StreamClosed(summary) => {
                let Some((i, spec, mut verdicts)) = self.open.remove(&summary.stream.0) else {
                    self.errors
                        .push(format!("close of unknown {}", summary.stream));
                    return true;
                };
                merge(&mut verdicts, summary.violations);
                self.closed += 1;
                if summary.ticks != spec.frames {
                    self.short += 1;
                    self.errors.push(format!(
                        "stream {i}: {} frames sent, {} monitored",
                        spec.frames, summary.ticks
                    ));
                }
                if spec.period_ns > 0 {
                    self.receipts.push((spec.start_ns, spec.last_due_ns(), at));
                }
                let closed = Closed {
                    ticks: summary.ticks,
                    verdicts,
                };
                match self.windows.entry(spec.window()) {
                    Entry::Vacant(e) => {
                        e.insert((i, closed));
                    }
                    Entry::Occupied(e) => {
                        if e.get().1 != closed {
                            self.errors.push(format!(
                                "streams {} and {i} replay the same window but got different verdicts",
                                e.get().0
                            ));
                        }
                    }
                }
                true
            }
            ReportEvent::StreamEvicted(eviction) => {
                self.open.remove(&eviction.stream.0);
                self.errors
                    .push(format!("{} evicted: {}", eviction.stream, eviction.reason));
                true
            }
            ReportEvent::ReportsDropped { dropped, .. } => {
                self.errors.push(format!("{dropped} reports dropped"));
                false
            }
            ReportEvent::ShardRestarted { .. }
            | ReportEvent::ShardStopped { error: Some(_), .. } => {
                self.errors.push(format!("shard failure: {event:?}"));
                false
            }
            ReportEvent::ShardStopped { error: None, .. } | ReportEvent::SuiteUnloaded { .. } => {
                false
            }
        }
    }
}

fn service(lanes: usize, fleet: &Fleet) -> MonitorService {
    let mut service = MonitorService::new(ServiceConfig {
        lanes_per_shard: lanes,
        report_every: REPORT_EVERY,
        ..ServiceConfig::default()
    });
    service.load_suite(&fleet.template);
    service
}

/// What the saturated phase measured.
#[derive(Debug, Default)]
pub struct Saturated {
    /// Frames monitored per second, one value per half-second window.
    pub rates: Vec<f64>,
    consumer: Consumer,
    launched: usize,
}

/// The saturated phase: [`SATURATED_STREAMS`] streams on one shard, each
/// with a frame always ready, every close replaced at once, for
/// `seconds`; then the fleet drains.
pub fn saturated(fleet: &Fleet, seconds: f64) -> Saturated {
    // At least five windows however short the phase.
    let window = (seconds / 6.0).min(0.5);
    let clock = FleetClock::new();
    let mut service = service(SATURATED_STREAMS, fleet);
    let mut out = Saturated::default();
    let launch = |service: &mut MonitorService, out: &mut Saturated| {
        let i = out.launched;
        let spec = fleet.saturated(i);
        match service.connect(&fleet.table, Box::new(fleet.source(spec, &clock))) {
            Ok(id) => out.consumer.launched(id.0, i, spec),
            Err(e) => out.consumer.errors.push(format!("connect failed: {e}")),
        }
        out.launched += 1;
    };
    let started = Instant::now();
    for _ in 0..SATURATED_STREAMS {
        launch(&mut service, &mut out);
    }
    // Rates are read from the source's frame counter at window edges,
    // after one window of warm-up.
    let mut edge = (started, clock.frames.load(Relaxed));
    let mut warm = false;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let running = elapsed < seconds;
        if !running && out.consumer.open.is_empty() {
            break;
        }
        if elapsed > seconds + DRAIN_LIMIT_S {
            out.consumer
                .errors
                .push("saturated fleet did not drain".into());
            break;
        }
        let now = Instant::now();
        if running && now.duration_since(edge.0).as_secs_f64() >= window {
            let frames = clock.frames.load(Relaxed);
            if warm {
                out.rates
                    .push((frames - edge.1) as f64 / now.duration_since(edge.0).as_secs_f64());
            }
            warm = true;
            edge = (now, frames);
        }
        let Some(event) = service.recv_report_timeout(Duration::from_millis(5)) else {
            continue;
        };
        if out.consumer.handle(event, Instant::now()) && running {
            launch(&mut service, &mut out);
        }
    }
    for event in service.shutdown() {
        out.consumer.handle(event, Instant::now());
    }
    out
}

/// What the open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Close-out latencies of steady-state streams, ms.
    pub latencies_ms: Vec<f64>,
    /// Latest connect relative to schedule, ms.
    pub gen_lag_ms_max: f64,
    consumer: Consumer,
    launched: usize,
    /// Pending polls ÷ polls.
    pub pending_ratio: f64,
    /// Median due → poll lag, µs.
    pub ingest_lag_us_p50: f64,
    /// Largest per-wave backlog, frames.
    pub backlog_max: f64,
    /// Source polls per clock read (about one read per wave).
    pub polls_per_clock_read: f64,
}

/// The open-loop phase: streams start on a fixed schedule for
/// `seconds` and emit on their own clocks; each stream's close-out is
/// timed from its last frame's due time to the consumer's receipt of
/// its `StreamClosed`. Streams started during the first lifetime (the
/// ramp-up) are not timed.
pub fn open_loop(fleet: &Fleet, seconds: f64) -> OpenLoop {
    let clock = FleetClock::new();
    let origin = clock.origin();
    let mut service = service(OPEN_LANES, fleet);
    let mut out = OpenLoop::default();
    let horizon_ns = (seconds * 1e9) as u64;
    let warm_ns = LENGTHS[LENGTHS.len() - 1] * (OPEN_STREAMS / OPEN_RATE * 1.2e9) as u64;
    let mut next = fleet.paced(0);
    let mut gen_lag_ns = 0u64;
    loop {
        let now_ns = origin.elapsed().as_nanos() as u64;
        while next.start_ns <= now_ns && next.start_ns < horizon_ns {
            gen_lag_ns = gen_lag_ns.max(origin.elapsed().as_nanos() as u64 - next.start_ns);
            let i = out.launched;
            match service.connect(&fleet.table, Box::new(fleet.source(next, &clock))) {
                Ok(id) => out.consumer.launched(id.0, i, next),
                Err(e) => out.consumer.errors.push(format!("connect failed: {e}")),
            }
            out.launched += 1;
            next = fleet.paced(out.launched);
        }
        let launching = next.start_ns < horizon_ns;
        if !launching && out.consumer.open.is_empty() {
            break;
        }
        if now_ns > horizon_ns + (DRAIN_LIMIT_S * 1e9) as u64 {
            out.consumer
                .errors
                .push("open-loop fleet did not drain".into());
            break;
        }
        // Block for the next report, waking for the next scheduled start.
        let wait = if launching {
            Duration::from_nanos(next.start_ns.saturating_sub(now_ns))
                .min(Duration::from_micros(200))
        } else {
            Duration::from_millis(5)
        };
        if let Some(event) = service.recv_report_timeout(wait) {
            out.consumer.handle(event, Instant::now());
        }
    }
    for event in service.shutdown() {
        out.consumer.handle(event, Instant::now());
    }
    for &(start_ns, last_due_ns, at) in &out.consumer.receipts {
        if start_ns >= warm_ns {
            let received = at.duration_since(origin).as_nanos() as f64;
            out.latencies_ms.push((received - last_due_ns as f64) / 1e6);
        }
    }
    out.gen_lag_ms_max = gen_lag_ns as f64 / 1e6;
    let polls = clock.polls.load(Relaxed) as f64;
    out.pending_ratio = ratio(clock.pending.load(Relaxed) as f64, polls);
    out.ingest_lag_us_p50 = clock.lag_p50_us();
    out.backlog_max = clock.backlog_max.load(Relaxed) as f64;
    out.polls_per_clock_read = ratio(polls, clock.reads.load(Relaxed) as f64);
    out
}

/// Counts a phase's attempted and failed streams and checks every
/// distinct window's verdicts against the oracle.
fn verify(
    fleet: &Fleet,
    oracle: &mut Oracle,
    consumer: &Consumer,
    launched: usize,
    out: &mut Outcome,
) {
    out.attempted += launched as u64;
    // Evicted, short, or never closed.
    out.failed += launched as u64 - consumer.closed + consumer.short;
    for e in consumer.errors.iter().take(5) {
        out.fail(e.clone());
    }
    for (&(trace, offset, frames), (i, closed)) in &consumer.windows {
        let spec = Spec {
            trace,
            offset,
            frames,
            start_ns: 0,
            period_ns: 0,
        };
        if let Err(e) = oracle.check(fleet, *i, &spec, closed) {
            out.fail(e);
        }
    }
}

/// The untraced workload: saturated phase, then open-loop phase, each
/// for half the window, then the oracles.
pub fn run(fleet: &Fleet, seconds: f64, out: &mut Outcome) {
    let sat = saturated(fleet, seconds / 2.0);
    let open = open_loop(fleet, seconds / 2.0);
    out.set("peak_rss_mb", peak_rss_mib());
    let mut oracle = Oracle::default();
    verify(fleet, &mut oracle, &sat.consumer, sat.launched, out);
    verify(fleet, &mut oracle, &open.consumer, open.launched, out);
    out.set("ticks_per_s", median(&sat.rates));
    out.set("result_ms", median(&open.latencies_ms));
    let (pct, tail_ms) = tail(&open.latencies_ms);
    let flowing = sat
        .consumer
        .windows
        .values()
        .chain(open.consumer.windows.values())
        .filter(|(_, c)| !c.verdicts.is_empty())
        .count();
    out.note(format!(
        "serve-fleet: saturated {} streams launched, open-loop {} launched; {flowing} distinct windows reported violations",
        sat.launched, open.launched
    ));
    out.note(format!(
        "  serve_capacity_fps = {:.0} frames/s (median of {} windows), verdict_p50_ms = {:.3} ms, p{pct:.1} = {tail_ms:.3} ms over {} streams",
        median(&sat.rates),
        sat.rates.len(),
        median(&open.latencies_ms),
        open.latencies_ms.len()
    ));
    out.note(format!(
        "  generator: max connect lateness {:.3} ms, pending polls {:.3}, {:.0} polls per clock read, ingest lag p50 {} us, backlog max {}",
        open.gen_lag_ms_max,
        open.pending_ratio,
        open.polls_per_clock_read,
        open.ingest_lag_us_p50,
        open.backlog_max
    ));
}

/// What one traced saturated repetition measured.
#[derive(Debug, Default)]
pub struct TracedSaturated {
    /// Waves run.
    pub waves: u64,
    /// Frames monitored.
    pub frames: u64,
    /// Report events taken.
    pub events: u64,
    /// Wall time.
    pub wall: Duration,
    consumer: Consumer,
}

impl TracedSaturated {
    /// Streams closed cleanly.
    pub fn closed(&self) -> u64 {
        self.consumer.closed
    }

    /// The first stream closed on each distinct window, with what the
    /// consumer saw (every later stream on a window reported the same,
    /// or [`TracedSaturated::errors`] says otherwise).
    pub fn windows(&self) -> impl Iterator<Item = (usize, &Closed)> {
        self.consumer.windows.values().map(|(i, c)| (*i, c))
    }

    /// Consumer-side failures: evictions, short streams, inconsistent
    /// verdicts.
    pub fn errors(&self) -> &[String] {
        &self.consumer.errors
    }
}

/// The traced saturated phase: one [`ShardCore`] driven directly —
/// `connect`, `wave`, `take_events` — over `streams` saturated streams
/// with `lanes` live at once, spans around every call and the source's
/// poll time folded into each wave as ingest. The run is deterministic:
/// its wave count repeats exactly.
pub fn saturated_traced(
    fleet: &Fleet,
    lanes: usize,
    streams: usize,
    tracer: &mut Tracer,
) -> TracedSaturated {
    let clock = FleetClock::new();
    clock.time_polls();
    let mut core = ShardCore::new(
        ShardId(0),
        &fleet.template,
        ShardConfig {
            width: lanes,
            report_every: REPORT_EVERY,
            stall_limit: None,
        },
    );
    let mut out = TracedSaturated::default();
    let started = Instant::now();
    let root = tracer.open("worker", None, 0);
    let mut launched = 0usize;
    let connect = |core: &mut ShardCore,
                   tracer: &mut Tracer,
                   out: &mut TracedSaturated,
                   launched: &mut usize| {
        let i = *launched;
        let spec = fleet.saturated(i);
        let source = Box::new(fleet.source(spec, &clock));
        tracer.span("serve.connect", Some(root), i as u64, || {
            core.connect(esafe_serve::StreamId(i as u64), source);
        });
        out.consumer.launched(i as u64, i, spec);
        *launched += 1;
    };
    for _ in 0..lanes.min(streams) {
        connect(&mut core, tracer, &mut out, &mut launched);
    }
    let mut closed = 0usize;
    while closed < streams {
        let wave = tracer.open("serve.wave", Some(root), out.waves);
        clock.poll_busy_ns.store(0, Relaxed);
        let polls_before = clock.polls.load(Relaxed);
        match core.wave() {
            Ok(pulled) => out.frames += pulled as u64,
            Err(e) => out.consumer.errors.push(format!("wave failed: {e}")),
        }
        let mut ingest = Fold::default();
        ingest.add(
            clock.poll_busy_ns.swap(0, Relaxed),
            clock.polls.load(Relaxed) - polls_before,
        );
        tracer.fold("serve.ingest", wave, out.waves, ingest);
        tracer.close(wave);
        let report = tracer.open("serve.report", Some(root), out.waves);
        let events = core.take_events();
        out.events += events.len() as u64;
        let mut replace = 0;
        for event in events {
            if out.consumer.handle(event, Instant::now()) {
                closed += 1;
                replace += 1;
            }
        }
        tracer.close(report);
        for _ in 0..replace {
            if launched < streams {
                connect(&mut core, tracer, &mut out, &mut launched);
            }
        }
        out.waves += 1;
    }
    tracer.close(root);
    out.wall = started.elapsed();
    out
}

/// The generator's own cost: [`SATURATED_STREAMS`] saturated sources
/// polled round-robin, as a shard would, without a shard; every poll
/// delivers a frame. ns per poll.
pub fn source_ns_per_poll(fleet: &Fleet) -> f64 {
    let clock = FleetClock::new();
    let mut sources: Vec<PacedSource> = (0..SATURATED_STREAMS)
        .map(|i| {
            let mut spec = fleet.saturated(i);
            spec.frames = u64::MAX;
            fleet.source(spec, &clock)
        })
        .collect();
    let mut frame = fleet.table.frame();
    let rounds = 500;
    let started = Instant::now();
    for _ in 0..rounds {
        for s in &mut sources {
            std::hint::black_box(s.poll_frame(&mut frame));
        }
    }
    started.elapsed().as_nanos() as f64 / (rounds * sources.len()) as f64
}

/// The traced workload: an untraced saturated and open-loop phase
/// (capacity baseline, verdict tail, generator checks), then traced
/// saturated repetitions whose per-stream verdicts must match the
/// oracle like the untraced ones.
pub fn run_traced(fleet: &Fleet, seconds: f64, out: &mut Outcome) -> Option<Tracer> {
    let sat = saturated(fleet, seconds / 4.0);
    let open = open_loop(fleet, seconds / 4.0);
    let mut oracle = Oracle::default();
    verify(fleet, &mut oracle, &sat.consumer, sat.launched, out);
    verify(fleet, &mut oracle, &open.consumer, open.launched, out);

    let mut budget = Budget::new(seconds / 2.0);
    let mut layers = LayerTimes::default();
    let (mut reps, mut waves, mut frames, mut events) = (0u64, 0u64, 0u64, 0u64);
    let (mut wave_ns, mut report_ns, mut rates) = (Vec::new(), 0u64, Vec::new());
    let mut last = None;
    while budget.more() {
        let mut tracer = Tracer::new(Instant::now());
        let t = saturated_traced(fleet, SATURATED_STREAMS, TRACED_STREAMS, &mut tracer);
        verify(fleet, &mut oracle, &t.consumer, TRACED_STREAMS, out);
        // Same windows, same verdicts as the untraced service run.
        for (window, (i, c)) in &t.consumer.windows {
            if sat
                .consumer
                .windows
                .get(window)
                .is_some_and(|(_, u)| u != c)
            {
                out.fail(format!(
                    "stream {i}: traced verdicts differ from the service's"
                ));
            }
        }
        if reps > 0 && t.waves != waves / reps {
            out.fail(format!(
                "traced wave count {} differs between repetitions",
                t.waves
            ));
        }
        reps += 1;
        waves += t.waves;
        frames += t.frames;
        events += t.events;
        rates.push(t.frames as f64 / t.wall.as_secs_f64());
        wave_ns.extend(
            tracer
                .durations("serve.wave")
                .into_iter()
                .map(|ns| ns as f64),
        );
        report_ns += tracer.busy("serve.report");
        layers.add(&tracer.layers());
        last = Some(tracer);
    }
    let (wave_pct, wave_tail) = tail(&wave_ns);
    let (verdict_pct, verdict_tail) = tail(&open.latencies_ms);
    out.set("serve.wave_us_p50", quantile(&wave_ns, 0.5) / 1e3);
    out.set("serve.wave_us_tail", wave_tail / 1e3);
    out.set("serve.wave_tail_pct", wave_pct);
    out.set("serve.frames_per_wave", ratio(frames as f64, waves as f64));
    out.set("serve.waves", ratio(waves as f64, reps as f64));
    out.set("serve.pending_poll_ratio", open.pending_ratio);
    out.set("serve.ingest_lag_us_p50", open.ingest_lag_us_p50);
    out.set(
        "serve.report_us_per_event",
        ratio(report_ns as f64 / 1e3, events as f64),
    );
    out.set("serve.backlog_max_frames", open.backlog_max);
    out.set("serve.verdict_tail_ms", verdict_tail);
    out.set("serve.verdict_tail_pct", verdict_pct);
    out.set("serve.verdict_samples", open.latencies_ms.len() as f64);
    out.set("serve.gen_lag_ms_max", open.gen_lag_ms_max);
    out.set("serve.polls_per_clock_read", open.polls_per_clock_read);
    out.set("serve.source_ns_per_poll", source_ns_per_poll(fleet));
    let (u, t) = (median(&sat.rates), median(&rates));
    out.set("trace.overhead_pct", ratio(u - t, u) * 100.0);
    set_layers(out, &layers, reps as f64);
    out.note(format!(
        "serve-fleet traced: {reps} reps of {TRACED_STREAMS} streams; service {u:.0} vs traced shard {t:.0} frames/s; verdicts equal the oracle and the service's"
    ));
    last
}
