//! Runs one measurement window: the load threads, their streams, and what
//! each thread saw.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::load::{SplitMix, StreamQueue};
use crate::trace::{Span, Tracer};
use crate::workload::{Deployment, Query, Spec, Tier, UpdateRecord, Writer};

/// Query streams keep running this long after the last update finished,
/// so its epoch is observed.
const GRACE_NS: u64 = 50_000_000;
/// Failures kept verbatim per thread.
const KEPT_ERRORS: usize = 5;

/// One stream of a load thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamDef {
    /// Point queries at a Poisson rate.
    Point(f64),
    /// Gather queries at a Poisson rate.
    Gather(f64),
    /// Updates at a fixed cadence: update `j` is due in the middle of the
    /// `j`-th period, moved by a seeded jitter of up to a quarter period so
    /// the cadence cannot lock onto a periodic timer inside the program
    /// (heartbeats, accept polls).
    Update(f64),
}

/// Arrival rates of a window's streams, per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// Point queries, Poisson.
    pub point_hz: f64,
    /// Gather queries, Poisson.
    pub gather_hz: f64,
    /// Updates, at a fixed cadence.
    pub update_hz: f64,
}

/// One answered (or failed) query. Times in ns.
#[derive(Debug, Clone, Copy)]
pub struct QuerySample {
    /// Whether one shard answers the query kind.
    pub point: bool,
    /// When it was due.
    pub due_ns: u64,
    /// From due to departure in the stream's queue; a failure is charged
    /// the whole window.
    pub latency_ns: u64,
    /// The call itself.
    pub service_ns: u64,
}

/// What one load thread saw.
#[derive(Debug, Default)]
pub struct ThreadOut {
    /// Every query issued.
    pub queries: Vec<QuerySample>,
    /// Every update issued.
    pub updates: Vec<UpdateRecord>,
    /// `(epoch, ns)` each time the answering epoch changed, including
    /// the first answer.
    pub epochs: Vec<(u64, u64)>,
    /// Largest delay between an arrival's due time and its issue.
    pub lag_max_ns: u64,
    /// Failed queries.
    pub failed: u64,
    /// The first few failures, verbatim.
    pub errors: Vec<String>,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

/// The timing of a window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// How long the query streams run.
    pub length: Duration,
    /// Updates issued in the window.
    pub n_updates: usize,
}

struct Stream {
    def: StreamDef,
    rng: SplitMix,
    due_ns: u64,
    queue: StreamQueue,
    seq: u64,
}

/// Shared, read-only state of the load threads.
struct Ctx<'a> {
    origin: Instant,
    window_ns: u64,
    n_updates: usize,
    update_period_ns: u64,
    tier: Tier<'a>,
    dep: &'a Deployment,
    /// Set when the writer finished its last update: ns since origin + 1.
    writer_done: AtomicU64,
    trace: bool,
}

/// Runs the streams of `spec` against `dep` for `window` on two load
/// threads; the second drives `writer`.
///
/// # Panics
/// Panics when a load thread panics.
pub fn run_window(
    dep: &Deployment,
    writer: &mut Writer,
    spec: Spec,
    window: Window,
    seed: u64,
    trace: bool,
) -> Vec<ThreadOut> {
    let rates = spec.rates;
    let ctx = Ctx {
        origin: Instant::now(),
        window_ns: duration_ns(window.length),
        n_updates: window.n_updates,
        update_period_ns: (1e9 / rates.update_hz) as u64,
        tier: dep.tier(),
        dep,
        writer_done: AtomicU64::new(0),
        trace,
    };
    let point = StreamDef::Point(rates.point_hz);
    let gather = StreamDef::Gather(rates.gather_hz);
    let update = StreamDef::Update(rates.update_hz);
    let (first, second) = if spec.split_reads {
        (vec![point], vec![gather, update])
    } else {
        (vec![point, gather], vec![update])
    };
    std::thread::scope(|scope| {
        let r = scope.spawn(|| run_thread(&ctx, 0, &first, None, seed));
        let w = scope.spawn(|| run_thread(&ctx, 1, &second, Some(writer), seed));
        [r, w]
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn run_thread(
    ctx: &Ctx<'_>,
    t: usize,
    defs: &[StreamDef],
    mut writer: Option<&mut Writer>,
    seed: u64,
) -> ThreadOut {
    let mut tracer = Tracer::new(ctx.origin, ctx.trace);
    let mut out = ThreadOut::default();
    let mut streams: Vec<Stream> = defs
        .iter()
        .enumerate()
        .map(|(i, &def)| {
            let mut rng = SplitMix::new(seed, (t * 16 + i) as u64 + 1);
            let due_ns = match def {
                StreamDef::Update(_) => update_due(ctx.update_period_ns, 0, &mut rng),
                StreamDef::Point(hz) | StreamDef::Gather(hz) => rng.exp_gap_ns(hz),
            };
            Stream {
                def,
                rng,
                due_ns,
                queue: StreamQueue::default(),
                seq: 0,
            }
        })
        .collect();
    let mut last_epoch: Option<u64> = None;
    loop {
        let next = streams
            .iter()
            .enumerate()
            .filter(|(_, s)| active(ctx, s))
            .min_by_key(|(_, s)| s.due_ns)
            .map(|(i, _)| i);
        let Some(i) = next else { break };
        let s = &mut streams[i];
        let now = elapsed_ns(ctx.origin);
        if s.due_ns > now {
            std::thread::sleep(Duration::from_nanos(s.due_ns - now));
        }
        let issued = elapsed_ns(ctx.origin);
        out.lag_max_ns = out.lag_max_ns.max(issued.saturating_sub(s.due_ns));
        let request = ((t as u64) << 48) | ((i as u64) << 40) | s.seq;
        match s.def {
            StreamDef::Update(_) => {
                let w = writer
                    .as_deref_mut()
                    .expect("the update stream's thread owns the writer");
                let mut rec = w.update(
                    &mut tracer,
                    request,
                    &ctx.dep.server,
                    ctx.dep.cluster.as_ref().map(|c| &c.controller),
                );
                rec.due_ns = s.due_ns;
                out.updates.push(rec);
                s.seq += 1;
                s.due_ns = update_due(ctx.update_period_ns, s.seq, &mut s.rng);
                if s.seq as usize >= ctx.n_updates || w.exhausted() {
                    ctx.writer_done
                        .store(elapsed_ns(ctx.origin) + 1, Ordering::SeqCst);
                }
            }
            StreamDef::Point(hz) | StreamDef::Gather(hz) => {
                let q = if matches!(s.def, StreamDef::Point(_)) {
                    Query::POINT[s.rng.below(Query::POINT.len())]
                } else {
                    Query::GATHER[s.rng.below(Query::GATHER.len())]
                };
                let name = match (ctx.tier, q.is_point()) {
                    (Tier::Cluster(_), _) => "cluster.call",
                    (Tier::Local(_), true) => "serve.point",
                    (Tier::Local(_), false) => "serve.gather",
                };
                let span = tracer.open(name, None, request);
                let start = Instant::now();
                let result = ctx.tier.query(q, &mut s.rng, &ctx.dep.pools);
                let service_ns = duration_ns(start.elapsed());
                tracer.close(span);
                let done = elapsed_ns(ctx.origin);
                let mut latency_ns = s.queue.charge(s.due_ns, service_ns);
                match result {
                    Ok(epoch) => {
                        if last_epoch != Some(epoch) {
                            out.epochs.push((epoch, done));
                            last_epoch = Some(epoch);
                        }
                    }
                    Err(e) => {
                        latency_ns = ctx.window_ns;
                        out.failed += 1;
                        if out.errors.len() < KEPT_ERRORS {
                            out.errors.push(format!("{q:?}: {e}"));
                        }
                    }
                }
                out.queries.push(QuerySample {
                    point: q.is_point(),
                    due_ns: s.due_ns,
                    latency_ns,
                    service_ns,
                });
                s.seq += 1;
                s.due_ns += s.rng.exp_gap_ns(hz);
            }
        }
    }
    out.spans = tracer.into_spans();
    out
}

/// Due time of update `j` of a cadence with `period_ns`.
fn update_due(period_ns: u64, j: u64, rng: &mut SplitMix) -> u64 {
    let jitter = (rng.next_f64() - 0.5) * 0.5 * period_ns as f64;
    (j * period_ns + period_ns / 2).saturating_add_signed(jitter as i64)
}

/// Whether a stream has arrivals left: updates until the window's count
/// is issued; queries until the window ends, and past it while the
/// writer still has an update to publish and then [`GRACE_NS`].
fn active(ctx: &Ctx<'_>, s: &Stream) -> bool {
    match s.def {
        StreamDef::Update(_) => ctx.writer_done.load(Ordering::SeqCst) == 0,
        _ => {
            if s.due_ns < ctx.window_ns {
                return true;
            }
            match ctx.writer_done.load(Ordering::SeqCst) {
                0 => true,
                done => s.due_ns < done - 1 + GRACE_NS,
            }
        }
    }
}

fn elapsed_ns(origin: Instant) -> u64 {
    duration_ns(origin.elapsed())
}
