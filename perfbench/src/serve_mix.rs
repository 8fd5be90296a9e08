//! The `serve-mix` workload: an open-loop client mix against an
//! in-process `match-serve` daemon over loopback TCP.
//!
//! The daemon runs one shard with at most two workers, one I/O thread,
//! one solver thread per solve and warm starts on. One generator thread
//! sends an evenly spaced, seeded schedule over at most two
//! connections; one reader thread per connection stamps each response
//! as it arrives. Latency is timed from the *scheduled* send, so a
//! stalled generator or daemon charges every request it delayed.
//!
//! The run is a series of rate steps: the fixed offered rate first (its
//! figures are the end-to-end latency metrics), then probe steps that
//! bisect for the highest rate at which a step neither misses the
//! latency limit, refuses a request, lets the generator run late, nor
//! grows the queue. Between steps every outstanding reply is drained.

use crate::check::{mapping_error, Tally};
use crate::offline::{parse_instance, SETUP_REPS};
use crate::stats::{geomean, median, quantile, ratio, Metrics};
use crate::{Args, Outcome};
use match_core::{bijective_lower_bound, MappingInstance};
use match_graph::gen::paper::PaperFamilyConfig;
use match_graph::io::to_text;
use match_rngutil::derive_seed_str;
use match_serve::{
    encode_request_line, job_key, parse_request, parse_response, structure_hash, Client,
    RemapRequest, Request, Response, ServeConfig, Server, ServerHandle, SolveRequest,
    SolveResponse,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Paper-family template sizes of the cheap request classes.
const SIZES: &[usize] = &[12, 16, 20, 24, 32, 40, 48];
/// Sizes of the structures CE and `remap` requests use: cheap enough
/// for one solver thread, and an odd count of equally used sizes, so
/// the median CE request sits inside one size rather than between two.
const CE_SIZES: &[usize] = &[16, 20, 24];
/// Structures per CE size; CE and `remap` requests cycle over all of
/// them, so the figures average over instances, not one draw.
const CE_PER_SIZE: usize = 6;
/// Largest template the hill climber gets: a cheap class must stay
/// cheap (hill takes ~16 ms at n = 24 and ~160 ms at n = 48 on one
/// core), so larger templates get the greedy constructor.
const HILL_MAX_N: usize = 24;
/// The CE algorithm (`match-batched`: the batched sampler pinned).
const CE_ALGO: &str = "match-batched";
/// Result-cache capacity; the hot key set is larger, so the run sees
/// hits, misses and evictions.
const CACHE_CAP: usize = 48;
/// Hot keys resubmitted under a Zipf popularity law.
const HOT_KEYS: usize = 96;
/// Zipf exponent of the hot key popularity.
const ZIPF_S: f64 = 1.0;
/// Job-queue capacity (admission bound): large enough that an
/// overloaded probe grows a backlog, which fails the step, rather than
/// refusing requests, which would count as failed operations.
const QUEUE_CAP: usize = 1024;
/// Warm-start blend `α` of the daemon.
const WARM_ALPHA: f64 = 0.5;
/// Share of requests per class: hot resubmits, unique cheap solves,
/// CE solves on repeated structures, and `remap` ops.
const MIX: [(Class, f64); 4] = [
    (Class::Hot, 85.0 / 120.0),
    (Class::Unique, 19.0 / 120.0),
    (Class::Ce, 4.0 / 120.0),
    (Class::Remap, 12.0 / 120.0),
];
/// Requests per shuffled deck of classes. Steps send whole decks, and
/// the fixed-rate step's 9 decks hold whole multiples of the 18 CE
/// structures in CE and remap requests, so every structure is used
/// equally.
const DECK: usize = 120;
/// The fixed offered rate, in requests per second.
const FIXED_RATE: f64 = 40.0;
/// Probe steps of the bisection for the highest passing rate.
const PROBES: usize = 6;
/// Upper end of the bisection, as a multiple of the fixed rate.
const MAX_RATE_FACTOR: f64 = 32.0;
/// Share of `--seconds` spent at the fixed rate; the probes share the
/// rest equally.
const FIXED_SHARE: f64 = 0.78;

/// p99 latency limit a rate step must meet, in milliseconds.
const LATENCY_LIMIT_MS: f64 = 400.0;
/// How late (p99) the generator may send before a step is invalid.
const LATE_BOUND_MS: f64 = 25.0;
/// Queue growth across a step (mean depth of its last third over its
/// first third) that marks a growing backlog, in jobs.
const BACKLOG_GROWTH: f64 = 8.0;
/// Latency charged to a refused, failed or unanswered request: over
/// any limit, and finite so percentiles stay numbers.
const FAILED_MS: f64 = 1e6;
/// Longest wait for a step's outstanding replies.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// Stats poll period of the queue-depth monitor.
const MONITOR_PERIOD: Duration = Duration::from_millis(50);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot = 0,
    Unique,
    Ce,
    Remap,
}

/// One paper-family instance as the wire carries it.
struct Template {
    tig: String,
    platform: String,
    inst: MappingInstance,
    lower_bound: f64,
}

/// Cache identity of a solve, as the client knows it.
type Key = (usize, &'static str, u64);

/// One planned request.
struct Planned {
    due: Duration,
    class: Class,
    key: Key,
    /// Request index across the run; the wire id is `r<index>`.
    index: usize,
}

impl Planned {
    /// The request's wire line, built when it is sent so a long
    /// schedule does not hold every instance text in memory at once.
    fn line(&self, s: &Setup) -> String {
        let (t, algo, seed) = self.key;
        let solve = solve_request(&s.templates[t], format!("r{}", self.index), algo, seed);
        let req = if self.class == Class::Remap {
            let prior = s.priors[t - ce_templates().start].clone();
            Request::Remap(RemapRequest {
                solve,
                prior,
                mu: 1,
            })
        } else {
            Request::Solve(solve)
        };
        encode_request_line(&req)
    }
}

/// One reply as a reader thread saw it.
struct Reply {
    index: usize,
    at: Instant,
    resp: Response,
}

/// What one request came to.
struct Done {
    class: Class,
    template: usize,
    latency_ms: f64,
    ok: bool,
    refused: bool,
    solved: Option<SolveResponse>,
}

/// One rate step's figures.
struct Step {
    rate: f64,
    done: Vec<Done>,
    late_ms: Vec<f64>,
    depth_growth: f64,
}

impl Step {
    fn latencies(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.latency_ms).collect()
    }

    fn within_limit(&self) -> f64 {
        let ok = self
            .done
            .iter()
            .filter(|d| d.ok && d.latency_ms <= LATENCY_LIMIT_MS)
            .count();
        ratio(ok as f64, self.done.len() as f64)
    }

    /// Whether the step met the latency limit: 99% of requests within
    /// it, none refused, the generator on time, and no growing queue.
    fn passes(&self) -> bool {
        self.within_limit() >= 0.99
            && !self.done.iter().any(|d| d.refused)
            && quantile(&self.late_ms, 0.99) <= LATE_BOUND_MS
            && self.depth_growth <= BACKLOG_GROWTH
    }
}

/// Generate the templates from the seed and render them as wire text:
/// first one per [`SIZES`] entry, then the CE structures.
fn templates(seed: u64, tiny: bool) -> Vec<Template> {
    let scale = |n: usize| if tiny { n / 2 } else { n };
    let general = SIZES.iter().map(|&n| (format!("template-{n}"), n));
    // Sizes interleave, so any run of consecutive CE structures mixes
    // the sizes evenly.
    let ce =
        (0..CE_PER_SIZE).flat_map(|k| CE_SIZES.iter().map(move |&n| (format!("ce-{n}-{k}"), n)));
    general
        .chain(ce)
        .map(|(label, n)| {
            let mut rng = StdRng::seed_from_u64(derive_seed_str(seed, &label));
            let pair = PaperFamilyConfig::new(scale(n)).generate(&mut rng);
            let inst = MappingInstance::new(&pair.tig, &pair.resources);
            Template {
                tig: to_text(pair.tig.graph()),
                platform: to_text(pair.resources.graph()),
                lower_bound: bijective_lower_bound(&inst),
                inst,
            }
        })
        .collect()
}

/// Indices of the CE structures among the templates.
fn ce_templates() -> std::ops::Range<usize> {
    SIZES.len()..SIZES.len() + CE_SIZES.len() * CE_PER_SIZE
}

fn solve_request(t: &Template, id: String, algo: &str, seed: u64) -> SolveRequest {
    SolveRequest {
        id,
        algo: algo.to_string(),
        seed,
        deadline_ms: None,
        backend: None,
        tig: t.tig.clone(),
        platform: t.platform.clone(),
    }
}

/// The hot key pool, most popular first.
fn hot_keys(seed: u64, templates: &[Template]) -> Vec<Key> {
    let mut rng = StdRng::seed_from_u64(derive_seed_str(seed, "hot-keys"));
    (0..HOT_KEYS)
        .map(|k| {
            let t = rng.random_range(0..SIZES.len());
            (t, cheap_algo(&templates[t], rng.random()), 1_000 + k as u64)
        })
        .collect()
}

/// `hill` when asked for and the template is at most [`HILL_MAX_N`]
/// tasks, else `greedy`.
fn cheap_algo(t: &Template, hill: bool) -> &'static str {
    if hill && t.inst.n_tasks() <= HILL_MAX_N {
        "hill"
    } else {
        "greedy"
    }
}

/// Sample a rank from the Zipf law over `n` ranks.
fn zipf(n: usize, rng: &mut StdRng) -> usize {
    let total: f64 = (1..=n).map(|k| (k as f64).powf(-ZIPF_S)).sum();
    let mut u = rng.random::<f64>() * total;
    for k in 1..=n {
        u -= (k as f64).powf(-ZIPF_S);
        if u < 0.0 {
            return k - 1;
        }
    }
    n - 1
}

/// Everything set-up produced: the daemon, its inputs, and the answers
/// it gave during priming.
struct Setup {
    handle: ServerHandle,
    templates: Vec<Template>,
    hot: Vec<Key>,
    /// First answer per key: every later answer must match it bit for bit.
    first: HashMap<Key, (u64, Vec<usize>)>,
    /// Remap priors: the priming CE mapping of each CE template.
    priors: Vec<Vec<usize>>,
}

/// Solver workers and client connections: at most nproc, and two at
/// most. A second worker keeps cache hits from queueing behind a CE
/// solve.
fn nproc_max_two() -> usize {
    thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Generate inputs, start the daemon, and prime its cache and warm store.
fn setup(args: &Args, tally: &mut Tally) -> Setup {
    let templates = templates(args.seed, args.tiny);
    let handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: nproc_max_two(),
        io_threads: 1,
        queue_cap: QUEUE_CAP,
        cache_cap: CACHE_CAP,
        warm_alpha: WARM_ALPHA,
        solver_threads: Some(1),
        ..ServeConfig::default()
    })
    .expect("daemon binds a loopback port");
    let hot = hot_keys(args.seed, &templates);
    let mut client = Client::connect(handle.local_addr()).expect("connect to the daemon");
    let mut first = HashMap::new();
    let mut check = |key: Key, resp: Response, tally: &mut Tally| -> Option<Vec<usize>> {
        match resp {
            Response::Solved(r) => {
                let t = &templates[key.0];
                tally.record(&r.id, mapping_error(&t.inst, &r.mapping, r.cost));
                first.insert(key, (r.cost.to_bits(), r.mapping.clone()));
                Some(r.mapping)
            }
            other => {
                tally.fail(format!("priming: {other:?}"));
                None
            }
        }
    };
    // Least popular first, so the LRU keeps the hottest keys.
    for &key in hot.iter().rev() {
        let req = solve_request(&templates[key.0], format!("prime-{}", key.2), key.1, key.2);
        let resp = client.call(&Request::Solve(req)).expect("priming solve");
        check(key, resp, tally);
    }
    // One cold CE solve per CE structure seeds the warm store; its
    // mapping is the prior of that template's remap requests.
    let mut priors = Vec::new();
    for t in ce_templates() {
        let key = (t, CE_ALGO, 7);
        let req = solve_request(&templates[t], format!("prime-ce-{t}"), CE_ALGO, key.2);
        let resp = client.call(&Request::Solve(req)).expect("priming CE solve");
        let n = templates[t].inst.n_tasks();
        priors.push(check(key, resp, tally).unwrap_or_else(|| (0..n).collect()));
    }
    Setup {
        handle,
        templates,
        hot,
        first,
        priors,
    }
}

/// A seeded open-loop schedule at `rate` for `secs`: evenly spaced
/// sends, classes dealt from a shuffled deck that holds each class in
/// its exact share, CE and remap requests cycling over the CE
/// templates and unique solves over every template, so every seed
/// offers the same mix. Hot keys are drawn from the Zipf law.
fn schedule(
    s: &Setup,
    seed: u64,
    step: usize,
    rate: f64,
    secs: f64,
    next_id: &mut usize,
) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(derive_seed_str(seed, &format!("step-{step}")));
    let ce = ce_templates();
    let n_all = SIZES.len();
    let mut deck: Vec<Class> = Vec::new();
    let mut counts = [0usize; 4];
    let requests = match (rate * secs).round() as usize {
        n if n >= DECK => n / DECK * DECK,
        n => n,
    };
    (0..requests)
        .map(|i| {
            if deck.is_empty() {
                deck = MIX
                    .iter()
                    .flat_map(|&(class, share)| {
                        std::iter::repeat_n(class, (share * DECK as f64).round() as usize)
                    })
                    .collect();
                for k in (1..deck.len()).rev() {
                    deck.swap(k, rng.random_range(0..=k));
                }
            }
            let class = deck.pop().expect("deck refilled above");
            let j = counts[class as usize];
            counts[class as usize] += 1;
            let index = *next_id;
            *next_id += 1;
            // Unique seeds sit far above the hot pool's.
            let unique = 1_000_000 + *next_id as u64;
            let key = match class {
                Class::Hot => s.hot[zipf(s.hot.len(), &mut rng)],
                Class::Unique => {
                    let t = j % n_all;
                    (
                        t,
                        cheap_algo(&s.templates[t], (j / n_all).is_multiple_of(2)),
                        unique,
                    )
                }
                Class::Ce | Class::Remap => (ce.start + j % ce.len(), CE_ALGO, unique),
            };
            Planned {
                due: Duration::from_secs_f64(i as f64 / rate),
                class,
                key,
                index,
            }
        })
        .collect()
}

/// A client connection: the generator writes, a reader thread stamps
/// each reply and forwards it.
struct Conn {
    stream: TcpStream,
    reader: JoinHandle<()>,
}

fn connect(addr: SocketAddr, tx: mpsc::Sender<Reply>) -> Conn {
    let stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let read_half = stream.try_clone().expect("clone the client socket");
    let reader = thread::spawn(move || {
        let mut lines = BufReader::new(read_half);
        let mut line = String::new();
        while matches!(lines.read_line(&mut line), Ok(n) if n > 0) {
            let at = Instant::now();
            if let Ok(resp) = parse_response(line.trim()) {
                let index = match &resp {
                    Response::Solved(r) => r.id.as_str(),
                    Response::Rejected { id, .. } | Response::Error { id, .. } => id.as_str(),
                    _ => "",
                };
                if let Some(index) = index.strip_prefix('r').and_then(|i| i.parse().ok()) {
                    if tx.send(Reply { index, at, resp }).is_err() {
                        break;
                    }
                }
            }
            line.clear();
        }
    });
    Conn { stream, reader }
}

/// Queue-depth samples `(when, depth)` from the monitor thread.
type Depths = Arc<Mutex<Vec<(Instant, u64)>>>;

/// Poll the daemon's queue depth until `stop` is set.
fn monitor(addr: SocketAddr, depths: Depths, stop: Arc<AtomicBool>) -> JoinHandle<()> {
    thread::spawn(move || {
        let Ok(mut client) = Client::connect(addr) else {
            return;
        };
        while !stop.load(Ordering::Relaxed) {
            if let Ok(Response::Stats(s)) = client.stats() {
                let sample = (Instant::now(), s.queue_depth);
                depths.lock().expect("depth log poisoned").push(sample);
            }
            thread::sleep(MONITOR_PERIOD);
        }
    })
}

/// Mean sampled queue depth in `[from, to)`.
fn mean_depth(depths: &Depths, from: Instant, to: Instant) -> f64 {
    let log = depths.lock().expect("depth log poisoned");
    let window: Vec<f64> = log
        .iter()
        .filter(|&&(at, _)| at >= from && at < to)
        .map(|&(_, d)| d as f64)
        .collect();
    ratio(window.iter().sum(), window.len() as f64)
}

/// Send one step's schedule, drain its replies, and check every answer.
fn run_step(
    s: &mut Setup,
    conns: &mut [Conn],
    rx: &mpsc::Receiver<Reply>,
    plan: &[Planned],
    rate: f64,
    depths: &Depths,
    tally: &mut Tally,
) -> Step {
    let start = Instant::now();
    let mut late_ms = Vec::with_capacity(plan.len());
    for (k, p) in plan.iter().enumerate() {
        let line = p.line(s);
        let due = start + p.due;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let conn = &mut conns[k % conns.len()];
        if conn.stream.write_all(line.as_bytes()).is_err() {
            break;
        }
    }
    let sent_end = Instant::now();

    let mut replies: Vec<Option<(Instant, Response)>> = (0..plan.len()).map(|_| None).collect();
    let first_index = plan.first().map_or(0, |p| p.index);
    let mut pending = plan.len();
    let deadline = sent_end + DRAIN_TIMEOUT;
    while pending > 0 {
        let Some(wait) = deadline.checked_duration_since(Instant::now()) else {
            break;
        };
        let Ok(r) = rx.recv_timeout(wait) else {
            break;
        };
        let slot = r
            .index
            .checked_sub(first_index)
            .and_then(|i| replies.get_mut(i));
        if let Some(slot @ None) = slot {
            *slot = Some((r.at, r.resp));
            pending -= 1;
        }
    }
    let third = (sent_end - start) / 3;
    let depth_growth =
        mean_depth(depths, sent_end - third, sent_end) - mean_depth(depths, start, start + third);

    let mut done = Vec::with_capacity(plan.len());
    for (p, reply) in plan.iter().zip(replies) {
        let due = start + p.due;
        let (latency_ms, error, refused, solved) = match reply {
            None => (FAILED_MS, Some("no reply".to_string()), false, None),
            Some((_, Response::Rejected { .. })) => (
                FAILED_MS,
                Some("refused: queue full".to_string()),
                true,
                None,
            ),
            Some((at, Response::Solved(r))) => {
                let error = check_answer(s, p, &r);
                let ms = at.saturating_duration_since(due).as_secs_f64() * 1e3;
                (ms, error, false, Some(r))
            }
            Some((_, other)) => (FAILED_MS, Some(format!("{other:?}")), false, None),
        };
        let ok = error.is_none();
        tally.record(&format!("{:?} request", p.class), error);
        done.push(Done {
            class: p.class,
            template: p.key.0,
            latency_ms: if ok { latency_ms } else { FAILED_MS },
            ok,
            refused,
            solved,
        });
    }
    Step {
        rate,
        done,
        late_ms,
        depth_growth,
    }
}

/// Check one answer: a valid mapping whose cost the oracle confirms,
/// and, for a key answered before, the same answer bit for bit (every
/// solver is deterministic in its seed, so a cached answer and a
/// re-solve after eviction must both equal the first).
fn check_answer(s: &mut Setup, p: &Planned, r: &SolveResponse) -> Option<String> {
    let inst = &s.templates[p.key.0].inst;
    if let Some(e) = mapping_error(inst, &r.mapping, r.cost) {
        return Some(e);
    }
    if r.cancelled {
        return Some("cancelled without a deadline".to_string());
    }
    if p.class == Class::Remap {
        return None;
    }
    let answer = (r.cost.to_bits(), r.mapping.clone());
    match s.first.get(&p.key) {
        Some(first) if *first != answer => Some(format!(
            "answer (cached: {}) differs from the first answer for its key",
            r.cached
        )),
        Some(_) => None,
        None => {
            s.first.insert(p.key, answer);
            None
        }
    }
}

/// One stderr line per step: what was offered and how it went.
fn log_step(step: &Step) {
    let class_ms = |class: Class| {
        let ms: Vec<f64> = step
            .done
            .iter()
            .filter(|d| d.class == class)
            .map(|d| d.latency_ms)
            .collect();
        format!(
            "{class:?} n={} p50={:.1} p99={:.1}",
            ms.len(),
            median(&ms),
            quantile(&ms, 0.99)
        )
    };
    eprintln!(
        "perfbench: step {} req/s: {} requests, p50 {:.2} ms, p99 {:.1} ms, within {:.4}, \
         late p99 {:.2} ms, depth growth {:.2}, passes {} | {} | {} | {} | {}",
        step.rate,
        step.done.len(),
        median(&step.latencies()),
        quantile(&step.latencies(), 0.99),
        step.within_limit(),
        quantile(&step.late_ms, 0.99),
        step.depth_growth,
        step.passes(),
        class_ms(Class::Hot),
        class_ms(Class::Unique),
        class_ms(Class::Ce),
        class_ms(Class::Remap),
    );
}

/// Counter values of every `match_serve_*_total` series in a metrics
/// snapshot, by series name.
fn serve_counters(client: &mut Client) -> HashMap<String, f64> {
    let Ok(Response::Metrics { text }) = client.metrics() else {
        return HashMap::new();
    };
    text.lines()
        .filter(|l| l.starts_with("match_serve_") && !l.starts_with('#'))
        .filter_map(|l| {
            let name = l.split(['{', ' ']).next()?;
            let value = l.rsplit(' ').next()?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .fold(HashMap::new(), |mut acc, (name, value): (String, f64)| {
            *acc.entry(name).or_insert(0.0) += value;
            acc
        })
}

/// Median microseconds of `f` over `items`, each timed `reps` times.
fn time_us<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let mut us = Vec::with_capacity(items.len() * reps);
    for item in items {
        for _ in 0..reps {
            let start = Instant::now();
            f(item);
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&us)
}

/// Run `serve-mix`.
pub fn run(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let s = setup(args, &mut tally);
        setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            if let Err(e) = s.handle.shutdown() {
                tally.fail(format!("set-up daemon shutdown: {e}"));
            }
        } else {
            kept = Some(s);
        }
    }
    let mut s = kept.expect("at least one set-up");
    let addr = s.handle.local_addr();

    let (tx, rx) = mpsc::channel();
    let mut conns: Vec<Conn> = (0..nproc_max_two())
        .map(|_| connect(addr, tx.clone()))
        .collect();
    drop(tx);
    let mut control = Client::connect(addr).expect("connect the control client");
    let before = serve_counters(&mut control);
    let depths: Depths = Arc::default();
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = monitor(addr, Arc::clone(&depths), Arc::clone(&stop));

    // The fixed rate first, then a bisection for the highest rate that
    // meets the limit: the highest passing probe is `max_rate_rps`.
    let fixed_secs = args.seconds * FIXED_SHARE;
    let probe_secs = args.seconds * (1.0 - FIXED_SHARE) / PROBES as f64;
    let (mut lo, mut hi) = (0.0, FIXED_RATE * MAX_RATE_FACTOR);
    let mut steps: Vec<Step> = Vec::new();
    let mut fixed_plan = Vec::new();
    let mut next_id = 0usize;
    for k in 0..=PROBES {
        let (rate, secs) = if k == 0 {
            (FIXED_RATE, fixed_secs)
        } else {
            ((lo + hi) / 2.0, probe_secs)
        };
        let plan = schedule(&s, args.seed, k, rate, secs, &mut next_id);
        let mut step = run_step(&mut s, &mut conns, &rx, &plan, rate, &depths, &mut tally);
        log_step(&step);
        if step.passes() {
            lo = rate;
        } else {
            hi = rate;
        }
        if k > 0 {
            // Only the fixed-rate step's replies feed figures; dropping
            // the probes' keeps memory the same whichever rates they hit.
            for d in &mut step.done {
                d.solved = None;
            }
        }
        steps.push(step);
        if k == 0 {
            fixed_plan = plan;
        }
    }
    // Request lines for the direct decode, parse and hash timings.
    let sample_lines: Vec<String> = fixed_plan.iter().take(200).map(|p| p.line(&s)).collect();
    let after = serve_counters(&mut control);
    drop(control);
    stop.store(true, Ordering::Relaxed);
    let _ = monitor.join();
    for conn in &conns {
        let _ = conn.stream.shutdown(std::net::Shutdown::Write);
    }
    let Setup {
        handle, templates, ..
    } = s;
    if let Err(e) = handle.shutdown() {
        tally.fail(format!("daemon shutdown: {e}"));
    }
    for conn in conns {
        let _ = conn.reader.join();
    }

    let fixed = &steps[0];
    let solved: Vec<(&Done, &SolveResponse)> = fixed
        .done
        .iter()
        .filter_map(|d| d.solved.as_ref().map(|r| (d, r)))
        .collect();
    let fresh: Vec<&(&Done, &SolveResponse)> = solved
        .iter()
        .filter(|(d, r)| !r.cached && d.class != Class::Remap)
        .collect();
    let mut m = Metrics::default();
    if args.trace {
        let delta = |name: &str| after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);
        let frontend: Vec<f64> = solved
            .iter()
            .map(|(d, r)| d.latency_ms - (r.queue_wait_ns + r.solve_ns) as f64 / 1e6)
            .collect();
        let queue_ms: Vec<f64> = solved
            .iter()
            .map(|(_, r)| r.queue_wait_ns as f64 / 1e6)
            .collect();
        let solve_ms: Vec<f64> = solved
            .iter()
            .map(|(_, r)| r.solve_ns as f64 / 1e6)
            .collect();
        let claimed: f64 = queue_ms.iter().sum::<f64>() + solve_ms.iter().sum::<f64>();
        let latency: f64 = solved.iter().map(|(d, _)| d.latency_ms).sum();
        let attempted: usize = steps.iter().map(|st| st.done.len()).sum();
        let refused = steps
            .iter()
            .flat_map(|st| &st.done)
            .filter(|d| d.refused)
            .count();
        let ce: Vec<&SolveResponse> = solved
            .iter()
            .filter(|(d, _)| d.class == Class::Ce)
            .map(|(_, r)| *r)
            .collect();
        let warm: Vec<&&SolveResponse> = ce.iter().filter(|r| r.warm).collect();
        let saved: u64 = warm.iter().map(|r| r.iterations_saved).sum();
        let ran: u64 = warm.iter().map(|r| r.iterations).sum();
        let remaps: Vec<f64> = solved
            .iter()
            .filter(|(d, _)| d.class == Class::Remap)
            .map(|(_, r)| r.migrated_tasks as f64 / r.mapping.len() as f64)
            .collect();
        let remap_n: Vec<f64> = solved
            .iter()
            .filter(|(d, _)| d.class == Class::Remap)
            .map(|(_, r)| r.mapping.len() as f64)
            .collect();

        // Direct timings of the public decode, parse and hash functions
        // on the workload's own request lines.
        let lines: Vec<&str> = sample_lines.iter().map(|l| l.trim_end()).collect();
        let decoded: Vec<SolveRequest> = lines
            .iter()
            .filter_map(|l| match parse_request(l) {
                Ok(Request::Solve(r)) => Some(r),
                Ok(Request::Remap(r)) => Some(r.solve),
                _ => None,
            })
            .collect();
        let parsed: Vec<(MappingInstance, &str, u64)> = decoded
            .iter()
            .map(|r| (parse_instance(&r.tig, &r.platform), r.algo.as_str(), r.seed))
            .collect();
        m.put(
            "eval.plan_build_ms",
            time_us(&templates, 1, |t| {
                std::hint::black_box(match_core::build_plan(&t.inst));
            }) / 1e3,
        );
        m.put("remap.changed_tasks", median(&remap_n));
        m.put(
            "remap.migrated_frac",
            ratio(remaps.iter().sum(), remaps.len() as f64),
        );
        m.put(
            "graph.parse_us_p50",
            time_us(&decoded, 3, |r| {
                std::hint::black_box(parse_instance(&r.tig, &r.platform));
            }),
        );
        m.put("serve.frontend_ms_p50", median(&frontend));
        m.put("serve.frontend_ms_p99", quantile(&frontend, 0.99));
        m.put(
            "serve.decode_us_p50",
            time_us(&lines, 3, |l| {
                let _ = std::hint::black_box(parse_request(l));
            }),
        );
        m.put(
            "serve.hash_us_p50",
            time_us(&parsed, 3, |(inst, algo, seed)| {
                std::hint::black_box((job_key(inst, algo, *seed), structure_hash(inst)));
            }),
        );
        m.put("serve.queue_wait_ms_p50", median(&queue_ms));
        m.put("serve.queue_wait_ms_p99", quantile(&queue_ms, 0.99));
        m.put(
            "serve.rejected_frac",
            ratio(refused as f64, attempted as f64),
        );
        let depth_max = depths
            .lock()
            .expect("depth log poisoned")
            .iter()
            .map(|&(_, d)| d)
            .max();
        m.put("serve.queue_depth_max", depth_max.unwrap_or(0) as f64);
        let (hits, misses) = (
            delta("match_serve_cache_hits_total"),
            delta("match_serve_cache_misses_total"),
        );
        m.put("serve.cache_hit_ratio", ratio(hits, hits + misses));
        m.put(
            "serve.cache_evictions",
            delta("match_serve_cache_evictions_total"),
        );
        m.put("serve.solve_ms_p50", median(&solve_ms));
        m.put("serve.solve_ms_p99", quantile(&solve_ms, 0.99));
        m.put("warm.hit_ratio", ratio(warm.len() as f64, ce.len() as f64));
        m.put(
            "warm.iterations_saved_frac",
            ratio(saved as f64, (saved + ran) as f64),
        );
        m.put("loadgen.late_ms_p99", quantile(&fixed.late_ms, 0.99));
        // Nothing is added to the request path when tracing: every
        // per-layer figure comes from fields each reply already carries,
        // counter snapshots, or timings taken after the measured steps.
        m.put("trace.overhead_frac", 0.0);
        m.put("trace.attributed_frac", ratio(claimed, latency));
    } else {
        let latency = fixed.latencies();

        let solve_ms = |class: Class| -> Vec<f64> {
            solved
                .iter()
                .filter(|(d, _)| d.class == class)
                .map(|(_, r)| r.solve_ns as f64 / 1e6)
                .collect()
        };
        let remap_ms = solve_ms(Class::Remap);
        // The daemon's full solver runs: CE solves and CE re-maps.
        let ce_s: Vec<f64> = [solve_ms(Class::Ce), remap_ms.clone()]
            .concat()
            .iter()
            .map(|ms| ms / 1e3)
            .collect();
        // Unique and CE solves only: their mix is fixed by the deck,
        // while which hot keys miss the cache varies with the draw.
        let ratios: Vec<f64> = fresh
            .iter()
            .filter(|(d, _)| matches!(d.class, Class::Unique | Class::Ce))
            .map(|(d, r)| r.cost / templates[d.template].lower_bound)
            .collect();
        m.put("setup_s", median(&setup_s));
        m.put("solve_s_p50", median(&ce_s));
        // The step's sends span whole decks: its length is its
        // request count over its rate.
        let fixed_span_s = fixed.done.len() as f64 / fixed.rate;
        m.put("solve_throughput", ratio(fresh.len() as f64, fixed_span_s));
        m.put("cost_ratio", geomean(&ratios));
        m.put("remap_ms_p50", median(&remap_ms));
        m.put("remap_ms_p90", quantile(&remap_ms, 0.9));
        m.put("latency_ms_p50", median(&latency));
        m.put("latency_ms_p99", quantile(&latency, 0.99));
        m.put("max_rate_rps", lo);
        m.put("peak_rss_mb", crate::stats::peak_rss_mb());
    }
    let requests: usize = steps.iter().map(|st| st.done.len()).sum();
    Outcome {
        metrics: m,
        tally,
        samples: vec![
            ("steps", steps.len() as f64),
            ("requests", requests as f64),
            ("fixed_rate_requests", fixed.done.len() as f64),
            ("fixed_rate_fresh_solves", fresh.len() as f64),
            ("setup_reps", SETUP_REPS as f64),
        ],
    }
}
