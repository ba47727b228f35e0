//! `simulate_requests`: a closed loop of `/v1/simulate` requests against
//! an in-process lisa-serve over loopback, one connection per request.
//! It runs in the traced run, and its request metrics are per-layer (see
//! [`crate::bench`]).
//!
//! The client pauses for a think time drawn uniformly from
//! `0..MAX_THINK` before each request. The server's acceptor polls every
//! 2 ms when no connection is pending, so with no pause every round trip
//! would end on that poll's phase: a body whose work takes just under a
//! poll period answers a whole period sooner than one just over it, and
//! the median jumps by 2 ms when the host's speed moves a few bodies
//! across that edge. The random pause makes the wait for the poll
//! uniform, so round trips move smoothly with the work.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lisa_metrics::json::{self, Value};
use lisa_models::Workbench;
use lisa_serve::api::SimulateRequest;
use lisa_serve::client;
use lisa_serve::{AppState, ServeConfig, ServeSummary, Server, ServerHandle};
use lisa_sim::SimMode;

use crate::programs::{request_kernels, source_lines, BACKENDS, MODELS};
use crate::report::Tally;
use crate::rng::SplitMix;
use crate::stats::median;

/// Backends request bodies use: `compiled` (the API default) and `ops`.
pub const REQUEST_BACKENDS: [usize; 2] = [1, 2];

/// `max_cycles` of every body (the API default).
pub const MAX_CYCLES: u64 = 100_000;

/// Longest pause between a response and the client's next request.
pub const MAX_THINK: Duration = Duration::from_millis(2);

/// Client-side timeout per request.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// One `/v1/simulate` body and the answer it must get.
#[derive(Debug, Clone)]
pub struct Body {
    /// Model index.
    pub model: usize,
    /// Backend index.
    pub backend: usize,
    /// Kernel name.
    pub kernel: String,
    /// Assembly source.
    pub source: String,
    /// Source lines that carry an instruction or directive.
    pub lines: usize,
    /// Program image from the program memory's base.
    pub image: Vec<u128>,
    /// The request body.
    pub json: String,
    /// State digest of an in-process interpretive run of the program.
    pub digest: u64,
}

/// The 24 bodies: twelve bundled kernels × {compiled, ops}. Kernels go
/// without their data images, as over HTTP, so each body's reference is
/// the digest of an interpretive run computed here.
///
/// # Errors
///
/// Assembly or simulation errors, described.
pub fn bodies(wbs: &[Workbench]) -> Result<Vec<Body>, String> {
    let mut out = Vec::new();
    for (m, kernels) in request_kernels().into_iter().enumerate() {
        let spec = &MODELS[m];
        let model = wbs[m].model();
        for kernel in kernels {
            let program = spec
                .assembler(model)
                .assemble(&kernel.source)
                .map_err(|e| format!("{}: {e}", kernel.name))?;
            let image = spec.image(model, program.origin, &program.words)?;
            let mut sim = spec.load(model, SimMode::Interpretive, &[], &image)?;
            let halt = spec.halt(model)?;
            sim.run_until(|st| st.read_int(halt, &[]).unwrap_or(0) != 0, MAX_CYCLES)
                .map_err(|e| format!("{}: {e}", kernel.name))?;
            let digest = sim.state().digest();
            for backend in REQUEST_BACKENDS {
                let json = SimulateRequest {
                    model: spec.name.to_owned(),
                    program: kernel.source.clone(),
                    mode: BACKENDS[backend].1.to_owned(),
                    max_cycles: MAX_CYCLES,
                    dump: Vec::new(),
                    probes: Vec::new(),
                }
                .to_json();
                out.push(Body {
                    model: m,
                    backend,
                    kernel: kernel.name.clone(),
                    source: kernel.source.clone(),
                    lines: source_lines(&kernel.source),
                    image: image.clone(),
                    json,
                    digest,
                });
            }
        }
    }
    Ok(out)
}

/// Checks a response against its body's reference: status 200,
/// `halted: true` and the reference state digest.
///
/// # Errors
///
/// What differs.
pub fn verify(body: &Body, response: &std::io::Result<client::HttpResponse>) -> Result<(), String> {
    let what = || format!("{} on {}", body.kernel, BACKENDS[body.backend].1);
    let resp = response.as_ref().map_err(|e| format!("{}: {e}", what()))?;
    let text = String::from_utf8_lossy(&resp.body);
    if resp.status != 200 {
        return Err(format!("{}: HTTP {}: {text}", what(), resp.status));
    }
    let value = json::parse(&text).map_err(|e| format!("{}: {e}", what()))?;
    if value.get("halted").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{}: did not halt: {text}", what()));
    }
    let want = format!("{:#018x}", body.digest);
    match value.get("state_digest").and_then(Value::as_str) {
        Some(got) if got == want => Ok(()),
        got => Err(format!("{}: state_digest {got:?}, expected {want}", what())),
    }
}

/// A running in-process server.
pub struct Service {
    /// The shared service state (also used for in-process dispatch).
    pub state: Arc<AppState>,
    /// The bound `host:port`.
    pub addr: String,
    handle: ServerHandle,
    join: Option<JoinHandle<std::io::Result<ServeSummary>>>,
}

impl Service {
    /// Builds the service state and starts serving on an ephemeral
    /// loopback port with `workers` workers.
    ///
    /// # Errors
    ///
    /// Bind errors.
    pub fn start(workers: usize) -> Result<Service, String> {
        let state = Arc::new(AppState::new());
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            queue: 64,
            ..ServeConfig::default()
        };
        let server = Server::bind(config, Arc::clone(&state)).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("bind: {e}"))?.to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        Ok(Service { state, addr, handle, join: Some(join) })
    }

    /// Shuts the server down and waits for it.
    ///
    /// # Errors
    ///
    /// When the server failed or panicked.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.handle.shutdown();
        match self.join.take().map(JoinHandle::join) {
            None | Some(Ok(Ok(_))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server: {e}")),
            Some(Err(_)) => Err("server thread panicked".to_owned()),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The body indices the client sends in one pass: a pure function of
/// `(seed, pass)`. Every body is sent once per cycle, in an order shuffled
/// anew for each cycle, so the mix of a pass is the same on every seed up
/// to the last, partial cycle.
pub fn draws(seed: u64, pass: u64, bodies: usize) -> impl Iterator<Item = usize> {
    let mut rng = SplitMix::new(seed, 0x5245_5155_4553_0000 + (pass << 8));
    std::iter::repeat_with(move || {
        let mut cycle: Vec<usize> = (0..bodies).collect();
        for i in (1..bodies).rev() {
            cycle.swap(i, rng.below(i as u64 + 1) as usize);
        }
        cycle
    })
    .flatten()
}

/// One request of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Body index.
    pub body: usize,
    /// When the client started sending.
    pub start: Instant,
    /// When the client had the whole response.
    pub end: Instant,
}

impl Sample {
    /// Round-trip time in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// The think time before each request of one pass: a pure function of
/// `(seed, pass)`.
pub fn thinks(seed: u64, pass: u64) -> impl Iterator<Item = Duration> {
    let mut rng = SplitMix::new(seed, 0x5448_494E_4B00_0000 + (pass << 8));
    let max = MAX_THINK.as_nanos() as u64;
    std::iter::repeat_with(move || Duration::from_nanos(rng.below(max)))
}

/// The requests of one or more closed-loop passes.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Every completed request.
    pub samples: Vec<Sample>,
    /// From the first send to the last response, think time included,
    /// summed over passes.
    pub elapsed: Duration,
}

impl Pass {
    /// Appends another pass's requests.
    pub fn extend(&mut self, other: Pass) {
        self.samples.extend(other.samples);
        self.elapsed += other.elapsed;
    }

    /// Completed requests per second of round-trip time: the client's
    /// think time is left out.
    #[must_use]
    pub fn req_per_s(&self) -> f64 {
        let busy: u64 = self.samples.iter().map(Sample::ns).sum();
        self.samples.len() as f64 * 1e9 / busy.max(1) as f64
    }

    /// Round-trip times in ms.
    #[must_use]
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// Median round trip in ms.
    #[must_use]
    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms())
    }
}

/// Runs one closed-loop client for `window` (it sends its next request
/// only after the previous answer and a think time) and checks every
/// answer. One request
/// in flight is what each of the service's callers holds: the fleet
/// coordinator, `lisa-tool fuzz --remote` and the CI smoke test each
/// wait for one instance's reply before sending it more.
pub fn closed_loop(
    addr: &str,
    bodies: &[Body],
    (seed, pass): (u64, u64),
    window: Duration,
    tally: &mut Tally,
) -> Pass {
    let start = Instant::now();
    let deadline = start + window;
    let mut samples = Vec::new();
    for (body, think) in draws(seed, pass, bodies.len()).zip(thinks(seed, pass)) {
        std::thread::sleep(think);
        if Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        let response = client::post(addr, "/v1/simulate", &bodies[body].json, CLIENT_TIMEOUT);
        let t1 = Instant::now();
        samples.push(Sample { body, start: t0, end: t1 });
        tally.check(verify(&bodies[body], &response));
    }
    let last = samples.last().map_or(start, |s| s.end);
    Pass { samples, elapsed: last.duration_since(start) }
}

/// Sends every body once, in order, and checks the answers (set-up
/// warm-up).
pub fn warm_up(addr: &str, bodies: &[Body], tally: &mut Tally) {
    for body in bodies {
        tally.check(verify(body, &client::post(addr, "/v1/simulate", &body.json, CLIENT_TIMEOUT)));
    }
}
