//! `serve-mixed`: an in-process `serve::Server` (GENIEx engine, synth-s
//! model, default budgets) on port 0, driven over two `serve::Client`
//! connections, each carrying a seeded mix of 90% `Mvm` and 10% `Infer`
//! requests, so MVMs in flight on both connections can share a batch.
//!
//! Phase A is closed-loop: fixed-size bursts measure capacity. Phase B
//! is open-loop: each connection follows its own seeded Poisson
//! schedule at a fixed offered rate below capacity, every request is
//! timed from its due time, and the generator's lateness is reported.
//! This is the only workload whose hot path is funcsim's tiled,
//! bit-sliced inference on `GeniexTile`s, the kernels, and the serve
//! batcher and protocol. Cheap MVMs queue behind expensive inferences
//! in the single dispatcher, so a change that helps one kind at the
//! other's expense shows.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use serve::{Client, ServeConfig, ServeWorkload, Server};

use crate::stats::{mean, median, tail, TAIL_BEYOND};
use crate::trace::{Snapshot, Tracer};
use crate::{derive_seed, Ctx, Outcome, Rng};

const SETUP_BUILDS: usize = 9;
/// Client connections, one client thread each: no more than the
/// machine's two cores.
const CONNECTIONS: usize = 2;
/// Each connection sends its requests in blocks of `BLOCK`, of which
/// `INFERS_PER_BLOCK` at seeded positions are `Infer`: the 90/10 mix.
const BLOCK: u64 = 20;
const INFERS_PER_BLOCK: u64 = 2;
/// Phase B's offered rate per connection (req/s); 20 req/s in all,
/// fixed below the capacity phase A measures.
const RATE_PER_CONNECTION: f64 = 10.0;
/// Share of the run's seconds spent in phase A.
const PHASE_A_SHARE: f64 = 0.6;
const MIN_BURSTS: usize = 5;
/// Every this-many-th response is compared with the local oracle.
const CHECK_EVERY: u64 = 5;

fn offered_rps() -> f64 {
    RATE_PER_CONNECTION * CONNECTIONS as f64
}

/// Requests in one closed-loop burst: one block per connection.
fn burst_size() -> u64 {
    BLOCK * CONNECTIONS as u64
}

/// The request index of a connection's `j`-th request; inputs depend
/// on the index alone, so no two requests share one.
fn request_index(conn: usize, j: u64) -> u64 {
    ((conn as u64) << 40) | j
}

/// The kind of a connection's `j`-th request. Block `j / BLOCK` is a
/// seeded shuffle of `INFERS_PER_BLOCK` inferences among MVMs, so every
/// block holds the mix exactly.
fn kind_of(seed: u64, conn: usize, j: u64) -> Kind {
    let block = j / BLOCK;
    let mut kinds: Vec<Kind> = (0..BLOCK)
        .map(|i| {
            if i < INFERS_PER_BLOCK {
                Kind::Infer
            } else {
                Kind::Mvm
            }
        })
        .collect();
    let mut rng = Rng::new(derive_seed(seed, request_index(conn, block)));
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    kinds[(j % BLOCK) as usize]
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Mvm,
    Infer,
}

#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Codes(Vec<i64>),
    Logits(Vec<f32>),
}

/// Seeds and shapes the request generator needs. Request `index` of
/// either kind has inputs drawn from `input_seed` and `index` alone;
/// which kind it is comes from `kind_seed`.
struct Gen<'a> {
    oracle: &'a ServeWorkload,
    input_seed: u64,
    kind_seed: u64,
}

impl Gen<'_> {
    fn codes(&self, index: u64) -> Vec<i64> {
        serve::workload::request_codes(
            self.oracle.input_format,
            self.oracle.k,
            self.input_seed,
            index,
        )
    }

    fn image(&self, index: u64) -> Vec<f32> {
        serve::workload::request_image(self.oracle.input_shape, self.input_seed, index)
    }

    fn send(&self, client: &mut Client, kind: Kind, index: u64) -> Result<Answer, String> {
        let [c, h, w] = self.oracle.input_shape;
        match kind {
            Kind::Mvm => client.mvm(self.codes(index)).map(Answer::Codes),
            Kind::Infer => client
                .infer([c as u32, h as u32, w as u32], self.image(index))
                .map(Answer::Logits),
        }
        .map_err(|e| format!("request {index}: {e}"))
    }

    /// The locally computed answer for `index`.
    fn expected(&self, kind: Kind, index: u64, tracer: &Tracer) -> Result<(Answer, f64), String> {
        let t = Instant::now();
        let answer = match kind {
            Kind::Mvm => {
                let _s = tracer.span("funcsim.mvm_codes", 0, index + 1);
                Answer::Codes(
                    self.oracle
                        .matrix
                        .mvm_codes(&self.codes(index), 1)
                        .map_err(|e| format!("oracle mvm: {e}"))?,
                )
            }
            Kind::Infer => {
                let _s = tracer.span("funcsim.network.forward", 0, index + 1);
                let [c, h, w] = self.oracle.input_shape;
                let network = self.oracle.network.as_ref().ok_or("oracle has no model")?;
                let image = nn::Tensor::from_vec(self.image(index), &[1, c, h, w])
                    .map_err(|e| format!("oracle image: {e}"))?;
                let logits = network
                    .forward(&image)
                    .map_err(|e| format!("oracle forward: {e}"))?;
                Answer::Logits(logits.data().to_vec())
            }
        };
        Ok((answer, t.elapsed().as_secs_f64()))
    }
}

/// One finished request.
struct Done {
    index: u64,
    kind: Kind,
    /// Completion minus due time (open loop) or send time (closed).
    latency_s: f64,
    /// Completion minus send time.
    rtt_s: f64,
    /// Send time minus due time.
    late_s: f64,
    /// Kept for every `CHECK_EVERY`-th index.
    answer: Option<Answer>,
    error: Option<String>,
}

fn fire(
    gen: &Gen<'_>,
    client: &mut Client,
    tracer: &Tracer,
    parent: u64,
    kind: Kind,
    index: u64,
    due: Instant,
) -> Done {
    let name = match kind {
        Kind::Mvm => "serve.client.mvm",
        Kind::Infer => "serve.client.infer",
    };
    let _s = tracer.span(name, parent, index + 1);
    let sent = Instant::now();
    let result = gen.send(client, kind, index);
    let done = Instant::now();
    let (answer, error) = match result {
        Ok(a) => (index.is_multiple_of(CHECK_EVERY).then_some(a), None),
        Err(e) => (None, Some(e)),
    };
    Done {
        index,
        kind,
        latency_s: done.saturating_duration_since(due).as_secs_f64(),
        rtt_s: (done - sent).as_secs_f64(),
        late_s: sent.saturating_duration_since(due).as_secs_f64(),
        answer,
        error,
    }
}

/// One closed-loop burst: each connection sends its requests
/// `first..first + BLOCK` back to back. Returns the wall time.
fn burst(
    gen: &Gen<'_>,
    clients: &mut [Client],
    tracer: &Tracer,
    first: u64,
    done: &mut Vec<Done>,
) -> f64 {
    let span = tracer.span("serve.burst", 0, 0);
    let parent = span.id();
    let start = Instant::now();
    let per_conn: Vec<Vec<Done>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    (first..first + BLOCK)
                        .map(|j| {
                            let kind = kind_of(gen.kind_seed, c, j);
                            let index = request_index(c, j);
                            fire(gen, client, tracer, parent, kind, index, Instant::now())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    done.extend(per_conn.into_iter().flatten());
    wall
}

/// Phase B: every connection follows its own seeded Poisson schedule
/// at `RATE_PER_CONNECTION` from its request `first` on, for `seconds`
/// and on until it has sent enough inferences for a tail.
fn open_loop(
    gen: &Gen<'_>,
    clients: &mut [Client],
    tracer: &Tracer,
    seed: u64,
    seconds: f64,
    first: u64,
) -> Vec<Done> {
    let span = tracer.span("serve.open_loop", 0, 0);
    let parent = span.id();
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut rng = Rng::new(derive_seed(seed, 0xB0 + c as u64));
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut infers = 0;
                    let mut due_s = 0.0;
                    for j in first.. {
                        due_s += -(1.0 - rng.unit()).ln() / RATE_PER_CONNECTION;
                        if due_s >= seconds && infers >= TAIL_BEYOND {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(due_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let kind = kind_of(gen.kind_seed, c, j);
                        infers += usize::from(kind == Kind::Infer);
                        let index = request_index(c, j);
                        out.push(fire(gen, client, tracer, parent, kind, index, due));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Server-side figures from the `Stats` document.
fn stats_field(doc: &telemetry::Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))
        .and_then(telemetry::Json::as_f64)
        .unwrap_or(f64::NAN)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = &ctx.tracer;
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };

    // Set-up: the hot workload is built cold several times; the first
    // copy serves, the second is the oracle for the output checks, and
    // the rest are dropped as soon as they are timed.
    let mut builds = Vec::with_capacity(2);
    let mut setup = Vec::with_capacity(SETUP_BUILDS);
    for _ in 0..SETUP_BUILDS {
        let _s = tracer.span("serve.workload.build", 0, 0);
        let t = Instant::now();
        let build = serve::workload::build(&cfg)?;
        setup.push(t.elapsed().as_secs_f64());
        if builds.len() < 2 {
            builds.push(build);
        }
    }
    out.values.set("setup_s", median(&setup));
    let oracle = builds.pop().expect("oracle build");
    let served = builds.pop().expect("served build");
    let server = Server::bind(&cfg, served).map_err(|e| format!("bind: {e}"))?;
    let handle = server.handle();
    let addr = handle.addr();

    let gen = Gen {
        oracle: &oracle,
        input_seed: derive_seed(ctx.seed, 0x10),
        kind_seed: derive_seed(ctx.seed, 0x20),
    };
    let (phases, totals) = std::thread::scope(|s| {
        let serving = s.spawn(move || server.run());
        let phases = drive(ctx, &gen, addr);
        handle.shutdown();
        let totals = serving
            .join()
            .map_err(|_| "server thread panicked".to_string())
            .and_then(|r| r.map_err(|e| format!("server: {e}")));
        (phases, totals)
    });
    let mut phases = phases?;
    let totals = totals?;
    tracer.set_active(ctx.traced);

    // Output checks, outside every timed region.
    let mut injected = !ctx.inject_mismatch;
    let (mut mvm_check_us, mut forward_check_ms) = (Vec::new(), Vec::new());
    for d in phases
        .warmup
        .iter_mut()
        .chain(&mut phases.bursts)
        .chain(&mut phases.open)
    {
        let mut ok = d.error.is_none();
        if let Some(answer) = &mut d.answer {
            if !injected {
                if let Answer::Codes(codes) = answer {
                    codes[0] += 1;
                    injected = true;
                }
            }
            let (expected, secs) = gen.expected(d.kind, d.index, tracer)?;
            match d.kind {
                Kind::Mvm => mvm_check_us.push(secs * 1e6),
                Kind::Infer => forward_check_ms.push(secs * 1e3),
            }
            ok &= *answer == expected;
        }
        out.check(ok, || {
            format!(
                "request {} ({:?}): {}",
                d.index,
                d.kind,
                d.error
                    .as_deref()
                    .unwrap_or("response differs from the oracle")
            )
        });
    }
    out.check(totals.errors == 0, || {
        format!("server counted {} errors", totals.errors)
    });

    let latencies = |done: &[Done], kind: Kind| -> Vec<f64> {
        done.iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.latency_s * 1e3)
            .collect()
    };
    let open_mvm_ms = latencies(&phases.open, Kind::Mvm);
    let open_infer_ms = latencies(&phases.open, Kind::Infer);
    let too_few = |what: &str| format!("too few open-loop {what} for a tail");
    let open_mvm = tail(&open_mvm_ms).ok_or_else(|| too_few("MVMs"))?;
    let open_infer = tail(&open_infer_ms).ok_or_else(|| too_few("inferences"))?;
    let late_ms: Vec<f64> = phases.open.iter().map(|d| d.late_s * 1e3).collect();
    let late = tail(&late_ms).ok_or_else(|| too_few("requests"))?;
    let wall = median(&phases.walls[0]);
    let rps = burst_size() as f64 / wall;
    println!(
        "# serve-mixed: phase A {} bursts of {}, capacity {rps:.1} req/s, light = Mvm, \
         heavy = Infer",
        phases.walls[0].len() + phases.walls[1].len(),
        burst_size(),
    );
    println!(
        "# phase B, {} req/s offered, from due time: Mvm p50 {:.3} ms, p{:.1} of {} {:.3} ms; \
         Infer p50 {:.3} ms, p{:.1} of {} {:.3} ms; generator late p{:.1} {:.3} ms",
        offered_rps(),
        median(&open_mvm_ms),
        open_mvm.percentile,
        open_mvm.samples,
        open_mvm.value,
        median(&open_infer_ms),
        open_infer.percentile,
        open_infer.samples,
        open_infer.value,
        late.percentile,
        late.value
    );
    if offered_rps() >= rps {
        println!("# serve-mixed: offered rate is not below the measured capacity");
    }
    // The end-to-end latencies come from the closed-loop bursts: with
    // the host's speed drifting, phase B's mostly idle CPU made its
    // open-loop latencies twice as spread (see README.md).
    out.set_latencies(
        &latencies(&phases.bursts, Kind::Mvm),
        &latencies(&phases.bursts, Kind::Infer),
    )?;
    let v = &mut out.values;
    v.set("wall_s", wall);

    if ctx.traced {
        let layers = phases.layers.as_ref().ok_or("traced run without stats")?;
        let stats = &layers.stats;
        let rtt_us: Vec<f64> = phases.open.iter().map(|d| d.rtt_s * 1e6).collect();
        v.set("serve.rps", rps);
        v.set("serve.open.mvm_p50_ms", median(&open_mvm_ms));
        v.set("serve.open.mvm_tail_ms", open_mvm.value);
        v.set("serve.open.infer_p50_ms", median(&open_infer_ms));
        v.set("serve.open.infer_tail_ms", open_infer.value);
        v.set("funcsim.mvm_us", median(&mvm_check_us));
        v.set("funcsim.forward_ms", median(&forward_check_ms));
        v.set(
            "funcsim.tile_ops_per_req",
            layers.tile_ops as f64 / phases.open.len() as f64,
        );
        v.set(
            "kernels.scratch.reuse_frac",
            layers.scratch_reuse as f64 / (layers.scratch_reuse + layers.scratch_alloc) as f64,
        );
        v.set(
            "serve.queue_wait_us_p50",
            stats_field(stats, &["queue", "wait_us", "p50"]),
        );
        v.set(
            "serve.queue_wait_us_p99",
            stats_field(stats, &["queue", "wait_us", "p99"]),
        );
        v.set(
            "serve.batch_occupancy_mean",
            stats_field(stats, &["batch_occupancy", "mean"]),
        );
        v.set(
            "serve.burst.batch_occupancy_mean",
            stats_field(&layers.burst_stats, &["batch_occupancy", "mean"]),
        );
        v.set(
            "serve.flush_full",
            stats_field(stats, &["queue", "flush_full"]),
        );
        v.set(
            "serve.flush_linger",
            stats_field(stats, &["queue", "flush_linger"]),
        );
        v.set(
            "serve.rejected",
            stats_field(stats, &["queue", "rejected_full"]),
        );
        // The server's latency histogram has power-of-two buckets, so
        // only its mean is exact: compare means, not medians.
        v.set(
            "serve.io_us_mean",
            mean(&rtt_us) - stats_field(stats, &["latency_us", "mean"]),
        );
        v.set("gen.late_ms_tail", late.value);
        v.set(
            "trace.overhead_frac",
            median(&phases.walls[1]) / median(&phases.walls[0]) - 1.0,
        );
    }
    Ok(out)
}

/// Phase results.
struct Phases {
    warmup: Vec<Done>,
    bursts: Vec<Done>,
    /// Burst walls, [untraced, traced].
    walls: [Vec<f64>; 2],
    open: Vec<Done>,
    layers: Option<Layers>,
}

/// Server stats over phase A, and counters and server stats over
/// the open-loop phase B, of a traced run.
struct Layers {
    burst_stats: telemetry::Json,
    stats: telemetry::Json,
    tile_ops: u64,
    scratch_reuse: u64,
    scratch_alloc: u64,
}

fn drive(ctx: &Ctx, gen: &Gen<'_>, addr: SocketAddr) -> Result<Phases, String> {
    let tracer = &ctx.tracer;
    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let stats = |client: &mut Client| -> Result<telemetry::Json, String> {
        let text = client.stats().map_err(|e| format!("stats: {e}"))?;
        telemetry::json::parse(&text).map_err(|e| format!("stats JSON: {e}"))
    };

    let mut warmup = Vec::new();
    burst(gen, &mut clients, tracer, 0, &mut warmup);

    // Phase A: closed-loop bursts; a traced run alternates untraced
    // and traced bursts to measure the tracing overhead. The server
    // records its batch figures only while telemetry is on, so after
    // this reset its `Stats` document covers phase A's traced bursts.
    if ctx.traced {
        telemetry::reset_metrics();
    }
    let mut bursts = Vec::new();
    let mut walls = [Vec::new(), Vec::new()];
    let started = Instant::now();
    let mut b = 0u64;
    while b < MIN_BURSTS as u64 || started.elapsed().as_secs_f64() < PHASE_A_SHARE * ctx.seconds {
        let traced = ctx.traced && b % 2 == 1;
        tracer.set_active(traced);
        let first = (b + 1) * BLOCK;
        walls[usize::from(traced)].push(burst(gen, &mut clients, tracer, first, &mut bursts));
        b += 1;
    }
    let burst_stats = if ctx.traced {
        Some(stats(&mut clients[0])?)
    } else {
        None
    };

    // Phase B: open loop, traced whole in a traced run.
    tracer.set_active(ctx.traced);
    if ctx.traced {
        telemetry::reset_metrics();
    }
    let before = Snapshot::take();
    let seconds = (1.0 - PHASE_A_SHARE) * ctx.seconds;
    let first = (b + 1) * BLOCK;
    let open = open_loop(gen, &mut clients, tracer, ctx.seed, seconds, first);
    let layers = match burst_stats {
        Some(burst_stats) => {
            let after = Snapshot::take();
            Some(Layers {
                burst_stats,
                stats: stats(&mut clients[0])?,
                tile_ops: after.counter_since(&before, "funcsim.tile_ops"),
                scratch_reuse: after.counter_since(&before, "kernels.scratch.reuse"),
                scratch_alloc: after.counter_since(&before, "kernels.scratch.alloc"),
            })
        }
        None => None,
    };
    Ok(Phases {
        warmup,
        bursts,
        walls,
        open,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_of_every_connection_holds_the_ninety_ten_mix() {
        assert_eq!(10 * INFERS_PER_BLOCK, BLOCK);
        for conn in 0..CONNECTIONS {
            for block in 0..50 {
                let infers = (block * BLOCK..(block + 1) * BLOCK)
                    .filter(|&j| kind_of(7, conn, j) == Kind::Infer)
                    .count() as u64;
                assert_eq!(infers, INFERS_PER_BLOCK);
            }
        }
    }

    #[test]
    fn request_kinds_are_seeded_and_differ_between_connections() {
        let kinds = |seed, conn| (0..200).map(|j| kind_of(seed, conn, j)).collect::<Vec<_>>();
        assert_eq!(kinds(7, 0), kinds(7, 0));
        assert_ne!(kinds(7, 0), kinds(7, 1));
        assert_ne!(kinds(7, 0), kinds(8, 0));
        assert_ne!(request_index(0, 5), request_index(1, 5));
    }

    #[test]
    fn stats_fields_are_read_by_path() {
        let doc = telemetry::json::parse(r#"{"queue": {"wait_us": {"p50": 12.5}}}"#).unwrap();
        assert_eq!(stats_field(&doc, &["queue", "wait_us", "p50"]), 12.5);
        assert!(stats_field(&doc, &["queue", "missing"]).is_nan());
    }
}
