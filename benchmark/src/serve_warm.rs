//! `serve_warm`: the serving path with replay bypassed.
//!
//! An in-process `serve_loop` answers framed requests over a
//! `UnixStream` pair. Two tenants are opened on the riscv conv2d kernel
//! and the cache is warmed in set-up by sending every `tune` request of
//! the script once, so in the timed reps every simulation is a memo hit
//! served before decode: `tensor` build, `memo` fingerprint/lookup,
//! `search`, `predict` scoring, `serve` framing and `service`
//! accounting do the work. One `save_cache` per rep puts the snapshot
//! write path beside the lookup read path.
//!
//! What a warm request costs is set by the trajectory its tune seed
//! produces (the programs it builds and fingerprints, the entries it
//! leaves in the snapshot), and one trajectory's cost moves by ±25 % with
//! its seed. Every distinct request of the script therefore searches
//! under a seed of its own: a rep averages over `DISTINCT_TUNES`
//! trajectories, and what `--seed` decides about a rep's cost averages
//! out with them.

use crate::harness::{Verdict, Workload, ROOT_SPAN};
use crate::inputs::{conv_def, mix, TrainingSet};
use crate::trace::Tracer;
use simtune_bench::serve::{read_frame, serve_loop, write_frame, Request, Response, Server};
use simtune_core::{
    memo_fingerprint, tune_with_predictor, AccurateBackend, EngineKind, KernelBuilder,
    ScorePredictor, SimBackend, SimCache, SimService, TuneOptions,
};
use simtune_hw::TargetSpec;
use simtune_isa::RunLimits;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
const STRATEGIES: [&str; 5] = ["random", "grid", "hill", "evolutionary", "annealing"];
/// Distinct `tune` requests: each of the 10 pairs of strategy and tenant
/// four times, every request under its own tune seed.
const DISTINCT_TUNES: usize = 40;
/// `tune` requests per rep: every distinct request twice, which makes the
/// requests and the one `save_cache` (whose snapshot holds what all of
/// them found) about half of a rep each.
const TUNES_PER_REP: usize = 2 * DISTINCT_TUNES;
/// Entries the served cache holds in the timed reps (what the script's
/// trajectories found, topped up), and trials per topping-up request.
const CACHE_ENTRIES: usize = 336;
const FILL_TRIALS: u64 = 4;
const N_TRIALS: u64 = 24;
const BATCH: u64 = 12;
/// Training-set size of each tenant's `open`.
const OPEN_IMPLS: u64 = 16;

/// Seeds of the serving script, derived from `--seed`: the two tenants'
/// `open` seeds and the seed the tune requests' seeds are derived from.
struct ServeSeeds {
    open: [u64; 2],
    tune: u64,
}

/// What the in-process replication says a `tune` request must answer.
struct Expected {
    best_score_bits: u64,
    trials: u64,
}

/// One request's client-side round trip.
pub struct Exchange {
    latency_ms: f64,
    response: Response,
}

/// The fixture: a server thread and its cache, two tenants, the rep
/// script over them and what every request of it must answer.
pub struct ServeWarm {
    client: UnixStream,
    server: Option<JoinHandle<()>>,
    /// The service's cache, shared so set-up can recall from it.
    pub cache: Arc<SimCache>,
    /// The rep script: `TUNES_PER_REP` tunes, then one service-wide
    /// `stats`, then one `save_cache`.
    script: Vec<Request>,
    expected: Vec<Expected>,
    /// Per-tenant memo (hits, misses) after warming — a warm rep adds no
    /// misses — and as of the latest `tune` response.
    baseline: [(u64, u64); 2],
    latest: [(u64, u64); 2],
    pub entries: u64,
    pub snapshot: PathBuf,
    /// Mean `open` round trip of the two tenants, in ms.
    pub open_ms: f64,
    trials: u64,
    insts: u64,
    next_id: u64,
}

fn request(op: &str) -> Request {
    Request {
        op: op.into(),
        ..Request::default()
    }
}

impl ServeWarm {
    fn open(seeds: ServeSeeds, snapshot: PathBuf) -> ServeWarm {
        let cache = Arc::new(SimCache::new());
        let (client, server_end) = UnixStream::pair().expect("socket pair opens");
        let service_cache = cache.clone();
        let server = std::thread::spawn(move || {
            let service = SimService::builder()
                .n_parallel(Self::N_PARALLEL)
                .cache(service_cache)
                .build();
            let mut server = Server::new(service);
            let mut reader = server_end.try_clone().expect("socket clones");
            let mut writer = server_end;
            serve_loop(&mut reader, &mut writer, &mut server).expect("serve loop ends cleanly");
        });
        let mut w = ServeWarm {
            client,
            server: Some(server),
            cache,
            script: Vec::new(),
            expected: Vec::new(),
            baseline: [(0, 0); 2],
            latest: [(0, 0); 2],
            entries: 0,
            snapshot,
            open_ms: 0.0,
            trials: 0,
            insts: 0,
            next_id: 0,
        };

        for (tenant, open_seed) in TENANTS.iter().zip(seeds.open) {
            let opened = w.call(Request {
                tenant: Some(tenant.to_string()),
                arch: Some("riscv".into()),
                workload: Some("conv2d".into()),
                impls: Some(OPEN_IMPLS),
                seed: Some(open_seed),
                ..request("open")
            });
            assert!(
                opened.response.ok,
                "open failed: {:?}",
                opened.response.error
            );
            w.open_ms += opened.latency_ms / TENANTS.len() as f64;
        }
        w.script = (0..TUNES_PER_REP)
            .map(|k| Request {
                tenant: Some(TENANTS[k % TENANTS.len()].to_string()),
                n_trials: Some(N_TRIALS),
                batch_size: Some(BATCH),
                seed: Some(mix(seeds.tune, (k % DISTINCT_TUNES) as u64)),
                strategy: Some(STRATEGIES[k % STRATEGIES.len()].to_string()),
                ..request("tune")
            })
            .collect();
        // Warm: the first pass over the tunes simulates, and by its end
        // every request's candidates are resident.
        for req in w.script.clone() {
            let warmed = w.call(req);
            assert!(
                warmed.response.ok,
                "warming tune failed: {:?}",
                warmed.response.error
            );
        }
        w.replicate(&seeds);
        w.fill(seeds.tune);
        for (i, tenant) in TENANTS.iter().enumerate() {
            let stats = w.call(Request {
                tenant: Some(tenant.to_string()),
                ..request("stats")
            });
            w.baseline[i] = (
                stats.response.memo_hits.expect("tenant stats carry hits"),
                stats
                    .response
                    .memo_misses
                    .expect("tenant stats carry misses"),
            );
        }
        w.latest = w.baseline;
        w.script.push(request("stats"));
        w.script.push(Request {
            path: Some(w.snapshot.to_string_lossy().into_owned()),
            ..request("save_cache")
        });
        w.entries = w.cache.len() as u64;
        w
    }

    /// Brings the cache to `CACHE_ENTRIES` entries with small random
    /// tunes that are not part of the script. The 40 trajectories leave
    /// 264–307 distinct programs behind depending on the seed, and
    /// `save_cache`, half of a rep, costs what the cache holds, so without
    /// this a seed's entry count moves its rep time by ±4 %. (A seed
    /// whose trajectories alone exceed the target keeps what they found.)
    fn fill(&mut self, tune_seed: u64) {
        for k in 0.. {
            if self.cache.len() + FILL_TRIALS as usize > CACHE_ENTRIES {
                break;
            }
            let filled = self.call(Request {
                tenant: Some(TENANTS[k % TENANTS.len()].to_string()),
                n_trials: Some(FILL_TRIALS),
                batch_size: Some(FILL_TRIALS),
                seed: Some(mix(tune_seed, (DISTINCT_TUNES + k) as u64)),
                strategy: Some("random".to_string()),
                ..request("tune")
            });
            assert!(
                filled.response.ok,
                "filling tune failed: {:?}",
                filled.response.error
            );
        }
    }

    fn call(&mut self, mut req: Request) -> Exchange {
        self.next_id += 1;
        req.id = self.next_id;
        let json = serde_json::to_string(&req).expect("requests serialize");
        let t0 = Instant::now();
        write_frame(&mut self.client, &json).expect("server accepts the frame");
        let frame = read_frame(&mut self.client)
            .expect("server answers")
            .expect("server keeps the connection open");
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let response: Response = serde_json::from_str(&frame).expect("responses parse");
        assert_eq!(response.id, req.id, "responses arrive in request order");
        Exchange {
            latency_ms,
            response,
        }
    }

    fn tenant_index(req: &Request) -> usize {
        TENANTS
            .iter()
            .position(|t| Some(*t) == req.tenant.as_deref())
            .expect("script requests name a known tenant")
    }

    /// Sends the rep script. With a tracer every round trip is a span.
    fn run_script(&mut self, mut tracer: Option<&mut Tracer>) -> Vec<Exchange> {
        (0..self.script.len())
            .map(|i| {
                let req = self.script[i].clone();
                match tracer.as_deref_mut() {
                    Some(t) => {
                        let name = match req.op.as_str() {
                            "tune" => "serve.tune",
                            "stats" => "serve.stats",
                            _ => "serve.save_cache",
                        };
                        let id = t.enter(name);
                        let exchange = self.call(req);
                        t.exit(id);
                        exchange
                    }
                    None => self.call(req),
                }
            })
            .collect()
    }

    /// Per-op-type latencies of the exchanges of one rep, in script
    /// order: the tunes, then `stats`, then `save_cache`.
    pub fn split_latencies(exchanges: &[Exchange]) -> (Vec<f64>, f64, f64) {
        let ms: Vec<f64> = exchanges.iter().map(|e| e.latency_ms).collect();
        (
            ms[..TUNES_PER_REP].to_vec(),
            ms[TUNES_PER_REP],
            ms[TUNES_PER_REP + 1],
        )
    }

    /// One `ping` round trip, in ms.
    pub fn ping_ms(&mut self) -> f64 {
        let exchange = self.call(request("ping"));
        assert!(exchange.response.ok);
        exchange.latency_ms
    }

    fn verdict(&mut self, exchanges: &[Exchange]) -> Verdict {
        let mut failed = 0u64;
        for (i, exchange) in exchanges.iter().enumerate() {
            let r = &exchange.response;
            let good = if i < TUNES_PER_REP {
                let tenant = Self::tenant_index(&self.script[i]);
                if let (Some(hits), Some(misses)) = (r.memo_hits, r.memo_misses) {
                    self.latest[tenant] = (hits, misses);
                }
                r.ok && r.best_score.map(f64::to_bits) == Some(self.expected[i].best_score_bits)
                    && r.trials == Some(self.expected[i].trials)
                    && r.memo_misses == Some(self.baseline[tenant].1)
            } else {
                // Neither `stats` nor `save_cache` may see the cache grow.
                r.ok && r.entries == Some(self.entries)
            };
            failed += u64::from(!good);
        }
        Verdict {
            ops: exchanges.len() as u64,
            failed,
            op_ms: Self::split_latencies(exchanges).0,
        }
    }
}

impl Workload for ServeWarm {
    const NAME: &'static str = "serve_warm";
    const N_PARALLEL: usize = 2;
    const SCRIPTS: usize = 1;
    const MIN_ROUNDS: usize = 24;
    type Out = Vec<Exchange>;

    fn setup(seed: u64, scratch: &Path) -> Self {
        let seeds = ServeSeeds {
            open: [mix(seed, 20), mix(seed, 21)],
            tune: mix(seed, 40),
        };
        ServeWarm::open(seeds, scratch.join("serve_warm_cache.json"))
    }

    fn trials_per_round(&self) -> u64 {
        self.trials
    }

    fn insts_per_round(&self) -> u64 {
        self.insts
    }

    fn rep(&mut self, _script: usize) -> Vec<Exchange> {
        self.run_script(None)
    }

    fn check(&mut self, _script: usize, out: Vec<Exchange>) -> Verdict {
        self.verdict(&out)
    }

    fn traced_rep(&mut self, _script: usize, tracer: &mut Tracer) -> Verdict {
        let root = tracer.enter(ROOT_SPAN);
        let exchanges = self.run_script(Some(tracer));
        tracer.exit(root);
        self.verdict(&exchanges)
    }

    fn memo_hit_rate(&self) -> f64 {
        let (hits, misses) = self
            .latest
            .iter()
            .zip(&self.baseline)
            .fold((0, 0), |(h, m), (now, then)| {
                (h + now.0 - then.0, m + now.1 - then.1)
            });
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

impl ServeWarm {
    /// The independent reference for the script: re-derives, in process
    /// and without the server, what each `tune` request must answer —
    /// the same training collection and predictor fit `open` performs,
    /// the same `tune_with_predictor` loop — and sums the instructions
    /// behind every report a request recalls. The shared cache answers
    /// the simulations, so this costs builds and lookups only.
    fn replicate(&mut self, seeds: &ServeSeeds) {
        let spec = TargetSpec::riscv_u74();
        let def = conv_def();
        let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
        let digest = AccurateBackend::new(spec.hierarchy.clone())
            .fidelity_digest()
            .expect("bundled tiers memoize");
        let predictors: Vec<ScorePredictor> = seeds
            .open
            .iter()
            .map(|&seed| {
                TrainingSet {
                    group: 0,
                    kernel: "conv2d",
                    impls: OPEN_IMPLS as usize,
                    seed,
                    predictor_seed: 0,
                }
                .train(&def, &spec, Some(self.cache.clone()))
                .1
            })
            .collect();
        for req in &self.script[..TUNES_PER_REP] {
            let opts = TuneOptions {
                n_trials: N_TRIALS as usize,
                batch_size: BATCH as usize,
                n_parallel: Self::N_PARALLEL,
                seed: req.seed.expect("script tunes carry a seed"),
                strategy: req
                    .strategy
                    .as_deref()
                    .expect("script tunes name a strategy")
                    .parse()
                    .expect("script strategies parse"),
                memo_cache: Some(self.cache.clone()),
                ..TuneOptions::default()
            };
            let result =
                tune_with_predictor(&def, &spec, &predictors[Self::tenant_index(req)], &opts)
                    .expect("replicated tune completes");
            self.expected.push(Expected {
                best_score_bits: result.best().score.to_bits(),
                trials: result.history.len() as u64,
            });
            self.trials += result.history.len() as u64;
            for record in &result.history {
                let Ok(exe) = builder.build(&record.schedule, "recall") else {
                    continue;
                };
                let key =
                    memo_fingerprint(&exe, &digest, &RunLimits::default(), EngineKind::Decoded);
                if let Some(report) = self.cache.lookup(&key) {
                    self.insts += report.stats.inst_mix.total();
                }
            }
        }
    }
}

impl Drop for ServeWarm {
    fn drop(&mut self) {
        // Stop the server thread and wait for it; errors here cannot be
        // reported from a destructor and the process is ending anyway.
        if let Ok(json) = serde_json::to_string(&request("shutdown")) {
            if write_frame(&mut self.client, &json).is_ok() {
                let _ = read_frame(&mut self.client);
            }
        }
        if let Some(handle) = self.server.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.snapshot);
    }
}
