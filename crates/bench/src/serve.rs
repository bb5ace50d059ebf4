//! Protocol and request handling for `simtune_serve`, the
//! tuning-as-a-service front end over [`simtune_core::SimService`].
//!
//! # Wire format
//!
//! Length-prefixed JSON over any byte stream (stdin/stdout or a unix
//! socket): each frame is a big-endian `u32` byte length followed by
//! exactly that many bytes of JSON. Requests and responses are complete
//! [`Request`] / [`Response`] objects — every field is present in every
//! frame, with `null` for the fields an operation does not use (the
//! vendored serde rejects missing members by design).
//!
//! # Operations
//!
//! | `op` | uses | effect |
//! |---|---|---|
//! | `ping` | — | liveness check |
//! | `open` | `tenant`, `arch`, `workload`, `dim`, `impls`, `seed`, `fidelity` | open a named tenant, collect a training set on its lane of the shared pool and fit its score predictor |
//! | `tune` | `tenant`, `n_trials`, `batch_size`, `seed`, `strategy`, `fidelity` | run one predictor-guided tuning loop on the tenant's session |
//! | `stats` | `tenant` (optional) | per-tenant counters, or service-wide cache totals |
//! | `save_cache` | `path` | persist the shared cache snapshot (atomic) |
//! | `load_cache` | `path` | warm the shared cache (degrades to cold on corrupt files) |
//! | `close` | `tenant` | release a tenant name |
//! | `shutdown` | — | acknowledge, then end the serve loop |
//!
//! A frame with a member outside this table — a field of an older
//! protocol among them — is refused as a bad request.
//!
//! # Fidelity selection
//!
//! `open` and `tune` take one optional `fidelity` string in the
//! [`FidelitySpec`] grammar (`accurate`, `fast-count`,
//! `pipelined:btb=N,ras=N`). On `open` it names
//! the tier the tenant's session simulates at (default `accurate`); on
//! `tune` it names the exploration tier of a fidelity-escalated run —
//! cheap-tier exploration, top-k accurate finalists. A `tune` without
//! `fidelity` runs every trial on the tenant's own tier.
//!
//! Handler errors (unknown tenant, bad strategy, …) come back as
//! `ok: false` with `error` set; the loop keeps serving. Only transport
//! failures terminate it.

use serde::{Deserialize, Serialize};
use simtune_core::{
    collect_group_data_on, CollectOptions, EscalationOptions, FidelitySpec, ScorePredictor,
    SimService, TenantSession, TuneOptions,
};
use simtune_hw::TargetSpec;
use simtune_predict::PredictorKind;
use simtune_tensor::{conv2d_bias_relu, matmul, ComputeDef};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::Path;

/// Upper bound on one frame's payload; anything larger is treated as a
/// corrupt stream rather than an allocation request.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// One request frame. Unused fields are `null` on the wire.
/// `Deserialize` is hand-written (below) so that `fidelity` may be
/// absent from a frame (read as `null`); every other member is
/// required.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Request {
    /// Caller-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Operation name (see the module docs).
    pub op: String,
    /// Tenant name (`open`/`tune`/`stats`/`close`).
    pub tenant: Option<String>,
    /// Target architecture for `open` (`x86|arm|riscv`; default riscv).
    pub arch: Option<String>,
    /// Workload for `open` (`matmul|conv2d`; default matmul).
    pub workload: Option<String>,
    /// Square matmul dimension for `open` (default 8).
    pub dim: Option<u64>,
    /// Training-set size for `open` (default 16).
    pub impls: Option<u64>,
    /// Trial budget for `tune` (default 8).
    pub n_trials: Option<u64>,
    /// Batch size for `tune` (default 4).
    pub batch_size: Option<u64>,
    /// Seed for `open`/`tune` (default 42).
    pub seed: Option<u64>,
    /// Search strategy for `tune`
    /// (`random|grid|hill|evolutionary|annealing`; default random).
    pub strategy: Option<String>,
    /// Snapshot path (`save_cache`/`load_cache`).
    pub path: Option<String>,
    /// Fidelity tier in the unified [`FidelitySpec`] grammar, e.g.
    /// `"pipelined:btb=512,ras=8"`. On `open`, the tenant session's
    /// backend (default `accurate`); on `tune`, the exploration tier of
    /// a fidelity-escalated run.
    pub fidelity: Option<String>,
}

impl serde::Deserialize for Request {
    fn deserialize(p: &mut serde::de::Parser<'_>) -> Result<Self, serde::de::Error> {
        let mut obj = serde::de::ObjectReader::parse(p)?;
        let value = Request {
            id: obj.field("id")?,
            op: obj.field("op")?,
            tenant: obj.field("tenant")?,
            arch: obj.field("arch")?,
            workload: obj.field("workload")?,
            dim: obj.field("dim")?,
            impls: obj.field("impls")?,
            n_trials: obj.field("n_trials")?,
            batch_size: obj.field("batch_size")?,
            seed: obj.field("seed")?,
            strategy: obj.field("strategy")?,
            path: obj.field("path")?,
            fidelity: obj.field_or_default("fidelity")?,
        };
        obj.end()?;
        Ok(value)
    }
}

/// One response frame. Fields irrelevant to the operation are `null`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Response {
    /// Correlation id of the request.
    pub id: u64,
    /// Echo of the request's `op`.
    pub op: String,
    /// False when `error` explains a handler failure.
    pub ok: bool,
    /// Handler failure description (`ok == false`).
    pub error: Option<String>,
    /// Human-oriented detail (snapshot outcomes etc.).
    pub message: Option<String>,
    /// Best score found (`tune`).
    pub best_score: Option<f64>,
    /// Trials evaluated (`tune`) or executed by the pool (`stats`).
    pub trials: Option<u64>,
    /// Simulations submitted (`tune`).
    pub simulations: Option<u64>,
    /// Memo hits (per tenant for `tune`/tenant `stats`; service-wide
    /// otherwise).
    pub memo_hits: Option<u64>,
    /// Memo misses (same scope as `memo_hits`).
    pub memo_misses: Option<u64>,
    /// Cache entries touched: resident (`stats`), written
    /// (`save_cache`) or restored (`load_cache`).
    pub entries: Option<u64>,
    /// Open tenants (`stats` without a tenant).
    pub tenants: Option<u64>,
}

impl Response {
    fn to_req(req: &Request) -> Response {
        Response {
            id: req.id,
            op: req.op.clone(),
            ok: true,
            ..Response::default()
        }
    }

    fn fail(req: &Request, error: impl Into<String>) -> Response {
        Response {
            ok: false,
            error: Some(error.into()),
            ..Response::to_req(req)
        }
    }
}

/// Writes one length-prefixed JSON frame.
///
/// # Errors
///
/// Propagates transport errors; rejects oversized payloads.
pub fn write_frame(w: &mut impl Write, json: &str) -> io::Result<()> {
    let len = u32::try_from(json.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(json.as_bytes())?;
    w.flush()
}

/// Reads one length-prefixed JSON frame; `Ok(None)` on clean EOF at a
/// frame boundary.
///
/// # Errors
///
/// Propagates transport errors; a length prefix above
/// [`MAX_FRAME_BYTES`] or non-UTF-8 payload is [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_bytes = [0u8; 4];
    // Distinguish clean EOF (no bytes at all) from a torn header.
    match r.read(&mut len_bytes)? {
        0 => return Ok(None),
        n if n < 4 => r.read_exact(&mut len_bytes[n..])?,
        _ => {}
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Parses a request's optional `fidelity` field; a malformed spec is a
/// handler error whose message carries the grammar. The error side is
/// boxed: a `Response` is an order of magnitude larger than the `Ok`
/// payload, and the happy path shouldn't carry it by value.
fn parse_fidelity(req: &Request) -> Result<Option<FidelitySpec>, Box<Response>> {
    match req.fidelity.as_deref() {
        None => Ok(None),
        Some(s) => s
            .parse::<FidelitySpec>()
            .map(Some)
            .map_err(|e| Box::new(Response::fail(req, e.to_string()))),
    }
}

/// One open tenant: its service session plus the workload definition
/// and trained predictor its `tune` requests run against.
struct TenantState {
    session: TenantSession,
    spec: TargetSpec,
    def: ComputeDef,
    predictor: ScorePredictor,
}

/// The server's whole state: the multi-tenant service and the per-name
/// tenant table.
pub struct Server {
    service: SimService,
    tenants: HashMap<String, TenantState>,
}

impl Server {
    /// Wraps a service (typically `SimService::builder()...build()`).
    pub fn new(service: SimService) -> Server {
        Server {
            service,
            tenants: HashMap::new(),
        }
    }

    /// The underlying service (snapshot persistence at boot/shutdown).
    pub fn service(&self) -> &SimService {
        &self.service
    }

    /// Handles one request; the second value is `true` after `shutdown`.
    pub fn handle(&mut self, req: &Request) -> (Response, bool) {
        let resp = match req.op.as_str() {
            "ping" => Response::to_req(req),
            "open" => self.open(req),
            "tune" => self.tune(req),
            "stats" => self.stats(req),
            "save_cache" => self.save_cache(req),
            "load_cache" => self.load_cache(req),
            "close" => self.close(req),
            "shutdown" => Response {
                message: Some("shutting down".into()),
                ..Response::to_req(req)
            },
            other => Response::fail(req, format!("unknown op {other:?}")),
        };
        (resp, req.op == "shutdown")
    }

    fn open(&mut self, req: &Request) -> Response {
        let Some(name) = req.tenant.as_deref() else {
            return Response::fail(req, "open needs a tenant name");
        };
        if self.tenants.contains_key(name) {
            return Response::fail(req, format!("tenant {name:?} is already open"));
        }
        let arch = req.arch.as_deref().unwrap_or("riscv");
        let Some(spec) = TargetSpec::by_name(arch) else {
            return Response::fail(req, format!("unknown arch {arch:?}"));
        };
        let workload = req.workload.as_deref().unwrap_or("matmul");
        let def = match workload {
            "matmul" => {
                let dim = req.dim.unwrap_or(8).clamp(2, 64) as usize;
                matmul(dim, dim, dim)
            }
            "conv2d" => conv2d_bias_relu(&crate::Scale::Smoke.conv_groups()[1]),
            other => return Response::fail(req, format!("unknown workload {other:?}")),
        };
        let seed = req.seed.unwrap_or(42);
        let impls = req.impls.unwrap_or(16).clamp(8, 200) as usize;
        let fidelity = match parse_fidelity(req) {
            Ok(f) => f.unwrap_or_default(),
            Err(resp) => return *resp,
        };
        let session = match self.service.open_fidelity(name, &fidelity, &spec.hierarchy) {
            Ok(s) => s,
            Err(e) => return Response::fail(req, e.to_string()),
        };
        // Training collection runs on the tenant's lane of the shared
        // pool, at the accurate tier whatever tier the tenant opened, and
        // feeds the shared cache, so the samples it simulates warm every
        // tenant and show in this tenant's counters.
        let collected = collect_group_data_on(
            &def,
            &spec,
            0,
            &CollectOptions {
                n_impls: impls,
                seed,
                max_attempts_factor: 40,
                ..CollectOptions::default()
            },
            session.session(),
        );
        let data = match collected {
            Ok(d) => d,
            Err(e) => return Response::fail(req, format!("collection failed: {e}")),
        };
        let mut predictor = ScorePredictor::new(PredictorKind::Xgboost, arch, workload, 0);
        if let Err(e) = predictor.train(std::slice::from_ref(&data)) {
            return Response::fail(req, format!("training failed: {e}"));
        }
        self.tenants.insert(
            name.to_string(),
            TenantState {
                session,
                spec,
                def,
                predictor,
            },
        );
        Response {
            message: Some(format!(
                "tenant {name:?} open on {arch}/{workload} at {fidelity}"
            )),
            tenants: Some(self.tenants.len() as u64),
            ..Response::to_req(req)
        }
    }

    fn tune(&mut self, req: &Request) -> Response {
        let Some(name) = req.tenant.as_deref() else {
            return Response::fail(req, "tune needs a tenant name");
        };
        let Some(t) = self.tenants.get(name) else {
            return Response::fail(req, format!("tenant {name:?} is not open"));
        };
        let strategy = match req.strategy.as_deref().unwrap_or("random").parse() {
            Ok(s) => s,
            Err(e) => return Response::fail(req, format!("{e}")),
        };
        let opts = TuneOptions {
            n_trials: req.n_trials.unwrap_or(8).clamp(1, 10_000) as usize,
            batch_size: req.batch_size.unwrap_or(4).clamp(1, 256) as usize,
            seed: req.seed.unwrap_or(42),
            strategy,
            ..TuneOptions::default()
        };
        // The `fidelity` spec names the exploration tier of an escalated
        // tune; a request without one keeps the all-accurate loop.
        let result = match parse_fidelity(req) {
            Ok(Some(explore)) => {
                let esc = EscalationOptions {
                    explore: Some(explore),
                    ..EscalationOptions::default()
                };
                t.session
                    .tune_escalated(&t.def, &t.spec, &t.predictor, &opts, &esc)
                    .map(|out| out.result)
            }
            Ok(None) => t.session.tune(&t.def, &t.spec, &t.predictor, &opts),
            Err(resp) => return *resp,
        };
        match result {
            Ok(result) => {
                let stats = t.session.stats();
                Response {
                    best_score: Some(result.best().score),
                    trials: Some(result.history.len() as u64),
                    simulations: Some(result.simulations as u64),
                    memo_hits: Some(stats.memo.hits),
                    memo_misses: Some(stats.memo.misses),
                    ..Response::to_req(req)
                }
            }
            Err(e) => Response::fail(req, format!("tuning failed: {e}")),
        }
    }

    fn stats(&self, req: &Request) -> Response {
        match req.tenant.as_deref() {
            Some(name) => match self.tenants.get(name) {
                Some(t) => {
                    let s = t.session.stats();
                    Response {
                        memo_hits: Some(s.memo.hits),
                        memo_misses: Some(s.memo.misses),
                        trials: Some(s.pool.trials),
                        ..Response::to_req(req)
                    }
                }
                None => Response::fail(req, format!("tenant {name:?} is not open")),
            },
            None => {
                let cache = self.service.cache();
                let s = cache.stats();
                Response {
                    memo_hits: Some(s.hits),
                    memo_misses: Some(s.misses),
                    entries: Some(cache.len() as u64),
                    trials: Some(self.service.pool_stats().trials),
                    tenants: Some(self.tenants.len() as u64),
                    ..Response::to_req(req)
                }
            }
        }
    }

    fn save_cache(&self, req: &Request) -> Response {
        let Some(path) = req.path.as_deref() else {
            return Response::fail(req, "save_cache needs a path");
        };
        match self.service.save_snapshot(Path::new(path)) {
            Ok(n) => Response {
                entries: Some(n as u64),
                message: Some(format!("snapshot written to {path}")),
                ..Response::to_req(req)
            },
            Err(e) => Response::fail(req, format!("snapshot write failed: {e}")),
        }
    }

    fn load_cache(&self, req: &Request) -> Response {
        use simtune_core::SnapshotLoad;
        let Some(path) = req.path.as_deref() else {
            return Response::fail(req, "load_cache needs a path");
        };
        match self.service.load_snapshot(Path::new(path)) {
            Ok(SnapshotLoad::Loaded(n)) => Response {
                entries: Some(n as u64),
                message: Some(format!("restored {n} entries")),
                ..Response::to_req(req)
            },
            // Degraded outcomes are still ok: the service runs cold.
            Ok(SnapshotLoad::Missing) => Response {
                entries: Some(0),
                message: Some("no snapshot found; cold start".into()),
                ..Response::to_req(req)
            },
            Ok(SnapshotLoad::Rejected(reason)) => Response {
                entries: Some(0),
                message: Some(format!("snapshot rejected ({reason}); cold start")),
                ..Response::to_req(req)
            },
            Err(e) => Response::fail(req, format!("snapshot read failed: {e}")),
        }
    }

    fn close(&mut self, req: &Request) -> Response {
        let Some(name) = req.tenant.as_deref() else {
            return Response::fail(req, "close needs a tenant name");
        };
        match self.tenants.remove(name) {
            Some(_) => Response {
                tenants: Some(self.tenants.len() as u64),
                ..Response::to_req(req)
            },
            None => Response::fail(req, format!("tenant {name:?} is not open")),
        }
    }
}

/// Serves framed requests from `r`, writing framed responses to `w`,
/// until `shutdown`, clean EOF, or a transport error. Returns `true`
/// when the loop ended because the peer asked to shut down (socket
/// front ends use this to stop accepting; EOF just ends one
/// connection).
///
/// A frame that fails to parse as a [`Request`] produces an `ok: false`
/// response with `id: 0` and keeps the loop alive — a confused client
/// should not take the service down.
///
/// # Errors
///
/// Propagates transport errors from the underlying stream.
pub fn serve_loop(r: &mut impl Read, w: &mut impl Write, server: &mut Server) -> io::Result<bool> {
    while let Some(json) = read_frame(r)? {
        let (resp, done) = match serde_json::from_str::<Request>(&json) {
            Ok(req) => server.handle(&req),
            Err(e) => (
                Response {
                    id: 0,
                    op: "error".into(),
                    ok: false,
                    error: Some(format!("bad request: {e}")),
                    ..Response::default()
                },
                false,
            ),
        };
        let out = serde_json::to_string(&resp).map_err(io::Error::from)?;
        write_frame(w, &out)?;
        if done {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Convenience used by tests and simple clients: one request in, one
/// response out, over in-memory buffers.
///
/// # Errors
///
/// Propagates serialization and transport errors.
pub fn roundtrip(server: &mut Server, req: &Request) -> io::Result<Response> {
    let mut input = Vec::new();
    write_frame(
        &mut input,
        &serde_json::to_string(req).map_err(io::Error::from)?,
    )?;
    let mut output = Vec::new();
    serve_loop(&mut io::Cursor::new(input), &mut output, server)?;
    let json = read_frame(&mut io::Cursor::new(output))?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no response frame"))?;
    serde_json::from_str(&json).map_err(io::Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(op: &str) -> Request {
        Request {
            id: 7,
            op: op.into(),
            ..Request::default()
        }
    }

    #[test]
    fn frames_roundtrip_and_reject_garbage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"x\":1}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"x\":1}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "second");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        // A bogus length prefix is InvalidData, not an allocation.
        let mut r = io::Cursor::new(u32::MAX.to_be_bytes().to_vec());
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn request_json_roundtrips_with_nulls() {
        let r = Request {
            id: 3,
            op: "open".into(),
            tenant: Some("ci".into()),
            dim: Some(6),
            ..Request::default()
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, 3);
        assert_eq!(back.tenant.as_deref(), Some("ci"));
        assert_eq!(back.dim, Some(6));
        assert!(back.path.is_none());
    }

    #[test]
    fn unknown_ops_and_bad_frames_do_not_kill_the_loop() {
        let mut server = Server::new(simtune_core::SimService::builder().n_parallel(1).build());
        let resp = roundtrip(&mut server, &req("frobnicate")).unwrap();
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("unknown op"));
        // A malformed frame yields an error response, then the next
        // request still works.
        let mut input = Vec::new();
        write_frame(&mut input, "this is not json").unwrap();
        write_frame(&mut input, &serde_json::to_string(&req("ping")).unwrap()).unwrap();
        let mut output = Vec::new();
        serve_loop(&mut io::Cursor::new(input), &mut output, &mut server).unwrap();
        let mut out = io::Cursor::new(output);
        let first: Response =
            serde_json::from_str(&read_frame(&mut out).unwrap().unwrap()).unwrap();
        assert!(!first.ok);
        let second: Response =
            serde_json::from_str(&read_frame(&mut out).unwrap().unwrap()).unwrap();
        assert!(second.ok);
        assert_eq!(second.op, "ping");
    }

    #[test]
    fn an_old_escalation_knob_is_a_bad_request_and_the_loop_lives() {
        let mut server = Server::new(simtune_core::SimService::builder().n_parallel(1).build());
        // A complete `tune` frame of the older protocol: every current
        // member, plus its escalation-budget knob.
        let knob = concat!("escalation", "_budget");
        let old = format!(
            r#"{{"id":5,"op":"tune","tenant":"t","arch":null,"workload":null,"dim":null,
            "impls":null,"n_trials":12,"batch_size":4,"seed":1,"strategy":"random","path":null,
            "fidelity":null,"{knob}":8}}"#
        );
        let mut input = Vec::new();
        write_frame(&mut input, &old).unwrap();
        write_frame(&mut input, &serde_json::to_string(&req("ping")).unwrap()).unwrap();
        let mut output = Vec::new();
        serve_loop(&mut io::Cursor::new(input), &mut output, &mut server).unwrap();
        let mut out = io::Cursor::new(output);
        let refused: Response =
            serde_json::from_str(&read_frame(&mut out).unwrap().unwrap()).unwrap();
        assert!(!refused.ok);
        let error = refused.error.unwrap();
        assert!(error.starts_with("bad request:"), "{error}");
        assert!(
            error.contains(&format!("unknown field {knob:?}")),
            "{error}"
        );
        let pong: Response = serde_json::from_str(&read_frame(&mut out).unwrap().unwrap()).unwrap();
        assert!(pong.ok);
        assert_eq!((pong.id, pong.op.as_str()), (7, "ping"));
        assert!(read_frame(&mut out).unwrap().is_none());
    }

    #[test]
    fn end_to_end_open_tune_stats_snapshot_shutdown() {
        let snap =
            std::env::temp_dir().join(format!("simtune_serve_e2e_{}.json", std::process::id()));
        let mut server = Server::new(simtune_core::SimService::builder().n_parallel(2).build());
        let open = Request {
            tenant: Some("ci".into()),
            workload: Some("matmul".into()),
            dim: Some(6),
            impls: Some(10),
            seed: Some(42),
            ..req("open")
        };
        let resp = roundtrip(&mut server, &open).unwrap();
        assert!(resp.ok, "open failed: {:?}", resp.error);
        // Duplicate open is a handler error, not a crash.
        assert!(!roundtrip(&mut server, &open).unwrap().ok);

        let tune = Request {
            tenant: Some("ci".into()),
            n_trials: Some(6),
            batch_size: Some(3),
            seed: Some(1),
            strategy: Some("random".into()),
            ..req("tune")
        };
        let first = roundtrip(&mut server, &tune).unwrap();
        assert!(first.ok, "tune failed: {:?}", first.error);
        assert_eq!(first.trials, Some(6));
        assert!(first.best_score.unwrap().is_finite());
        // Same tune again: the shared cache answers every submission.
        let second = roundtrip(&mut server, &tune).unwrap();
        assert!(second.ok);
        assert_eq!(second.best_score, first.best_score, "deterministic replay");
        assert!(
            second.memo_hits.unwrap() > first.memo_hits.unwrap(),
            "warm rerun must hit the cache"
        );

        let stats = roundtrip(&mut server, &req("stats")).unwrap();
        assert!(stats.ok);
        assert_eq!(stats.tenants, Some(1));
        assert!(stats.entries.unwrap() > 0);

        let save = Request {
            path: Some(snap.to_string_lossy().into_owned()),
            ..req("save_cache")
        };
        let saved = roundtrip(&mut server, &save).unwrap();
        assert!(saved.ok);
        assert!(saved.entries.unwrap() > 0);
        let load = Request {
            path: Some(snap.to_string_lossy().into_owned()),
            ..req("load_cache")
        };
        let loaded = roundtrip(&mut server, &load).unwrap();
        assert!(loaded.ok);
        assert_eq!(loaded.entries, saved.entries);

        let closed = roundtrip(
            &mut server,
            &Request {
                tenant: Some("ci".into()),
                ..req("close")
            },
        )
        .unwrap();
        assert!(closed.ok);
        assert_eq!(closed.tenants, Some(0));

        let bye = roundtrip(&mut server, &req("shutdown")).unwrap();
        assert!(bye.ok);
        std::fs::remove_file(&snap).ok();
    }
}
