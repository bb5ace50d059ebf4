//! End-to-end coverage of the serve protocol's unified `fidelity`
//! field: opening tenants at a named tier, escalated tunes with a
//! spec-named exploration tier on every paper target's hierarchy shape,
//! and grammar errors — hostile predictor sizes included — as handler
//! failures. A server booted from a snapshot opens a tenant
//! from memory: board runs and training samples are cache entries. Hostile frames (deep nesting, many keys) are
//! refused with `ok: false` and the loop keeps serving.

use simtune_bench::serve::{
    read_frame, roundtrip, serve_loop, write_frame, Request, Response, Server,
};
use simtune_core::{SimService, SNAPSHOT_SCHEMA};
use std::io::Cursor;
use std::time::Instant;

fn req(op: &str) -> Request {
    Request {
        id: 11,
        op: op.into(),
        ..Request::default()
    }
}

fn server() -> Server {
    Server::new(SimService::builder().n_parallel(2).build())
}

/// Serves the raw frame `hostile`, then a `ping`, through one serve
/// loop, and returns both responses.
fn hostile_then_ping(hostile: &str) -> (Response, Response) {
    let mut input = Vec::new();
    write_frame(&mut input, hostile).expect("frame fits");
    write_frame(&mut input, &serde_json::to_string(&req("ping")).unwrap()).unwrap();
    let mut output = Vec::new();
    serve_loop(&mut Cursor::new(input), &mut output, &mut server()).expect("the loop survives");
    let mut out = Cursor::new(output);
    let mut next = || -> Response {
        serde_json::from_str(
            &read_frame(&mut out)
                .unwrap()
                .expect("one response per frame"),
        )
        .unwrap()
    };
    (next(), next())
}

fn open_req(tenant: &str, fidelity: Option<&str>) -> Request {
    Request {
        tenant: Some(tenant.into()),
        workload: Some("matmul".into()),
        dim: Some(6),
        impls: Some(10),
        seed: Some(42),
        fidelity: fidelity.map(Into::into),
        ..req("open")
    }
}

#[test]
fn open_accepts_a_fidelity_spec_and_echoes_the_tier() {
    let mut server = server();
    let resp = roundtrip(
        &mut server,
        &open_req("pipe", Some("pipelined:btb=64,ras=4")),
    )
    .unwrap();
    assert!(resp.ok, "open failed: {:?}", resp.error);
    let msg = resp.message.unwrap();
    assert!(msg.contains("pipelined:btb=64,ras=4"), "{msg}");

    // Omitting the field keeps the historical accurate default.
    let resp = roundtrip(&mut server, &open_req("plain", None)).unwrap();
    assert!(resp.ok);
    assert!(resp.message.unwrap().contains("at accurate"));
}

#[test]
fn open_collects_its_training_set_on_the_tenants_lane_at_the_accurate_tier() {
    let mut server = server();
    let stats = |server: &mut Server, tenant: &str| {
        let resp = roundtrip(
            server,
            &Request {
                tenant: Some(tenant.into()),
                ..req("stats")
            },
        )
        .unwrap();
        (
            resp.trials.unwrap(),
            resp.memo_hits.unwrap(),
            resp.memo_misses.unwrap(),
        )
    };
    // Opened at a cheap tier, the tenant still simulates its training
    // samples, accurately, on its own lane: every miss is one trial.
    assert!(
        roundtrip(&mut server, &open_req("cheap", Some("fast-count")))
            .unwrap()
            .ok
    );
    let (trials, _, misses) = stats(&mut server, "cheap");
    assert!(
        misses > 0,
        "the collection must show in the tenant's counters"
    );
    assert_eq!(trials, misses);
    let all = roundtrip(&mut server, &req("stats")).unwrap();
    assert_eq!(
        all.trials,
        Some(trials),
        "the shared pool ran the collection"
    );
    // The same training set for an accurate tenant is all memo hits.
    assert!(roundtrip(&mut server, &open_req("acc", None)).unwrap().ok);
    let (trials, hits, misses) = stats(&mut server, "acc");
    assert_eq!((trials, misses), (0, 0));
    assert!(hits > 0);
}

#[test]
fn a_server_booted_from_a_snapshot_opens_without_simulating_the_board_or_the_samples() {
    let path = std::env::temp_dir().join(format!(
        "simtune_serve_board_snapshot_{}.json",
        std::process::id()
    ));
    let path_req = |op: &str| Request {
        path: Some(path.to_string_lossy().into_owned()),
        ..req(op)
    };
    let tune = Request {
        tenant: Some("t".into()),
        n_trials: Some(8),
        batch_size: Some(4),
        seed: Some(3),
        strategy: Some("random".into()),
        ..req("tune")
    };
    let mut first = server();
    assert!(roundtrip(&mut first, &open_req("t", None)).unwrap().ok);
    let tuned = roundtrip(&mut first, &tune).unwrap();
    assert!(tuned.ok, "tune failed: {:?}", tuned.error);
    let saved = roundtrip(&mut first, &path_req("save_cache")).unwrap();
    assert!(saved.ok, "save failed: {:?}", saved.error);
    // The board's timing runs are ordinary cache entries.
    let snapshot = std::fs::read_to_string(&path).expect("snapshot written");
    assert!(snapshot.contains(r#""backend":"board""#));

    let mut second = server();
    let loaded = roundtrip(&mut second, &path_req("load_cache")).unwrap();
    assert_eq!(loaded.entries, saved.entries);
    assert!(roundtrip(&mut second, &open_req("t", None)).unwrap().ok);
    let stats = roundtrip(
        &mut second,
        &Request {
            tenant: Some("t".into()),
            ..req("stats")
        },
    )
    .unwrap();
    assert_eq!(
        (stats.trials, stats.memo_misses),
        (Some(0), Some(0)),
        "board runs and accurate samples all come from the snapshot"
    );
    assert!(stats.memo_hits.unwrap() > 0);
    let again = roundtrip(&mut second, &tune).unwrap();
    assert!(again.ok, "tune failed: {:?}", again.error);
    assert_eq!(
        again.best_score.map(f64::to_bits),
        tuned.best_score.map(f64::to_bits)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn malformed_fidelity_is_a_handler_error_with_the_grammar() {
    let mut server = server();
    let resp = roundtrip(&mut server, &open_req("bad", Some("warp-speed"))).unwrap();
    assert!(!resp.ok);
    let err = resp.error.unwrap();
    assert!(err.contains("expected"), "{err}");
    // The name was never claimed, so a corrected open succeeds.
    assert!(
        roundtrip(&mut server, &open_req("bad", Some("accurate")))
            .unwrap()
            .ok
    );
}

#[test]
fn an_open_at_the_removed_sampled_tier_is_an_error_frame_and_opens_no_tenant() {
    let mut server = server();
    let resp = roundtrip(&mut server, &open_req("old", Some("sampled"))).unwrap();
    assert!(!resp.ok);
    let err = resp.error.unwrap();
    assert!(err.contains("unknown fidelity tier"), "{err}");
    let stats = Request {
        tenant: Some("old".into()),
        ..req("stats")
    };
    let resp = roundtrip(&mut server, &stats).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("is not open"));
}

#[test]
fn hostile_predictor_sizes_are_a_handler_error_and_the_server_lives() {
    // `pipelined:ras=N` sizes a per-trial allocation on a pool worker;
    // an unbounded N aborted the whole process (every tenant with it).
    // The parser refuses it, on `open` and on `tune` alike.
    let mut server = server();
    let hostile = "pipelined:ras=1000000000000000";
    let resp = roundtrip(&mut server, &open_req("evil", Some(hostile))).unwrap();
    assert!(!resp.ok);
    let err = resp.error.unwrap();
    assert!(err.contains("ras must be an integer <= 1024"), "{err}");
    assert!(err.contains("expected accurate | fast-count"), "{err}");

    assert!(roundtrip(&mut server, &open_req("t", None)).unwrap().ok);
    let tune = Request {
        tenant: Some("t".into()),
        fidelity: Some("pipelined:btb=99999999999".into()),
        ..req("tune")
    };
    let resp = roundtrip(&mut server, &tune).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("btb must be an integer"));

    // Every tenant is still served.
    assert!(roundtrip(&mut server, &req("ping")).unwrap().ok);
}

#[test]
fn a_snapshot_with_a_non_ascii_key_is_a_cold_start_and_the_server_lives() {
    // The key has an even byte length with a character boundary inside
    // a byte pair; slicing it as a `str` panicked the serve loop, and
    // with it every tenant.
    let path = std::env::temp_dir().join(format!(
        "simtune_serve_hostile_snapshot_{}.json",
        std::process::id()
    ));
    let snapshot = format!(
        r#"{{"schema":"{SNAPSHOT_SCHEMA}","entries":[{{"key":"aé1","backend":"b","stats":{{"mix":[0,0,0,0,0,0,0,0],"l1d":{{"counters":[0,0,0,0,0,0]}},"l1i":{{"counters":[0,0,0,0,0,0]}},"l2":{{"counters":[0,0,0,0,0,0]}},"l3":null,"dram":[0,0],"host_nanos":0}},"cycles":null}}]}}"#
    );
    std::fs::write(&path, snapshot).expect("writes");
    let mut server = server();
    let load = Request {
        path: Some(path.to_string_lossy().into_owned()),
        ..req("load_cache")
    };
    let resp = roundtrip(&mut server, &load).unwrap();
    assert!(resp.ok, "a rejected snapshot is a cold start: {resp:?}");
    assert_eq!(resp.entries, Some(0));
    assert!(resp.message.unwrap().contains("rejected"));
    assert!(roundtrip(&mut server, &req("ping")).unwrap().ok);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tune_with_fidelity_runs_spec_tier_escalation_without_a_note() {
    let mut server = server();
    assert!(roundtrip(&mut server, &open_req("t", None)).unwrap().ok);
    let tune = Request {
        tenant: Some("t".into()),
        n_trials: Some(8),
        batch_size: Some(4),
        seed: Some(1),
        strategy: Some("random".into()),
        fidelity: Some("pipelined".into()),
        ..req("tune")
    };
    let resp = roundtrip(&mut server, &tune).unwrap();
    assert!(resp.ok, "tune failed: {:?}", resp.error);
    assert!(resp.best_score.unwrap().is_finite());
    assert_eq!(resp.trials, Some(8));
    // Spec-named top-k escalation has nothing to say in `message`.
    assert!(resp.message.is_none(), "{:?}", resp.message);

    // Same seed on the fast-count tier also completes.
    let fast = Request {
        fidelity: Some("fast-count".into()),
        ..tune
    };
    let resp = roundtrip(&mut server, &fast).unwrap();
    assert!(resp.ok, "fast-count tune failed: {:?}", resp.error);
}

#[test]
fn spec_tier_escalation_and_a_fast_count_tenant_tune_on_x86() {
    let mut server = server();
    // x86 is the target with an L3: its fast-count reports must still
    // be scorable by a predictor trained at the accurate tier.
    let open = Request {
        arch: Some("x86".into()),
        ..open_req("x86", None)
    };
    assert!(roundtrip(&mut server, &open).unwrap().ok);
    let tune = Request {
        tenant: Some("x86".into()),
        n_trials: Some(8),
        batch_size: Some(4),
        seed: Some(1),
        strategy: Some("random".into()),
        fidelity: Some("pipelined".into()),
        ..req("tune")
    };
    let resp = roundtrip(&mut server, &tune).unwrap();
    assert!(resp.ok, "x86 tune failed: {:?}", resp.error);
    assert!(resp.best_score.unwrap().is_finite());
    assert_eq!(resp.trials, Some(8));
    assert!(resp.message.is_none(), "{:?}", resp.message);

    let fast = Request {
        fidelity: Some("fast-count".into()),
        ..tune
    };
    let resp = roundtrip(&mut server, &fast).unwrap();
    assert!(resp.ok, "x86 fast-count tune failed: {:?}", resp.error);
    assert!(resp.message.is_none(), "{:?}", resp.message);

    // A plain tune on an x86 tenant opened at the counting tier.
    let open = Request {
        arch: Some("x86".into()),
        ..open_req("x86-fast", Some("fast-count"))
    };
    assert!(roundtrip(&mut server, &open).unwrap().ok);
    let tune = Request {
        tenant: Some("x86-fast".into()),
        n_trials: Some(8),
        ..req("tune")
    };
    let resp = roundtrip(&mut server, &tune).unwrap();
    assert!(resp.ok, "fast-count x86 tune failed: {:?}", resp.error);
}

#[test]
fn old_wire_frames_without_the_fidelity_member_still_parse() {
    // A frame may omit the `fidelity` member entirely; the vendored
    // serde normally rejects missing members, so the field is
    // explicitly defaulted.
    let mut server = server();
    let json = r#"{"id":5,"op":"ping","tenant":null,"arch":null,"workload":null,
        "dim":null,"impls":null,"n_trials":null,"batch_size":null,"seed":null,
        "strategy":null,"path":null}"#;
    let req: Request = serde_json::from_str(json).expect("frame without the member parses");
    assert!(req.fidelity.is_none());
    let (resp, done) = server.handle(&req);
    assert!(resp.ok);
    assert!(!done);
}

#[test]
fn a_deeply_nested_frame_is_refused_and_the_server_lives() {
    // 200 KB, far under `MAX_FRAME_BYTES`: skipping the unknown member
    // recursed once per level and overflowed the loop thread's stack.
    let depth = 100_000;
    let frame = format!(
        r#"{{"op":"ping","x":{}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let (refused, ping) = hostile_then_ping(&frame);
    assert!(!refused.ok);
    let err = refused.error.unwrap();
    assert!(err.contains("nest deeper"), "{err}");
    assert!(ping.ok);
    assert_eq!(ping.op, "ping");
}

#[test]
fn a_frame_with_many_distinct_keys_is_refused_in_linear_time() {
    // A valid `ping` plus 200 000 unknown members (2.3 MB). Checking
    // each new key against every earlier one held the only loop thread
    // for ~50 s in a release build.
    let ping = serde_json::to_string(&req("ping")).unwrap();
    let mut frame = ping.trim_end_matches('}').to_string();
    for i in 0..200_000 {
        frame.push_str(&format!(r#","k{i}":0"#));
    }
    frame.push('}');
    let start = Instant::now();
    let (refused, ping) = hostile_then_ping(&frame);
    let elapsed = start.elapsed();
    assert!(!refused.ok);
    let err = refused.error.unwrap();
    assert!(err.contains("unknown field"), "{err}");
    assert!(ping.ok);
    assert!(
        elapsed.as_secs() < 20,
        "the frame took {elapsed:?}; the key check is not linear"
    );
}
