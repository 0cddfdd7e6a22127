//! The serving-layer contract: bounded-queue backpressure, deadline
//! shedding (never a stale solve), bit-identical duplicate coalescing, the
//! engine's deadline accounting underneath it all, and a 1k-request
//! loopback replay over real TCP.

use pipelined_rt::portfolio::{
    default_backends, Budget, PortfolioEngine, ProblemInstance, RunStatus,
};
use pipelined_rt::serve::{
    serve_lines, ResponseStatus, ServeConfig, ServeRequest, ServeResponse, SolverService, TcpServer,
};
use pipelined_rt::workload::{GeneratedRequest, InstanceGenerator, RequestSpec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dresses a generated request as a wire request (homogeneous platform).
fn to_wire(generated: &GeneratedRequest, deadline_ms: Option<f64>) -> ServeRequest {
    ServeRequest {
        id: generated.index as u64,
        tenant: generated.tenant,
        deadline_ms,
        chain: generated.instance.chain.clone(),
        platform: generated.instance.homogeneous.clone(),
        period_bound: Some(generated.period_bound).filter(|bound| bound.is_finite()),
        latency_bound: Some(generated.latency_bound).filter(|bound| bound.is_finite()),
    }
}

/// A `workers: 0` service processed manually — fully deterministic.
fn manual_service(queue_capacity: usize) -> SolverService {
    let engine = Arc::new(PortfolioEngine::default().with_threads(1));
    SolverService::start(
        engine,
        ServeConfig {
            workers: 0,
            queue_capacity,
            default_deadline: None,
            ..ServeConfig::default()
        },
    )
}

#[test]
fn bounded_queue_sheds_overflow_with_typed_rejections() {
    let service = manual_service(4);
    let spec = RequestSpec {
        duplicate_fraction: 0.0,
        ..RequestSpec::serve_replay(100)
    };
    let requests: Vec<GeneratedRequest> = spec.stream(10).collect();
    let tickets: Vec<_> = requests
        .iter()
        .map(|request| {
            let ticket = service.submit(to_wire(request, None));
            // Property: the bounded queue never exceeds its capacity, no
            // matter how many submissions pile up.
            assert!(service.queue_depth() <= 4);
            ticket
        })
        .collect();
    assert_eq!(service.queue_depth(), 4);

    let mut responses: Vec<ServeResponse> = Vec::new();
    let mut overloaded = 0;
    let mut queued = Vec::new();
    for ticket in tickets {
        match ticket.try_get() {
            // Overflow rejections are immediate and typed.
            Some(response) => {
                assert_eq!(response.status, ResponseStatus::Overloaded);
                assert!(response.error.is_some());
                overloaded += 1;
                responses.push(response);
            }
            None => queued.push(ticket),
        }
    }
    assert_eq!(overloaded, 6);
    assert_eq!(queued.len(), 4);

    // Draining the queue answers every admitted request.
    for _ in 0..4 {
        assert!(service.process_one());
    }
    assert!(!service.process_one(), "queue should be empty");
    for ticket in queued {
        let response = ticket.wait();
        assert!(matches!(
            response.status,
            ResponseStatus::Ok | ResponseStatus::Infeasible
        ));
    }
    let stats = service.stats();
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.overloaded, 6);
    assert_eq!(stats.solved, 4);
    service.shutdown();
}

#[test]
fn expired_deadlines_shed_without_solving() {
    let service = manual_service(16);
    let spec = RequestSpec::serve_replay(200);
    let requests: Vec<GeneratedRequest> = spec.stream(2).collect();

    // Already expired at admission: shed immediately, never queued.
    let dead_on_arrival = service.submit(to_wire(&requests[0], Some(0.0)));
    let response = dead_on_arrival.wait();
    assert_eq!(response.status, ResponseStatus::Shed);
    assert_eq!(service.queue_depth(), 0);
    assert_eq!(service.stats().solved, 0);

    // Expires while queued: shed at dequeue, the solve itself is skipped.
    let queued = service.submit(to_wire(&requests[1], Some(5.0)));
    assert_eq!(service.queue_depth(), 1);
    std::thread::sleep(Duration::from_millis(20));
    assert!(service.process_one());
    let response = queued.wait();
    assert_eq!(response.status, ResponseStatus::Shed);
    let stats = service.stats();
    assert_eq!(stats.solved, 0, "shed requests must never be solved");
    assert_eq!(stats.shed, 2);
    service.shutdown();
}

#[test]
fn coalesced_duplicates_are_bit_identical() {
    let service = manual_service(16);
    let spec = RequestSpec::serve_replay(300);
    let requests: Vec<GeneratedRequest> = spec.stream(1).collect();

    let first = service.submit(to_wire(&requests[0], None));
    let second = service.submit(ServeRequest {
        id: 999,
        ..to_wire(&requests[0], None)
    });
    // The duplicate coalesces onto the queued solve: no extra queue slot.
    assert_eq!(service.queue_depth(), 1);
    let stats = service.stats();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.coalesced, 1);

    assert!(service.process_one());
    let a = first.wait();
    let b = second.wait();
    assert_eq!(service.stats().solved, 1, "one solve served both");
    assert_eq!(a.status, ResponseStatus::Ok);
    assert_eq!(b.status, ResponseStatus::Ok);
    assert!(!a.coalesced);
    assert!(b.coalesced);
    // Bit-identical: same solve, same front, same reliability bits.
    assert_eq!(
        a.reliability.unwrap().to_bits(),
        b.reliability.unwrap().to_bits()
    );
    assert_eq!(a.mapping, b.mapping);

    // A later identical request hits the engine's cache without a new solve.
    let third = service.submit(ServeRequest {
        id: 1000,
        ..to_wire(&requests[0], None)
    });
    let c = third.wait();
    assert!(c.cached);
    assert_eq!(service.stats().cache_hits, 1);
    assert_eq!(service.stats().solved, 1);
    assert_eq!(
        a.reliability.unwrap().to_bits(),
        c.reliability.unwrap().to_bits()
    );
    service.shutdown();
}

#[test]
fn a_later_duplicate_from_another_tenant_is_answered_at_admission() {
    let service = manual_service(16);
    let requests: Vec<GeneratedRequest> = RequestSpec::serve_replay(300).stream(1).collect();
    let original = to_wire(&requests[0], None);
    let first = service.submit(original.clone());
    assert!(service.process_one());
    let a = first.wait();

    // The same instance from a different tenant, after the first solve
    // finished: one result cache serves every tenant, so it is answered at
    // admission — never queued, never solved again.
    let other_tenant = service.submit(ServeRequest {
        id: 1001,
        tenant: original.tenant + 1,
        ..original
    });
    assert_eq!(service.queue_depth(), 0);
    let b = other_tenant
        .try_get()
        .expect("answered at admission, before any processing");
    assert!(b.cached);
    assert_eq!(service.stats().cache_hits, 1);
    assert_eq!(service.stats().solved, 1);
    assert_eq!(
        a.reliability.map(f64::to_bits),
        b.reliability.map(f64::to_bits)
    );
    assert_eq!(a.mapping, b.mapping);
    service.shutdown();
}

#[test]
fn draining_service_rejects_new_requests_but_finishes_queued_work() {
    let service = manual_service(16);
    // Distinct instances: a duplicate would be answered from the engine's
    // cache before the draining check ever fires.
    let spec = RequestSpec {
        duplicate_fraction: 0.0,
        ..RequestSpec::serve_replay(400)
    };
    let requests: Vec<GeneratedRequest> = spec.stream(2).collect();
    let queued = service.submit(to_wire(&requests[0], None));
    // Shutdown drains: the queued request is answered, not dropped.
    let stats = service.shutdown();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.solved, 1);
    assert!(matches!(
        queued.wait().status,
        ResponseStatus::Ok | ResponseStatus::Infeasible
    ));
    // New submissions after the drain get a typed rejection.
    let late = service.submit(to_wire(&requests[1], None));
    assert_eq!(late.wait().status, ResponseStatus::Draining);
    assert_eq!(service.stats().drained, 1);
}

#[test]
fn engine_deadline_expiry_is_reported_and_not_cached() {
    let generator = InstanceGenerator::paper_homogeneous(77);
    let generated = generator.instance(0);
    let instance = ProblemInstance::unbounded(generated.chain, generated.homogeneous);

    // A deadline in the past: every runnable backend is shed before
    // dispatch and the outcome says so.
    let engine = PortfolioEngine::default().with_threads(1);
    let expired = engine.solve_until(&instance, 1, Some(Instant::now() - Duration::from_secs(1)));
    assert!(expired.deadline_expired);
    assert!(!expired.from_cache);
    assert!(
        expired
            .runs
            .iter()
            .filter(|run| !matches!(run.status, RunStatus::Skipped(_)))
            .all(|run| run.status == RunStatus::DeadlineExpired),
        "all runnable backends must be marked DeadlineExpired"
    );
    assert!(!expired.is_feasible(), "nothing ran, nothing found");

    // The partial (here: empty) front was not cached — the next solve runs
    // fresh and succeeds.
    let fresh = engine.solve(&instance);
    assert!(!fresh.from_cache, "expired solve must not poison the cache");
    assert!(!fresh.deadline_expired);
    assert!(fresh.is_feasible());

    // A budget-derived zero time limit behaves the same way.
    let strangled =
        PortfolioEngine::new(default_backends(), Budget::with_time_limit(Duration::ZERO))
            .with_threads(1);
    let outcome = strangled.solve(&instance);
    assert!(outcome.deadline_expired);
}

#[test]
fn loopback_replay_of_a_seeded_1k_request_stream() {
    let engine = Arc::new(PortfolioEngine::default().with_threads(1));
    let service = Arc::new(SolverService::start(
        engine,
        ServeConfig {
            workers: 2,
            queue_capacity: 1024,
            default_deadline: Some(Duration::from_secs(30)),
            ..ServeConfig::default()
        },
    ));
    let server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");

    let spec = RequestSpec::serve_replay(4242);
    let requests: Vec<GeneratedRequest> = spec.stream(1000).collect();

    let stream = TcpStream::connect(server.local_addr()).expect("connect loopback");
    let mut writer = stream.try_clone().expect("clone socket");
    // Read concurrently with writing so neither side of the socket can
    // fill up and deadlock the replay.
    let reader = std::thread::spawn(move || {
        let mut responses = Vec::with_capacity(1000);
        for line in BufReader::new(stream).lines() {
            let line = line.expect("response line");
            let response: ServeResponse =
                serde_json::from_str(&line).expect("response line parses");
            responses.push(response);
            if responses.len() == 1000 {
                break;
            }
        }
        responses
    });
    for request in &requests {
        // A generous deadline: the replay asserts protocol behaviour, not
        // timing; the bench gate covers latency.
        let line = serde_json::to_string(&to_wire(request, Some(30_000.0))).unwrap();
        writeln!(writer, "{line}").expect("write request");
    }
    writer.flush().expect("flush requests");
    let responses = reader.join().expect("reader thread");
    drop(writer);

    // Exactly one response per request, correlated by id.
    assert_eq!(responses.len(), 1000);
    let mut by_id: HashMap<u64, &ServeResponse> = HashMap::new();
    for response in &responses {
        assert!(
            by_id.insert(response.id, response).is_none(),
            "duplicate response for id {}",
            response.id
        );
    }
    assert_eq!(by_id.len(), 1000);

    // With generous deadlines and a deep queue, everything resolves.
    for response in &responses {
        assert!(
            matches!(
                response.status,
                ResponseStatus::Ok | ResponseStatus::Infeasible
            ),
            "unexpected status {:?} for id {}",
            response.status,
            response.id
        );
    }

    // Duplicate requests (≥ 30% of the stream by construction) return
    // bit-identical solutions to their originals, whether they were
    // coalesced, cache-answered, or re-solved through the engine cache.
    let mut duplicates = 0;
    for request in &requests {
        if let Some(original_unique) = request.duplicate_of {
            duplicates += 1;
            let original = requests
                .iter()
                .find(|r| r.duplicate_of.is_none() && r.instance.index == original_unique)
                .expect("original request exists");
            let a = by_id[&(request.index as u64)];
            let b = by_id[&(original.index as u64)];
            assert_eq!(a.status, b.status);
            if let (Some(x), Some(y)) = (a.reliability, b.reliability) {
                assert_eq!(x.to_bits(), y.to_bits(), "duplicate diverged");
            }
            assert_eq!(a.mapping, b.mapping);
        }
    }
    assert!(
        duplicates >= 300,
        "stream not duplicate-heavy: {duplicates}"
    );

    // Duplicate traffic never pays for a fresh solve: it is coalesced onto
    // an in-flight solve or answered from the engine's instance cache — the
    // response says which.
    let absorbed = responses
        .iter()
        .filter(|response| response.coalesced || response.cached)
        .count();
    assert!(absorbed >= 300, "only {absorbed} duplicates absorbed");

    server.stop();
    let stats = service.shutdown();
    assert_eq!(
        stats.admitted + stats.coalesced + stats.cache_hits,
        1000,
        "every request admitted, coalesced, or cache-answered"
    );
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.overloaded, 0);
}

#[test]
fn stdio_style_serve_lines_round_trip() {
    let service = SolverService::start(
        Arc::new(PortfolioEngine::default().with_threads(1)),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let spec = RequestSpec::serve_replay(888);
    let requests: Vec<GeneratedRequest> = spec.stream(8).collect();
    let mut input = String::new();
    for request in &requests {
        input.push_str(&serde_json::to_string(&to_wire(request, Some(30_000.0))).unwrap());
        input.push('\n');
    }
    input.push_str("this is not json\n\n");

    let output: Arc<std::sync::Mutex<Vec<u8>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    #[derive(Clone)]
    struct SharedSink(Arc<std::sync::Mutex<Vec<u8>>>);
    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    serve_lines(&service, input.as_bytes(), SharedSink(Arc::clone(&output))).expect("serve loop");
    service.shutdown();

    let bytes = output.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("utf8 responses");
    let responses: Vec<ServeResponse> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("response parses"))
        .collect();
    assert_eq!(responses.len(), 9, "8 requests + 1 invalid line");
    let invalid = responses
        .iter()
        .filter(|r| r.status == ResponseStatus::Invalid)
        .count();
    assert_eq!(invalid, 1);
}
