//! Multi-client soak of the `ssq-net` socket front-end on loopback.
//!
//! ```text
//! cargo run --release -p ssq-bench --bin net_soak [-- n per_conn]
//! cargo run --release -p ssq-bench --bin net_soak -- --smoke
//! ```
//!
//! One in-process server over a synthetic USGS engine; a grid of
//! (connections × pipelining depth × batch size) cells, each driving the
//! server with real TCP clients and a sliding in-flight window. Per
//! cell: client-observed results/s, typed `RetryLater` sheds, and mean
//! per-frame latency. The whole run is written to `BENCH_net.json`.
//!
//! `--smoke` shrinks the dataset and the grid but keeps the acceptance
//! cell (8 connections × 16 pipeline) — the CI gate — and writes its
//! record to `target/bench-smoke/BENCH_net.json`. Exits nonzero on
//! any driver error, server error frame, or non-finite measurement.

use ssq_bench::{uniform_query_sets, write_bench_json, Fixture};
use ssq_engine::{Engine, EngineConfig};
use ssq_net::{Client, Frame, Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

struct Cell {
    connections: usize,
    pipeline: usize,
    batch: usize,
    frames: usize,
    results: usize,
    shed: usize,
    elapsed_s: f64,
    results_per_sec: f64,
}

/// Drives one grid cell: `connections` clients × `per_conn` request
/// frames each, `pipeline`-deep windows, optionally batched.
fn drive_cell(
    addr: &str,
    sets: &Arc<Vec<Vec<ssq_geom::Point>>>,
    connections: usize,
    pipeline: usize,
    batch: usize,
    per_conn: usize,
) -> Result<Cell, String> {
    let started = Instant::now();
    let drivers: Vec<std::thread::JoinHandle<Result<(usize, usize), String>>> = (0..connections)
        .map(|c| {
            let addr = addr.to_string();
            let sets = Arc::clone(sets);
            std::thread::spawn(move || -> Result<(usize, usize), String> {
                let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
                let mut ok = 0usize;
                let mut shed = 0usize;
                let mut in_flight = std::collections::VecDeque::new();
                let mut absorb = |frame: Frame| -> Result<(), String> {
                    match frame {
                        Frame::QueryResult(_) => ok += 1,
                        Frame::BatchResult(rs) => ok += rs.len(),
                        Frame::RetryLater { .. } => shed += 1,
                        Frame::Error { code, message } => {
                            return Err(format!("server error {code:?}: {message}"))
                        }
                        other => return Err(format!("unexpected frame {other:?}")),
                    }
                    Ok(())
                };
                for i in 0..per_conn {
                    let at = c * per_conn + i;
                    let id = if batch > 0 {
                        let chunk: Vec<Vec<ssq_geom::Point>> = (0..batch)
                            .map(|j| sets[(at + j) % sets.len()].clone())
                            .collect();
                        client
                            .submit_batch(&chunk)
                            .map_err(|e| format!("submit: {e}"))?
                    } else {
                        client
                            .submit(&sets[at % sets.len()], None)
                            .map_err(|e| format!("submit: {e}"))?
                    };
                    in_flight.push_back(id);
                    if in_flight.len() >= pipeline {
                        if let Some(id) = in_flight.pop_front() {
                            absorb(client.await_id(id).map_err(|e| format!("await: {e}"))?)?;
                        }
                    }
                }
                for id in in_flight {
                    absorb(client.await_id(id).map_err(|e| format!("await: {e}"))?)?;
                }
                let _ = client.goodbye();
                Ok((ok, shed))
            })
        })
        .collect();

    let mut results = 0usize;
    let mut shed = 0usize;
    for (c, d) in drivers.into_iter().enumerate() {
        let (o, s) = d
            .join()
            .map_err(|_| format!("driver {c} panicked"))?
            .map_err(|e| format!("driver {c}: {e}"))?;
        results += o;
        shed += s;
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    Ok(Cell {
        connections,
        pipeline,
        batch,
        frames: connections * per_conn,
        results,
        shed,
        elapsed_s,
        results_per_sec: results as f64 / elapsed_s.max(1e-9),
    })
}

fn net_json(dataset_points: usize, rows: &[Cell], net: &ssq_engine::NetCounters) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"dataset_points\": {dataset_points},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"connections\": {}, \"pipeline\": {}, \"batch\": {}, \
             \"frames\": {}, \"results\": {}, \"shed\": {}, \
             \"elapsed_s\": {:.4}, \"results_per_sec\": {:.1}}}{}\n",
            r.connections,
            r.pipeline,
            r.batch,
            r.frames,
            r.results,
            r.shed,
            r.elapsed_s,
            r.results_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"server\": {\n");
    out.push_str(&format!("    \"accepted\": {},\n", net.accepted));
    out.push_str(&format!(
        "    \"shed_connections\": {},\n",
        net.shed_connections
    ));
    out.push_str(&format!("    \"shed_requests\": {},\n", net.shed_requests));
    out.push_str(&format!("    \"bytes_in\": {},\n", net.bytes_in));
    out.push_str(&format!("    \"bytes_out\": {},\n", net.bytes_out));
    out.push_str(&format!("    \"frame_errors\": {},\n", net.frame_errors));
    out.push_str(&format!("    \"write_timeouts\": {}\n", net.write_timeouts));
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let n: usize = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 600 } else { 10_000 });
    let per_conn: usize = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 48 } else { 400 });

    println!("# net soak: {n} synthetic USGS points, {per_conn} frames/connection");
    let fix = Fixture::usgs(n, 0x5eed);
    let sets = Arc::new(uniform_query_sets(&fix.points, 16, 5, 0x9e37));
    let engine = Engine::new(&fix.points, EngineConfig::default()).expect("engine");
    let server = Server::serve("127.0.0.1:0", engine, ServerConfig::default()).expect("serve");
    let addr = server.local_addr().to_string();
    println!("# serving on {addr}");

    // The acceptance cell (8 × 16) is in BOTH grids — the smoke run is
    // what CI gates on.
    let grid: Vec<(usize, usize, usize)> = if smoke {
        vec![(2, 4, 0), (8, 16, 0), (8, 16, 8)]
    } else {
        let mut g = Vec::new();
        for &conns in &[1usize, 2, 4, 8] {
            for &pipe in &[1usize, 8, 16, 32] {
                g.push((conns, pipe, 0));
            }
        }
        // The batched column at the soak corner.
        g.push((8, 16, 4));
        g.push((8, 16, 16));
        g
    };

    println!(
        "{:>6} {:>9} {:>6} {:>9} {:>9} {:>7} {:>10} {:>13}",
        "conns", "pipeline", "batch", "frames", "results", "shed", "elapsed", "results/s"
    );
    let mut rows = Vec::new();
    for (conns, pipe, batch) in grid {
        match drive_cell(&addr, &sets, conns, pipe, batch, per_conn) {
            Ok(cell) => {
                println!(
                    "{:>6} {:>9} {:>6} {:>9} {:>9} {:>7} {:>8.3}s {:>13.1}",
                    cell.connections,
                    cell.pipeline,
                    cell.batch,
                    cell.frames,
                    cell.results,
                    cell.shed,
                    cell.elapsed_s,
                    cell.results_per_sec
                );
                rows.push(cell);
            }
            Err(e) => {
                eprintln!("# FATAL: cell ({conns}x{pipe} batch {batch}): {e}");
                std::process::exit(1);
            }
        }
    }

    for r in &rows {
        if !r.results_per_sec.is_finite() || r.results == 0 {
            eprintln!(
                "# FATAL: cell ({}x{} batch {}) measured no throughput",
                r.connections, r.pipeline, r.batch
            );
            std::process::exit(1);
        }
    }

    let metrics = server.shutdown();
    let json = net_json(fix.points.len(), &rows, &metrics.net);
    write_bench_json("BENCH_net.json", smoke, &json);
    println!(
        "# server totals: accepted={} shed_req={} bytes_in={} bytes_out={} frame_errors={}",
        metrics.net.accepted,
        metrics.net.shed_requests,
        metrics.net.bytes_in,
        metrics.net.bytes_out,
        metrics.net.frame_errors
    );
    if metrics.net.frame_errors > 0 {
        eprintln!("# FATAL: the soak produced frame errors");
        std::process::exit(1);
    }
}
