//! Decoupled tracing and analysis (§4): trace the nginx+TaLoS workload,
//! serialise the trace to a file (the SQLite stand-in), load it back in a
//! "separate process", and render the Figure 5 call graph as Graphviz DOT.
//!
//! ```sh
//! cargo run -p sgx-perf-examples --bin callgraph_dot [-- <trace.evdb>]
//! dot -Tsvg talos_callgraph.dot -o talos_callgraph.svg   # optional
//! ```
//!
//! The trace is kept at `<trace.evdb>` when one is given; otherwise it
//! goes to a scratch directory that is removed on exit.

use std::path::PathBuf;

use sgx_perf::{Analyzer, Logger, LoggerConfig, TraceDb};
use sim_core::HwProfile;
use workloads::talos::{run, TalosConfig};
use workloads::Harness;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- "process 1": run the application with the logger preloaded ---
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    let result = run(
        &harness,
        &TalosConfig {
            requests: 300,
            ..TalosConfig::default()
        },
    )?;
    println!(
        "served {} HTTPS requests through the TaLoS enclave",
        result.stats.operations
    );

    let scratch = eventdb::ScratchDir::new("callgraph-dot");
    let trace_path = std::env::args_os()
        .nth(1)
        .map_or_else(|| scratch.join("talos_trace.evdb"), PathBuf::from);
    logger.finish().save(&trace_path)?;
    println!("trace written to {}", trace_path.display());

    // --- "process 2": load the trace and analyse it offline ---
    let trace = TraceDb::load(&trace_path)?;
    println!(
        "loaded {} ecall and {} ocall events",
        trace.ecalls.len(),
        trace.ocalls.len()
    );
    let analyzer = Analyzer::new(&trace, HwProfile::Unpatched.cost_model());
    let graph = analyzer.call_graph();
    let dot_path = "talos_callgraph.dot";
    std::fs::write(dot_path, graph.to_dot())?;
    println!(
        "call graph: {} nodes, {} edges -> {dot_path}",
        graph.nodes.len(),
        graph.edges.len()
    );

    // A taste of the graph: the busiest enclave crossings.
    let mut edges: Vec<_> = graph.edges.iter().filter(|e| !e.indirect).collect();
    edges.sort_by_key(|e| std::cmp::Reverse(e.count));
    println!("\nbusiest direct edges:");
    for e in edges.iter().take(8) {
        let name = |c| {
            graph
                .nodes
                .iter()
                .find(|n| n.call == c)
                .map(|n| n.name.as_str())
                .unwrap_or("?")
        };
        println!(
            "  {:<44} -> {:<44} {:>7}",
            name(e.from),
            name(e.to),
            e.count
        );
    }
    println!(
        "\nverdict (§5.2.1): the OpenSSL API's error queue and per-chunk socket \
         I/O make it a poor enclave interface."
    );
    Ok(())
}
