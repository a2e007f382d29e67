//! The metric tables: what an untraced run reports (`END_TO_END`) and what
//! a traced run reports (`PER_LAYER`). `BENCHMARK.json` lists the same names;
//! a test keeps the two in step.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these, and none of them is ever 0.
/// Times are best-of-N (see `run.rs` for why).
pub const END_TO_END: [EndToEnd; 6] = [
    // One cycle (one pass of every part, a fixed amount of work) at its
    // best: the sum over the laps of each lap's fastest time over the run.
    e("wall_s", "s", "lower", 0.25),
    // Matrix cells per second of the `cell` laps at their best: the 8 x 13
    // heuristics matrix (layers), the 5 x 6 matrix with the fresh policy
    // and its tree in it (pipeline).
    e("cells_per_s", "1/s", "higher", 0.25),
    // Training samples (steps x batch x unroll) per second of the
    // `train_step` laps: on the committed pool (layers), on the pool the
    // pass has just collected (pipeline).
    e("train_samples_per_s", "1/s", "higher", 0.25),
    // Actions per second: 512 NN-tier flows over whole `on_tick` calls
    // (layers; a tick is 512 / this); actions the runtime decided under
    // simulated traffic over the serve stage, simulator included (pipeline).
    e("actions_per_s", "1/s", "higher", 0.25),
    // VmHWM of the process after the last pass.
    e("peak_rss_mb", "MB", "lower", 0.10),
    // Fastest of the set-ups of all the workload's parts: artifact load,
    // model and tree construction, input generation.
    e("setup_s", "s", "lower", 0.25),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics. The first block is read off the workload's own traced
/// passes and counters and is 0 where the workload does not run the layer;
/// the second block is the direct probes, the same on every workload.
pub const PER_LAYER: [PerLayer; 73] = [
    m("trace.uncovered_share", "ratio", "lower"),
    m("pipeline.collect_s", "s", "lower"),
    m("pipeline.train_s", "s", "lower"),
    m("pipeline.distill_s", "s", "lower"),
    m("pipeline.matrix_s", "s", "lower"),
    m("pipeline.serve_s", "s", "lower"),
    m("layers.sim_matrix_s", "s", "lower"),
    m("layers.train_crr_s", "s", "lower"),
    m("layers.serve_nn_s", "s", "lower"),
    m("layers.serve_sym_s", "s", "lower"),
    m("netsim.pkts_enqueued", "count", "lower"),
    m("netsim.pkts_dropped", "count", "lower"),
    m("netsim.pkts_delivered", "count", "higher"),
    m("netsim.delivered_over_enqueued", "ratio", "higher"),
    m("netsim.pkts_per_s", "1/s", "higher"),
    m("transport.retx_share", "ratio", "lower"),
    m("transport.rto_fired", "count", "lower"),
    m("collector.rollout_ms", "ms", "lower"),
    m("collector.steps_per_s", "1/s", "higher"),
    m("collector.retries", "count", "lower"),
    m("core.train_step_ms", "ms", "lower"),
    m("core.train_step_cv", "ratio", "lower"),
    m("eval.cell_ms_p50", "ms", "lower"),
    m("eval.cell_ms_max", "ms", "lower"),
    m("eval.harvest_rows_per_s", "1/s", "higher"),
    m("eval.rank_ms", "ms", "lower"),
    m("serve.nn_ns_per_action", "ns", "lower"),
    m("serve.sym_ns_per_action", "ns", "lower"),
    m("serve.infer_share", "ratio", "lower"),
    m("serve.tick_p50_us", "us", "lower"),
    m("serve.tick_tail_us", "us", "lower"),
    m("serve.tick_tail_pct", "%", "higher"),
    m("serve.budget_miss_share", "ratio", "lower"),
    m("serve.sym_tick_p50_us", "us", "lower"),
    m("serve.sym_tick_tail_us", "us", "lower"),
    m("serve.nn_actions", "count", "lower"),
    m("serve.symbolic_actions", "count", "higher"),
    m("serve.audits", "count", "lower"),
    m("serve.escalations", "count", "lower"),
    m("serve.fallback_actions", "count", "lower"),
    m("serve.deferred", "count", "lower"),
    m("serve.fast_path_share", "ratio", "higher"),
    m("host.cpu_over_wall", "ratio", "higher"),
    m("host.cycle_cv", "ratio", "lower"),
    // Direct probes.
    m("netsim.event_ns", "ns", "lower"),
    m("netsim.enqueue_complete_ns", "ns", "lower"),
    m("transport.ns_per_pkt", "ns", "lower"),
    m("transport.lossy_ns_per_pkt", "ns", "lower"),
    m("transport.many_flow_ns_per_pkt", "ns", "lower"),
    m("heuristics.on_ack_ns", "ns", "lower"),
    m("heuristics.on_tick_ns", "ns", "lower"),
    m("gr.on_tick_ns", "ns", "lower"),
    m("nn.matmul_gflops.b512", "GFLOP/s", "higher"),
    m("nn.matmul_gflops.b1", "GFLOP/s", "higher"),
    m("nn.graph_fwd_bwd_us", "us", "lower"),
    m("nn.adam_step_us", "us", "lower"),
    m("core.step_infer_ns_per_row.b1", "ns", "lower"),
    m("core.step_infer_ns_per_row.b64", "ns", "lower"),
    m("core.step_infer_ns_per_row.b512", "ns", "lower"),
    m("core.policy_action_us", "us", "lower"),
    m("core.model_load_ms", "ms", "lower"),
    m("util.crc32_mb_per_s", "MB/s", "higher"),
    m("collector.pool_load_mb_per_s", "MB/s", "higher"),
    m("distill.predict_ns", "ns", "lower"),
    m("distill.fit_ms", "ms", "lower"),
    m("serve.admit_ns", "ns", "lower"),
    m("serve.evict_ns", "ns", "lower"),
    m("serve.wheel_ns_per_timer", "ns", "lower"),
    m("serve.max_flows_in_budget", "count", "higher"),
    m("obs.counter_inc_ns", "ns", "lower"),
    m("obs.hist_observe_ns", "ns", "lower"),
    m("obs.on_over_off", "ratio", "lower"),
    m("obs.recorder_over_off", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use sage_util::Json;

    fn field<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key).and_then(Json::as_str).unwrap_or("")
    }

    /// `BENCHMARK.json` at the repo root must describe exactly what this
    /// program reports: same workloads, same metrics in the same order,
    /// same units, directions, bounds and run length.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = crate::workloads::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let b = Json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| b.get(key).and_then(Json::as_arr).expect(key).to_vec();

        let workloads: Vec<String> = rows("workloads")
            .iter()
            .map(|w| field(w, "name").to_string())
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
        assert_eq!(
            b.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit);
            assert_eq!(field(row, "better"), m.better);
            assert_eq!(
                row.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));

        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit);
            assert_eq!(field(row, "better"), m.better);
        }
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "a metric name is used twice"
        );
    }
}
