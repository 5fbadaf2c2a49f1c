//! Shared `--trace-out` / `--trace-folded` plumbing for the binaries.
//!
//! `repro` and `benchgate record` accept the same two flags
//! and drain the flight recorder ([`obskit::trace`]) the same way, so the
//! lifecycle lives here once:
//!
//! 1. [`TraceOpts::arm`] before the workload — drains any residue and turns
//!    the recorder on, so the capture describes exactly this run.
//! 2. [`TraceOpts::finish`] after the workload — turns the recorder off,
//!    drains it, prints the ranked slowest-blocks anomaly table (measured
//!    block latency vs the per-path traffic-model prediction, flagged with
//!    the bench gate's `max(rel_tol·pred, k·MAD)` threshold shape), and
//!    writes the requested artifacts: Chrome Trace Event / Perfetto JSON
//!    for `--trace-out`, collapsed stacks plus a self-contained
//!    [`crate::flame`] SVG for `--trace-folded`.
//!
//! With neither flag given both calls are no-ops, so the binaries can call
//! them unconditionally.

use obskit::trace::{self, BlockAttr};

/// Anomaly-attribution relative tolerance (mirrors the bench gate default).
pub const REL_TOL: f64 = 0.30;
/// Anomaly-attribution MAD multiplier (mirrors the bench gate default).
pub const MAD_K: f64 = 4.0;
/// Rows shown in the slowest-blocks table.
pub const TOP_BLOCKS: usize = 15;

/// Where a run's flight-recorder capture should go.
#[derive(Clone, Debug, Default)]
pub struct TraceOpts {
    /// Chrome Trace Event / Perfetto JSON path (`--trace-out`).
    pub out: Option<String>,
    /// Collapsed-stack path (`--trace-folded`); a self-contained SVG
    /// flamegraph is also written next to it at `<path>.svg`.
    pub folded: Option<String>,
}

impl TraceOpts {
    /// Was any trace output requested?
    pub fn active(&self) -> bool {
        self.out.is_some() || self.folded.is_some()
    }

    /// Arm the flight recorder for the coming workload: drain residue from
    /// earlier activity in this process, then enable tracing. No-op when no
    /// output was requested (the `SKETCH_TRACE` env gate still applies then).
    pub fn arm(&self) {
        if self.active() {
            let _ = trace::take();
            trace::set_enabled(true);
        }
    }

    /// Drain the recorder, print the slowest-blocks anomaly table, and write
    /// the requested artifacts. No-op when no output was requested.
    pub fn finish(&self) -> std::io::Result<()> {
        if !self.active() {
            return Ok(());
        }
        trace::set_enabled(false);
        let cap = trace::take();
        let recs = cap.block_records();
        if recs.is_empty() {
            println!("trace: no kernel blocks captured");
        } else {
            let attrs = trace::attribute(&recs, REL_TOL, MAD_K);
            print_slowest_blocks(&attrs);
        }
        if cap.dropped > 0 {
            println!(
                "trace: {} events dropped (ring/store capacity; raise SKETCH_TRACE_CAP)",
                cap.dropped
            );
        }
        if let Some(path) = &self.out {
            std::fs::write(path, cap.chrome_json())?;
            println!(
                "trace: Perfetto/Chrome trace written to {path} ({} events) — load it at ui.perfetto.dev or chrome://tracing",
                cap.events.len()
            );
        }
        if let Some(path) = &self.folded {
            let folded = cap.folded();
            std::fs::write(path, folded.as_bytes())?;
            let svg = format!("{path}.svg");
            std::fs::write(
                &svg,
                crate::flame::folded_to_svg(&folded, "sketch flamegraph"),
            )?;
            println!("trace: folded stacks written to {path}, flamegraph to {svg}");
        }
        Ok(())
    }
}

/// Print the ranked slowest-blocks table: per block its measured duration,
/// the traffic-model prediction, and the anomaly verdict. Durations are in
/// µs (kernel blocks live in the µs–ms range).
pub fn print_slowest_blocks(attrs: &[BlockAttr]) {
    let shown = attrs.len().min(TOP_BLOCKS);
    let flagged = attrs.iter().filter(|a| a.flagged).count();
    let rows: Vec<Vec<String>> = attrs[..shown]
        .iter()
        .map(|a| {
            let r = &a.rec;
            vec![
                r.path.to_string(),
                format!("{}", r.i),
                format!("{}", r.j),
                format!("{}", r.nnz),
                format!("{:.1}", r.dur_ns as f64 / 1e3),
                format!("{:.1}", a.pred_ns / 1e3),
                if a.pred_ns > 0.0 {
                    format!("{:+.0}%", (r.dur_ns as f64 / a.pred_ns - 1.0) * 100.0)
                } else {
                    "-".to_string()
                },
                if a.flagged { "ANOMALY" } else { "ok" }.to_string(),
            ]
        })
        .collect();
    crate::print_table(
        &format!(
            "trace — slowest blocks ({shown} of {}, {flagged} anomalous)",
            attrs.len()
        ),
        &[
            "block",
            "i",
            "j",
            "nnz",
            "dur (µs)",
            "model (µs)",
            "Δ",
            "verdict",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use obskit::trace::{BlockRecord, TraceKind};

    #[test]
    fn inactive_opts_are_noops() {
        let opts = TraceOpts::default();
        assert!(!opts.active());
        opts.arm();
        assert!(!obskit::trace_enabled());
        opts.finish().unwrap();
    }

    #[test]
    fn print_slowest_blocks_does_not_panic() {
        let rec = BlockRecord {
            path: "sketch/alg3/block",
            tid: 1,
            ts_ns: 0,
            dur_ns: 1500,
            i: 0,
            j: 64,
            rows: 8,
            nnz: 120,
            bytes: 2048,
            cost: 3000,
        };
        print_slowest_blocks(&[
            BlockAttr {
                rec,
                pred_ns: 1000.0,
                threshold_ns: 300.0,
                flagged: true,
            },
            BlockAttr {
                rec,
                pred_ns: 0.0,
                threshold_ns: 0.0,
                flagged: false,
            },
        ]);
        print_slowest_blocks(&[]);
    }

    #[test]
    fn finish_writes_chrome_json_folded_and_svg() {
        let dir = std::env::temp_dir();
        let out = dir.join(format!("tracecli_{}.json", std::process::id()));
        let folded = dir.join(format!("tracecli_{}.folded", std::process::id()));
        let opts = TraceOpts {
            out: Some(out.to_str().unwrap().to_string()),
            folded: Some(folded.to_str().unwrap().to_string()),
        };
        opts.arm();
        assert!(obskit::trace_enabled());
        let t = obskit::trace::now_ns();
        obskit::trace::begin("run");
        obskit::trace::span_pair(
            "run/blk",
            t,
            t + 1000,
            TraceKind::BlockEnd,
            [0, 0, 8, 10, 100, 200],
        );
        obskit::trace::end("run");
        opts.finish().unwrap();
        assert!(!obskit::trace_enabled());

        let json = std::fs::read_to_string(&out).unwrap();
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count(),
            "unbalanced B/E in {json}"
        );
        assert!(json.contains("run/blk"));
        let folded_text = std::fs::read_to_string(&folded).unwrap();
        assert!(folded_text.contains("run"));
        let svg_path = format!("{}.svg", folded.to_str().unwrap());
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
        for p in [out.to_str().unwrap(), folded.to_str().unwrap(), &svg_path] {
            let _ = std::fs::remove_file(p);
        }
    }
}
