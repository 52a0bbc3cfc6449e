//! Chrome `chrome://tracing` / Perfetto export of DES traces.
//!
//! Converts a [`TraceBuffer`] into the Trace Event JSON format: one
//! process per device, one thread per core/accelerator, complete ("X")
//! slices for execution intervals, instant events for RPC phases,
//! interrupts, scheduler activity and markers, and counter tracks for
//! DVFS clocks and cumulative AXI traffic. Load the file at
//! `chrome://tracing` (or ui.perfetto.dev) to inspect any figure's run
//! visually.
//!
//! The emitted JSON is canonical — events in deterministic order, fixed
//! float formatting — so exports golden-snapshot cleanly.

use std::collections::BTreeSet;

use aitax_core::artifact::{json_escape, json_rows};
use aitax_des::trace::{TraceKind, TraceResource};
use aitax_des::{SimTime, TraceBuffer};

/// Thread id a resource renders under (CPU cores first, then blocks).
fn tid(resource: TraceResource) -> u32 {
    match resource {
        TraceResource::CpuCore(i) => u32::from(i),
        TraceResource::Dsp => 64,
        TraceResource::Gpu => 65,
        TraceResource::Npu => 66,
        TraceResource::Axi => 67,
    }
}

/// Nanoseconds as microseconds at nanosecond precision (Chrome's `ts`
/// and `dur` are µs).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders `trace` as Chrome Trace Event JSON.
///
/// `process_name` labels the single process (pid 1) — conventionally the
/// SoC / scenario, e.g. `"sd845 · nnapi app"`.
pub fn chrome_trace(trace: &TraceBuffer, process_name: &str) -> String {
    let end = trace.last().map(|e| e.time).unwrap_or(SimTime::ZERO);

    let mut lines: Vec<String> = Vec::new();
    lines.push(format!(
        "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
        json_escape(process_name)
    ));

    // Name one thread per resource that appears, in tid order.
    let resources: BTreeSet<TraceResource> = trace.iter().map(|e| e.resource).collect();
    for r in &resources {
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{r}\"}}}}",
            t = tid(*r),
        ));
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{t}}}}}",
            t = tid(*r),
        ));
    }

    // Execution slices: every interval busy on a resource, dangling
    // starts closed at trace end (they are real utilization).
    for iv in trace.exec_intervals_until(end) {
        lines.push(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"exec\",\
             \"name\":\"{}\",\"args\":{{\"task\":{}}}}}",
            tid(iv.resource),
            us(iv.start.as_ns()),
            us(iv.end.since(iv.start).as_ns()),
            json_escape(trace.resolve(iv.label)),
            iv.task,
        ));
    }

    // Instants and counters, in trace emission order.
    let mut axi_total: u64 = 0;
    for ev in trace.iter() {
        let ts = us(ev.time.as_ns());
        let instant = |cat: &str, name: &str, args: &str| {
            format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"s\":\"t\",\"cat\":\"{cat}\",\
                 \"name\":\"{name}\"{args}}}",
                tid(ev.resource),
            )
        };
        let line = match &ev.kind {
            TraceKind::Rpc { phase } => instant("rpc", &phase.to_string(), ""),
            TraceKind::Irq { source } => instant(
                "irq",
                &format!("irq:{}", json_escape(trace.resolve(*source))),
                "",
            ),
            TraceKind::ContextSwitch => instant("sched", "context-switch", ""),
            TraceKind::Migration { task, from, to } => instant(
                "sched",
                "migration",
                &format!(",\"args\":{{\"task\":{task},\"from\":{from},\"to\":{to}}}"),
            ),
            TraceKind::Marker { label } => {
                instant("marker", &json_escape(trace.resolve(*label)), "")
            }
            TraceKind::Dvfs { core, freq_hz } => format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"name\":\"cpu{core}-freq\",\
                 \"args\":{{\"mhz\":{}}}}}",
                tid(TraceResource::CpuCore(*core)),
                freq_hz / 1_000_000,
            ),
            TraceKind::AxiBurst { bytes } => {
                axi_total += bytes;
                format!(
                    "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"name\":\"axi-bytes\",\
                     \"args\":{{\"total\":{axi_total}}}}}",
                    tid(TraceResource::Axi),
                )
            }
            TraceKind::ExecStart { .. } | TraceKind::ExecEnd { .. } => continue,
        };
        lines.push(line);
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    json_rows(&mut out, &lines, |out, line| out.push_str(line));
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitax_des::trace::TraceKind;

    fn sample_trace() -> TraceBuffer {
        let mut buf = TraceBuffer::enabled();
        let c0 = TraceResource::CpuCore(0);
        let preprocess = buf.intern("preprocess \"frame\"");
        buf.record(
            SimTime::from_ns(1_000),
            c0,
            TraceKind::ExecStart {
                task: 1,
                label: preprocess,
            },
        );
        buf.record(
            SimTime::from_ns(2_500),
            TraceResource::Axi,
            TraceKind::AxiBurst { bytes: 4096 },
        );
        buf.record(
            SimTime::from_ns(3_000),
            c0,
            TraceKind::Dvfs {
                core: 0,
                freq_hz: 1_766_000_000,
            },
        );
        buf.record(SimTime::from_ns(5_250), c0, TraceKind::ExecEnd { task: 1 });
        let dsp_kernel = buf.intern("dsp-kernel");
        buf.record(
            SimTime::from_ns(6_000),
            TraceResource::Dsp,
            TraceKind::ExecStart {
                task: 2,
                label: dsp_kernel,
            },
        );
        buf
    }

    #[test]
    fn trace_has_metadata_slices_and_counters() {
        let json = chrome_trace(&sample_trace(), "sd845 test");
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"cpu0\""));
        assert!(json.contains("\"name\":\"cdsp\""));
        // Slice with escaped label, µs timestamps at ns precision.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("preprocess \\\"frame\\\""));
        assert!(json.contains("\"ts\":1.000,\"dur\":4.250"));
        // Counters.
        assert!(json.contains("\"name\":\"cpu0-freq\""));
        assert!(json.contains("\"mhz\":1766"));
        assert!(json.contains("\"total\":4096"));
    }

    #[test]
    fn dangling_exec_start_closes_at_trace_end() {
        let json = chrome_trace(&sample_trace(), "t");
        // The dsp-kernel started at 6.000 µs with no end — the trace ends
        // there too, so it renders as a zero-length slice, not dropped.
        assert!(json.contains("\"name\":\"dsp-kernel\""));
        assert!(json.contains("\"ts\":6.000,\"dur\":0.000"));
    }

    #[test]
    fn empty_trace_is_valid_shell() {
        let json = chrome_trace(&TraceBuffer::enabled(), "empty");
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace(&sample_trace(), "x");
        let b = chrome_trace(&sample_trace(), "x");
        assert_eq!(a, b);
    }
}
