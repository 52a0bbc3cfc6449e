//! Profile explorer: the diagnosis workflow of §IV-B/Fig. 6, end to end.
//!
//! For one model/engine: print the compiled execution plan (which ops went
//! where), run it under tracing, render the Snapdragon-Profiler-style
//! utilization view, and attribute the latency onto the Fig. 1 taxonomy
//! tree.
//!
//! Run with: `cargo run --example profile_explorer`

use aitax::core::pipeline::E2eConfig;
use aitax::core::taxonomy::TaxonomyReport;
use aitax::des::SimSpan;
use aitax::framework::{Engine, Session};
use aitax::models::zoo::ModelId;
use aitax::profiler::ProfileReport;
use aitax::soc::{SocCatalog, SocId};
use aitax::tensor::DType;

#[expect(
    clippy::expect_used,
    reason = "EfficientNet-Lite0 int8 runs on every engine explored here, and the run is traced"
)]
fn explore(name: &str, engine: Engine) {
    println!("==================== {name} ====================\n");
    let soc = SocCatalog::get(SocId::Sd845);

    // 1. What did compilation decide? (Cached: re-running an engine
    // reuses the compiled plan.)
    let session =
        Session::compile_cached(engine, ModelId::EfficientNetLite0, DType::I8, SocId::Sd845)
            .expect("supported combo");
    print!("{}", session.plan().describe(session.graph()));

    // 2. Run it and profile the machine.
    let report = E2eConfig::new(ModelId::EfficientNetLite0, DType::I8)
        .engine(engine)
        .iterations(25)
        .seed(9)
        .tracing(true)
        .run();
    let trace = report.trace.as_ref().expect("tracing enabled");
    let profile = ProfileReport::from_trace(trace, SimSpan::from_ms(25.0));
    println!("\n{}", profile.render_ascii());

    // 3. Where did the time go, taxonomically?
    let tree = TaxonomyReport::from_report(&report, soc);
    println!("{}", tree.render());
}

fn main() {
    explore("TFLite CPU x4", Engine::tflite_cpu(4));
    explore(
        "TFLite Hexagon delegate",
        Engine::TfLiteHexagon { threads: 4 },
    );
    explore("NNAPI (driver fallback on SD845)", Engine::nnapi());
    println!("The NNAPI plan shows the trap directly: every partition reads");
    println!("`nnapi-reference-cpu (!)` — the driver accepted the model but");
    println!("cannot place per-channel weights on the DSP (§IV-B, Fig. 5).");
}
