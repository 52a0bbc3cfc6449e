//! Quickstart: classify camera frames end-to-end and print the AI tax.
//!
//! MobileNet v1 runs inside a simulated Android app on a Pixel 3
//! (Snapdragon 845): each camera frame is captured, pre-processed,
//! classified via NNAPI and post-processed on the simulated phone, and
//! the resulting latency is decomposed stage by stage.
//!
//! Run with: `cargo run --example quickstart`

use aitax::core::pipeline::E2eConfig;
use aitax::core::report::fmt_ms;
use aitax::core::runmode::RunMode;
use aitax::core::stage::Stage;
use aitax::framework::Engine;
use aitax::models::zoo::ModelId;
use aitax::tensor::DType;

fn main() {
    let report = E2eConfig::new(ModelId::MobileNetV1, DType::I8)
        .engine(Engine::nnapi())
        .run_mode(RunMode::AndroidApp)
        .iterations(100)
        .seed(42)
        .run();

    println!("MobileNet v1 int8 via NNAPI inside an Android app (SD845):");
    for stage in Stage::ALL {
        println!(
            "  {:<16} {:>8} ms",
            stage.to_string(),
            fmt_ms(report.summary(stage).mean_ms())
        );
    }
    println!(
        "  {:<16} {:>8} ms",
        "end-to-end",
        fmt_ms(report.e2e_summary().mean_ms())
    );
    println!(
        "\nAI tax: {:.0}% of end-to-end latency is NOT model execution.",
        report.ai_tax_fraction() * 100.0
    );
}
